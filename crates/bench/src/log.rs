//! A minimal leveled stderr logger shared by the simulator binaries.
//!
//! Experiment stdout is byte-compared against goldens, so *everything*
//! informational must go to stderr; this logger enforces that by
//! construction. Levels are deliberately few: `-q` silences progress
//! chatter, `-v` adds detail, and errors always print. Independent of
//! `--trace` — logging is for humans, tracing is for tools.

use std::fmt;
use std::sync::atomic::{AtomicU8, Ordering};

/// Verbosity, lowest to highest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Errors only (`-q`).
    Quiet = 0,
    /// Normal progress output (default).
    Info = 1,
    /// Extra detail (`-v`).
    Verbose = 2,
}

static LEVEL: AtomicU8 = AtomicU8::new(Level::Info as u8);

/// Sets the process-wide verbosity.
pub fn set_level(level: Level) {
    LEVEL.store(level as u8, Ordering::Relaxed);
}

/// The current process-wide verbosity.
pub fn level() -> Level {
    match LEVEL.load(Ordering::Relaxed) {
        0 => Level::Quiet,
        1 => Level::Info,
        _ => Level::Verbose,
    }
}

/// Whether a message at `at` would currently print. Messages carry the
/// minimum level that still shows them, so `Quiet`-level messages
/// (errors) always print.
pub fn enabled(at: Level) -> bool {
    at <= level()
}

/// Writes one line to stderr if `at` is enabled. Called via the
/// [`crate::info!`] / [`crate::verbose!`] / [`crate::error!`] macros.
pub fn log_at(at: Level, args: fmt::Arguments<'_>) {
    if enabled(at) {
        eprintln!("{args}");
    }
}

/// Logs at normal verbosity (hidden by `-q`).
#[macro_export]
macro_rules! info {
    ($($arg:tt)*) => {
        $crate::log::log_at($crate::log::Level::Info, format_args!($($arg)*))
    };
}

/// Logs extra detail (shown only with `-v`).
#[macro_export]
macro_rules! verbose {
    ($($arg:tt)*) => {
        $crate::log::log_at($crate::log::Level::Verbose, format_args!($($arg)*))
    };
}

/// Logs an error (never silenced).
#[macro_export]
macro_rules! error {
    ($($arg:tt)*) => {
        $crate::log::log_at($crate::log::Level::Quiet, format_args!($($arg)*))
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_gating() {
        // Default: info prints, verbose doesn't, errors always do.
        set_level(Level::Info);
        assert!(enabled(Level::Info));
        assert!(!enabled(Level::Verbose));
        assert!(enabled(Level::Quiet));

        set_level(Level::Quiet);
        assert!(!enabled(Level::Info));
        assert!(enabled(Level::Quiet));

        set_level(Level::Verbose);
        assert!(enabled(Level::Verbose));
        set_level(Level::Info);
    }
}
