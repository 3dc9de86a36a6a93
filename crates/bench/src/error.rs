//! The harness-wide error type.
//!
//! Every fallible surface of the harness — environment parsing
//! ([`RunSpec::from_env`](crate::RunSpec::from_env)), experiment lookup
//! ([`crate::experiments::lookup`]), result-document writing
//! ([`crate::results::write_out_dir`]), and golden checking — funnels
//! into one [`Error`] enum, so binary frontends need exactly one
//! error-printing path instead of ad-hoc `String` plumbing per call
//! site.

use crate::golden::GoldenError;
use crate::RunSpecError;
use std::fmt;
use std::io;
use std::path::PathBuf;

/// Any failure the experiment harness can report.
#[derive(Debug)]
pub enum Error {
    /// The environment's run-spec variables are malformed.
    Spec(RunSpecError),
    /// A name on the command line matches no registered experiment.
    UnknownExperiment(String),
    /// An I/O operation failed; `what` says which one, in user terms
    /// (e.g. `"writing results/table1.json"`).
    Io {
        /// What the harness was doing.
        what: String,
        /// The underlying failure.
        source: io::Error,
    },
    /// A golden-snapshot check failed for one experiment.
    Golden {
        /// The experiment whose golden mismatched.
        experiment: String,
        /// Why (missing golden, schema drift, or the mismatch list).
        source: GoldenError,
    },
    /// The perf harness measured throughput below the tolerated floor.
    PerfRegression {
        /// Suite-wide simulated MIPS this run measured.
        measured_mips: f64,
        /// Suite-wide simulated MIPS the committed baseline records.
        baseline_mips: f64,
        /// Relative loss tolerated before failing (e.g. `0.30`).
        tolerance: f64,
    },
    /// The differential fuzzer found a divergence between the optimized
    /// pipeline and the reference models.
    FuzzDivergence {
        /// Zero-based index of the diverging case within the campaign.
        case: u64,
        /// Commits checked before the minimized case diverged.
        commits: u64,
        /// What disagreed.
        what: String,
        /// Where the minimized replayable repro was written.
        repro: PathBuf,
    },
    /// The command line itself is invalid (unknown flag, missing value).
    Usage(String),
}

impl Error {
    /// Wraps an I/O failure with a description of the attempted
    /// operation.
    pub fn io(what: impl Into<String>, source: io::Error) -> Self {
        Error::Io {
            what: what.into(),
            source,
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Spec(e) => write!(f, "{e}"),
            Error::UnknownExperiment(name) => {
                write!(f, "unknown experiment {name:?} (try --list)")
            }
            Error::Io { what, source } => write!(f, "{what}: {source}"),
            Error::Golden { experiment, source } => write!(f, "{experiment}: {source}"),
            Error::PerfRegression {
                measured_mips,
                baseline_mips,
                tolerance,
            } => write!(
                f,
                "simulated MIPS regressed: measured {measured_mips:.3} < \
                 {:.3} ({:.0}% below baseline {baseline_mips:.3})",
                baseline_mips * (1.0 - tolerance),
                tolerance * 100.0,
            ),
            Error::FuzzDivergence {
                case,
                commits,
                what,
                repro,
            } => write!(
                f,
                "differential fuzz case {case} diverged after {commits} commits: \
                 {what} (repro: {})",
                repro.display(),
            ),
            Error::Usage(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Spec(e) => Some(e),
            Error::Io { source, .. } => Some(source),
            Error::Golden { source, .. } => Some(source),
            Error::UnknownExperiment(_)
            | Error::PerfRegression { .. }
            | Error::FuzzDivergence { .. }
            | Error::Usage(_) => None,
        }
    }
}

impl From<RunSpecError> for Error {
    fn from(e: RunSpecError) -> Self {
        Error::Spec(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error as _;

    #[test]
    fn display_names_the_operation() {
        let e = Error::io(
            "writing out/table1.json",
            io::Error::new(io::ErrorKind::PermissionDenied, "denied"),
        );
        let msg = e.to_string();
        assert!(msg.contains("writing out/table1.json"), "{msg}");
        assert!(e.source().is_some());
    }

    #[test]
    fn unknown_experiment_suggests_list() {
        let e = Error::UnknownExperiment("tabel1".into());
        assert!(e.to_string().contains("--list"));
        assert!(e.source().is_none());
    }

    #[test]
    fn spec_errors_convert() {
        let e: Error = RunSpecError::UnknownMode("warp".into()).into();
        assert!(e.to_string().contains("warp"));
        assert!(e.source().is_some());
    }

    #[test]
    fn golden_display_names_the_experiment() {
        let e = Error::Golden {
            experiment: "table1".into(),
            source: GoldenError::Missing("goldens/table1.json".into()),
        };
        let msg = e.to_string();
        assert!(msg.starts_with("table1:"), "{msg}");
        assert!(e.source().is_some());
    }

    #[test]
    fn perf_regression_display_shows_floor_and_baseline() {
        let e = Error::PerfRegression {
            measured_mips: 1.0,
            baseline_mips: 2.0,
            tolerance: 0.30,
        };
        let msg = e.to_string();
        assert!(msg.contains("measured 1.000"), "{msg}");
        assert!(msg.contains("1.400"), "{msg}"); // 2.0 * (1 - 0.30)
        assert!(msg.contains("baseline 2.000"), "{msg}");
        assert!(msg.contains("30%"), "{msg}");
        assert!(e.source().is_none());
    }

    #[test]
    fn fuzz_divergence_display_points_at_the_repro() {
        let e = Error::FuzzDivergence {
            case: 17,
            commits: 412,
            what: "return prediction diverged".into(),
            repro: PathBuf::from("out/fuzz_repro.json"),
        };
        let msg = e.to_string();
        assert!(msg.contains("case 17"), "{msg}");
        assert!(msg.contains("412 commits"), "{msg}");
        assert!(msg.contains("return prediction diverged"), "{msg}");
        assert!(msg.contains("out/fuzz_repro.json"), "{msg}");
        assert!(e.source().is_none());
    }

    #[test]
    fn usage_display_is_verbatim() {
        let e = Error::Usage("--cases needs a value".into());
        assert_eq!(e.to_string(), "--cases needs a value");
        assert!(e.source().is_none());
    }
}
