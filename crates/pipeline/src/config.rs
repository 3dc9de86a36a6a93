//! Core configuration.

use hydra_bpred::{BtbConfig, ConfidenceConfig, HybridConfig};
use hydra_mem::{CacheConfig, HierarchyConfig};
use ras_core::{MultipathStackPolicy, RepairPolicy};
use std::fmt;

/// A structural problem in a [`CoreConfig`], reported by
/// [`CoreConfig::check`] and [`CoreConfigBuilder::try_build`].
///
/// [`CoreConfig::validate`] panics with the same message, so callers that
/// want a typed error instead of a panic use `check`/`try_build`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ConfigError {
    /// A per-cycle width (fetch/dispatch/issue/commit) is zero.
    ZeroWidth {
        /// Which width: `"fetch"`, `"dispatch"`, `"issue"` or `"commit"`.
        stage: &'static str,
    },
    /// The register update unit has zero entries.
    EmptyRuu,
    /// The load/store queue has zero entries.
    EmptyLsq,
    /// The fetch queue has zero entries.
    EmptyFetchQueue,
    /// The return-address stack has zero entries.
    EmptyRas,
    /// A multipath configuration with fewer than two path contexts.
    TooFewPaths {
        /// The offending `max_paths` value.
        max_paths: usize,
    },
    /// A cache's set count is zero or not a power of two.
    CacheSets {
        /// Which cache: `"L1I"`, `"L1D"` or `"L2"`.
        cache: &'static str,
        /// The offending set count.
        sets: usize,
    },
    /// A cache's associativity is zero or exceeds its set count.
    CacheWays {
        /// Which cache: `"L1I"`, `"L1D"` or `"L2"`.
        cache: &'static str,
        /// The offending associativity.
        ways: usize,
        /// The cache's set count.
        sets: usize,
    },
    /// A cache's line size is zero or not a power of two.
    CacheLine {
        /// Which cache: `"L1I"`, `"L1D"` or `"L2"`.
        cache: &'static str,
        /// The offending words-per-line value.
        line_words: u64,
    },
    /// A core with zero hardware threads.
    ZeroHarts,
    /// A [`RasSharing::Tagged`] tag field that cannot address the
    /// configured hart count, or exceeds the hart-id width itself.
    TagBits {
        /// The offending tag width in bits.
        tag_bits: u8,
        /// The configured hart count the tags must distinguish.
        harts: u8,
    },
    /// Multipath forking combined with more than one hart. The two
    /// contention mechanisms key the RAS unit on the same axis, so the
    /// simulator supports one at a time.
    HartsWithMultipath {
        /// The configured hart count.
        harts: u8,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroWidth { stage } => write!(f, "{stage} width must be > 0"),
            ConfigError::EmptyRuu => write!(f, "RUU must be non-empty"),
            ConfigError::EmptyLsq => write!(f, "LSQ must be non-empty"),
            ConfigError::EmptyFetchQueue => write!(f, "fetch queue must be non-empty"),
            ConfigError::EmptyRas => write!(f, "RAS must have at least one entry"),
            ConfigError::TooFewPaths { max_paths } => {
                write!(f, "multipath needs at least two paths (got {max_paths})")
            }
            ConfigError::CacheSets { cache, sets } => {
                write!(
                    f,
                    "{cache} sets must be a nonzero power of two (got {sets})"
                )
            }
            ConfigError::CacheWays { cache, ways, sets } => {
                write!(
                    f,
                    "{cache} ways must be between 1 and the set count {sets} (got {ways})"
                )
            }
            ConfigError::CacheLine { cache, line_words } => {
                write!(
                    f,
                    "{cache} line words must be a nonzero power of two (got {line_words})"
                )
            }
            ConfigError::ZeroHarts => write!(f, "a core needs at least one hart"),
            ConfigError::TagBits { tag_bits, harts } => {
                write!(
                    f,
                    "tagged RAS needs 1..=8 tag bits covering all {harts} hart(s) \
                     (got {tag_bits})"
                )
            }
            ConfigError::HartsWithMultipath { harts } => {
                write!(
                    f,
                    "multipath execution requires a single hart (got {harts})"
                )
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// How the front end predicts procedure-return targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReturnPredictor {
    /// A return-address stack with the given repair policy (the paper's
    /// subject). Returns do not occupy BTB entries.
    Ras {
        /// Stack capacity in entries.
        entries: usize,
        /// Repair mechanism applied on mispredictions.
        repair: RepairPolicy,
    },
    /// The Jourdan-et-al. self-checkpointing stack: popped entries are
    /// preserved and linked, so a saved TOS pointer repairs everything
    /// that has not been recycled (the paper's closest related work; it
    /// trades extra stack entries for one-word checkpoints).
    SelfCheckpointing {
        /// Stack capacity in entries (the mechanism wants more than a
        /// conventional stack of equal architectural depth).
        entries: usize,
    },
    /// No stack: returns are predicted from the BTB like any other
    /// indirect jump (the paper's Table-4 configuration).
    BtbOnly,
    /// An oracle that always knows the return target; the upper bound.
    Perfect,
}

impl ReturnPredictor {
    /// The paper's baseline: a 32-entry stack with TOS-pointer+contents
    /// repair.
    pub fn baseline() -> Self {
        ReturnPredictor::Ras {
            entries: 32,
            repair: RepairPolicy::TosPointerAndContents,
        }
    }
}

/// How simultaneous hardware threads (harts) share the return-address
/// stack — the SMT/multi-core generalization of the paper's multipath
/// contention question.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub enum RasSharing {
    /// One stack, no hart discrimination: sibling harts push and pop
    /// through each other's return chains (the ret2spec scenario).
    #[default]
    Shared,
    /// The stack's capacity is split evenly into per-hart regions; a
    /// hart can only corrupt its own slice.
    Partitioned,
    /// Entries carry a hart tag of `tag_bits` bits, so each hart sees
    /// only its own entries at full capacity (an idealized tagged
    /// stack: tags never alias while the tag field can address every
    /// hart, which validation enforces).
    Tagged {
        /// Width of the per-entry hart tag, in bits.
        tag_bits: u8,
    },
}

impl RasSharing {
    /// Short name used in experiment tables and result documents.
    pub fn short_name(&self) -> &'static str {
        match self {
            RasSharing::Shared => "shared",
            RasSharing::Partitioned => "partitioned",
            RasSharing::Tagged { .. } => "tagged",
        }
    }
}

/// Multipath (eager) execution configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MultipathConfig {
    /// Maximum simultaneously live paths (the paper evaluates 2 and 4).
    pub max_paths: usize,
    /// Return-address-stack organization across paths.
    pub stack_policy: MultipathStackPolicy,
}

/// Functional-unit latencies in cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FuLatencies {
    /// Simple integer ALU operations.
    pub alu: u64,
    /// Integer multiply.
    pub mul: u64,
    /// Integer divide.
    pub div: u64,
    /// Branch/jump resolution.
    pub branch: u64,
    /// Address generation for loads/stores (cache latency is added on
    /// top for loads).
    pub agen: u64,
}

impl Default for FuLatencies {
    fn default() -> Self {
        FuLatencies {
            alu: 1,
            mul: 7,
            div: 20,
            branch: 1,
            agen: 1,
        }
    }
}

/// Full machine configuration — the reproduction of the paper's Table 1
/// baseline (loosely an Alpha 21264): 4-wide, 64-entry RUU, 32-entry LSQ,
/// McFarling hybrid predictor, decoupled BTB, 32-entry RAS with
/// TOS-pointer+contents repair, split L1 caches with unified L2.
///
/// The struct is `#[non_exhaustive]`: outside this crate it is
/// constructed through [`CoreConfig::builder`] (or the named
/// constructors), never by struct literal, so new machine parameters can
/// be added without breaking downstream code.
#[non_exhaustive]
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoreConfig {
    /// Instructions fetched per cycle (per fetch block).
    pub fetch_width: usize,
    /// Instructions dispatched into the RUU per cycle.
    pub dispatch_width: usize,
    /// Instructions issued to functional units per cycle.
    pub issue_width: usize,
    /// Instructions committed per cycle.
    pub commit_width: usize,
    /// Register-update-unit (unified active list / issue queue) entries.
    pub ruu_size: usize,
    /// Load-store-queue entries.
    pub lsq_size: usize,
    /// Fetch-queue entries between fetch and dispatch.
    pub fetch_queue: usize,
    /// Front-end depth: cycles between fetch and earliest dispatch
    /// (drives the minimum misprediction penalty).
    pub decode_latency: u64,
    /// Return-target prediction scheme.
    pub return_predictor: ReturnPredictor,
    /// Shadow-storage capacity for in-flight branch checkpoints;
    /// `None` = unlimited. (The paper cites 4 on the R10000, 20 on the
    /// 21264.) When the budget is exhausted a predicted branch is
    /// speculated *without* a checkpoint, so it cannot repair the RAS.
    pub checkpoint_budget: Option<usize>,
    /// Direction-predictor geometry.
    pub hybrid: HybridConfig,
    /// BTB geometry.
    pub btb: BtbConfig,
    /// Confidence-estimator geometry (used when forking).
    pub confidence: ConfidenceConfig,
    /// Memory hierarchy.
    pub mem: HierarchyConfig,
    /// Functional-unit latencies.
    pub latencies: FuLatencies,
    /// Multipath execution; `None` = conventional single-path.
    pub multipath: Option<MultipathConfig>,
    /// Hardware threads (harts) sharing this core's RAS under
    /// [`CoreConfig::ras_sharing`]. `1` = the paper's single-stream
    /// machine. Mutually exclusive with multipath.
    pub harts: u8,
    /// How harts share the return-address stack; irrelevant at one hart.
    pub ras_sharing: RasSharing,
}

impl Default for CoreConfig {
    fn default() -> Self {
        CoreConfig {
            fetch_width: 4,
            dispatch_width: 4,
            issue_width: 4,
            commit_width: 4,
            ruu_size: 64,
            lsq_size: 32,
            fetch_queue: 16,
            decode_latency: 3,
            return_predictor: ReturnPredictor::baseline(),
            checkpoint_budget: None,
            hybrid: HybridConfig::default(),
            btb: BtbConfig::default(),
            confidence: ConfidenceConfig::default(),
            mem: HierarchyConfig::default(),
            latencies: FuLatencies::default(),
            multipath: None,
            harts: 1,
            ras_sharing: RasSharing::Shared,
        }
    }
}

impl CoreConfig {
    /// The paper's baseline single-path machine.
    pub fn baseline() -> Self {
        CoreConfig::default()
    }

    /// The baseline with a different return predictor — the knob every
    /// single-path experiment turns.
    pub fn with_return_predictor(return_predictor: ReturnPredictor) -> Self {
        CoreConfig {
            return_predictor,
            ..CoreConfig::default()
        }
    }

    /// A multipath machine with `max_paths` contexts and the given stack
    /// organization.
    pub fn multipath(max_paths: usize, stack_policy: MultipathStackPolicy) -> Self {
        CoreConfig {
            multipath: Some(MultipathConfig {
                max_paths,
                stack_policy,
            }),
            ..CoreConfig::default()
        }
    }

    /// An SMT machine: `harts` hardware threads on the baseline core,
    /// sharing the return-address stack under `ras_sharing`.
    pub fn smt(harts: u8, ras_sharing: RasSharing) -> Self {
        CoreConfig {
            harts,
            ras_sharing,
            ..CoreConfig::default()
        }
    }

    /// A builder seeded with the [`CoreConfig::baseline`] parameters —
    /// the construction path for any machine the named constructors do
    /// not cover.
    pub fn builder() -> CoreConfigBuilder {
        CoreConfigBuilder {
            config: CoreConfig::default(),
        }
    }

    /// Validates structural parameters.
    ///
    /// # Panics
    ///
    /// Panics on the first problem [`CoreConfig::check`] reports:
    /// zero-sized structures, a multipath configuration with fewer than
    /// two paths, or broken cache geometry.
    pub fn validate(&self) {
        if let Err(e) = self.check() {
            panic!("{e}");
        }
    }

    /// Checks structural parameters, returning the first problem found
    /// as a typed [`ConfigError`] instead of panicking.
    pub fn check(&self) -> Result<(), ConfigError> {
        for (stage, width) in [
            ("fetch", self.fetch_width),
            ("dispatch", self.dispatch_width),
            ("issue", self.issue_width),
            ("commit", self.commit_width),
        ] {
            if width == 0 {
                return Err(ConfigError::ZeroWidth { stage });
            }
        }
        if self.ruu_size == 0 {
            return Err(ConfigError::EmptyRuu);
        }
        if self.lsq_size == 0 {
            return Err(ConfigError::EmptyLsq);
        }
        if self.fetch_queue == 0 {
            return Err(ConfigError::EmptyFetchQueue);
        }
        match self.return_predictor {
            ReturnPredictor::Ras { entries: 0, .. }
            | ReturnPredictor::SelfCheckpointing { entries: 0 } => {
                return Err(ConfigError::EmptyRas);
            }
            _ => {}
        }
        if let Some(mp) = &self.multipath {
            if mp.max_paths < 2 {
                return Err(ConfigError::TooFewPaths {
                    max_paths: mp.max_paths,
                });
            }
        }
        if self.harts == 0 {
            return Err(ConfigError::ZeroHarts);
        }
        if self.harts > 1 && self.multipath.is_some() {
            return Err(ConfigError::HartsWithMultipath { harts: self.harts });
        }
        if let RasSharing::Tagged { tag_bits } = self.ras_sharing {
            let addressable = if tag_bits >= 8 { 256 } else { 1u32 << tag_bits };
            if tag_bits == 0 || tag_bits > 8 || u32::from(self.harts) > addressable {
                return Err(ConfigError::TagBits {
                    tag_bits,
                    harts: self.harts,
                });
            }
        }
        for (cache, geom) in [
            ("L1I", &self.mem.l1i),
            ("L1D", &self.mem.l1d),
            ("L2", &self.mem.l2),
        ] {
            check_cache(cache, geom)?;
        }
        Ok(())
    }
}

fn check_cache(cache: &'static str, geom: &CacheConfig) -> Result<(), ConfigError> {
    if geom.sets == 0 || !geom.sets.is_power_of_two() {
        return Err(ConfigError::CacheSets {
            cache,
            sets: geom.sets,
        });
    }
    if geom.ways == 0 || geom.ways > geom.sets {
        return Err(ConfigError::CacheWays {
            cache,
            ways: geom.ways,
            sets: geom.sets,
        });
    }
    if geom.line_words == 0 || !geom.line_words.is_power_of_two() {
        return Err(ConfigError::CacheLine {
            cache,
            line_words: geom.line_words,
        });
    }
    Ok(())
}

/// Builds a [`CoreConfig`] field by field, starting from the paper's
/// baseline; see [`CoreConfig::builder`].
///
/// ```
/// use hydra_pipeline::{CoreConfig, ReturnPredictor};
///
/// let cfg = CoreConfig::builder()
///     .ruu_size(32)
///     .return_predictor(ReturnPredictor::BtbOnly)
///     .build();
/// assert_eq!(cfg.ruu_size, 32);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct CoreConfigBuilder {
    config: CoreConfig,
}

impl CoreConfigBuilder {
    /// Instructions fetched per cycle.
    pub fn fetch_width(mut self, n: usize) -> Self {
        self.config.fetch_width = n;
        self
    }

    /// Instructions dispatched into the RUU per cycle.
    pub fn dispatch_width(mut self, n: usize) -> Self {
        self.config.dispatch_width = n;
        self
    }

    /// Instructions issued to functional units per cycle.
    pub fn issue_width(mut self, n: usize) -> Self {
        self.config.issue_width = n;
        self
    }

    /// Instructions committed per cycle.
    pub fn commit_width(mut self, n: usize) -> Self {
        self.config.commit_width = n;
        self
    }

    /// Register-update-unit entries.
    pub fn ruu_size(mut self, n: usize) -> Self {
        self.config.ruu_size = n;
        self
    }

    /// Load-store-queue entries.
    pub fn lsq_size(mut self, n: usize) -> Self {
        self.config.lsq_size = n;
        self
    }

    /// Fetch-queue entries between fetch and dispatch.
    pub fn fetch_queue(mut self, n: usize) -> Self {
        self.config.fetch_queue = n;
        self
    }

    /// Front-end depth in cycles.
    pub fn decode_latency(mut self, cycles: u64) -> Self {
        self.config.decode_latency = cycles;
        self
    }

    /// Return-target prediction scheme.
    pub fn return_predictor(mut self, p: ReturnPredictor) -> Self {
        self.config.return_predictor = p;
        self
    }

    /// Shadow-storage capacity for in-flight checkpoints (`None` =
    /// unlimited).
    pub fn checkpoint_budget(mut self, budget: Option<usize>) -> Self {
        self.config.checkpoint_budget = budget;
        self
    }

    /// Direction-predictor geometry.
    pub fn hybrid(mut self, hybrid: HybridConfig) -> Self {
        self.config.hybrid = hybrid;
        self
    }

    /// BTB geometry.
    pub fn btb(mut self, btb: BtbConfig) -> Self {
        self.config.btb = btb;
        self
    }

    /// Confidence-estimator geometry.
    pub fn confidence(mut self, confidence: ConfidenceConfig) -> Self {
        self.config.confidence = confidence;
        self
    }

    /// Memory hierarchy.
    pub fn mem(mut self, mem: HierarchyConfig) -> Self {
        self.config.mem = mem;
        self
    }

    /// Functional-unit latencies.
    pub fn latencies(mut self, latencies: FuLatencies) -> Self {
        self.config.latencies = latencies;
        self
    }

    /// Multipath execution (`None` = conventional single-path).
    pub fn multipath(mut self, multipath: Option<MultipathConfig>) -> Self {
        self.config.multipath = multipath;
        self
    }

    /// Hardware threads (harts) on this core; validation rejects zero.
    pub fn harts(mut self, harts: u8) -> Self {
        self.config.harts = harts;
        self
    }

    /// How harts share the return-address stack.
    pub fn ras_sharing(mut self, sharing: RasSharing) -> Self {
        self.config.ras_sharing = sharing;
        self
    }

    /// Finishes the configuration **without** validating it — callers
    /// that want early structural checks use [`CoreConfigBuilder::try_build`]
    /// or [`CoreConfig::validate`]; `Core::new` validates regardless.
    pub fn build(self) -> CoreConfig {
        self.config
    }

    /// Finishes the configuration, rejecting structurally invalid
    /// machines with a typed [`ConfigError`] instead of panicking.
    ///
    /// ```
    /// use hydra_pipeline::{ConfigError, CoreConfig};
    ///
    /// let err = CoreConfig::builder().ruu_size(0).try_build().unwrap_err();
    /// assert_eq!(err, ConfigError::EmptyRuu);
    /// ```
    pub fn try_build(self) -> Result<CoreConfig, ConfigError> {
        self.config.check()?;
        Ok(self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_matches_paper_table1() {
        let c = CoreConfig::baseline();
        assert_eq!(c.fetch_width, 4);
        assert_eq!(c.ruu_size, 64);
        assert_eq!(c.lsq_size, 32);
        assert_eq!(
            c.return_predictor,
            ReturnPredictor::Ras {
                entries: 32,
                repair: RepairPolicy::TosPointerAndContents
            }
        );
        c.validate();
    }

    #[test]
    fn constructors_set_fields() {
        let c = CoreConfig::with_return_predictor(ReturnPredictor::BtbOnly);
        assert_eq!(c.return_predictor, ReturnPredictor::BtbOnly);
        let c = CoreConfig::multipath(2, MultipathStackPolicy::PerPath);
        assert_eq!(c.multipath.unwrap().max_paths, 2);
        c.validate();
    }

    #[test]
    fn builder_sets_every_structural_field() {
        let cfg = CoreConfig::builder()
            .fetch_width(2)
            .dispatch_width(2)
            .issue_width(2)
            .commit_width(2)
            .ruu_size(8)
            .lsq_size(4)
            .fetch_queue(4)
            .decode_latency(5)
            .return_predictor(ReturnPredictor::Perfect)
            .checkpoint_budget(Some(4))
            .multipath(Some(MultipathConfig {
                max_paths: 2,
                stack_policy: MultipathStackPolicy::PerPath,
            }))
            .build();
        assert_eq!(cfg.fetch_width, 2);
        assert_eq!(cfg.ruu_size, 8);
        assert_eq!(cfg.lsq_size, 4);
        assert_eq!(cfg.fetch_queue, 4);
        assert_eq!(cfg.decode_latency, 5);
        assert_eq!(cfg.return_predictor, ReturnPredictor::Perfect);
        assert_eq!(cfg.checkpoint_budget, Some(4));
        assert_eq!(cfg.multipath.unwrap().max_paths, 2);
        cfg.validate();
        // Untouched fields keep the baseline values.
        assert_eq!(CoreConfig::builder().build(), CoreConfig::baseline());
    }

    #[test]
    #[should_panic(expected = "at least two paths")]
    fn single_path_multipath_rejected() {
        CoreConfig::multipath(1, MultipathStackPolicy::PerPath).validate();
    }

    #[test]
    #[should_panic(expected = "RUU must be non-empty")]
    fn zero_ruu_rejected() {
        let c = CoreConfig {
            ruu_size: 0,
            ..CoreConfig::default()
        };
        c.validate();
    }

    #[test]
    fn try_build_rejects_zero_ruu() {
        let err = CoreConfig::builder().ruu_size(0).try_build().unwrap_err();
        assert_eq!(err, ConfigError::EmptyRuu);
        assert_eq!(err.to_string(), "RUU must be non-empty");
    }

    #[test]
    fn try_build_rejects_depth_zero_ras() {
        let err = CoreConfig::builder()
            .return_predictor(ReturnPredictor::Ras {
                entries: 0,
                repair: RepairPolicy::TosPointer,
            })
            .try_build()
            .unwrap_err();
        assert_eq!(err, ConfigError::EmptyRas);
        assert!(err.to_string().contains("at least one entry"));
    }

    #[test]
    fn try_build_rejects_ways_exceeding_sets() {
        let mut mem = HierarchyConfig::default();
        mem.l1d.sets = 4;
        mem.l1d.ways = 8;
        let err = CoreConfig::builder().mem(mem).try_build().unwrap_err();
        assert_eq!(
            err,
            ConfigError::CacheWays {
                cache: "L1D",
                ways: 8,
                sets: 4
            }
        );
        assert!(err.to_string().contains("L1D"));
    }

    #[test]
    fn try_build_rejects_non_power_of_two_cache_geometry() {
        let mut mem = HierarchyConfig::default();
        mem.l2.sets = 100;
        let err = CoreConfig::builder().mem(mem).try_build().unwrap_err();
        assert_eq!(
            err,
            ConfigError::CacheSets {
                cache: "L2",
                sets: 100
            }
        );

        let mut mem = HierarchyConfig::default();
        mem.l1i.line_words = 3;
        let err = CoreConfig::builder().mem(mem).try_build().unwrap_err();
        assert_eq!(
            err,
            ConfigError::CacheLine {
                cache: "L1I",
                line_words: 3
            }
        );
    }

    #[test]
    fn try_build_reports_zero_widths_and_empty_queues() {
        let err = CoreConfig::builder()
            .fetch_width(0)
            .try_build()
            .unwrap_err();
        assert_eq!(err, ConfigError::ZeroWidth { stage: "fetch" });
        assert_eq!(err.to_string(), "fetch width must be > 0");
        let err = CoreConfig::builder().lsq_size(0).try_build().unwrap_err();
        assert_eq!(err, ConfigError::EmptyLsq);
        let err = CoreConfig::builder()
            .fetch_queue(0)
            .try_build()
            .unwrap_err();
        assert_eq!(err, ConfigError::EmptyFetchQueue);
        let err = CoreConfig::builder()
            .multipath(Some(MultipathConfig {
                max_paths: 1,
                stack_policy: MultipathStackPolicy::Unified {
                    repair: ras_core::RepairPolicy::TosPointerAndContents,
                },
            }))
            .try_build()
            .unwrap_err();
        assert_eq!(err, ConfigError::TooFewPaths { max_paths: 1 });
        assert!(err.to_string().contains("at least two paths"));
    }

    #[test]
    fn try_build_accepts_the_baseline() {
        let cfg = CoreConfig::builder().try_build().unwrap();
        assert_eq!(cfg, CoreConfig::baseline());
    }

    #[test]
    fn baseline_is_single_hart_shared() {
        let c = CoreConfig::baseline();
        assert_eq!(c.harts, 1);
        assert_eq!(c.ras_sharing, RasSharing::Shared);
    }

    #[test]
    fn builder_sets_harts_and_sharing() {
        let cfg = CoreConfig::builder()
            .harts(2)
            .ras_sharing(RasSharing::Partitioned)
            .try_build()
            .unwrap();
        assert_eq!(cfg.harts, 2);
        assert_eq!(cfg.ras_sharing, RasSharing::Partitioned);
        assert_eq!(cfg, CoreConfig::smt(2, RasSharing::Partitioned));
    }

    #[test]
    fn try_build_rejects_zero_harts() {
        let err = CoreConfig::builder().harts(0).try_build().unwrap_err();
        assert_eq!(err, ConfigError::ZeroHarts);
        assert_eq!(err.to_string(), "a core needs at least one hart");
    }

    #[test]
    fn try_build_rejects_undersized_and_oversized_tags() {
        // 1 tag bit addresses 2 harts, not 4.
        let err = CoreConfig::builder()
            .harts(4)
            .ras_sharing(RasSharing::Tagged { tag_bits: 1 })
            .try_build()
            .unwrap_err();
        assert_eq!(
            err,
            ConfigError::TagBits {
                tag_bits: 1,
                harts: 4
            }
        );
        assert_eq!(
            err.to_string(),
            "tagged RAS needs 1..=8 tag bits covering all 4 hart(s) (got 1)"
        );
        // Tags wider than the 8-bit hart-id space are rejected too.
        let err = CoreConfig::builder()
            .harts(2)
            .ras_sharing(RasSharing::Tagged { tag_bits: 9 })
            .try_build()
            .unwrap_err();
        assert_eq!(
            err,
            ConfigError::TagBits {
                tag_bits: 9,
                harts: 2
            }
        );
        // A zero-width tag cannot distinguish anything.
        let err = CoreConfig::builder()
            .harts(1)
            .ras_sharing(RasSharing::Tagged { tag_bits: 0 })
            .try_build()
            .unwrap_err();
        assert_eq!(
            err,
            ConfigError::TagBits {
                tag_bits: 0,
                harts: 1
            }
        );
        // An exactly-covering tag passes.
        CoreConfig::builder()
            .harts(2)
            .ras_sharing(RasSharing::Tagged { tag_bits: 1 })
            .try_build()
            .unwrap();
    }

    #[test]
    fn try_build_rejects_multipath_with_smt() {
        let err = CoreConfig::builder()
            .harts(2)
            .multipath(Some(MultipathConfig {
                max_paths: 2,
                stack_policy: MultipathStackPolicy::PerPath,
            }))
            .try_build()
            .unwrap_err();
        assert_eq!(err, ConfigError::HartsWithMultipath { harts: 2 });
        assert!(err.to_string().contains("single hart"), "{err}");
    }

    #[test]
    fn sharing_short_names() {
        assert_eq!(RasSharing::Shared.short_name(), "shared");
        assert_eq!(RasSharing::Partitioned.short_name(), "partitioned");
        assert_eq!(RasSharing::Tagged { tag_bits: 1 }.short_name(), "tagged");
    }
}
