//! The McFarling-style hybrid direction predictor.

use crate::SaturatingCounter;
use hydra_isa::Addr;

/// Geometry of the hybrid predictor.
///
/// Defaults match the paper's baseline (Table 1): a 4K-entry GAg with
/// 12 bits of global history, a PAg with 1K 10-bit local histories
/// indexing a 1K-entry pattern table, and a 4K-entry chooser indexed by
/// global history.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HybridConfig {
    /// Bits of global history (GAg table has `2^global_history_bits`
    /// counters).
    pub global_history_bits: u32,
    /// Number of per-address local-history registers (power of two).
    pub local_history_entries: usize,
    /// Bits of local history (PAg pattern table has
    /// `2^local_history_bits` counters).
    pub local_history_bits: u32,
    /// Bits of global history indexing the chooser (table has
    /// `2^chooser_bits` counters).
    pub chooser_bits: u32,
}

impl Default for HybridConfig {
    fn default() -> Self {
        HybridConfig {
            global_history_bits: 12,     // 4K GAg
            local_history_entries: 1024, // 1K histories
            local_history_bits: 10,      // 10-bit local history -> 1K PHT
            chooser_bits: 12,            // 4K chooser
        }
    }
}

impl HybridConfig {
    fn validate(&self) {
        assert!(
            (1..=20).contains(&self.global_history_bits),
            "global history bits out of range"
        );
        assert!(
            self.local_history_entries.is_power_of_two(),
            "local history entries must be a power of two"
        );
        assert!(
            (1..=20).contains(&self.local_history_bits),
            "local history bits out of range"
        );
        assert!(
            (1..=20).contains(&self.chooser_bits),
            "chooser bits out of range"
        );
    }
}

/// Everything recorded at prediction time that the commit-time update
/// needs: the component predictions and the history values used to index
/// the tables.
///
/// Passing this back to [`HybridPredictor::update`] (rather than
/// re-deriving indices at commit) makes the update hit exactly the
/// counters that produced the prediction even though the global history
/// has moved on — the same bookkeeping real pipelines carry with each
/// in-flight branch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DirectionPrediction {
    /// The hybrid's final direction prediction.
    pub taken: bool,
    /// What the GAg component said.
    pub gag_taken: bool,
    /// What the PAg component said.
    pub pag_taken: bool,
    /// Whether the chooser selected the GAg component.
    pub chose_gag: bool,
    gag_index: usize,
    pag_index: usize,
    chooser_index: usize,
    local_slot: usize,
}

impl DirectionPrediction {
    /// Raw index state for external snapshot serializers:
    /// `(gag_index, pag_index, chooser_index, local_slot)`.
    pub fn index_parts(&self) -> (usize, usize, usize, usize) {
        (
            self.gag_index,
            self.pag_index,
            self.chooser_index,
            self.local_slot,
        )
    }

    /// Rebuilds a prediction record from its component flags and
    /// [`DirectionPrediction::index_parts`] output.
    #[allow(clippy::too_many_arguments)]
    pub fn from_snapshot_parts(
        taken: bool,
        gag_taken: bool,
        pag_taken: bool,
        chose_gag: bool,
        gag_index: usize,
        pag_index: usize,
        chooser_index: usize,
        local_slot: usize,
    ) -> Self {
        DirectionPrediction {
            taken,
            gag_taken,
            pag_taken,
            chose_gag,
            gag_index,
            pag_index,
            chooser_index,
            local_slot,
        }
    }
}

/// Raw hybrid-predictor table state, produced by
/// [`HybridPredictor::snapshot_state`] and consumed by
/// [`HybridPredictor::restore_state`]. All fields are public so external
/// snapshot serializers can encode them in their own format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HybridState {
    /// GAg pattern-table counter values.
    pub gag: Vec<u8>,
    /// Per-address local history registers.
    pub pag_histories: Vec<u32>,
    /// PAg pattern-table counter values.
    pub pag_pht: Vec<u8>,
    /// Chooser counter values.
    pub chooser: Vec<u8>,
    /// Commit-updated global history register.
    pub global_history: u64,
}

/// McFarling two-component hybrid: GAg + PAg with a global-history-indexed
/// chooser.
///
/// Prediction is pure (`&self`); all training happens in
/// [`HybridPredictor::update`], which the pipeline calls at instruction
/// commit so wrong-path branches never train the tables.
///
/// # Examples
///
/// ```
/// use hydra_bpred::{HybridConfig, HybridPredictor};
/// use hydra_isa::Addr;
///
/// let mut p = HybridPredictor::new(HybridConfig::default());
/// // An alternating branch is learned by the local (PAg) component.
/// let pc = Addr::new(7);
/// let mut correct = 0;
/// for i in 0..200u32 {
///     let outcome = i % 2 == 0;
///     let pred = p.predict(pc);
///     if pred.taken == outcome {
///         correct += 1;
///     }
///     p.update(pc, &pred, outcome);
/// }
/// assert!(correct > 150, "local history learns alternation: {correct}");
/// ```
#[derive(Debug, Clone)]
pub struct HybridPredictor {
    config: HybridConfig,
    gag: Vec<SaturatingCounter>,
    pag_histories: Vec<u32>,
    pag_pht: Vec<SaturatingCounter>,
    chooser: Vec<SaturatingCounter>,
    global_history: u64,
}

impl HybridPredictor {
    /// Creates a predictor with all counters weakly-not-taken and empty
    /// histories.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is out of range (zero-width histories
    /// or a non-power-of-two local table).
    pub fn new(config: HybridConfig) -> Self {
        config.validate();
        HybridPredictor {
            config,
            gag: vec![SaturatingCounter::two_bit(); 1 << config.global_history_bits],
            pag_histories: vec![0; config.local_history_entries],
            pag_pht: vec![SaturatingCounter::two_bit(); 1 << config.local_history_bits],
            chooser: vec![SaturatingCounter::two_bit(); 1 << config.chooser_bits],
            global_history: 0,
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &HybridConfig {
        &self.config
    }

    /// Current global history register value (low bits are most recent).
    pub fn global_history(&self) -> u64 {
        self.global_history
    }

    /// GAg pattern-table index: global history XOR branch PC (the
    /// gshare-style hashing SimpleScalar's two-level predictors use to
    /// reduce interference between opposite-biased branches).
    fn gag_index_with(&self, pc: Addr, history: u64) -> usize {
        ((history ^ pc.word()) as usize) & (self.gag.len() - 1)
    }

    fn chooser_index_with(&self, history: u64) -> usize {
        (history as usize) & (self.chooser.len() - 1)
    }

    fn local_slot(&self, pc: Addr) -> usize {
        (pc.word() as usize) & (self.pag_histories.len() - 1)
    }

    /// PAg pattern-table index: local history XOR branch PC (same
    /// interference-reduction hashing as the global component).
    fn pag_index_for(&self, slot: usize, pc: Addr) -> usize {
        ((self.pag_histories[slot] as u64 ^ pc.word()) as usize) & (self.pag_pht.len() - 1)
    }

    /// Predicts the direction of the conditional branch at `pc` using the
    /// predictor's internal (commit-updated) global history.
    pub fn predict(&self, pc: Addr) -> DirectionPrediction {
        self.predict_with_history(pc, self.global_history)
    }

    /// Predicts with an explicit global-history value. Pipelines that
    /// maintain *speculative* per-path history (updating it at fetch and
    /// repairing it on mispredictions, as SimpleScalar's out-of-order
    /// simulator does) pass their own history here and train with
    /// [`HybridPredictor::train`].
    pub fn predict_with_history(&self, pc: Addr, history: u64) -> DirectionPrediction {
        let gag_index = self.gag_index_with(pc, history);
        let local_slot = self.local_slot(pc);
        let pag_index = self.pag_index_for(local_slot, pc);
        let chooser_index = self.chooser_index_with(history);

        let gag_taken = self.gag[gag_index].is_high();
        let pag_taken = self.pag_pht[pag_index].is_high();
        let chose_gag = self.chooser[chooser_index].is_high();
        let taken = if chose_gag { gag_taken } else { pag_taken };

        DirectionPrediction {
            taken,
            gag_taken,
            pag_taken,
            chose_gag,
            gag_index,
            pag_index,
            chooser_index,
            local_slot,
        }
    }

    /// Trains the predictor with the resolved outcome of a branch whose
    /// prediction-time state was `pred`. Called at commit.
    ///
    /// The chooser trains toward whichever component was correct (and is
    /// left alone when both agree in correctness); the component tables
    /// train toward the outcome; both histories shift in the outcome.
    pub fn update(&mut self, pc: Addr, pred: &DirectionPrediction, taken: bool) {
        self.train(pc, pred, taken);
        self.global_history = (self.global_history << 1) | u64::from(taken);
    }

    /// Raw table state for external snapshot serializers. Counter values
    /// are exported as plain bytes (every hybrid counter is the classic
    /// two-bit counter).
    pub fn snapshot_state(&self) -> HybridState {
        HybridState {
            gag: self.gag.iter().map(|c| c.value()).collect(),
            pag_histories: self.pag_histories.clone(),
            pag_pht: self.pag_pht.iter().map(|c| c.value()).collect(),
            chooser: self.chooser.iter().map(|c| c.value()).collect(),
            global_history: self.global_history,
        }
    }

    /// Restores table state captured by [`HybridPredictor::snapshot_state`]
    /// in place (table allocations are reused). Returns `false` — leaving
    /// the predictor unchanged — when the state's geometry or counter
    /// values do not fit this predictor's configuration.
    pub fn restore_state(&mut self, state: &HybridState) -> bool {
        let fits = state.gag.len() == self.gag.len()
            && state.pag_histories.len() == self.pag_histories.len()
            && state.pag_pht.len() == self.pag_pht.len()
            && state.chooser.len() == self.chooser.len()
            && state.gag.iter().all(|&v| v <= 3)
            && state.pag_pht.iter().all(|&v| v <= 3)
            && state.chooser.iter().all(|&v| v <= 3);
        if !fits {
            return false;
        }
        let load = |dst: &mut [SaturatingCounter], src: &[u8]| {
            for (c, &v) in dst.iter_mut().zip(src) {
                *c = SaturatingCounter::from_raw_parts(v, 3).expect("validated above");
            }
        };
        load(&mut self.gag, &state.gag);
        load(&mut self.pag_pht, &state.pag_pht);
        load(&mut self.chooser, &state.chooser);
        self.pag_histories.copy_from_slice(&state.pag_histories);
        self.global_history = state.global_history;
        true
    }

    /// Trains the counters and the local history with a resolved branch,
    /// without touching the internal global history — for pipelines that
    /// maintain speculative per-path history themselves (see
    /// [`HybridPredictor::predict_with_history`]).
    pub fn train(&mut self, pc: Addr, pred: &DirectionPrediction, taken: bool) {
        // Chooser: strengthen the component that was right when they
        // disagreed in correctness.
        let gag_correct = pred.gag_taken == taken;
        let pag_correct = pred.pag_taken == taken;
        if gag_correct != pag_correct {
            self.chooser[pred.chooser_index].train(gag_correct);
        }
        // Pattern tables.
        self.gag[pred.gag_index].train(taken);
        self.pag_pht[pred.pag_index].train(taken);
        // Local history (per-address; commit-time update).
        let slot = self.local_slot(pc);
        debug_assert_eq!(slot, pred.local_slot);
        self.pag_histories[slot] = (self.pag_histories[slot] << 1) | u32::from(taken);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> HybridPredictor {
        HybridPredictor::new(HybridConfig {
            global_history_bits: 6,
            local_history_entries: 16,
            local_history_bits: 6,
            chooser_bits: 6,
        })
    }

    #[test]
    fn default_config_sizes() {
        let p = HybridPredictor::new(HybridConfig::default());
        assert_eq!(p.gag.len(), 4096);
        assert_eq!(p.pag_histories.len(), 1024);
        assert_eq!(p.pag_pht.len(), 1024);
        assert_eq!(p.chooser.len(), 4096);
    }

    #[test]
    fn learns_always_taken() {
        let mut p = small();
        let pc = Addr::new(3);
        for _ in 0..8 {
            let pr = p.predict(pc);
            p.update(pc, &pr, true);
        }
        assert!(p.predict(pc).taken);
    }

    #[test]
    fn learns_always_not_taken() {
        let mut p = small();
        let pc = Addr::new(5);
        for _ in 0..8 {
            let pr = p.predict(pc);
            p.update(pc, &pr, false);
        }
        assert!(!p.predict(pc).taken);
    }

    #[test]
    fn local_component_learns_alternation() {
        let mut p = small();
        let pc = Addr::new(9);
        let mut correct = 0;
        for i in 0..400u32 {
            let outcome = i % 2 == 0;
            let pr = p.predict(pc);
            if pr.taken == outcome {
                correct += 1;
            }
            p.update(pc, &pr, outcome);
        }
        assert!(correct > 300, "got {correct}/400");
    }

    #[test]
    fn global_component_learns_correlation() {
        // Branch B's outcome equals branch A's last outcome: only global
        // history can capture this.
        let mut p = small();
        let a = Addr::new(20);
        let b = Addr::new(21);
        let mut correct_b = 0;
        let mut a_outcome = false;
        for i in 0..600u32 {
            // A alternates every 3 iterations (period known via history).
            a_outcome = (i / 3) % 2 == 0;
            let pa = p.predict(a);
            p.update(a, &pa, a_outcome);
            let pb = p.predict(b);
            let b_outcome = a_outcome;
            if i > 200 && pb.taken == b_outcome {
                correct_b += 1;
            }
            p.update(b, &pb, b_outcome);
        }
        assert!(correct_b > 350, "got {correct_b}/399");
        let _ = a_outcome;
    }

    #[test]
    fn history_register_shifts() {
        let mut p = small();
        let pc = Addr::new(1);
        let pr = p.predict(pc);
        p.update(pc, &pr, true);
        let pr = p.predict(pc);
        p.update(pc, &pr, false);
        assert_eq!(p.global_history() & 0b11, 0b10);
    }

    #[test]
    fn update_uses_prediction_time_indices() {
        // Two updates with stale DirectionPrediction values must not panic
        // and must train the recorded indices.
        let mut p = small();
        let pc = Addr::new(2);
        // Predict two branches back-to-back (as a 2-wide fetch would),
        // then update them in order with the recorded state.
        for _ in 0..16 {
            let pr1 = p.predict(pc);
            let pr2 = p.predict(pc);
            p.update(pc, &pr1, true);
            p.update(pc, &pr2, true);
        }
        assert!(p.predict(pc).taken);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_config_panics() {
        let _ = HybridPredictor::new(HybridConfig {
            local_history_entries: 100,
            ..HybridConfig::default()
        });
    }

    #[test]
    fn config_accessor() {
        let p = small();
        assert_eq!(p.config().global_history_bits, 6);
    }
}
