//! The FedSU manager: predictability mask, speculative updating and error
//! feedback, implemented as a [`SyncStrategy`] (the Rust analogue of the
//! paper's `FedSU_Manager` Python module, Algorithm 1).

use crate::diagnosis::EmaPair;
use crate::join::JoinState;
use fedsu_fl::{AggregateOutcome, SyncStrategy};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// FedSU hyper-parameters (Sec. VI-A defaults).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FedSuConfig {
    /// Predictability threshold `T_R` on the oscillation ratio (paper: 0.01).
    pub t_r: f64,
    /// Error-feedback threshold `T_S` (paper: 1.0).
    pub t_s: f64,
    /// EMA decay `θ` for the second-order statistics (close to 1).
    pub theta: f32,
    /// Length of the first no-checking period, in rounds.
    pub initial_no_check: u16,
    /// Cap on the no-checking period.
    pub max_no_check: u16,
    /// Global updates a scalar must be observed for before it may enter
    /// speculation (the diagnosis needs a few second-order samples).
    pub warmup_updates: u16,
    /// Extension beyond the paper: apply the aggregated error as a
    /// correction when a parameter exits speculation (the aggregate is
    /// already paid for). Off by default for paper fidelity; the ablation
    /// bench measures its effect.
    pub correct_on_exit: bool,
    /// RNG seed (used only by the random-entry ablation variant).
    pub seed: u64,
}

impl Default for FedSuConfig {
    fn default() -> Self {
        FedSuConfig {
            t_r: 0.01,
            t_s: 1.0,
            theta: 0.9,
            initial_no_check: 1,
            max_no_check: 1024,
            warmup_updates: 4,
            correct_on_exit: false,
            seed: 0xFED5,
        }
    }
}

/// How parameters enter speculation.
#[derive(Debug, Clone, Copy, PartialEq)]
enum EntryPolicy {
    /// Oscillation-ratio linearity diagnosis (standard FedSU).
    Oscillation,
    /// Random entry with a preset probability (ablation variant v2).
    Random {
        probability: f64,
    },
}

/// How speculation ends.
#[derive(Debug, Clone, Copy, PartialEq)]
enum ExitPolicy {
    /// Error-feedback no-checking periods (standard FedSU).
    ErrorFeedback,
    /// A fixed speculation length with no feedback (ablation v1/v2).
    FixedPeriod(u16),
}

/// What happened to a tracked parameter's mask.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MaskEventKind {
    /// The parameter entered speculative updating with the given slope.
    Enter {
        /// Profiled per-round update used for prediction.
        slope: f32,
    },
    /// The parameter returned to regular updating.
    Exit {
        /// Feedback signal `S` at exit (`None` for fixed-period exits).
        feedback: Option<f64>,
    },
}

/// A mask transition of one tracked parameter (drives Fig. 6's markers).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MaskEvent {
    /// Round in which the transition happened.
    pub round: usize,
    /// Scalar parameter index.
    pub param: usize,
    /// Transition kind.
    pub kind: MaskEventKind,
}

/// Per-round aggregate statistics of the manager (instrumentation for the
/// microscopic figures and for monitoring deployments).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundStats {
    /// Round index.
    pub round: usize,
    /// Scalars in speculative mode during the round.
    pub predictable: usize,
    /// Error checks performed (scalar aggregations paid).
    pub checks: usize,
    /// Parameters that entered speculation this round.
    pub enters: usize,
    /// Parameters demoted to regular updating this round.
    pub exits: usize,
}

/// Federated Learning with Speculative Updating.
///
/// See the crate docs for the algorithm summary and
/// [`FedSuConfig`] for tunables.
#[derive(Debug, Clone)]
pub struct FedSu {
    config: FedSuConfig,
    entry: EntryPolicy,
    exit: ExitPolicy,
    variant_name: &'static str,

    // Replicated (identical-across-clients) per-scalar state.
    predictable: Vec<bool>,
    slope: Vec<f32>,
    no_check_len: Vec<u16>,
    no_check_remaining: Vec<u16>,
    prev_update: Vec<f32>,
    ema: Vec<EmaPair>,
    obs: Vec<u16>,

    // Genuinely per-client state: accumulated local prediction errors.
    errors: Vec<Vec<f32>>,
    // Activity mask of the previous aggregation, to detect rejoining
    // clients whose error accumulators must be re-synchronized.
    prev_active: Vec<bool>,

    // Statistics.
    predictable_rounds: Vec<u64>,
    rounds_seen: usize,
    rng: StdRng,
    tracked: Vec<usize>,
    events: Vec<MaskEvent>,
    last_upload_scalars: u64,
    total_enters: u64,
    total_exits: u64,
    history: Vec<RoundStats>,
}

/// Re-synchronizes per-client state for clients that were absent at the
/// previous aggregation and are active again now (Sec. V's rejoin path):
/// a rejoiner downloads fresh replicated state, so its stale local error
/// accumulator must not poison the feedback signal `S`. `errors` is one
/// accumulator per client; shared with `FedSuCoarse`.
pub(crate) fn resync_rejoiners(errors: &mut [Vec<f32>], prev_active: &mut Vec<bool>, active: &[bool]) {
    if prev_active.len() != active.len() {
        prev_active.clear();
        prev_active.resize(active.len(), false);
    }
    // `prev_active` was just resized to `active.len()`, so the zip walks
    // all clients.
    for ((errs, &act), &prev) in errors.iter_mut().zip(active).zip(prev_active.iter()) {
        if act && !prev {
            errs.fill(0.0);
        }
    }
    prev_active.copy_from_slice(active);
}

impl FedSu {
    /// Standard FedSU: oscillation-ratio diagnosis + error feedback.
    pub fn new(config: FedSuConfig) -> Self {
        Self::build(config, EntryPolicy::Oscillation, ExitPolicy::ErrorFeedback, "fedsu")
    }

    /// Ablation variant v1 (Sec. VI-D): linearity diagnosis but a *fixed*
    /// speculation period of `period` rounds and no error feedback.
    pub fn variant_v1(config: FedSuConfig, period: u16) -> Self {
        Self::build(config, EntryPolicy::Oscillation, ExitPolicy::FixedPeriod(period), "fedsu-v1")
    }

    /// Ablation variant v2 (Sec. VI-D): parameters enter speculation at
    /// random with `probability` per round, for a fixed `period`, with
    /// neither diagnosis nor feedback.
    pub fn variant_v2(config: FedSuConfig, probability: f64, period: u16) -> Self {
        Self::build(
            config,
            EntryPolicy::Random { probability },
            ExitPolicy::FixedPeriod(period),
            "fedsu-v2",
        )
    }

    fn build(config: FedSuConfig, entry: EntryPolicy, exit: ExitPolicy, name: &'static str) -> Self {
        assert!(config.t_r > 0.0, "T_R must be positive");
        assert!(config.t_s > 0.0, "T_S must be positive");
        assert!(config.theta > 0.0 && config.theta < 1.0, "theta must be in (0, 1)");
        assert!(config.initial_no_check >= 1, "initial no-check period must be >= 1");
        let rng = StdRng::seed_from_u64(config.seed);
        FedSu {
            config,
            entry,
            exit,
            variant_name: name,
            predictable: Vec::new(),
            slope: Vec::new(),
            no_check_len: Vec::new(),
            no_check_remaining: Vec::new(),
            prev_update: Vec::new(),
            ema: Vec::new(),
            obs: Vec::new(),
            errors: Vec::new(),
            prev_active: Vec::new(),
            predictable_rounds: Vec::new(),
            rounds_seen: 0,
            rng,
            tracked: Vec::new(),
            events: Vec::new(),
            last_upload_scalars: 0,
            total_enters: 0,
            total_exits: 0,
            history: Vec::new(),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &FedSuConfig {
        &self.config
    }

    /// Records mask transitions for the given scalar indices (Fig. 6).
    pub fn track_params(&mut self, indices: &[usize]) {
        self.tracked = indices.to_vec();
    }

    /// Mask-transition events of tracked parameters, in round order.
    pub fn events(&self) -> &[MaskEvent] {
        &self.events
    }

    /// Per-round aggregate statistics since construction.
    pub fn history(&self) -> &[RoundStats] {
        &self.history
    }

    /// Total speculation entries across all scalars and rounds.
    pub fn total_enters(&self) -> u64 {
        self.total_enters
    }

    /// Total speculation exits across all scalars and rounds.
    pub fn total_exits(&self) -> u64 {
        self.total_exits
    }

    /// Mean length (rounds) of the speculative periods observed so far:
    /// total speculative rounds over total entries. The paper measures this
    /// to parameterize its fixed-period ablation variants (Sec. VI-D).
    ///
    /// Before any scalar has entered speculation the statistic is undefined
    /// (0/0); this returns the documented sentinel `0.0` — never NaN — so
    /// downstream reports and ablation parameterization stay finite.
    pub fn mean_speculation_period(&self) -> f64 {
        if self.total_enters == 0 {
            0.0
        } else {
            self.predictable_rounds.iter().sum::<u64>() as f64 / self.total_enters as f64
        }
    }

    /// Empirical per-round, per-scalar speculation-entry probability: total
    /// entries over (scalars × rounds). Parameterizes the random-entry
    /// ablation variant v2, as the paper measured it.
    ///
    /// With zero scalars or before the first observed round the denominator
    /// is zero and the bare division would yield NaN; this returns the
    /// documented sentinel `0.0` — never NaN — instead.
    pub fn empirical_entry_probability(&self) -> f64 {
        let denom = (self.predictable.len() * self.rounds_seen) as f64;
        if denom == 0.0 {
            0.0
        } else {
            self.total_enters as f64 / denom
        }
    }

    /// The current predictability mask.
    pub fn predictable_mask(&self) -> &[bool] {
        &self.predictable
    }

    /// Number of currently-speculative scalars.
    pub fn predictable_count(&self) -> usize {
        self.predictable.iter().filter(|&&p| p).count()
    }

    /// Current oscillation ratio of scalar `j`.
    ///
    /// With an empty observation window (before any update has been
    /// absorbed) the EMA magnitudes are both zero and the raw ratio would be
    /// 0/0; the estimator returns its documented sentinel `0.0` — never NaN
    /// (see `EmaPair::ratio`).
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range; use [`Self::try_oscillation_ratio`]
    /// for a non-panicking variant.
    pub fn oscillation_ratio(&self, j: usize) -> f64 {
        self.try_oscillation_ratio(j)
            .expect("scalar index within model parameter count")
    }

    /// Non-panicking [`Self::oscillation_ratio`]: `None` when `j` is out of
    /// range, otherwise the same documented-sentinel semantics.
    pub fn try_oscillation_ratio(&self, j: usize) -> Option<f64> {
        self.ema.get(j).map(EmaPair::ratio)
    }

    /// Bytes of FedSU state resident on *one* client: the predictability
    /// mask and no-checking bookkeeping, the EMA pair, the profiled slope,
    /// and the local error accumulator (Table II's memory inflation).
    pub fn per_client_state_bytes(&self) -> usize {
        let n = self.predictable.len();
        n * (1 // predictable mask bit (stored as byte)
            + std::mem::size_of::<f32>() // slope
            + 2 * std::mem::size_of::<u16>() // no-check bookkeeping
            + std::mem::size_of::<f32>() // prev update
            + 2 * std::mem::size_of::<f32>() // EMA pair
            + std::mem::size_of::<u16>() // observation counter
            + std::mem::size_of::<f32>()) // local error accumulator
    }

    /// Exports the replicated state a joining client must download
    /// (Sec. V's dynamicity protocol).
    pub fn export_join_state(&self) -> JoinState {
        JoinState {
            predictable: self.predictable.clone(),
            slope: self.slope.clone(),
            no_check_len: self.no_check_len.clone(),
            no_check_remaining: self.no_check_remaining.clone(),
            prev_update: self.prev_update.clone(),
            ema: self.ema.clone(),
            obs: self.obs.clone(),
            rounds_seen: self.rounds_seen as u64,
        }
    }

    /// Restores replicated state from a join snapshot (what a fresh client
    /// applies after downloading it).
    ///
    /// # Panics
    ///
    /// Panics if the snapshot's size disagrees with the manager's (a model
    /// mismatch).
    pub fn apply_join_state(&mut self, state: &JoinState) {
        if !self.predictable.is_empty() {
            assert_eq!(state.predictable.len(), self.predictable.len(), "join state size mismatch");
        }
        self.predictable = state.predictable.clone();
        self.slope = state.slope.clone();
        self.no_check_len = state.no_check_len.clone();
        self.no_check_remaining = state.no_check_remaining.clone();
        self.prev_update = state.prev_update.clone();
        self.ema = state.ema.clone();
        self.obs = state.obs.clone();
        self.rounds_seen = state.rounds_seen as usize;
        let n = self.predictable.len();
        if self.predictable_rounds.len() != n {
            self.predictable_rounds = vec![0; n];
        }
    }

    fn ensure_capacity(&mut self, n_params: usize, n_clients: usize) {
        if self.predictable.len() != n_params {
            // Resize in place: steady rounds with a stable model never
            // reallocate, and a size change reuses existing capacity.
            self.predictable.clear();
            self.predictable.resize(n_params, false);
            self.slope.clear();
            self.slope.resize(n_params, 0.0);
            self.no_check_len.clear();
            self.no_check_len.resize(n_params, 0);
            self.no_check_remaining.clear();
            self.no_check_remaining.resize(n_params, 0);
            self.prev_update.clear();
            self.prev_update.resize(n_params, 0.0);
            self.ema.clear();
            self.ema.resize_with(n_params, EmaPair::default);
            self.obs.clear();
            self.obs.resize(n_params, 0);
            self.predictable_rounds.clear();
            self.predictable_rounds.resize(n_params, 0);
        }
        if self.errors.len() != n_clients || self.errors.first().is_some_and(|e| e.len() != n_params) {
            self.errors.resize_with(n_clients, Vec::new);
            for e in &mut self.errors {
                e.clear();
                e.resize(n_params, 0.0);
            }
            self.prev_active.clear();
            self.prev_active.resize(n_clients, false);
        }
    }

    fn promote(&mut self, j: usize, slope: f32, round: usize) {
        self.total_enters += 1;
        // Every caller passes `j < n` (the aggregate loop index) and all the
        // per-scalar arrays are length `n`, so these lookups cannot miss;
        // `get_mut` keeps the round loop free of panic branches.
        if let Some(p) = self.predictable.get_mut(j) {
            *p = true;
        }
        if let Some(s) = self.slope.get_mut(j) {
            *s = slope;
        }
        let period = match self.exit {
            ExitPolicy::ErrorFeedback => self.config.initial_no_check,
            ExitPolicy::FixedPeriod(p) => p.max(1),
        };
        if let Some(l) = self.no_check_len.get_mut(j) {
            *l = period;
        }
        if let Some(r) = self.no_check_remaining.get_mut(j) {
            *r = period;
        }
        for e in &mut self.errors {
            if let Some(v) = e.get_mut(j) {
                *v = 0.0;
            }
        }
        if self.tracked.contains(&j) {
            self.events.push(MaskEvent { round, param: j, kind: MaskEventKind::Enter { slope } });
        }
    }

    fn demote(&mut self, j: usize, feedback: Option<f64>, round: usize) {
        self.total_exits += 1;
        // Same bounds argument as `promote`: `j` is an aggregate-loop index
        // into length-`n` arrays, so none of these lookups can miss.
        if let Some(p) = self.predictable.get_mut(j) {
            *p = false;
        }
        if let Some(l) = self.no_check_len.get_mut(j) {
            *l = 0;
        }
        if let Some(r) = self.no_check_remaining.get_mut(j) {
            *r = 0;
        }
        if let Some(o) = self.obs.get_mut(j) {
            *o = 0;
        }
        if let Some(e) = self.ema.get_mut(j) {
            e.reset();
        }
        for e in &mut self.errors {
            if let Some(v) = e.get_mut(j) {
                *v = 0.0;
            }
        }
        if self.tracked.contains(&j) {
            self.events.push(MaskEvent { round, param: j, kind: MaskEventKind::Exit { feedback } });
        }
    }

    /// Verifies the mask/no-check-period coupling after a round (armed by
    /// `FEDSU_CHECK_INVARIANTS=1`): a speculative scalar always has a live
    /// no-checking period `1 ≤ remaining ≤ len`, and a regular scalar has
    /// none at all. [`promote`]/[`demote`]/period-extension are the only
    /// writers, so any divergence means the state machine itself broke.
    ///
    /// [`promote`]: FedSu::promote
    /// [`demote`]: FedSu::demote
    fn check_mask_invariants(&self, round: usize) {
        if !fedsu_tensor::invariant::enabled() {
            return;
        }
        // The three per-scalar arrays share length `n`, so the zip covers
        // every scalar.
        for (j, ((&p, &len), &remaining)) in self
            .predictable
            .iter()
            .zip(&self.no_check_len)
            .zip(&self.no_check_remaining)
            .enumerate()
        {
            if p {
                assert!(
                    (1..=len).contains(&remaining),
                    "invariant violation [fedsu-mask]: round {round}, scalar {j}: \
                     predictable but no-check period is remaining={remaining} of \
                     len={len} (expected 1 <= remaining <= len)"
                );
            } else {
                assert!(
                    len == 0 && remaining == 0,
                    "invariant violation [fedsu-mask]: round {round}, scalar {j}: \
                     regular-updating scalar carries a no-check period \
                     (len={len}, remaining={remaining})"
                );
            }
        }
    }
}

impl Default for FedSu {
    fn default() -> Self {
        FedSu::new(FedSuConfig::default())
    }
}

impl SyncStrategy for FedSu {
    fn name(&self) -> &str {
        self.variant_name
    }

    fn prepare_uploads_into(
        &mut self,
        _round: usize,
        locals: &[Vec<f32>],
        global: &[f32],
        out: &mut Vec<u64>,
    ) {
        self.ensure_capacity(global.len(), locals.len());
        let unpredictable = self.predictable.iter().filter(|&&p| !p).count() as u64;
        let check_due = if matches!(self.exit, ExitPolicy::ErrorFeedback) {
            self.predictable
                .iter()
                .zip(&self.no_check_remaining)
                .filter(|&(&p, &r)| p && r == 1)
                .count() as u64
        } else {
            0
        };
        self.last_upload_scalars = unpredictable + check_due;
        out.clear();
        out.resize(locals.len(), self.last_upload_scalars);
    }

    fn aggregate(
        &mut self,
        round: usize,
        locals: &[Vec<f32>],
        selected: &[usize],
        active: &[bool],
        global: &mut [f32],
    ) -> AggregateOutcome {
        self.ensure_capacity(global.len(), locals.len());
        resync_rejoiners(&mut self.errors, &mut self.prev_active, active);
        let n = global.len();
        if selected.is_empty() {
            // Nothing usable arrived (every upload dropped, lost, or
            // quarantined): hold all values and all mask/feedback state.
            // Consuming a no-checking round here would silently skip error
            // checks that no client ever got to vote on.
            self.rounds_seen += 1;
            self.history.push(RoundStats {
                round,
                predictable: self.predictable_count(),
                checks: 0,
                enters: 0,
                exits: 0,
            });
            return AggregateOutcome { broadcast_scalars: 0, synced_scalars: 0, total_scalars: n };
        }
        let inv = 1.0 / selected.len().max(1) as f32;
        let accumulate_errors = matches!(self.exit, ExitPolicy::ErrorFeedback);
        let mut synced = 0usize;
        let mut checked = 0usize;
        let enters_before = self.total_enters;
        let exits_before = self.total_exits;

        for j in 0..n {
            if self.predictable[j] {
                // Speculative update: masked replacement with the predicted
                // value; no synchronization for this scalar.
                self.predictable_rounds[j] += 1;
                let predicted = global[j] + self.slope[j];
                if accumulate_errors {
                    for (i, &act) in active.iter().enumerate() {
                        if act {
                            self.errors[i][j] += locals[i][j] - predicted;
                        }
                    }
                }
                global[j] = predicted;

                self.no_check_remaining[j] = self.no_check_remaining[j].saturating_sub(1);
                if self.no_check_remaining[j] == 0 {
                    match self.exit {
                        ExitPolicy::ErrorFeedback => {
                            // The no-checking period expired: aggregate the
                            // accumulated errors (this costs one scalar of
                            // communication) and evaluate Eq. 3.
                            checked += 1;
                            let e_mean: f32 =
                                selected.iter().map(|&c| self.errors[c][j]).sum::<f32>() * inv;
                            let s = f64::from(e_mean.abs())
                                / f64::from(self.slope[j].abs().max(f32::EPSILON));
                            if s < self.config.t_s {
                                // Linearity persists: extend by one round.
                                self.no_check_len[j] =
                                    self.no_check_len[j].saturating_add(1).min(self.config.max_no_check);
                                self.no_check_remaining[j] = self.no_check_len[j];
                            } else {
                                if self.config.correct_on_exit {
                                    global[j] += e_mean;
                                }
                                self.demote(j, Some(s), round);
                            }
                        }
                        ExitPolicy::FixedPeriod(_) => {
                            self.demote(j, None, round);
                        }
                    }
                }
            } else {
                // Regular synchronization: average the selected clients.
                synced += 1;
                let old = global[j];
                let mut avg = 0.0f32;
                for &c in selected {
                    avg += locals[c][j];
                }
                avg *= inv;
                global[j] = avg;
                let g = avg - old;

                if self.obs[j] == 0 {
                    // (Re)seed the first-order difference.
                    self.prev_update[j] = g;
                    self.obs[j] = 1;
                } else {
                    let g2 = g - self.prev_update[j];
                    self.ema[j].observe(g2, self.config.theta);
                    self.prev_update[j] = g;
                    self.obs[j] = self.obs[j].saturating_add(1);

                    if self.obs[j] >= self.config.warmup_updates {
                        let enter = match self.entry {
                            EntryPolicy::Oscillation => {
                                // Second differences negligible relative to
                                // the gradient are numerical noise on a
                                // linear trajectory (cf. diagnosis::ratio).
                                let negligible =
                                    self.ema[j].magnitude <= 1e-3 * self.prev_update[j].abs();
                                negligible || self.ema[j].ratio() < self.config.t_r
                            }
                            EntryPolicy::Random { probability } => self.rng.gen_bool(probability),
                        };
                        if enter {
                            self.promote(j, g, round);
                        }
                    }
                }
            }
        }
        self.rounds_seen += 1;
        self.history.push(RoundStats {
            round,
            predictable: n - synced,
            checks: checked,
            enters: (self.total_enters - enters_before) as usize,
            exits: (self.total_exits - exits_before) as usize,
        });
        self.check_mask_invariants(round);
        AggregateOutcome {
            broadcast_scalars: synced + checked,
            synced_scalars: synced + checked,
            total_scalars: n,
        }
    }

    fn state_bytes(&self) -> usize {
        // Per-client replicated state, times the number of client replicas
        // the emulation is standing in for.
        self.per_client_state_bytes()
            .checked_mul(self.errors.len().max(1))
            .expect("replicated state total fits in usize: per-client state is a few KB")
    }

    fn join_state(&self) -> Option<Vec<u8>> {
        if self.predictable.is_empty() {
            None
        } else {
            Some(self.export_join_state().to_bytes())
        }
    }

    fn skip_fractions(&self) -> Option<Vec<f64>> {
        if self.rounds_seen == 0 {
            return None;
        }
        Some(
            self.predictable_rounds
                .iter()
                .map(|&p| p as f64 / self.rounds_seen as f64)
                .collect(),
        )
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drives one synthetic round: every client reports `global + update_i`.
    fn drive_round(
        fedsu: &mut FedSu,
        global: &mut Vec<f32>,
        per_client_updates: &[Vec<f32>],
        round: usize,
    ) -> AggregateOutcome {
        let locals: Vec<Vec<f32>> = per_client_updates
            .iter()
            .map(|u| global.iter().zip(u).map(|(g, d)| g + d).collect())
            .collect();
        let selected: Vec<usize> = (0..locals.len()).collect();
        let active = vec![true; locals.len()];
        fedsu.prepare_uploads(round, &locals, global);
        fedsu.aggregate(round, &locals, &selected, &active, global)
    }

    fn quick_config() -> FedSuConfig {
        FedSuConfig { warmup_updates: 3, ..FedSuConfig::default() }
    }

    #[test]
    fn empty_window_statistics_return_finite_sentinels() {
        // A fresh manager has seen nothing: every statistic's denominator is
        // zero and the bare division would be NaN. The documented sentinel
        // is 0.0.
        let f = FedSu::new(quick_config());
        assert_eq!(f.mean_speculation_period(), 0.0);
        assert_eq!(f.empirical_entry_probability(), 0.0);
        assert!(f.try_oscillation_ratio(0).is_none(), "no scalars allocated yet");
    }

    #[test]
    fn oscillation_ratio_is_zero_not_nan_before_any_signal() {
        let mut f = FedSu::new(quick_config());
        let mut global = vec![0.0, 0.0];
        // Identically-zero updates keep both EMA terms at zero (raw 0/0).
        drive_round(&mut f, &mut global, &[vec![0.0, 0.0]], 0);
        for j in 0..2 {
            let r = f.oscillation_ratio(j);
            assert_eq!(r, 0.0, "scalar {j}");
            assert!(!r.is_nan(), "scalar {j}");
            assert_eq!(f.try_oscillation_ratio(j), Some(r));
        }
        assert!(f.try_oscillation_ratio(2).is_none(), "out of range is None, not a panic");
        assert!(f.mean_speculation_period().is_finite());
        assert!(f.empirical_entry_probability().is_finite());
    }

    #[test]
    fn first_rounds_are_fully_synchronized() {
        let mut f = FedSu::new(quick_config());
        let mut global = vec![0.0, 0.0];
        let out = drive_round(&mut f, &mut global, &[vec![0.1, 0.2]], 0);
        assert_eq!(out.synced_scalars, 2);
        assert_eq!(out.total_scalars, 2);
        assert!((global[0] - 0.1).abs() < 1e-6);
    }

    #[test]
    fn linear_parameter_enters_speculation() {
        let mut f = FedSu::new(quick_config());
        let mut global = vec![0.0];
        // Constant per-round update -> linear trajectory.
        for round in 0..6 {
            drive_round(&mut f, &mut global, &[vec![-0.01]], round);
        }
        assert_eq!(f.predictable_count(), 1, "ratio {}", f.oscillation_ratio(0));
    }

    #[test]
    fn speculative_parameter_skips_synchronization() {
        let mut f = FedSu::new(quick_config());
        let mut global = vec![0.0];
        for round in 0..6 {
            drive_round(&mut f, &mut global, &[vec![-0.01]], round);
        }
        assert!(f.predictable_mask()[0]);
        let before = global[0];
        // Client reports something, but the speculative value wins.
        let out = drive_round(&mut f, &mut global, &[vec![-0.01]], 6);
        assert!((global[0] - (before - 0.01)).abs() < 1e-6, "speculative step");
        // Either fully skipped or the error-check scalar was transmitted.
        assert!(out.synced_scalars <= 1);
    }

    #[test]
    fn speculation_tracks_true_linear_trajectory() {
        let mut f = FedSu::new(quick_config());
        let mut global = vec![0.0];
        let mut reference = 0.0f32;
        for round in 0..40 {
            drive_round(&mut f, &mut global, &[vec![-0.01]], round);
            reference -= 0.01;
            assert!((global[0] - reference).abs() < 1e-4, "round {round}: {} vs {reference}", global[0]);
        }
        // Long linear stretch: most rounds skipped.
        let skip = f.skip_fractions().unwrap()[0];
        assert!(skip > 0.5, "skip fraction {skip}");
    }

    #[test]
    fn no_check_period_grows_on_successful_checks() {
        let mut f = FedSu::new(quick_config());
        let mut global = vec![0.0];
        for round in 0..40 {
            drive_round(&mut f, &mut global, &[vec![-0.01]], round);
        }
        assert!(f.predictable_mask()[0]);
        // After many successful checks the no-check period exceeds its
        // initial value of 1.
        assert!(f.no_check_len[0] > 1, "period {}", f.no_check_len[0]);
    }

    #[test]
    fn broken_linearity_triggers_exit_via_error_feedback() {
        let mut f = FedSu::new(quick_config());
        let mut global = vec![0.0];
        let mut round = 0;
        for _ in 0..8 {
            drive_round(&mut f, &mut global, &[vec![-0.01]], round);
            round += 1;
        }
        assert!(f.predictable_mask()[0]);
        // The true dynamics flip to a strong opposite drift: the local
        // errors skew and the next check must demote the parameter.
        for _ in 0..10 {
            drive_round(&mut f, &mut global, &[vec![0.05]], round);
            round += 1;
            if !f.predictable_mask()[0] {
                break;
            }
        }
        assert!(!f.predictable_mask()[0], "parameter should have exited speculation");
    }

    #[test]
    fn oscillating_errors_do_not_trigger_exit() {
        // Mini-batch-style noise that cancels around the profiled slope
        // keeps the parameter speculative (Σe stays bounded, Eq. 3).
        let mut f = FedSu::new(quick_config());
        let mut global = vec![0.0];
        // Noise-free warmup so the profiled slope is exact.
        let mut round = 0;
        while !f.predictable_mask().first().copied().unwrap_or(false) {
            drive_round(&mut f, &mut global, &[vec![-0.01]], round);
            round += 1;
            assert!(round < 10, "should promote within warmup");
        }
        for _ in 0..30 {
            let noise = if round % 2 == 0 { 0.002 } else { -0.002 };
            drive_round(&mut f, &mut global, &[vec![-0.01 + noise]], round);
            round += 1;
        }
        assert!(f.predictable_mask()[0], "cancelling noise should not break speculation");
    }

    #[test]
    fn biased_slope_profile_is_caught_by_error_feedback() {
        // If the profiled slope bakes in one round's noise, the systematic
        // bias accumulates in Σe and the check eventually demotes the
        // parameter — exactly the safety property Sec. IV-C claims.
        let mut f = FedSu::new(quick_config());
        f.track_params(&[0]);
        let mut global = vec![0.0];
        // Promote with a biased observation (-0.013), then feed the true
        // trend (-0.01): per-round error +0.003 accumulates.
        let mut round = 0;
        while !f.predictable_mask().first().copied().unwrap_or(false) {
            drive_round(&mut f, &mut global, &[vec![-0.013]], round);
            round += 1;
            assert!(round < 10);
        }
        for _ in 0..40 {
            drive_round(&mut f, &mut global, &[vec![-0.01]], round);
            round += 1;
        }
        assert!(
            f.events().iter().any(|e| matches!(e.kind, MaskEventKind::Exit { .. })),
            "accumulated bias should trigger an exit"
        );
    }

    #[test]
    fn upload_counts_reflect_mask_and_checks() {
        let mut f = FedSu::new(quick_config());
        let mut global = vec![0.0, 0.0];
        // Scalar 0 linear; scalar 1 alternates curvature (stays regular).
        for round in 0..6 {
            let w = if round % 2 == 0 { 0.03 } else { -0.01 };
            drive_round(&mut f, &mut global, &[vec![-0.01, w]], round);
        }
        assert!(f.predictable_mask()[0]);
        assert!(!f.predictable_mask()[1]);
        let locals = vec![global.clone()];
        let up = f.prepare_uploads(99, &locals, &global);
        // Scalar 1 always uploads; scalar 0 uploads only at check rounds.
        assert!(up[0] == 1 || up[0] == 2);
    }

    #[test]
    fn v1_exits_after_fixed_period_without_checks() {
        let period = 3u16;
        let mut f = FedSu::variant_v1(quick_config(), period);
        f.track_params(&[0]);
        let mut global = vec![0.0];
        let mut round = 0;
        // Promote.
        while !f.predictable_mask().first().copied().unwrap_or(false) {
            drive_round(&mut f, &mut global, &[vec![-0.01]], round);
            round += 1;
            assert!(round < 10, "should promote within warmup");
        }
        // While speculative, uploads never include check scalars under v1.
        let locals = vec![global.clone()];
        assert_eq!(f.prepare_uploads(round, &locals, &global), vec![0]);
        // The parameter must exit exactly after `period` speculative rounds,
        // with no communication (fixed period, no feedback).
        for _ in 0..period {
            assert!(f.predictable_mask()[0]);
            drive_round(&mut f, &mut global, &[vec![-0.01]], round);
            round += 1;
        }
        assert!(!f.predictable_mask()[0], "v1 must exit after its fixed period");
        let exits: Vec<_> = f
            .events()
            .iter()
            .filter(|e| matches!(e.kind, MaskEventKind::Exit { feedback: None }))
            .collect();
        assert_eq!(exits.len(), 1, "fixed-period exit carries no feedback signal");
        assert_eq!(f.name(), "fedsu-v1");
    }

    #[test]
    fn v2_enters_randomly_without_linearity() {
        // Wildly curving parameter: oscillation diagnosis would never admit
        // it, but v2 enters by probability alone.
        let mut f = FedSu::variant_v2(quick_config(), 0.5, 2);
        let mut global = vec![0.0];
        let mut entered = false;
        for round in 0..30 {
            let w = if round % 2 == 0 { 0.05 } else { -0.05 };
            drive_round(&mut f, &mut global, &[vec![w]], round);
            entered |= f.predictable_count() > 0;
        }
        assert!(entered, "v2 should enter speculation by chance");
        assert_eq!(f.name(), "fedsu-v2");
    }

    #[test]
    fn mask_events_recorded_for_tracked_params() {
        let mut f = FedSu::new(quick_config());
        f.track_params(&[0]);
        let mut global = vec![0.0];
        let mut round = 0;
        for _ in 0..8 {
            drive_round(&mut f, &mut global, &[vec![-0.01]], round);
            round += 1;
        }
        for _ in 0..10 {
            drive_round(&mut f, &mut global, &[vec![0.08]], round);
            round += 1;
        }
        let events = f.events();
        assert!(events.iter().any(|e| matches!(e.kind, MaskEventKind::Enter { .. })));
        assert!(events.iter().any(|e| matches!(e.kind, MaskEventKind::Exit { .. })));
        // Events alternate enter/exit for a single tracked scalar.
        for w in events.windows(2) {
            if let (MaskEventKind::Enter { .. }, MaskEventKind::Enter { .. }) = (w[0].kind, w[1].kind) {
                panic!("double enter without exit");
            }
        }
    }

    #[test]
    fn join_state_roundtrip_preserves_decisions() {
        let mut f = FedSu::new(quick_config());
        let mut global = vec![0.0, 0.0];
        for round in 0..8 {
            let w = if round % 2 == 0 { 0.03 } else { -0.01 };
            drive_round(&mut f, &mut global, &[vec![-0.01, w]], round);
        }
        let state = f.export_join_state();
        let bytes = state.to_bytes();
        let decoded = JoinState::from_bytes(&bytes).unwrap();
        assert_eq!(state, decoded);

        // A fresh manager applying the snapshot makes identical decisions.
        let mut joiner = FedSu::new(quick_config());
        joiner.ensure_capacity(2, 1);
        joiner.apply_join_state(&decoded);
        assert_eq!(joiner.predictable_mask(), f.predictable_mask());
        let locals = vec![global.clone()];
        let up_orig = f.prepare_uploads(9, &locals, &global);
        let up_join = joiner.prepare_uploads(9, &locals, &global);
        assert_eq!(up_orig, up_join);
    }

    #[test]
    fn state_bytes_scale_with_model_and_clients() {
        let mut f = FedSu::new(quick_config());
        let mut global = vec![0.0; 10];
        drive_round(&mut f, &mut global, &[vec![0.0; 10], vec![0.0; 10]], 0);
        let per_client = f.per_client_state_bytes();
        assert!(per_client >= 10 * 20, "per-client {per_client}");
        assert_eq!(f.state_bytes(), per_client * 2);
    }

    #[test]
    fn stagnating_parameter_is_a_linear_special_case() {
        // Zero updates: the stagnating pattern APF exploits must also be
        // caught by FedSU (slope 0).
        let mut f = FedSu::new(quick_config());
        let mut global = vec![1.0];
        for round in 0..6 {
            drive_round(&mut f, &mut global, &[vec![0.0]], round);
        }
        assert!(f.predictable_mask()[0]);
        assert_eq!(f.slope[0], 0.0);
        assert!((global[0] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn inactive_clients_do_not_accumulate_errors() {
        let mut f = FedSu::new(quick_config());
        let mut global = vec![0.0];
        // Promote with both clients active.
        for round in 0..6 {
            let locals = vec![vec![global[0] - 0.01], vec![global[0] - 0.01]];
            f.prepare_uploads(round, &locals, &global);
            f.aggregate(round, &locals, &[0, 1], &[true, true], &mut global);
        }
        assert!(f.predictable_mask()[0]);
        // Client 1 goes inactive; its stale local would poison the errors.
        let poisoned = vec![vec![global[0] - 0.01], vec![999.0]];
        f.prepare_uploads(6, &poisoned, &global);
        f.aggregate(6, &poisoned, &[0], &[true, false], &mut global);
        assert_eq!(f.errors[1][0], 0.0, "inactive client error must stay untouched");
    }

    #[test]
    fn rejoining_client_errors_are_resynced() {
        let mut f = FedSu::new(FedSuConfig { warmup_updates: 3, t_s: 10.0, ..FedSuConfig::default() });
        let mut global = vec![0.0f32];
        let mut round = 0;
        while !f.predictable_mask().first().copied().unwrap_or(false) {
            let locals = vec![vec![global[0] - 0.01], vec![global[0] - 0.01]];
            f.prepare_uploads(round, &locals, &global);
            f.aggregate(round, &locals, &[0, 1], &[true, true], &mut global);
            round += 1;
            assert!(round < 10, "should promote within warmup");
        }
        // Speculative rounds with a slight mismatch: both clients accumulate
        // prediction error.
        for _ in 0..2 {
            let locals = vec![vec![global[0] - 0.02], vec![global[0] - 0.02]];
            f.prepare_uploads(round, &locals, &global);
            f.aggregate(round, &locals, &[0, 1], &[true, true], &mut global);
            round += 1;
        }
        assert!(f.predictable_mask()[0], "should still be speculative");
        assert_ne!(f.errors[1][0], 0.0, "client 1 accumulated error before leaving");
        // Client 1 leaves for a round...
        let locals = vec![vec![global[0] - 0.02], vec![0.0]];
        f.prepare_uploads(round, &locals, &global);
        f.aggregate(round, &locals, &[0], &[true, false], &mut global);
        round += 1;
        // ...and rejoins reporting exactly the predicted value: its stale
        // error must have been cleared, leaving only this round's zero
        // residual.
        assert!(f.predictable_mask()[0]);
        let predicted = global[0] + f.slope[0];
        let locals = vec![vec![global[0] - 0.02], vec![predicted]];
        f.prepare_uploads(round, &locals, &global);
        f.aggregate(round, &locals, &[0], &[true, true], &mut global);
        assert_eq!(f.errors[1][0], 0.0, "rejoiner's stale error must be resynced");
    }

    #[test]
    fn empty_selection_holds_global_and_state() {
        let mut f = FedSu::new(quick_config());
        let mut global = vec![0.5f32, -0.25];
        let locals = vec![vec![9.0, 9.0]];
        f.prepare_uploads(0, &locals, &global);
        let out = f.aggregate(0, &locals, &[], &[false], &mut global);
        assert_eq!(global, vec![0.5, -0.25], "a barren round must hold all values");
        assert_eq!(out.synced_scalars, 0);
        assert_eq!(out.broadcast_scalars, 0);
        assert_eq!(out.total_scalars, 2);
        assert_eq!(f.history().len(), 1);
        assert_eq!(f.history()[0].checks, 0);
    }

    #[test]
    #[should_panic(expected = "T_R must be positive")]
    fn invalid_config_panics() {
        FedSu::new(FedSuConfig { t_r: 0.0, ..FedSuConfig::default() });
    }

    #[test]
    fn default_config_matches_paper() {
        let c = FedSuConfig::default();
        assert_eq!(c.t_r, 0.01);
        assert_eq!(c.t_s, 1.0);
        assert!(!c.correct_on_exit);
    }
}

#[cfg(test)]
mod history_tests {
    use super::*;

    #[test]
    fn history_tracks_rounds_and_balances() {
        let mut f = FedSu::new(FedSuConfig { warmup_updates: 3, ..FedSuConfig::default() });
        let mut global = vec![0.0f32; 2];
        for round in 0..10 {
            let locals = vec![vec![global[0] - 0.01, global[1] - 0.02]];
            f.prepare_uploads(round, &locals, &global);
            f.aggregate(round, &locals, &[0], &[true], &mut global);
        }
        let h = f.history();
        assert_eq!(h.len(), 10);
        assert!(h.iter().enumerate().all(|(i, s)| s.round == i));
        // Cumulative enters/exits from history match the counters.
        let enters: usize = h.iter().map(|s| s.enters).sum();
        let exits: usize = h.iter().map(|s| s.exits).sum();
        assert_eq!(enters as u64, f.total_enters());
        assert_eq!(exits as u64, f.total_exits());
        // Both scalars are linear: eventually both speculative.
        assert_eq!(h.last().unwrap().predictable, 2);
    }
}
