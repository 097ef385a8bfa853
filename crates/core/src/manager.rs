//! The FedSU manager: predictability mask, speculative updating and error
//! feedback, implemented as a [`SyncStrategy`] (the Rust analogue of the
//! paper's `FedSU_Manager` Python module, Algorithm 1). Algorithm 1's
//! thresholds `T_R` and `T_S` are its settings ([`FedSuConfig`]); the EMA
//! decay, the no-checking schedule and the warm-up are constants below.
#![warn(clippy::too_many_lines)]

use crate::diagnosis::EmaPair;
use crate::join::JoinState;
use fedsu_fl::{AggregateOutcome, SyncStrategy};
use fedsu_tensor::simd::{self, SweepRows, SweepRule, LANE_OFF, LANE_ON};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::Range;

/// FedSU's settings: the two thresholds of Algorithm 1 (Sec. VI-A
/// defaults) and one extension. Everything else the manager runs on is a
/// fixed constant: the EMA decay `θ` (0.9), the no-checking schedule (a
/// first period of 1 round, grown by one round per passed check up to
/// 1024) and the warm-up (4 observed updates before a chunk may enter).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FedSuConfig {
    /// Predictability threshold `T_R` on the oscillation ratio (paper: 0.01).
    pub t_r: f64,
    /// Error-feedback threshold `T_S` (paper: 1.0).
    pub t_s: f64,
    /// Extension beyond the paper: apply the aggregated error as a
    /// correction when a parameter exits speculation (the aggregate is
    /// already paid for). Off by default for paper fidelity; the ablation
    /// bench measures its effect.
    pub correct_on_exit: bool,
}

impl Default for FedSuConfig {
    fn default() -> Self {
        FedSuConfig { t_r: 0.01, t_s: 1.0, correct_on_exit: false }
    }
}

/// EMA decay `θ` of the second-order statistics (close to 1).
const THETA: f32 = 0.9;
/// Length of the first no-checking period, in rounds.
const INITIAL_NO_CHECK: u16 = 1;
/// Cap on the no-checking period, in rounds.
const MAX_NO_CHECK: u16 = 1024;
/// Global updates a chunk must be observed for before it may enter
/// speculation (the diagnosis needs a few second-order samples).
const WARMUP_UPDATES: u16 = 4;
/// Seed of the random-entry ablation variant's RNG.
const V2_SEED: u64 = 0xFED5;

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
/// microscopic figures and for monitoring deployments). `checks`, `enters`
/// and `exits` count decisions: one per chunk, which is one per parameter
/// unless the manager was built with [`FedSu::chunked`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundStats {
    /// Round index.
    pub round: usize,
    /// Scalars in speculative mode during the round.
    pub predictable: usize,
    /// Error checks performed (scalar aggregations paid).
    pub checks: usize,
    /// Decisions to enter speculation this round.
    pub enters: usize,
    /// Demotions to regular updating this round.
    pub exits: usize,
}

/// Federated Learning with Speculative Updating.
///
/// See the crate docs for the algorithm summary and
/// [`FedSuConfig`] for its settings.
#[derive(Debug, Clone)]
pub struct FedSu {
    config: FedSuConfig,
    entry: EntryPolicy,
    exit: ExitPolicy,
    variant_name: &'static str,
    // Scalars per decision: chunk `c` is scalars `c * chunk ..` (the last
    // chunk may be short). 1 is the paper's per-parameter granularity.
    chunk: usize,

    // Replicated (identical-across-clients) per-scalar state. The mask is
    // a row of lane words (`LANE_ON` = speculative) so the row kernels can
    // load it; every scalar of a chunk carries the same lane.
    mask: Vec<f32>,
    slope: Vec<f32>,
    prev_update: Vec<f32>,
    // Replicated per-chunk decision state. All but `no_check_len`, which
    // only the event scan touches, is a row of one lane per chunk that the
    // sweep (`simd::sweep_chunks_with`) loads: the countdown and the
    // observation count are integers in `0..=u16::MAX`, exact in `f32`, and
    // the EMA pair (`EmaPair`) is two rows.
    no_check_len: Vec<u16>,
    no_check_remaining: Vec<f32>,
    obs: Vec<f32>,
    ema_signed: Vec<f32>,
    ema_magnitude: Vec<f32>,
    // Scalars outside speculation (kept current by `promote` / `demote`)
    // and chunks whose check falls in the next round (counted by the sweep
    // and the event scan), so that `prepare_uploads_into` scans nothing.
    unmasked: usize,
    checks_due: usize,

    // Genuinely per-client state: accumulated local prediction errors, per
    // scalar; `+0.0` wherever the mask is off.
    errors: Vec<Vec<f32>>,
    // Scratch of `aggregate`, sized by `ensure_capacity`: the selected
    // clients' sum, per scalar, until the sweep has read it, and then their
    // check reports summed, per chunk; the chunks the sweep flagged, a bit
    // per chunk: due checks and entry candidates.
    sum: Vec<f32>,
    due_bits: Vec<u64>,
    entry_bits: Vec<u64>,
    // Activity mask of the previous aggregation, to detect rejoining
    // clients whose error accumulators must be re-synchronized.
    prev_active: Vec<bool>,

    // Statistics. `predictable_rounds` is per chunk and settled at the
    // transitions: a speculating chunk holds its closed total minus the
    // tick it entered at (wrapping), so its live count is that plus `ticks`,
    // the aggregations that ran the sweep. A chunk's total fits `u32`.
    predictable_rounds: Vec<u32>,
    ticks: u32,
    rounds_seen: usize,
    rng: StdRng,
    tracked: Vec<usize>,
    events: Vec<MaskEvent>,
    total_enters: u64,
    total_exits: u64,
    history: Vec<RoundStats>,
}

impl FedSu {
    /// Standard FedSU: oscillation-ratio diagnosis + error feedback, one
    /// decision per parameter.
    pub fn new(config: FedSuConfig) -> Self {
        Self::chunked(config, 1)
    }

    /// Standard FedSU deciding once per `chunk` consecutive scalars instead
    /// of once per parameter (the granularity ablation of Sec. III-A's
    /// argument). Values, slopes and local errors stay per scalar; a chunk
    /// enters on Eq. 2 over its mean second difference and is checked on
    /// Eq. 3 over its mean accumulated error and mean `|slope|`, so a check
    /// still costs one scalar of communication.
    ///
    /// # Panics
    ///
    /// Panics if `chunk == 0`.
    pub fn chunked(config: FedSuConfig, chunk: usize) -> Self {
        let name = if chunk > 1 { "fedsu-coarse" } else { "fedsu" };
        Self::build(config, EntryPolicy::Oscillation, ExitPolicy::ErrorFeedback, name).with_chunk(chunk)
    }

    /// Sets the decision granularity of a manager that has not run a round
    /// yet (see [`FedSu::chunked`]; this form also reaches v1/v2).
    ///
    /// # Panics
    ///
    /// Panics if `chunk == 0` or a round has already run.
    pub fn with_chunk(mut self, chunk: usize) -> Self {
        assert!(chunk > 0, "chunk size must be positive");
        assert!(self.mask.is_empty(), "granularity is fixed before the first round");
        self.chunk = chunk;
        self
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
        FedSu {
            config,
            entry,
            exit,
            variant_name: name,
            chunk: 1,
            mask: Vec::new(),
            slope: Vec::new(),
            prev_update: Vec::new(),
            no_check_len: Vec::new(),
            no_check_remaining: Vec::new(),
            obs: Vec::new(),
            ema_signed: Vec::new(),
            ema_magnitude: Vec::new(),
            unmasked: 0,
            checks_due: 0,
            errors: Vec::new(),
            sum: Vec::new(),
            due_bits: Vec::new(),
            entry_bits: Vec::new(),
            prev_active: Vec::new(),
            predictable_rounds: Vec::new(),
            ticks: 0,
            rounds_seen: 0,
            rng: StdRng::seed_from_u64(V2_SEED),
            tracked: Vec::new(),
            events: Vec::new(),
            total_enters: 0,
            total_exits: 0,
            history: Vec::new(),
        }
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

    /// Total decisions to enter speculation across all rounds.
    pub fn total_enters(&self) -> u64 {
        self.total_enters
    }

    /// Total demotions to regular updating across all rounds.
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
            self.speculative_rounds().sum::<u64>() as f64 / self.total_enters as f64
        }
    }

    /// Each chunk's speculative rounds so far, live periods included.
    fn speculative_rounds(&self) -> impl Iterator<Item = u64> + '_ {
        let live = self.mask.iter().step_by(self.chunk).map(|&lane| if is_on(lane) { self.ticks } else { 0 });
        self.predictable_rounds.iter().zip(live).map(|(&closed, live)| u64::from(closed.wrapping_add(live)))
    }

    /// Closes every live speculative period at the current tick, or opens
    /// one there for every speculating chunk (`open`): `apply_join_state`
    /// closes the periods of the mask it replaces and opens those of the new
    /// one.
    fn settle_live_periods(&mut self, open: bool) {
        let live = self.mask.iter().step_by(self.chunk).map(|&lane| is_on(lane));
        for (rounds, _) in self.predictable_rounds.iter_mut().zip(live).filter(|&(_, on)| on) {
            *rounds = if open { rounds.wrapping_sub(self.ticks) } else { rounds.wrapping_add(self.ticks) };
        }
    }

    /// Empirical per-round, per-decision speculation-entry probability:
    /// total entries over (chunks × rounds). Parameterizes the random-entry
    /// ablation variant v2, as the paper measured it.
    ///
    /// With zero scalars or before the first observed round the denominator
    /// is zero and the bare division would yield NaN; this returns the
    /// documented sentinel `0.0` — never NaN — instead.
    pub fn empirical_entry_probability(&self) -> f64 {
        let denom = (self.obs.len() * self.rounds_seen) as f64;
        if denom == 0.0 {
            0.0
        } else {
            self.total_enters as f64 / denom
        }
    }

    /// The current predictability mask, one entry per scalar: the `bool`
    /// view of the lane row, built on demand (each chunk's lane spread over
    /// its scalars, through the one allocation site the join image uses).
    pub fn predictable_mask(&self) -> Vec<bool> {
        self.per_scalar(self.mask.iter().step_by(self.chunk).map(|&lane| is_on(lane)))
    }

    /// Number of currently-speculative scalars.
    pub fn predictable_count(&self) -> usize {
        self.mask.len() - self.unmasked
    }

    /// Current oscillation ratio of scalar `j` (of its chunk).
    ///
    /// With an empty observation window (before any update has been
    /// absorbed) the EMA magnitudes are both zero and the raw ratio would be
    /// 0/0; the estimator returns its documented sentinel `0.0` — never NaN
    /// (see `EmaPair::ratio`). `None` when `j` is out of range.
    pub fn oscillation_ratio(&self, j: usize) -> Option<f64> {
        self.ema(j / self.chunk).filter(|_| j < self.mask.len()).map(|ema| ema.ratio())
    }

    /// Chunk `c`'s EMA pair, read from its two rows.
    fn ema(&self, c: usize) -> Option<EmaPair> {
        Some(EmaPair { signed: *self.ema_signed.get(c)?, magnitude: *self.ema_magnitude.get(c)? })
    }

    /// Bytes of FedSU state resident on *one* client: the predictability
    /// mask and no-checking bookkeeping, the EMA pair, the profiled slope,
    /// and the local error accumulator (Table II's memory inflation). This
    /// is the *modelled* client footprint — the paper's one mask bit counted
    /// as a byte — not this emulation's resident memory, whose mask is a
    /// lane word per scalar.
    pub fn per_client_state_bytes(&self) -> usize {
        let per_scalar = 1 // predictable mask bit (counted as a byte)
            + std::mem::size_of::<f32>() // slope
            + std::mem::size_of::<f32>() // prev update
            + std::mem::size_of::<f32>(); // local error accumulator
        let per_chunk = 2 * std::mem::size_of::<u16>() // no-check bookkeeping
            + 2 * std::mem::size_of::<f32>() // EMA pair
            + std::mem::size_of::<u16>(); // observation counter
        self.mask.len() * per_scalar + self.obs.len() * per_chunk
    }

    /// Chunk `c`'s value at every scalar of the chunk.
    fn per_scalar<T: Copy>(&self, per_chunk: impl IntoIterator<Item = T>) -> Vec<T> {
        let n = self.mask.len();
        let mut out = Vec::with_capacity(n);
        for v in per_chunk {
            out.resize(out.len().saturating_add(self.chunk).min(n), v);
        }
        out
    }

    /// The inverse of [`Self::per_scalar`]: each chunk's value, read at the
    /// chunk's first scalar.
    fn per_chunk<T: Copy>(&self, per_scalar: &[T]) -> Vec<T> {
        per_scalar.iter().step_by(self.chunk).copied().collect()
    }

    /// Exports the replicated state a joining client must download
    /// (Sec. V's dynamicity protocol). The image is per scalar at every
    /// granularity — a chunk's decision state is repeated for each of its
    /// scalars — so the wire format has one shape.
    pub fn export_join_state(&self) -> JoinState {
        let ema = self.ema_signed.iter().zip(&self.ema_magnitude);
        JoinState {
            predictable: self.predictable_mask(),
            slope: self.slope.clone(),
            no_check_len: self.per_scalar(self.no_check_len.iter().copied()),
            // The counters are integers in `0..=u16::MAX` (see the fields).
            no_check_remaining: self.per_scalar(self.no_check_remaining.iter().map(|&r| r as u16)),
            prev_update: self.prev_update.clone(),
            ema: self.per_scalar(ema.map(|(&signed, &magnitude)| EmaPair { signed, magnitude })),
            obs: self.per_scalar(self.obs.iter().map(|&o| o as u16)),
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
        if !self.mask.is_empty() {
            assert_eq!(state.predictable.len(), self.mask.len(), "join state size mismatch");
        }
        self.settle_live_periods(false);
        self.mask = state.predictable.iter().map(|&p| if p { LANE_ON } else { LANE_OFF }).collect();
        self.slope = state.slope.clone();
        self.prev_update = state.prev_update.clone();
        self.no_check_len = self.per_chunk(&state.no_check_len);
        self.no_check_remaining = self.per_chunk(&state.no_check_remaining).into_iter().map(f32::from).collect();
        self.obs = self.per_chunk(&state.obs).into_iter().map(f32::from).collect();
        let ema = self.per_chunk(&state.ema);
        self.ema_signed = ema.iter().map(|e| e.signed).collect();
        self.ema_magnitude = ema.iter().map(|e| e.magnitude).collect();
        self.rounds_seen = state.rounds_seen as usize;
        self.unmasked = state.predictable.iter().filter(|&&p| !p).count();
        self.checks_due = self.count_due();
        if self.predictable_rounds.len() != self.obs.len() {
            self.predictable_rounds = vec![0; self.obs.len()];
        }
        self.settle_live_periods(true);
        // The error pass adds `+0.0` off the mask and `promote` leaves the
        // rows alone, so a stale accumulator off the new mask is cleared here.
        for errs in &mut self.errors {
            for (e, &lane) in errs.iter_mut().zip(&self.mask) {
                if !is_on(lane) {
                    *e = 0.0;
                }
            }
        }
    }

    fn ensure_capacity(&mut self, n_params: usize, n_clients: usize) {
        // Scratch, fully rewritten before every use: sized on its own so a
        // manager seeded by `apply_join_state` has one too.
        self.sum.resize(n_params, 0.0);
        let n_chunks = n_params.div_ceil(self.chunk);
        self.due_bits.resize(n_chunks.div_ceil(64), 0);
        self.entry_bits.resize(n_chunks.div_ceil(64), 0);
        if self.mask.len() != n_params {
            // Resize in place: steady rounds with a stable model never
            // reallocate, and a size change reuses existing capacity.
            self.mask.clear();
            self.mask.resize(n_params, LANE_OFF);
            self.slope.clear();
            self.slope.resize(n_params, 0.0);
            self.prev_update.clear();
            self.prev_update.resize(n_params, 0.0);
            self.no_check_len.clear();
            self.no_check_len.resize(n_chunks, 0);
            self.no_check_remaining.clear();
            self.no_check_remaining.resize(n_chunks, 0.0);
            self.obs.clear();
            self.obs.resize(n_chunks, 0.0);
            self.ema_signed.clear();
            self.ema_signed.resize(n_chunks, 0.0);
            self.ema_magnitude.clear();
            self.ema_magnitude.resize(n_chunks, 0.0);
            self.predictable_rounds.clear();
            self.predictable_rounds.resize(n_chunks, 0);
            self.unmasked = n_params;
            self.checks_due = 0;
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

    /// Re-synchronizes per-client state for clients that were absent at the
    /// previous aggregation and are active again now (Sec. V's rejoin path):
    /// a rejoiner downloads fresh replicated state, so its stale local error
    /// accumulator must not poison the feedback signal `S`.
    fn reset_rejoiners(&mut self, active: &[bool]) {
        if self.prev_active.len() != active.len() {
            self.prev_active.clear();
            self.prev_active.resize(active.len(), false);
        }
        // `prev_active` was just resized to `active.len()`, so the zip walks
        // all clients.
        for ((errs, &act), &prev) in self.errors.iter_mut().zip(active).zip(&self.prev_active) {
            if act && !prev {
                errs.fill(0.0);
            }
        }
        self.prev_active.copy_from_slice(active);
    }

    /// Chunks whose check falls in the next round.
    fn count_due(&self) -> usize {
        self.no_check_remaining.iter().filter(|&&r| r == 1.0).count()
    }

    /// Moves chunk `c` (scalars `range`) into speculation, each scalar on
    /// its last observed update.
    fn promote(&mut self, c: usize, range: Range<usize>, round: usize) {
        self.total_enters += 1;
        self.unmasked -= range.len();
        // Every caller passes the aggregate loop's `c` and its `range`,
        // which lie inside the per-chunk and per-scalar arrays, so these
        // lookups cannot miss; `get_mut` keeps the round loop free of panic
        // branches.
        if let Some(m) = self.mask.get_mut(range.clone()) {
            m.fill(LANE_ON);
        }
        if let (Some(s), Some(u)) = (self.slope.get_mut(range.clone()), self.prev_update.get(range.clone())) {
            s.copy_from_slice(u);
        }
        let period = match self.exit {
            ExitPolicy::ErrorFeedback => INITIAL_NO_CHECK,
            ExitPolicy::FixedPeriod(p) => p.max(1),
        };
        if let (Some(l), Some(r)) = (self.no_check_len.get_mut(c), self.no_check_remaining.get_mut(c)) {
            (*l, *r) = (period, f32::from(period));
        }
        self.checks_due += usize::from(period == 1);
        if let Some(rounds) = self.predictable_rounds.get_mut(c) {
            *rounds = rounds.wrapping_sub(self.ticks);
        }
        // The accumulators are already `+0.0` here: the chunk was off the
        // mask, where the `[fedsu-mask]` invariant holds them there.
        let slopes = &self.slope;
        self.events.extend(self.tracked.iter().filter(|j| range.contains(j)).filter_map(|&j| {
            let kind = MaskEventKind::Enter { slope: *slopes.get(j)? };
            Some(MaskEvent { round, param: j, kind })
        }));
    }

    /// Returns chunk `c` (scalars `range`) to regular updating with a clean
    /// diagnosis history.
    fn demote(&mut self, c: usize, range: Range<usize>, feedback: Option<f64>, round: usize) {
        self.total_exits += 1;
        self.unmasked += range.len();
        // Same bounds argument as `promote`.
        if let Some(m) = self.mask.get_mut(range.clone()) {
            m.fill(LANE_OFF);
        }
        if let (Some(l), Some(r)) = (self.no_check_len.get_mut(c), self.no_check_remaining.get_mut(c)) {
            (*l, *r) = (0, 0.0);
        }
        let state = (self.obs.get_mut(c), self.ema_signed.get_mut(c), self.ema_magnitude.get_mut(c));
        if let (Some(o), Some(s), Some(m)) = state {
            (*o, *s, *m) = (0.0, 0.0, 0.0);
        }
        if let Some(rounds) = self.predictable_rounds.get_mut(c) {
            *rounds = rounds.wrapping_add(self.ticks);
        }
        for e in &mut self.errors {
            if let Some(v) = e.get_mut(range.clone()) {
                v.fill(0.0);
            }
        }
        let kind = MaskEventKind::Exit { feedback };
        let exited = self.tracked.iter().filter(|j| range.contains(j));
        self.events.extend(exited.map(|&j| MaskEvent { round, param: j, kind }));
    }

    /// Verifies the mask bookkeeping after a round (armed by
    /// `FEDSU_CHECK_INVARIANTS=1`): every lane of the mask row is all-zero
    /// or all-one and the scalars of a chunk share one, a speculative chunk
    /// always has a live no-checking period `1 ≤ remaining ≤ len`, a regular
    /// chunk has none at all, the running `unmasked` count equals what a
    /// scan finds, and every client's error accumulator is `+0.0` off the
    /// mask (what lets the error pass add `+0.0` there and change nothing).
    /// [`promote`]/[`demote`]/period-extension are the only writers, so any
    /// divergence means the state machine itself broke.
    ///
    /// [`promote`]: FedSu::promote
    /// [`demote`]: FedSu::demote
    fn check_mask_invariants(&self, round: usize) {
        if fedsu_tensor::invariant::enabled() {
            self.assert_mask_invariants(round);
        }
    }

    fn assert_mask_invariants(&self, round: usize) {
        // The per-chunk arrays share length `n_chunks` and `chunks` yields
        // that many mask slices, so the zip covers every chunk.
        for (c, ((mask, &len), &remaining)) in
            self.mask.chunks(self.chunk).zip(&self.no_check_len).zip(&self.no_check_remaining).enumerate()
        {
            let lane = mask.first().map_or(0, |m| m.to_bits());
            assert!(
                lane == LANE_OFF.to_bits() || lane == LANE_ON.to_bits(),
                "invariant violation [fedsu-mask]: round {round}, chunk {c}: \
                 mask lane {lane:#010x} is neither all-zero nor all-one"
            );
            assert!(
                mask.iter().all(|m| m.to_bits() == lane),
                "invariant violation [fedsu-mask]: round {round}, chunk {c}: \
                 scalars of one chunk disagree on the mask bit"
            );
            if lane != 0 {
                assert!(
                    (1.0..=f32::from(len)).contains(&remaining),
                    "invariant violation [fedsu-mask]: round {round}, chunk {c}: \
                     predictable but no-check period is remaining={remaining} of \
                     len={len} (expected 1 <= remaining <= len)"
                );
            } else {
                assert!(
                    len == 0 && remaining.to_bits() == 0,
                    "invariant violation [fedsu-mask]: round {round}, chunk {c}: \
                     regular-updating chunk carries a no-check period \
                     (len={len}, remaining={remaining})"
                );
            }
        }
        let unmasked = self.mask.iter().filter(|&&lane| !is_on(lane)).count();
        assert!(
            self.unmasked == unmasked,
            "invariant violation [fedsu-mask]: round {round}: running count \
             unmasked={} differs from the mask's {unmasked}",
            self.unmasked
        );
        let due = self.count_due();
        assert!(
            self.checks_due == due,
            "invariant violation [fedsu-mask]: round {round}: running count \
             checks_due={} differs from the countdown's {due}",
            self.checks_due
        );
        for (i, errs) in self.errors.iter().enumerate() {
            assert!(
                errs.iter().zip(&self.mask).all(|(e, &lane)| is_on(lane) || e.to_bits() == 0),
                "invariant violation [fedsu-mask]: round {round}: client {i}'s \
                 error accumulator is not +0.0 off the mask"
            );
        }
    }
}

/// The sync step's passes, in the order `aggregate` runs them. Everything
/// that costs O(clients) per scalar is a pass over whole contiguous rows,
/// and so is the per-chunk state machine; only flagged chunks (entry
/// candidates and due checks) are visited one by one.
impl FedSu {
    /// Sum pass: the selected rows in `selected` order onto `+0.0`; the sweep
    /// scales by `inv` (FedSU's chain is `(Σ local)·inv`).
    fn sum_pass(&mut self, locals: &[Vec<f32>], selected: &[usize]) {
        if self.unmasked > 0 {
            let level = simd::simd_level();
            self.sum.fill(0.0);
            for local in selected.iter().filter_map(|&k| locals.get(k)) {
                simd::add_assign_with(level, &mut self.sum, local);
            }
        }
    }

    /// Regular synchronization off the mask (the selected clients' average)
    /// and every chunk's countdown and diagnosis, in one pass over the rows.
    fn sweep(&mut self, global: &mut [f32], inv: f32) {
        let ratio_bound = match self.entry {
            EntryPolicy::Oscillation => ratio_bound(self.config.t_r),
            EntryPolicy::Random { .. } => f32::INFINITY,
        };
        let rule = SweepRule { chunk: self.chunk, inv, theta: THETA, warmup: f32::from(WARMUP_UPDATES), ratio_bound };
        let rows = SweepRows {
            global,
            prev_update: &mut self.prev_update,
            sum: &self.sum,
            remaining: &mut self.no_check_remaining,
            observed: &mut self.obs,
            signed: &mut self.ema_signed,
            magnitude: &mut self.ema_magnitude,
        };
        self.due_bits.fill(0);
        self.entry_bits.fill(0);
        let flags = (&mut self.due_bits[..], &mut self.entry_bits[..]);
        // The event scan adds the chunks its transitions leave one round from
        // a check.
        self.checks_due = simd::sweep_chunks_with(simd::simd_level(), rows, rule, flags);
    }

    /// Speculative pass: masked replacement with the predicted value, in
    /// place; no synchronization for these scalars. Then the error pass: on
    /// the mask `global` now holds the prediction every active client
    /// measures its own result against. When a check is due, each selected
    /// client's report (its accumulated error averaged over the chunk) is
    /// summed into `sum`, which the sweep has done with, per chunk and in
    /// `selected` order, in the same pass over its row (each mean and the
    /// sum fold from `−0.0`, as `f32::sum` does). Neither pass reads or
    /// writes what the sweep wrote: its scalars are off the mask.
    fn predict_and_report(&mut self, locals: &[Vec<f32>], selected: &[usize], active: &[bool], global: &mut [f32]) {
        if self.unmasked == global.len() {
            return;
        }
        let level = simd::simd_level();
        simd::add_assign_masked_with(level, global, &self.slope, &self.mask);
        if !matches!(self.exit, ExitPolicy::ErrorFeedback) {
            return;
        }
        let reporting = self.due_bits.iter().any(|&due| due != 0);
        for (k, ((errs, local), &act)) in self.errors.iter_mut().zip(locals).zip(active).enumerate() {
            if act && !(reporting && selected.contains(&k)) {
                simd::add_diff_masked_with(level, errs, local, global, &self.mask);
            }
        }
        if !reporting {
            return;
        }
        self.sum.fill(-0.0);
        for (i, &k) in selected.iter().enumerate() {
            let (Some(errs), Some(local)) = (self.errors.get_mut(k), locals.get(k)) else { continue };
            // A selected client accumulates once (it may be inactive, or
            // listed twice) and reports each time it is listed.
            let first = !selected.get(..i).unwrap_or_default().contains(&k);
            if first && active.get(k) == Some(&true) {
                simd::add_diff_masked_means_with(level, errs, local, global, &self.mask, &mut self.sum, self.chunk);
            } else {
                simd::add_chunk_means_with(level, &mut self.sum, errs, self.chunk);
            }
        }
    }

    /// The event scan: the flagged chunks in ascending order, which defines
    /// v2's `gen_bool` stream and the order of the recorded mask events. A
    /// transition touches only its own chunk's scalars and state, which the
    /// passes have already made final, so the transitions may run after the
    /// passes. Returns the checks made.
    fn resolve_flagged(&mut self, round: usize, global: &mut [f32], inv: f32) -> usize {
        let mut checked = 0;
        for w in 0..self.due_bits.len() {
            let (Some(&due), Some(&entry)) = (self.due_bits.get(w), self.entry_bits.get(w)) else { break };
            let mut flagged = due | entry;
            while flagged != 0 {
                let bit = flagged.trailing_zeros();
                flagged &= flagged - 1;
                let c = w * 64 + bit as usize;
                if due >> bit & 1 == 1 {
                    checked += usize::from(self.resolve_due(c, round, global, inv));
                } else {
                    self.resolve_candidate(c, round);
                }
            }
        }
        checked
    }

    /// An entry candidate takes Eq. 2's exact test (or v2's coin) and may be
    /// promoted.
    fn resolve_candidate(&mut self, c: usize, round: usize) {
        let range = chunk_range(c, self.chunk, self.mask.len());
        let enter = match self.entry {
            // Eq. 2 on the chunk means, second differences judged against
            // the update they ride on (the sweep just made it `prev_update`;
            // folded onto `+0.0` as it did).
            EntryPolicy::Oscillation => {
                let updates = self.prev_update.get(range.clone()).unwrap_or_default();
                let update = updates.iter().fold(0.0, |acc: f32, g| acc + g.abs()) / range.len() as f32;
                self.ema(c).is_some_and(|ema| ema.guarded_ratio(update) < self.config.t_r)
            }
            EntryPolicy::Random { probability } => self.rng.gen_bool(probability),
        };
        if enter {
            self.promote(c, range, round);
        }
    }

    /// A due chunk exits after its fixed period, or takes Eq. 3's check and
    /// is extended or demoted. Returns whether a check was made.
    fn resolve_due(&mut self, c: usize, round: usize, global: &mut [f32], inv: f32) -> bool {
        let range = chunk_range(c, self.chunk, self.mask.len());
        if matches!(self.exit, ExitPolicy::FixedPeriod(_)) {
            self.demote(c, range, None, round);
            return false;
        }
        // The no-checking period expired: every selected client reported its
        // accumulated error averaged over the chunk (one scalar of
        // communication); Eq. 3 runs on their mean.
        let FedSuConfig { t_s, correct_on_exit, .. } = self.config;
        let e_mean = self.sum.get(c).map_or(0.0, |&e| e * inv);
        let slopes = self.slope.get(range.clone()).unwrap_or_default();
        let slope_mean = slopes.iter().map(|s| s.abs()).sum::<f32>() / range.len() as f32;
        let s = f64::from(e_mean.abs()) / f64::from(slope_mean.max(f32::EPSILON));
        if s < t_s {
            // Linearity persists: extend by one round.
            if let (Some(period), Some(remaining)) = (self.no_check_len.get_mut(c), self.no_check_remaining.get_mut(c)) {
                *period = period.saturating_add(1).min(MAX_NO_CHECK);
                *remaining = f32::from(*period);
                self.checks_due += usize::from(*period == 1);
            }
        } else {
            if let Some(values) = global.get_mut(range.clone()).filter(|_| correct_on_exit) {
                values.iter_mut().for_each(|g| *g += e_mean);
            }
            self.demote(c, range, Some(s), round);
        }
        true
    }
}

/// Chunk `c`'s scalars in a model of `n`.
fn chunk_range(c: usize, chunk: usize, n: usize) -> Range<usize> {
    let start = c.saturating_mul(chunk).min(n);
    start..start.saturating_add(chunk).min(n)
}

/// The sweep's entry pre-filter for Eq. 2: a chunk whose new EMA
/// pair clears both magnitude guards and has `|signed| > magnitude·bound`
/// is not flagged. The f64 test it stands in for is
/// `min(|signed| / magnitude, 1) < t_r`, so the bound is `t_r` widened by
/// 2⁻¹⁰, kept clear of `f32` underflow, and infinite when `t_r > 1` (every
/// ratio passes). The `f32` product and the f64 quotient each round by far
/// less than that margin, so no chunk the exact test admits is dropped; the
/// exact test runs on every flagged chunk.
fn ratio_bound(t_r: f64) -> f32 {
    if t_r > 1.0 {
        f32::INFINITY
    } else {
        ((t_r * (1.0 + 1.0 / 1024.0)) as f32).max(2f32.powi(-60))
    }
}

/// Whether a lane word of the mask row is set.
fn is_on(lane: f32) -> bool {
    lane.to_bits() != 0
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
        // Every unmasked scalar, plus one aggregated error value per chunk
        // whose no-checking period ends this round.
        let check_due = match self.exit {
            ExitPolicy::ErrorFeedback => self.checks_due,
            ExitPolicy::FixedPeriod(_) => 0,
        };
        out.clear();
        out.resize(locals.len(), (self.unmasked + check_due) as u64);
    }

    fn aggregate(
        &mut self,
        round: usize,
        locals: &[Vec<f32>],
        selected: &[usize],
        active: &[bool],
        global: &mut [f32],
    ) -> AggregateOutcome {
        let n = global.len();
        // The row kernels run over the common prefix of their operands: a
        // missing or short row has to fail here, not under-sum silently.
        let of_active = locals.iter().zip(active).filter(|(_, &act)| act).map(|(local, _)| Some(local));
        let mut read = selected.iter().map(|&k| locals.get(k)).chain(of_active);
        assert!(read.all(|local| local.is_some_and(|l| l.len() == n)), "local/global length mismatch");
        self.ensure_capacity(n, locals.len());
        self.reset_rejoiners(active);
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
            return AggregateOutcome { broadcast_scalars: 0, synced_scalars: 0 };
        }
        let inv = 1.0 / selected.len().max(1) as f32;
        let synced = self.unmasked;
        let (enters_before, exits_before) = (self.total_enters, self.total_exits);
        self.ticks = self.ticks.wrapping_add(1);
        self.sum_pass(locals, selected);
        self.sweep(global, inv);
        self.predict_and_report(locals, selected, active, global);
        let checked = self.resolve_flagged(round, global, inv);
        self.rounds_seen += 1;
        self.history.push(RoundStats {
            round,
            predictable: n - synced,
            checks: checked,
            enters: (self.total_enters - enters_before) as usize,
            exits: (self.total_exits - exits_before) as usize,
        });
        self.check_mask_invariants(round);
        AggregateOutcome { broadcast_scalars: synced + checked, synced_scalars: synced + checked }
    }

    fn state_bytes(&self) -> usize {
        // Per-client replicated state, times the number of client replicas
        // the emulation is standing in for.
        self.per_client_state_bytes().saturating_mul(self.errors.len().max(1))
    }

    fn join_state(&self) -> Option<Vec<u8>> {
        if self.mask.is_empty() {
            None
        } else {
            Some(self.export_join_state().to_bytes())
        }
    }

    fn skip_fractions(&self) -> Option<Vec<f64>> {
        if self.rounds_seen == 0 {
            return None;
        }
        Some(self.per_scalar(self.speculative_rounds().map(|p| p as f64 / self.rounds_seen as f64)))
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
        global: &mut [f32],
        per_client_updates: &[Vec<f32>],
        round: usize,
    ) -> AggregateOutcome {
        let locals: Vec<Vec<f32>> = per_client_updates
            .iter()
            .map(|u| global.iter().zip(u).map(|(g, d)| g + d).collect())
            .collect();
        let selected: Vec<usize> = (0..locals.len()).collect();
        let active = vec![true; locals.len()];
        fedsu.prepare_uploads_into(round, &locals, global, &mut Vec::new());
        fedsu.aggregate(round, &locals, &selected, &active, global)
    }

    #[test]
    fn empty_window_statistics_return_finite_sentinels() {
        // A fresh manager has seen nothing: every statistic's denominator is
        // zero and the bare division would be NaN. The documented sentinel
        // is 0.0.
        let f = FedSu::default();
        assert_eq!(f.mean_speculation_period(), 0.0);
        assert_eq!(f.empirical_entry_probability(), 0.0);
        assert!(f.oscillation_ratio(0).is_none(), "no scalars allocated yet");
    }

    #[test]
    fn oscillation_ratio_is_zero_not_nan_before_any_signal() {
        let mut f = FedSu::default();
        let mut global = vec![0.0, 0.0];
        // Identically-zero updates keep both EMA terms at zero (raw 0/0).
        drive_round(&mut f, &mut global, &[vec![0.0, 0.0]], 0);
        for j in 0..2 {
            let r = f.oscillation_ratio(j).unwrap();
            assert_eq!(r, 0.0, "scalar {j}");
            assert!(!r.is_nan(), "scalar {j}");
        }
        assert!(f.oscillation_ratio(2).is_none(), "out of range is None, not a panic");
        assert!(f.mean_speculation_period().is_finite());
        assert!(f.empirical_entry_probability().is_finite());
    }

    #[test]
    fn first_rounds_are_fully_synchronized() {
        let mut f = FedSu::default();
        let mut global = vec![0.0, 0.0];
        let out = drive_round(&mut f, &mut global, &[vec![0.1, 0.2]], 0);
        assert_eq!(out.synced_scalars, 2);
        assert!((global[0] - 0.1).abs() < 1e-6);
    }

    #[test]
    fn linear_parameter_enters_speculation() {
        let mut f = FedSu::default();
        let mut global = vec![0.0];
        // Constant per-round update -> linear trajectory.
        for round in 0..6 {
            drive_round(&mut f, &mut global, &[vec![-0.01]], round);
        }
        assert_eq!(f.predictable_count(), 1, "ratio {:?}", f.oscillation_ratio(0));
    }

    #[test]
    fn speculative_parameter_skips_synchronization() {
        let mut f = FedSu::default();
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
        let mut f = FedSu::default();
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
        let mut f = FedSu::default();
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
    fn no_check_period_stops_at_its_cap() {
        // One speculating scalar on its line, its check due next round with
        // the period one short of the cap.
        let mut f = FedSu::default();
        f.apply_join_state(&JoinState {
            predictable: vec![true],
            slope: vec![-0.01],
            no_check_len: vec![1023],
            no_check_remaining: vec![1],
            prev_update: vec![-0.01],
            ema: vec![EmaPair::default()],
            obs: vec![4],
            rounds_seen: 0,
        });
        let mut global = vec![0.0];
        drive_round(&mut f, &mut global, &[vec![-0.01]], 0);
        assert_eq!((f.history()[0].checks, f.no_check_len[0]), (1, 1024), "the due check reaches the cap");
        for round in 1..=1024 {
            drive_round(&mut f, &mut global, &[vec![-0.01]], round);
        }
        let checks: usize = f.history().iter().map(|h| h.checks).sum();
        assert_eq!((checks, f.no_check_len[0]), (2, 1024), "the next check stays at the cap");
        assert!(f.predictable_mask()[0]);
    }

    #[test]
    fn broken_linearity_triggers_exit_via_error_feedback() {
        let mut f = FedSu::default();
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
        let mut f = FedSu::default();
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
        let mut f = FedSu::default();
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
        let mut f = FedSu::default();
        let mut global = vec![0.0, 0.0];
        // Scalar 0 linear; scalar 1 alternates curvature (stays regular).
        for round in 0..6 {
            let w = if round % 2 == 0 { 0.03 } else { -0.01 };
            drive_round(&mut f, &mut global, &[vec![-0.01, w]], round);
        }
        assert!(f.predictable_mask()[0]);
        assert!(!f.predictable_mask()[1]);
        let locals = vec![global.clone()];
        let mut up = Vec::new();
        f.prepare_uploads_into(99, &locals, &global, &mut up);
        // Scalar 1 always uploads; scalar 0 uploads only at check rounds.
        assert!(up[0] == 1 || up[0] == 2);
    }

    #[test]
    fn v1_exits_after_fixed_period_without_checks() {
        let period = 3u16;
        let mut f = FedSu::variant_v1(FedSuConfig::default(), period);
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
        let mut up = Vec::new();
        f.prepare_uploads_into(round, &locals, &global, &mut up);
        assert_eq!(up, vec![0]);
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
        let mut f = FedSu::variant_v2(FedSuConfig::default(), 0.5, 2);
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
        let mut f = FedSu::default();
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
        let mut f = FedSu::default();
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
        let mut joiner = FedSu::default();
        joiner.ensure_capacity(2, 1);
        joiner.apply_join_state(&decoded);
        assert_eq!(joiner.predictable_mask(), f.predictable_mask());
        let locals = vec![global.clone()];
        let mut up_orig = Vec::new();
        f.prepare_uploads_into(9, &locals, &global, &mut up_orig);
        let mut up_join = Vec::new();
        joiner.prepare_uploads_into(9, &locals, &global, &mut up_join);
        assert_eq!(up_orig, up_join);
    }

    #[test]
    fn state_bytes_scale_with_model_and_clients() {
        let mut f = FedSu::default();
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
        let mut f = FedSu::default();
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
        let mut f = FedSu::default();
        let mut global = vec![0.0];
        // Promote with both clients active.
        for round in 0..6 {
            let locals = vec![vec![global[0] - 0.01], vec![global[0] - 0.01]];
            f.prepare_uploads_into(round, &locals, &global, &mut Vec::new());
            f.aggregate(round, &locals, &[0, 1], &[true, true], &mut global);
        }
        assert!(f.predictable_mask()[0]);
        // Client 1 goes inactive; its stale local would poison the errors.
        let poisoned = vec![vec![global[0] - 0.01], vec![999.0]];
        f.prepare_uploads_into(6, &poisoned, &global, &mut Vec::new());
        f.aggregate(6, &poisoned, &[0], &[true, false], &mut global);
        assert_eq!(f.errors[1][0], 0.0, "inactive client error must stay untouched");
    }

    #[test]
    fn rejoining_client_errors_are_resynced() {
        let mut f = FedSu::new(FedSuConfig { t_s: 10.0, ..FedSuConfig::default() });
        let mut global = vec![0.0f32];
        let mut round = 0;
        while !f.predictable_mask().first().copied().unwrap_or(false) {
            let locals = vec![vec![global[0] - 0.01], vec![global[0] - 0.01]];
            f.prepare_uploads_into(round, &locals, &global, &mut Vec::new());
            f.aggregate(round, &locals, &[0, 1], &[true, true], &mut global);
            round += 1;
            assert!(round < 10, "should promote within warmup");
        }
        // Speculative rounds with a slight mismatch: both clients accumulate
        // prediction error.
        for _ in 0..2 {
            let locals = vec![vec![global[0] - 0.02], vec![global[0] - 0.02]];
            f.prepare_uploads_into(round, &locals, &global, &mut Vec::new());
            f.aggregate(round, &locals, &[0, 1], &[true, true], &mut global);
            round += 1;
        }
        assert!(f.predictable_mask()[0], "should still be speculative");
        assert_ne!(f.errors[1][0], 0.0, "client 1 accumulated error before leaving");
        // Client 1 leaves for a round...
        let locals = vec![vec![global[0] - 0.02], vec![0.0]];
        f.prepare_uploads_into(round, &locals, &global, &mut Vec::new());
        f.aggregate(round, &locals, &[0], &[true, false], &mut global);
        round += 1;
        // ...and rejoins reporting exactly the predicted value: its stale
        // error must have been cleared, leaving only this round's zero
        // residual.
        assert!(f.predictable_mask()[0]);
        let predicted = global[0] + f.slope[0];
        let locals = vec![vec![global[0] - 0.02], vec![predicted]];
        f.prepare_uploads_into(round, &locals, &global, &mut Vec::new());
        f.aggregate(round, &locals, &[0], &[true, true], &mut global);
        assert_eq!(f.errors[1][0], 0.0, "rejoiner's stale error must be resynced");
    }

    #[test]
    fn empty_selection_holds_global_and_state() {
        let mut f = FedSu::default();
        let mut global = vec![0.5f32, -0.25];
        let locals = vec![vec![9.0, 9.0]];
        f.prepare_uploads_into(0, &locals, &global, &mut Vec::new());
        let out = f.aggregate(0, &locals, &[], &[false], &mut global);
        assert_eq!(global, vec![0.5, -0.25], "a barren round must hold all values");
        assert_eq!(out.synced_scalars, 0);
        assert_eq!(out.broadcast_scalars, 0);
        assert_eq!(f.history().len(), 1);
        assert_eq!(f.history()[0].checks, 0);
    }

    // Decision granularity (Sec. III-A): the same manager deciding once
    // per chunk.

    fn coarse(chunk: usize) -> FedSu {
        FedSu::chunked(FedSuConfig { t_r: 0.1, t_s: 10.0, ..FedSuConfig::default() }, chunk)
    }

    fn drive(coarse: &mut FedSu, global: &mut [f32], updates: &[f32], round: usize) -> AggregateOutcome {
        let locals = vec![global.iter().zip(updates).map(|(g, u)| g + u).collect::<Vec<f32>>()];
        coarse.prepare_uploads_into(round, &locals, global, &mut Vec::new());
        coarse.aggregate(round, &locals, &[0], &[true], global)
    }

    #[test]
    fn chunk_one_behaves_like_per_scalar_fedsu() {
        let mut f = coarse(1);
        let mut global = vec![0.0f32; 2];
        for round in 0..8 {
            drive(&mut f, &mut global, &[-0.01, -0.02], round);
        }
        assert_eq!(f.predictable_mask(), [true, true], "both linear scalars speculate");
        assert_eq!(f.name(), "fedsu");
        assert_eq!(coarse(2).name(), "fedsu-coarse");
    }

    #[test]
    fn coarse_chunk_corrupts_mixed_content() {
        // One linear scalar and one strongly alternating scalar share a
        // chunk. The chunk-mean diagnosis sees the alternation average out,
        // admits the pair, and then freezes a *wrong* slope onto the
        // alternating scalar — whose trajectory drifts away from the truth.
        // Per-scalar granularity (chunk = 1) never speculates that scalar.
        // This is exactly Sec. III-A's argument for fine-grained decisions:
        // coarseness costs accuracy, not just opportunity.
        let horizon = 30;
        let mut fine = coarse(1);
        let mut coarse = coarse(2);
        let mut gf = vec![0.0f32; 2];
        let mut gc = vec![0.0f32; 2];
        for round in 0..horizon {
            let flip = if round % 2 == 0 { 0.05 } else { -0.05 };
            drive(&mut fine, &mut gf, &[-0.01, flip], round);
            drive(&mut coarse, &mut gc, &[-0.01, flip], round);
        }
        // Ground truth for the alternating scalar stays within one step of 0.
        assert!(gf[1].abs() <= 0.0501, "fine tracks the alternation: {}", gf[1]);
        assert!(
            gc[1].abs() > gf[1].abs() + 0.05,
            "coarse speculation must have corrupted the alternating scalar: {} vs {}",
            gc[1],
            gf[1]
        );
    }

    #[test]
    fn uniform_linear_chunks_speculate_and_track() {
        let mut f = coarse(4);
        let mut global = vec![0.0f32; 8];
        let updates = vec![-0.01f32; 8];
        for round in 0..20 {
            drive(&mut f, &mut global, &updates, round);
        }
        assert_eq!(f.predictable_count(), 8);
        for (j, v) in global.iter().enumerate() {
            assert!((v - (-0.01 * 20.0)).abs() < 1e-4, "scalar {j} drifted: {v}");
        }
        let skips = f.skip_fractions().unwrap();
        assert_eq!(skips.len(), 8);
        assert!(skips[0] > 0.3);
    }

    #[test]
    fn ragged_final_chunk_is_handled() {
        let mut f = coarse(3);
        let mut global = vec![0.0f32; 7]; // chunks of 3, 3, 1
        let updates = vec![-0.01f32; 7];
        for round in 0..10 {
            drive(&mut f, &mut global, &updates, round);
        }
        assert_eq!(f.obs.len(), 3);
    }

    #[test]
    fn empty_selection_holds_values_and_state() {
        let mut f = coarse(2);
        let mut global = vec![1.0f32, 2.0, 3.0];
        let locals = vec![vec![9.0f32; 3]];
        let out = f.aggregate(0, &locals, &[], &[false], &mut global);
        assert_eq!(global, [1.0, 2.0, 3.0]);
        assert_eq!((out.broadcast_scalars, out.synced_scalars), (0, 0));
        assert_eq!(f.rounds_seen, 1, "the round still counts");
        assert!(f.obs.iter().all(|&o| o == 0.0), "no diagnosis ran");
    }

    #[test]
    fn rejoiner_starts_from_a_clean_error_accumulator() {
        // Two clients on one linear chunk; every local lands exactly on the
        // speculated value, so a round adds (almost) nothing to an accumulator.
        fn step(f: &mut FedSu, global: &mut [f32], selected: &[usize], active: &[bool]) {
            let locals = vec![global.iter().map(|g| g - 0.01).collect::<Vec<f32>>(); 2];
            f.aggregate(0, &locals, selected, active, global);
        }
        let mut f = coarse(2);
        let mut global = vec![0.0f32; 2];
        for _ in 0..8 {
            step(&mut f, &mut global, &[0, 1], &[true, true]);
        }
        assert!(f.predictable_mask()[0], "the linear chunk must speculate");
        f.errors[1][0] = 0.5; // what client 1 had accumulated when it left
        (f.no_check_len[0], f.no_check_remaining[0]) = (8, 8.0); // keep the check out of the way
        step(&mut f, &mut global, &[0], &[true, false]);
        assert_eq!(f.errors[1][0], 0.5, "an absent client's accumulator is left alone");
        step(&mut f, &mut global, &[0, 1], &[true, true]);
        assert!(f.errors[1][0].abs() < 1e-6, "stale error survived the rejoin: {}", f.errors[1][0]);
    }

    #[test]
    #[should_panic(expected = "local/global length mismatch")]
    fn short_local_panics_instead_of_under_summing() {
        let mut f = coarse(1);
        let mut global = vec![0.0f32; 3];
        // Client 1 is not selected, but it is active: the error pass reads it.
        let locals = vec![vec![0.1f32; 3], vec![0.1f32; 2]];
        f.aggregate(0, &locals, &[0], &[true, true], &mut global);
    }

    /// One linear scalar and one of alternating curvature, driven until the
    /// first is speculative and the second is not.
    fn half_masked() -> FedSu {
        let mut f = FedSu::default();
        let mut global = vec![0.0f32; 2];
        for round in 0..8 {
            let w = if round % 2 == 0 { 0.03 } else { -0.01 };
            drive_round(&mut f, &mut global, &[vec![-0.01, w]], round);
        }
        assert_eq!(f.predictable_mask(), [true, false]);
        f.assert_mask_invariants(8);
        f
    }

    #[test]
    fn applied_join_state_clears_accumulators_off_its_mask() {
        // Scalar 0 speculates and client 0 holds an error there. A join image
        // in which nothing speculates leaves that accumulator off the mask:
        // `promote` does not clear it later, so applying the image must.
        let mut f = half_masked();
        f.errors[0][0] = 0.5;
        let mut fresh = FedSu::default();
        drive_round(&mut fresh, &mut [0.0f32; 2], &[vec![0.1, 0.2]], 0);
        f.apply_join_state(&fresh.export_join_state());
        assert_eq!(f.predictable_mask(), [false, false]);
        assert_eq!(f.errors[0][0].to_bits(), 0, "stale accumulator off the mask");
        f.assert_mask_invariants(9);
    }

    #[test]
    #[should_panic(expected = "[fedsu-mask]: round 8: client 0's error accumulator is not +0.0 off the mask")]
    fn nonzero_error_off_the_mask_trips_the_guard() {
        let mut f = half_masked();
        f.errors[0][1] = -0.0;
        f.assert_mask_invariants(8);
    }

    #[test]
    #[should_panic(expected = "[fedsu-mask]: round 8, chunk 0: mask lane 0x3f800000 is neither all-zero nor all-one")]
    fn partial_mask_lane_trips_the_guard() {
        let mut f = half_masked();
        f.mask[0] = 1.0;
        f.assert_mask_invariants(8);
    }

    #[test]
    #[should_panic(expected = "chunk size must be positive")]
    fn zero_chunk_panics() {
        coarse(0);
    }

    #[test]
    fn demoted_chunk_carries_no_period_at_any_granularity() {
        // Promote on a clean line, then break it: whatever the chunk size,
        // the demotion must leave neither a period length nor a countdown
        // behind (the chunk-granular twin used to keep its `no_check_len`).
        for chunk in [1, 2, 3, 8] {
            let mut f = FedSu::chunked(FedSuConfig::default(), chunk);
            let mut global = vec![0.0f32; 5];
            let mut round = 0;
            while f.predictable_count() < 5 {
                drive_round(&mut f, &mut global, &[vec![-0.01; 5]], round);
                round += 1;
                assert!(round < 10, "chunk {chunk}: should promote within warmup");
            }
            while f.predictable_count() > 0 {
                drive_round(&mut f, &mut global, &[vec![0.05; 5]], round);
                round += 1;
                assert!(round < 30, "chunk {chunk}: the broken line must be caught");
            }
            assert!(f.no_check_len.iter().all(|&l| l == 0), "chunk {chunk}: {:?}", f.no_check_len);
            assert!(f.no_check_remaining.iter().all(|&r| r == 0.0), "chunk {chunk}");
            assert_eq!((f.unmasked, f.checks_due), (5, 0), "chunk {chunk}");
        }
    }

    /// Twelve tracked scalars in four groups of three, two clients, all
    /// speculating from round 3 with checks due at rounds 4, 6, 9 and 13.
    /// Groups 1 and 3 break their line at round 7 and exit at the check of
    /// round 9; back on a line from round 10, they re-enter at round 13,
    /// the round in which groups 0 and 2, broken at round 10, exit. Round 13
    /// therefore interleaves exits and entries in index order.
    fn interleaved_events(chunk: usize) -> Vec<MaskEvent> {
        let mut f = FedSu::chunked(FedSuConfig { t_r: 0.1, ..FedSuConfig::default() }, chunk);
        f.track_params(&(0..12).collect::<Vec<_>>());
        let mut global = vec![0.0f32; 12];
        for round in 0..18 {
            let update = |j: usize| {
                let step = match (j / 3 % 2, round) {
                    (1, 0..7) | (0, 0..10) => -0.01,
                    (1, 7..10) => 0.04,
                    (1, _) => -0.02,
                    _ => 0.05,
                };
                step * (1.0 + j as f32 * 0.125)
            };
            let local = |share: f32| global.iter().enumerate().map(|(j, g)| g + update(j) * share).collect::<Vec<f32>>();
            let locals = vec![local(1.0), local(0.5)];
            f.prepare_uploads_into(round, &locals, &global, &mut Vec::new());
            f.aggregate(round, &locals, &[0, 1], &[true, true], &mut global);
        }
        f.events().to_vec()
    }

    #[test]
    fn events_list_in_ascending_param_order_within_a_round() {
        // Written out in full: the order, the kinds and the feedback values.
        let enter = |round: usize, param: usize, slope: f32| MaskEvent { round, param, kind: MaskEventKind::Enter { slope } };
        let exit =
            |round: usize, param: usize, s: f64| MaskEvent { round, param, kind: MaskEventKind::Exit { feedback: Some(s) } };
        let first_entries = [
            -0.0075000003,
            -0.008437499,
            -0.0093749985,
            -0.0103124995,
            -0.01125,
            -0.0121875,
            -0.013124999,
            -0.014062498,
            -0.015000001,
            -0.0159375,
            -0.016874999,
            -0.017812505,
        ];
        let first: Vec<MaskEvent> = first_entries.iter().enumerate().map(|(j, &slope)| enter(3, j, slope)).collect();
        let last = [enter(17, 0, 0.0375), enter(17, 1, 0.0421875), enter(17, 2, 0.046875)];
        let last = last.into_iter().chain([enter(17, 6, 0.065625), enter(17, 7, 0.0703125), enter(17, 8, 0.075)]);
        let want = |exits_9: [f64; 6], exits_13: [f64; 6]| -> Vec<MaskEvent> {
            let at_9 = [3, 4, 5, 9, 10, 11].into_iter().zip(exits_9).map(|(j, s)| exit(9, j, s));
            let at_13 = [
                exit(13, 0, exits_13[0]),
                exit(13, 1, exits_13[1]),
                exit(13, 2, exits_13[2]),
                enter(13, 3, -0.020624995),
                enter(13, 4, -0.022500008),
                enter(13, 5, -0.024374992),
                exit(13, 6, exits_13[3]),
                exit(13, 7, exits_13[4]),
                exit(13, 8, exits_13[5]),
                enter(13, 9, -0.031875014),
                enter(13, 10, -0.033749998),
                enter(13, 11, -0.03562501),
            ];
            first.iter().copied().chain(at_9).chain(at_13).chain(last.clone()).collect()
        };
        let per_scalar = want(
            [14.999998735658986, 15.000000993410707, 14.99999908300543, 15.000001402462257, 15.0, 14.999997490331502],
            [24.0, 24.000003532127348, 24.00000476837234, 24.000004541306733, 24.000002119276594, 24.0],
        );
        assert_eq!(interleaved_events(1), per_scalar);
        let (a, b) = (14.999999586078838, 15.000000110378968);
        let (c, d) = (24.000003532127348, 24.00000264909557);
        assert_eq!(interleaved_events(3), want([a, a, a, b, b, b], [c, c, c, d, d, d]));
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
        let mut f = FedSu::default();
        let mut global = vec![0.0f32; 2];
        for round in 0..10 {
            let locals = vec![vec![global[0] - 0.01, global[1] - 0.02]];
            f.prepare_uploads_into(round, &locals, &global, &mut Vec::new());
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
