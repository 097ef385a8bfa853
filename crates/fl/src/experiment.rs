//! The end-to-end experiment loop: pull → local training → sparsified
//! synchronization → aggregation → evaluation, with emulated timing,
//! optional fault injection, and server-side fault tolerance.

// The round is a sequence of named phases; CI's `-D warnings` keeps any one
// function here from growing back into the loop.
#![warn(clippy::too_many_lines)]

use crate::client::{Client, ClientConfig};
use crate::message::{bytes_with_retries, retransmitted_bytes, scalars_to_bytes};
use crate::record::{ExperimentResult, RoundRecord};
use crate::server::Server;
use crate::strategy::{AggregateOutcome, SyncStrategy};
use crate::{FlError, Result};
use fedsu_data::{dirichlet_partition, Batcher, InMemoryDataset};
use fedsu_netsim::{Cluster, ClusterConfig, FaultConfig, FaultPenalties, RoundTimer};
use fedsu_nn::Sequential;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Builds one model replica. Called with the same seed for every client so
/// all replicas start identical (the FedAvg precondition).
pub type ModelFactory = Arc<dyn Fn(u64) -> fedsu_nn::Result<Sequential> + Send + Sync>;

/// Decides whether a client participates in a given round (participant
/// dynamicity). `None` means everyone is always active.
pub type AvailabilityFn = Arc<dyn Fn(usize, usize) -> bool + Send + Sync>;

/// Observer invoked after every round with the record and the new global
/// parameter vector (used by the trajectory/microscopic figures).
pub type RoundHook<'a> = &'a mut dyn FnMut(&RoundRecord, &[f32]);

/// Server-side fault tolerance: a master switch and an optional round
/// deadline.
///
/// Disabled by default: with `enabled == false` the runtime behaves exactly
/// like the legacy clean-path loop (divergence errors out, a fully-lost
/// round is a config error), which keeps zero-fault runs bit-for-bit
/// reproducible against old records. Enabled, the defenses run at one
/// operating point: up to 2 upload retransmissions per client per round at
/// 2 emulated seconds of backoff each, quarantine of uploads whose update
/// norm exceeds 8× the round's lower median, 30 emulated seconds charged
/// for a round with no usable upload, rollback to the last finite global,
/// and [`FlError::QuarantineExhausted`] after more than 8 consecutive
/// unusable rounds.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DefenseConfig {
    /// Master switch for every defense.
    pub enabled: bool,
    /// Optional hard round deadline in emulated seconds (positive):
    /// selected clients finishing later are dropped from aggregation.
    pub round_deadline_secs: Option<f64>,
}

impl DefenseConfig {
    /// Defenses enabled, with no round deadline.
    pub fn on() -> Self {
        DefenseConfig { enabled: true, round_deadline_secs: None }
    }
}

/// Upload retransmissions allowed per client per round (defenses on).
const MAX_RETRIES: u32 = 2;
/// Emulated seconds of backoff charged per retransmission.
const RETRY_BACKOFF_SECS: f64 = 2.0;
/// Quarantine uploads whose update norm exceeds this multiple of the
/// round's (lower) median update norm.
const OUTLIER_NORM_FACTOR: f32 = 8.0;
/// Emulated seconds charged when a round produces no usable upload.
const LOST_ROUND_PENALTY_SECS: f64 = 30.0;
/// Consecutive unusable rounds tolerated before
/// [`FlError::QuarantineExhausted`].
const MAX_BARREN_ROUNDS: usize = 8;

/// Full configuration of one emulated FL experiment.
#[derive(Clone)]
pub struct ExperimentConfig {
    /// Cluster shape and link speeds.
    pub cluster: ClusterConfig,
    /// Fraction of (active) clients aggregated per round (paper: 0.7).
    pub select_fraction: f64,
    /// Number of communication rounds to run.
    pub rounds: usize,
    /// Per-client training hyper-parameters.
    pub client: ClientConfig,
    /// Dirichlet concentration for the non-IID partition (paper: 1.0).
    pub alpha: f64,
    /// Master seed (models, partition, cluster, batch order).
    pub seed: u64,
    /// Evaluate test accuracy every this many rounds (1 = every round).
    pub eval_every: usize,
    /// Nominal local-computation seconds per round for this model (the
    /// emulated device-side cost; scaled per client by the heterogeneity
    /// factor).
    pub compute_secs: f64,
    /// Display name of the model being trained.
    pub model_name: String,
    /// Optional per-(client, round) participation rule.
    pub availability: Option<AvailabilityFn>,
    /// Seeded fault-injection plan (default: the zero-fault plan).
    pub faults: FaultConfig,
    /// Server-side fault-tolerance configuration (default: disabled).
    pub defense: DefenseConfig,
}

impl std::fmt::Debug for ExperimentConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExperimentConfig")
            .field("cluster", &self.cluster)
            .field("select_fraction", &self.select_fraction)
            .field("rounds", &self.rounds)
            .field("client", &self.client)
            .field("alpha", &self.alpha)
            .field("seed", &self.seed)
            .field("eval_every", &self.eval_every)
            .field("compute_secs", &self.compute_secs)
            .field("model_name", &self.model_name)
            .field("availability", &self.availability.is_some())
            .field("faults", &self.faults)
            .field("defense", &self.defense)
            .finish()
    }
}

impl ExperimentConfig {
    /// A small, fast configuration mirroring the paper's setup shape
    /// (70% earliest selection, Dirichlet α = 1).
    pub fn quick(n_clients: usize, rounds: usize, model_name: &str) -> Self {
        ExperimentConfig {
            cluster: ClusterConfig::paper_like(n_clients),
            select_fraction: 0.7,
            rounds,
            client: ClientConfig {
                batch_size: 8,
                local_iters: 4,
                lr: 0.05,
                weight_decay: 1e-3,
                schedule: crate::LrSchedule::Constant,
                clip_norm: None,
            },
            alpha: 1.0,
            seed: 42,
            eval_every: 1,
            compute_secs: 4.0,
            model_name: model_name.to_string(),
            availability: None,
            faults: FaultConfig::default(),
            defense: DefenseConfig::default(),
        }
    }
}

/// What became of one client in one round. The phase that takes a client
/// out of the round writes its fate where it makes that decision;
/// [`Tally::of`] counts the fates once, and that one tally feeds both the
/// `RoundRecord` and the armed wire-conservation check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fate {
    /// The participation rule kept the client away; counted nowhere.
    Absent,
    /// Inside a crash down-window.
    Crashed,
    /// Local training failed or panicked (absorbed only with defenses on).
    FailedTraining,
    /// Trained, then dropped out before uploading.
    DroppedOut,
    /// Every transmission attempt of the upload was lost.
    UploadLost,
    /// Delivered and among the earliest K, but after the round deadline.
    Late,
    /// Delivered and rejected by validation. `late`: it had also missed the
    /// deadline and is counted under both, as the records always have.
    Quarantined { late: bool },
    /// Still in the round: every present client starts here, and one that
    /// ends here sent a valid upload the round did not wait for.
    Unselected,
    /// Aggregated into the new global.
    Aggregated,
}

/// One round's fates, counted once.
#[derive(Debug, Default)]
struct Tally {
    dropped: usize,
    quarantined: usize,
    /// Payload bytes of the uploads that reached the server, by what it did
    /// with them, and the bytes burnt on lost attempts: the four terms
    /// `upload_wire` (every upload byte put on the wire) decomposes into.
    aggregated_bytes: u64,
    quarantined_bytes: u64,
    unused_bytes: u64,
    retransmitted_bytes: u64,
    upload_wire: u64,
}

impl Tally {
    fn of(fates: &[Fate], upload_bytes: &[u64], tx_attempts: &[u32]) -> Tally {
        let mut t = Tally::default();
        for ((&fate, &bytes), &attempts) in fates.iter().zip(upload_bytes).zip(tx_attempts) {
            // Each arm counts the client and says where its payload went;
            // a client that delivered nothing has no payload to account for.
            let payload = match fate {
                Fate::Absent => continue,
                Fate::Crashed | Fate::FailedTraining | Fate::DroppedOut | Fate::UploadLost => {
                    t.dropped = t.dropped.saturating_add(1);
                    continue;
                }
                Fate::Late => {
                    t.dropped = t.dropped.saturating_add(1);
                    &mut t.unused_bytes
                }
                Fate::Quarantined { late } => {
                    t.dropped = t.dropped.saturating_add(usize::from(late));
                    t.quarantined = t.quarantined.saturating_add(1);
                    &mut t.quarantined_bytes
                }
                Fate::Unselected => &mut t.unused_bytes,
                Fate::Aggregated => &mut t.aggregated_bytes,
            };
            // Lost attempts burn wire bytes: a payload delivered on attempt
            // `a` cost `a` sends.
            *payload = payload.saturating_add(bytes);
            t.upload_wire = t.upload_wire.saturating_add(bytes_with_retries(bytes, attempts));
            t.retransmitted_bytes =
                t.retransmitted_bytes.saturating_add(retransmitted_bytes(bytes, attempts));
        }
        t
    }
}

/// Everything the phases of [`Experiment::run`] hand to each other. The
/// per-client vectors are cleared and refilled in place each round, so the
/// steady-state loop allocates nothing for its bookkeeping; the refilled
/// values are what fresh allocations would hold, which keeps zero-fault
/// records bit-for-bit reproducible.
#[derive(Default)]
struct RoundScratch {
    // Carried from one round to the next.
    was_active: Vec<bool>,
    sim_time: f64,
    /// What every present client downloads at the start of the next round.
    prev_broadcast_scalars: usize,
    /// The last finite global, kept only when defenses are on.
    checkpoint: Option<Vec<f32>>,
    barren_streak: usize,
    // One entry per client, refilled every round.
    active: Vec<bool>,
    fate: Vec<Fate>,
    download_bytes: Vec<u64>,
    train_results: Vec<Result<f32>>,
    /// `returned[i]`: client `i` delivered an upload this round.
    returned: Vec<bool>,
    train_losses: Vec<f32>,
    tx_attempts: Vec<u32>,
    locals: Vec<Vec<f32>>,
    upload_bytes: Vec<u64>,
    compute: Vec<f64>,
    time_factor: Vec<f64>,
    extra_secs: Vec<f64>,
    valid: Vec<bool>,
    update_norm: Vec<f32>,
    finite_norms: Vec<f32>,
    /// The selection handed to the strategy: earliest K, on time, valid.
    survivors: Vec<usize>,
    // This round's results, read by `close_round`.
    duration: f64,
    rollbacks: usize,
}

impl RoundScratch {
    /// Sizes the filtered members and the `n` upload rows once so nothing
    /// in the loop grows past capacity, and takes the rollback checkpoint
    /// when defenses are on.
    fn new(n: usize, global: &[f32], defense: DefenseConfig) -> Self {
        let mut scratch = RoundScratch {
            // Round-0 download: every client pulls the full initial model.
            prev_broadcast_scalars: global.len(),
            checkpoint: defense.enabled.then(|| global.to_vec()),
            ..RoundScratch::default()
        };
        scratch.was_active.resize(n, false);
        // The rows are filled on the fan-out's threads; reserving them here
        // keeps them in the calling thread's heap rather than growing them
        // in each worker's allocator arena.
        scratch.locals.resize_with(n, || Vec::with_capacity(global.len()));
        scratch.survivors.reserve(n);
        scratch.finite_norms.reserve(n);
        scratch
    }
}

/// An assembled experiment, ready to run.
pub struct Experiment {
    config: ExperimentConfig,
    clients: Vec<Client>,
    server: Server,
    strategy: Box<dyn SyncStrategy>,
    timer: RoundTimer,
}

impl std::fmt::Debug for Experiment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Experiment")
            .field("config", &self.config)
            .field("strategy", &self.strategy.name().to_string())
            .finish()
    }
}

impl Experiment {
    /// Assembles clients (with a Dirichlet data partition), the server, and
    /// the timing model.
    ///
    /// # Errors
    ///
    /// Returns [`FlError::BadConfig`] for inconsistent configs and
    /// propagates model-construction failures.
    pub fn new(
        config: ExperimentConfig,
        factory: ModelFactory,
        train_data: Arc<InMemoryDataset>,
        test_data: Arc<InMemoryDataset>,
        strategy: Box<dyn SyncStrategy>,
    ) -> Result<Self> {
        let n = config.cluster.n_clients;
        if n == 0 || config.rounds == 0 || config.eval_every == 0 {
            return Err(FlError::BadConfig(
                "clients, rounds and eval_every must be positive".to_string(),
            ));
        }
        if config.select_fraction.is_nan()
            || config.select_fraction <= 0.0
            || config.select_fraction > 1.0
        {
            return Err(FlError::BadConfig(format!(
                "select_fraction must be in (0, 1], got {}",
                config.select_fraction
            )));
        }
        if config.alpha.is_nan() || config.alpha <= 0.0 {
            return Err(FlError::BadConfig(format!(
                "alpha must be positive, got {}",
                config.alpha
            )));
        }
        // A negative duration runs the emulated clock backwards, and a NaN
        // deadline marks every selected client late.
        if !config.compute_secs.is_finite() || config.compute_secs < 0.0 {
            return Err(FlError::BadConfig(format!(
                "compute_secs must be finite and non-negative, got {}",
                config.compute_secs
            )));
        }
        if let Some(d) = config.defense.round_deadline_secs.filter(|d| d.is_nan() || *d <= 0.0) {
            return Err(FlError::BadConfig(format!("round_deadline_secs must be positive, got {d}")));
        }
        // A NaN or negative fault probability injects nothing yet reads as a
        // faulty plan, and one above 1 always fires.
        if let Some(p) = config.faults.probabilities().into_iter().find(|p| !(0.0..=1.0).contains(p)) {
            return Err(FlError::BadConfig(format!("fault probabilities must be in [0, 1], got {p}")));
        }
        // Every client trains on at least one sample, and every evaluation
        // averages over at least one.
        if train_data.len() < n {
            return Err(FlError::BadConfig(format!(
                "{n} clients need at least {n} training samples, got {}",
                train_data.len()
            )));
        }
        if test_data.is_empty() {
            return Err(FlError::BadConfig("the test set is empty".to_string()));
        }
        let mut part_rng = StdRng::seed_from_u64(config.seed ^ 0x9e3779b97f4a7c15);
        let parts = dirichlet_partition(train_data.labels(), n, config.alpha, &mut part_rng);

        let mut clients = Vec::with_capacity(n);
        for (i, part) in parts.into_iter().enumerate() {
            let model = factory(config.seed)?;
            let seed = config.seed.wrapping_add(i as u64).wrapping_add(1);
            let batcher = Batcher::new(Arc::clone(&train_data), part, seed);
            clients.push(Client::new(i, model, batcher, config.client));
        }
        let server = Server::new(factory(config.seed)?, test_data);
        let cluster = Cluster::build(&config.cluster, config.seed);
        let timer = RoundTimer::new(&cluster, config.select_fraction);
        Ok(Experiment { config, clients, server, strategy, timer })
    }

    /// Total scalar parameters in the model.
    pub fn param_count(&self) -> usize {
        self.server.param_count()
    }

    /// Read access to the strategy (e.g. for Fig. 7's skip statistics).
    pub fn strategy(&self) -> &dyn SyncStrategy {
        self.strategy.as_ref()
    }

    /// Runs all configured rounds: one call per phase, in the paper's order
    /// (Sec. V / Algorithm 1), every round leaving through `close_round`.
    ///
    /// With fault tolerance disabled (the default), this is the legacy
    /// clean-path loop: it returns [`FlError::Diverged`] when parameters
    /// become non-finite and propagates any training error. With
    /// [`DefenseConfig::enabled`], faults injected by the configured
    /// [`FaultConfig`] are absorbed: failed or dropped clients are excluded,
    /// corrupted uploads are quarantined, lost uploads are retried with
    /// backoff charged to sim-time, and a poisoned aggregation rolls back to
    /// the last good checkpoint.
    ///
    /// Clients train concurrently on up to `fedsu_tensor::hardware_threads`
    /// threads, the calling thread among them; kernels run serially on
    /// whichever thread trains their client, so the fan-out width never
    /// changes a result.
    ///
    /// # Errors
    ///
    /// Returns [`FlError::Diverged`] when parameters become non-finite with
    /// defenses off (on, they roll back), [`FlError::QuarantineExhausted`]
    /// when too many consecutive rounds produce no usable update, or any
    /// underlying training error.
    pub fn run(&mut self, mut hook: Option<RoundHook<'_>>) -> Result<ExperimentResult> {
        let mut records = Vec::with_capacity(self.config.rounds);
        let mut scratch =
            RoundScratch::new(self.clients.len(), self.server.global(), self.config.defense);
        let s = &mut scratch;

        for round in 0..self.config.rounds {
            self.participation(round, s);
            self.train_clients(round, s)?;
            if self.deliver_uploads(round, s)? {
                self.collect_locals(round, s);
                self.plan_uploads(round, s)?;
                self.time_and_select(round, s);
                self.validate_uploads(s);
            }
            let outcome = self.aggregate_survivors(round, s)?;
            let record = self.close_round(round, s, outcome)?;
            if let Some(h) = hook.as_mut() {
                h(&record, self.server.global());
            }
            records.push(record);
        }

        Ok(ExperimentResult {
            strategy: self.strategy.name().to_string(),
            model: self.config.model_name.clone(),
            rounds: records,
            param_count: self.param_count(),
        })
    }

    /// Phase 1 — participation: who is present (availability rule, crash
    /// down-windows) and what each present client downloads. A joiner pays
    /// the full model plus the strategy's replicated state (the paper's
    /// dynamicity protocol, Sec. V); serialising it is the strategy's most
    /// expensive call, so it is asked for only in a round with a joiner.
    fn participation(&self, round: usize, s: &mut RoundScratch) {
        let faults = self.config.faults;
        s.fate.clear();
        s.fate.extend((0..self.clients.len()).map(|i| {
            if !self.config.availability.as_ref().is_none_or(|f| f(i, round)) {
                Fate::Absent
            } else if faults.crashed(i, round) {
                // Away until the down-window ends; on rejoin the client
                // pays the catch-up download below.
                Fate::Crashed
            } else {
                Fate::Unselected
            }
        }));
        s.active.clear();
        s.active.extend(s.fate.iter().map(|&fate| fate == Fate::Unselected));

        let joins = |act: bool, was: bool| round > 0 && act && !was;
        let any_joiner = s.active.iter().zip(&s.was_active).any(|(&act, &was)| joins(act, was));
        let join_state = if any_joiner { self.strategy.join_state() } else { None };
        let join_state_bytes =
            join_state.map_or(0, |state| u64::try_from(state.len()).unwrap_or(u64::MAX));
        let steady = scalars_to_bytes(s.prev_broadcast_scalars);
        let catch_up = scalars_to_bytes(self.param_count()).saturating_add(join_state_bytes);
        s.download_bytes.clear();
        s.download_bytes.extend(s.active.iter().zip(&s.was_active).map(|(&act, &was)| {
            if joins(act, was) { catch_up } else if act { steady } else { 0 }
        }));
    }

    /// Phase 2 — train: every present client pulls the current global,
    /// trains locally and flattens its parameters into its upload row, in
    /// parallel, with per-client panic capture. A failed client is absorbed
    /// with defenses on and aborts the run with them off.
    fn train_clients(&mut self, round: usize, s: &mut RoundScratch) -> Result<()> {
        let (global, threads) = (self.server.global(), fedsu_tensor::hardware_threads());
        let (active, locals, results) = (&s.active, &mut s.locals, &mut s.train_results);
        train_all(&mut self.clients, active, global, round, threads, locals, results);
        s.train_losses.clear();
        s.train_losses.resize(self.clients.len(), 0.0);
        for ((res, loss), fate) in s.train_results.iter_mut().zip(&mut s.train_losses).zip(&mut s.fate) {
            match std::mem::replace(res, Ok(0.0)) {
                Ok(l) => *loss = l,
                Err(FlError::ClientFailed { .. }) if self.config.defense.enabled => {
                    *fate = Fate::FailedTraining;
                }
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Phase 3 — deliver: mid-round dropouts and lossy uploads (retried up
    /// to `MAX_RETRIES` times with defenses on, never with them off).
    /// Returns whether anybody delivered an upload. If nobody did there is
    /// nothing to collect, plan, time or validate: the round lasts the
    /// lost-round penalty and goes on to `aggregate_survivors` with an empty
    /// selection and nothing uploaded (with defenses off it is a config
    /// error instead).
    fn deliver_uploads(&self, round: usize, s: &mut RoundScratch) -> Result<bool> {
        let (faults, defense) = (self.config.faults, self.config.defense);
        let retries = if defense.enabled { MAX_RETRIES } else { 0 };
        s.tx_attempts.clear();
        s.tx_attempts.resize(self.clients.len(), 1);
        for (i, (fate, att)) in s.fate.iter_mut().zip(&mut s.tx_attempts).enumerate() {
            if *fate != Fate::Unselected {
                continue;
            }
            if faults.dropout(i, round) {
                *fate = Fate::DroppedOut;
            } else if let Some(attempts) = faults.upload_attempts(i, round, retries) {
                *att = attempts;
            } else {
                *fate = Fate::UploadLost;
            }
        }
        s.returned.clear();
        s.returned.extend(s.fate.iter().map(|&fate| fate == Fate::Unselected));
        let delivered = s.returned.contains(&true);
        if !delivered {
            if !defense.enabled {
                return Err(FlError::new_bad_config(format_args!("no active clients in round {round}")));
            }
            s.upload_bytes.clear();
            s.upload_bytes.resize(self.clients.len(), 0);
            s.survivors.clear();
            s.duration = LOST_ROUND_PENALTY_SECS;
        }
        Ok(delivered)
    }

    /// Phase 4 — collect: the fan-out already wrote every trained client's
    /// local parameters into its row; corruption hits a delivered payload
    /// after training, on the wire. A client whose upload never arrived
    /// contributes the unchanged global and is never aggregated.
    fn collect_locals(&self, round: usize, s: &mut RoundScratch) {
        let faults = self.config.faults;
        for (i, (slot, &ret)) in s.locals.iter_mut().zip(&s.returned).enumerate() {
            if ret {
                faults.corrupt_upload(i, round, slot);
            } else {
                slot.clear();
                slot.extend_from_slice(self.server.global());
            }
        }
    }

    /// Phase 5 — plan uploads (strategy phase A): what each client puts on
    /// the wire, staged into the round-scratch buffer.
    fn plan_uploads(&mut self, round: usize, s: &mut RoundScratch) -> Result<()> {
        let global = self.server.global();
        self.strategy.prepare_uploads_into(round, &s.locals, global, &mut s.upload_bytes);
        if s.upload_bytes.len() != self.clients.len() {
            return Err(FlError::new_strategy_contract(format_args!(
                "prepare_uploads_into staged {} entries for {} clients",
                s.upload_bytes.len(),
                self.clients.len()
            )));
        }
        // The strategy answers in scalars; the wire is charged in bytes.
        for b in &mut s.upload_bytes {
            *b = b.saturating_mul(crate::BYTES_PER_SCALAR);
        }
        Ok(())
    }

    /// Phase 6 — time and select: emulated finish times with slowdown
    /// multipliers and retry backoff charged to each client's clock, the
    /// earliest-K selection, and the round deadline (a defense): a selected
    /// client that finishes after it is dropped and the round ends there.
    fn time_and_select(&self, round: usize, s: &mut RoundScratch) {
        let (faults, defense) = (self.config.faults, self.config.defense);
        let compute_secs = self.config.compute_secs;
        s.compute.clear();
        s.compute.extend(s.returned.iter().map(|&ret| if ret { compute_secs } else { 0.0 }));
        s.time_factor.clear();
        let slowdown = |(i, &ret): (usize, &bool)| if ret { faults.slowdown(i, round) } else { 1.0 };
        s.time_factor.extend(s.returned.iter().enumerate().map(slowdown));
        s.extra_secs.clear();
        let retry_secs = |&attempts: &u32| RETRY_BACKOFF_SECS * f64::from(attempts.saturating_sub(1));
        s.extra_secs.extend(s.tx_attempts.iter().map(retry_secs));
        let timing = self.timer.round_faulty(
            round,
            &s.compute,
            &s.upload_bytes,
            &s.download_bytes,
            &s.returned,
            FaultPenalties { time_factor: &s.time_factor, extra_secs: &s.extra_secs },
        );

        let deadline = if defense.enabled { defense.round_deadline_secs } else { None };
        let finish = |i: &usize| timing.finish_secs.get(*i).copied();
        let on_time = |i: &usize| deadline.is_none_or(|d| finish(i).is_some_and(|t| t <= d));
        s.survivors.clear();
        s.survivors.extend(timing.selected.iter().copied().filter(on_time));
        for &i in timing.selected.iter().filter(|&i| !on_time(i)) {
            if let Some(fate) = s.fate.get_mut(i) {
                *fate = Fate::Late;
            }
        }
        s.duration = deadline.map_or(timing.duration_secs, |d| timing.duration_secs.min(d));
    }

    /// Phase 7 — validate (a defense): quarantine non-finite and
    /// norm-outlier uploads before they can reach aggregation or a stateful
    /// strategy's per-client accumulators; `valid` is who the strategy is
    /// told took part.
    fn validate_uploads(&self, s: &mut RoundScratch) {
        if self.config.defense.enabled {
            let RoundScratch { locals, returned, valid, update_norm, finite_norms, .. } = s;
            let global = self.server.global();
            validate_uploads_into(locals, global, returned, valid, update_norm, finite_norms);
        } else {
            s.valid.clear();
            s.valid.extend_from_slice(&s.returned);
        }
        for ((&ret, &ok), fate) in s.returned.iter().zip(&s.valid).zip(&mut s.fate) {
            if ret && !ok {
                *fate = Fate::Quarantined { late: *fate == Fate::Late };
            }
        }
        s.survivors.retain(|&i| s.valid.get(i) == Some(&true));
    }

    /// Phase 8 — aggregate (strategy phase B): the surviving set becomes
    /// the new global. An empty set makes the round barren — the global and
    /// the broadcast volume are held, the strategy is not called, and too
    /// many in a row end the run. A non-finite result is rolled back to the
    /// last finite global when defenses are on, and ends the run if not.
    fn aggregate_survivors(&mut self, round: usize, s: &mut RoundScratch) -> Result<AggregateOutcome> {
        s.rollbacks = 0;
        if s.survivors.is_empty() {
            s.barren_streak = s.barren_streak.saturating_add(1);
            if s.barren_streak > MAX_BARREN_ROUNDS {
                return Err(FlError::QuarantineExhausted { round });
            }
            let broadcast_scalars = s.prev_broadcast_scalars;
            return Ok(AggregateOutcome { broadcast_scalars, synced_scalars: 0 });
        }
        s.barren_streak = 0;
        let global = self.server.global_mut();
        let mut outcome = self.strategy.aggregate(round, &s.locals, &s.survivors, &s.valid, global);
        for &i in &s.survivors {
            if let Some(fate) = s.fate.get_mut(i) {
                *fate = Fate::Aggregated;
            }
        }
        if has_non_finite(self.server.global()) {
            match s.checkpoint.as_ref() {
                Some(cp) => {
                    self.server.global_mut().copy_from_slice(cp);
                    s.rollbacks = 1;
                    // Every client must re-download the restored global in
                    // full next round.
                    outcome.broadcast_scalars = self.param_count();
                }
                None => return Err(FlError::Diverged { round }),
            }
        } else if let Some(cp) = s.checkpoint.as_mut() {
            cp.copy_from_slice(self.server.global());
        }
        s.prev_broadcast_scalars = outcome.broadcast_scalars;
        Ok(outcome)
    }

    /// Phase 9 — close, the round's one exit: the fates are tallied, the
    /// clock advances, the armed invariants run, the global is evaluated on
    /// schedule and the record is written.
    fn close_round(
        &mut self,
        round: usize,
        s: &mut RoundScratch,
        outcome: AggregateOutcome,
    ) -> Result<RoundRecord> {
        let tally = Tally::of(&s.fate, &s.upload_bytes, &s.tx_attempts);
        s.sim_time += s.duration;
        let downloads: u64 = s.download_bytes.iter().sum();
        let bytes = tally.upload_wire.saturating_add(downloads);
        if fedsu_tensor::invariant::enabled() {
            check_round_invariants(round, s, &tally);
        }

        let last_round = round.saturating_add(1) == self.config.rounds;
        let (accuracy, test_loss) =
            if round.is_multiple_of(self.config.eval_every) || last_round {
                let (a, l) = self.server.evaluate()?;
                (Some(a), Some(l))
            } else {
                (None, None)
            };
        let n_active = s.active.iter().filter(|&&a| a).count();
        let train_loss =
            if n_active == 0 { 0.0 } else { s.train_losses.iter().sum::<f32>() / n_active as f32 };
        std::mem::swap(&mut s.was_active, &mut s.active);
        Ok(RoundRecord {
            round,
            duration_secs: s.duration,
            sim_time_secs: s.sim_time,
            accuracy,
            test_loss,
            train_loss,
            sparsification_ratio: 1.0 - outcome.synced_scalars as f64 / self.param_count().max(1) as f64,
            bytes,
            participants: s.survivors.len(),
            dropped: tally.dropped,
            quarantined: tally.quarantined,
            retransmitted_bytes: tally.retransmitted_bytes,
            rollbacks: s.rollbacks,
        })
    }
}

/// Runtime invariant guards (armed by `FEDSU_CHECK_INVARIANTS=1`): the
/// emulated clock only moves forward, and every uploaded wire byte is
/// accounted for exactly once — aggregated, quarantined, unused (late, or
/// not among the earliest K), or burnt on retransmission.
fn check_round_invariants(round: usize, s: &RoundScratch, tally: &Tally) {
    let duration = s.duration;
    assert!(
        duration.is_finite() && duration >= 0.0,
        "invariant violation [sim-time]: round {round} duration {duration} is negative or non-finite"
    );
    assert!(
        s.sim_time.is_finite(),
        "invariant violation [sim-time]: cumulative sim time became non-finite at round {round}"
    );
    let accounted =
        [tally.aggregated_bytes, tally.quarantined_bytes, tally.unused_bytes, tally.retransmitted_bytes];
    assert!(
        tally.upload_wire == accounted.iter().sum::<u64>(),
        "invariant violation [wire-conservation]: round {round} upload wire bytes do not decompose \
         into aggregated + quarantined + late + retransmitted: {tally:?}"
    );
}

/// Rejects non-finite and norm-outlier uploads among the `returned` set.
///
/// An upload is quarantined when it contains a non-finite scalar, or when
/// its L2 update norm (`‖local − global‖`) exceeds `OUTLIER_NORM_FACTOR`
/// times the lower median of the round's finite update norms. Fills `valid`
/// with the per-client validity mask: an upload that was returned and is not
/// valid is quarantined. Reuses the caller's buffers, so the round loop
/// performs no allocation here.
fn validate_uploads_into(
    locals: &[Vec<f32>],
    global: &[f32],
    returned: &[bool],
    valid: &mut Vec<bool>,
    update_norm: &mut Vec<f32>,
    finite_norms: &mut Vec<f32>,
) {
    let n = locals.len();
    valid.clear();
    valid.extend_from_slice(returned);
    update_norm.clear();
    update_norm.resize(n, 0.0);
    finite_norms.clear();
    finite_norms.reserve(n);
    for ((local, &ret), (v, norm)) in locals
        .iter()
        .zip(returned)
        .zip(valid.iter_mut().zip(update_norm.iter_mut()))
    {
        if !ret {
            continue;
        }
        // The scan covers what the norm reads: the pairs `zip` makes.
        if !has_non_finite(local.get(..global.len()).unwrap_or(local)) {
            let sq = local.iter().zip(global).fold(0.0f64, |sq, (a, b)| {
                let d = f64::from(a - b);
                sq + d * d
            });
            #[allow(clippy::cast_possible_truncation, reason = "an f64 norm, compared in f32")]
            let rounded = sq.sqrt() as f32;
            *norm = rounded;
            finite_norms.push(*norm);
        } else {
            *v = false;
            *norm = f32::INFINITY;
        }
    }
    if !finite_norms.is_empty() {
        finite_norms.sort_by(f32::total_cmp);
        // Lower median: with one corrupted client out of two, the honest
        // norm anchors the threshold. The list is non-empty here, so the
        // fallback is unreachable and quarantines nothing.
        let median = finite_norms
            .get(finite_norms.len().saturating_sub(1) / 2)
            .copied()
            .unwrap_or(f32::INFINITY)
            .max(1e-6);
        for (v, &norm) in valid.iter_mut().zip(update_norm.iter()) {
            if *v && norm > OUTLIER_NORM_FACTOR * median {
                *v = false;
            }
        }
    }
}

/// Whether any scalar is NaN or infinite. Folds without short-circuiting,
/// which vectorises: a clean row, the common case, is read whole anyway.
fn has_non_finite(values: &[f32]) -> bool {
    values.iter().fold(false, |any, v| any | !v.is_finite())
}

/// Pulls the global into one client, trains it for one round and, if that
/// succeeded, flattens its parameters into `local` — on the thread that
/// trained it, while they are still in its cache. A panic anywhere inside
/// becomes [`FlError::ClientFailed`].
fn train_one(
    client: &mut Client,
    id: usize,
    global: &[f32],
    round: usize,
    local: &mut Vec<f32>,
) -> Result<f32> {
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| -> Result<f32> {
        client.pull(global)?;
        let loss = client.train_round(round)?;
        client.local_params_into(local);
        Ok(loss)
    }));
    match caught {
        Ok(res) => res,
        Err(_) => Err(FlError::ClientFailed { id }),
    }
}

/// Trains every active client for one round, spreading clients across up to
/// `threads` threads: the process's one fork-join (kernels run serially on
/// the thread that trains their client). The calling thread trains the last
/// chunk and scoped threads train the others, so a width of one spawns no
/// thread. Fills `out` — reusing its allocation — with one result
/// per client: `Ok(mean training loss)` (0.0 for inactive clients) or the
/// client's individual failure — a panicking client never aborts the
/// process. A client that trained writes its flattened parameters into its
/// row of `locals` (one row per client, reusing each row's allocation); the
/// rows of inactive and failed clients are left as they were. Each thread
/// writes straight into its disjoint chunks of `out` and `locals`, so the
/// fan-out stages no per-thread buffers, and a client's result never depends
/// on `threads`.
fn train_all(
    clients: &mut [Client],
    active: &[bool],
    global: &[f32],
    round: usize,
    threads: usize,
    locals: &mut [Vec<f32>],
    out: &mut Vec<Result<f32>>,
) {
    out.clear();
    out.resize_with(clients.len(), || Ok(0.0f32));
    let chunk = clients.len().div_ceil(threads.max(1)).max(1);
    let train_chunk = |first: usize, clients: &mut [Client], locals: &mut [Vec<f32>], out: &mut [Result<f32>]| {
        let rows = locals.iter_mut().zip(out.iter_mut());
        for (id, (client, (local, slot))) in (first..).zip(clients.iter_mut().zip(rows)) {
            if active.get(id).is_some_and(|&a| a) {
                *slot = train_one(client, id, global, round, local);
            }
        }
    };
    let dead_chunks = std::thread::scope(|s| {
        let rows = locals.chunks_mut(chunk).zip(out.chunks_mut(chunk));
        let mut chunks = clients.chunks_mut(chunk).zip(rows).enumerate();
        let last = chunks.next_back();
        let handles: Vec<_> = chunks
            .map(|(ci, (c, (l, o)))| s.spawn(move || train_chunk(ci.saturating_mul(chunk), c, l, o)))
            .collect();
        if let Some((ci, (c, (l, o)))) = last {
            train_chunk(ci.saturating_mul(chunk), c, l, o);
        }
        // A chunk thread dying outside the per-client capture should be
        // unreachable; report which chunks (if any) did so the caller's
        // slots can blame every client in them.
        let mut dead_chunks: Vec<usize> = Vec::with_capacity(handles.len());
        for (ci, h) in handles.into_iter().enumerate() {
            if h.join().is_err() {
                dead_chunks.push(ci);
            }
        }
        dead_chunks
    });

    for ci in dead_chunks {
        let first = ci.saturating_mul(chunk);
        let slots = active.iter().zip(out.iter_mut()).enumerate().skip(first).take(chunk);
        for (id, (_, slot)) in slots.filter(|(_, (&act, _))| act) {
            *slot = Err(FlError::ClientFailed { id });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::{average_into, AggregateOutcome};
    use fedsu_data::SyntheticConfig;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Plain FedAvg used as the reference strategy in runtime tests.
    struct TestAvg;
    impl SyncStrategy for TestAvg {
        fn name(&self) -> &str {
            "test-fedavg"
        }
        fn prepare_uploads_into(
            &mut self,
            _round: usize,
            locals: &[Vec<f32>],
            _global: &[f32],
            out: &mut Vec<u64>,
        ) {
            out.clear();
            out.extend(locals.iter().map(|l| l.len() as u64));
        }
        fn aggregate(
            &mut self,
            _round: usize,
            locals: &[Vec<f32>],
            selected: &[usize],
            _active: &[bool],
            global: &mut [f32],
        ) -> AggregateOutcome {
            average_into(locals, selected, global);
            AggregateOutcome { broadcast_scalars: global.len(), synced_scalars: global.len() }
        }
    }

    /// [`TestAvg`] plus an 8-byte join state, counting how often the runtime
    /// asks for it.
    struct CountingJoin(Arc<AtomicUsize>);
    impl SyncStrategy for CountingJoin {
        fn name(&self) -> &str {
            "test-counting-join"
        }
        fn prepare_uploads_into(
            &mut self,
            round: usize,
            locals: &[Vec<f32>],
            global: &[f32],
            out: &mut Vec<u64>,
        ) {
            TestAvg.prepare_uploads_into(round, locals, global, out);
        }
        fn aggregate(
            &mut self,
            round: usize,
            locals: &[Vec<f32>],
            selected: &[usize],
            active: &[bool],
            global: &mut [f32],
        ) -> AggregateOutcome {
            TestAvg.aggregate(round, locals, selected, active, global)
        }
        fn join_state(&self) -> Option<Vec<u8>> {
            self.0.fetch_add(1, Ordering::Relaxed);
            Some(vec![0; 8])
        }
    }

    /// A flatten-then-MLP model over `dims` (4×4 single-channel input).
    fn probe_factory(dims: &'static [usize]) -> ModelFactory {
        Arc::new(move |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut m = Sequential::new("probe");
            m.push(fedsu_nn::flatten::Flatten::new());
            m.push_boxed(Box::new(fedsu_nn::models::mlp(dims, &mut rng)?));
            Ok(m)
        })
    }

    fn quick_experiment_with(
        n_clients: usize,
        rounds: usize,
        tweak: impl FnOnce(&mut ExperimentConfig),
    ) -> Experiment {
        quick_experiment_of(Box::new(TestAvg), n_clients, rounds, tweak)
    }

    fn quick_experiment_of(
        strategy: Box<dyn SyncStrategy>,
        n_clients: usize,
        rounds: usize,
        tweak: impl FnOnce(&mut ExperimentConfig),
    ) -> Experiment {
        let mut rng = StdRng::seed_from_u64(5);
        let (train, test) =
            SyntheticConfig::new(3, 1, 4, 4).samples_per_class(30).noise_std(0.4).build_split(10, &mut rng);
        let (train, test) = (Arc::new(train), Arc::new(test));
        let factory = probe_factory(&[16, 12, 3]);
        let mut cfg = ExperimentConfig::quick(n_clients, rounds, "probe");
        cfg.client = ClientConfig {
            batch_size: 8,
            local_iters: 3,
            lr: 0.1,
            weight_decay: 0.0,
            schedule: crate::LrSchedule::Constant,
            clip_norm: None,
        };
        tweak(&mut cfg);
        Experiment::new(cfg, factory, train, test, strategy).unwrap()
    }

    fn quick_experiment(n_clients: usize, rounds: usize) -> Experiment {
        quick_experiment_with(n_clients, rounds, |_| {})
    }

    #[test]
    fn fedavg_improves_accuracy() {
        let mut e = quick_experiment(4, 12);
        let result = e.run(None).unwrap();
        let first = result.rounds.first().and_then(|r| r.accuracy).unwrap();
        let best = result.best_accuracy();
        assert!(best > first, "accuracy should improve: {first} -> {best}");
        assert!(best > 0.5, "should beat chance on an easy task, got {best}");
    }

    #[test]
    fn records_are_complete_and_monotone_in_time() {
        let mut e = quick_experiment(3, 5);
        let result = e.run(None).unwrap();
        assert_eq!(result.rounds.len(), 5);
        let mut last = 0.0;
        for r in &result.rounds {
            assert!(r.sim_time_secs > last);
            last = r.sim_time_secs;
            assert!(r.bytes > 0);
            assert_eq!(r.sparsification_ratio, 0.0); // full sync strategy
            assert_eq!(r.dropped, 0);
            assert_eq!(r.quarantined, 0);
            assert_eq!(r.retransmitted_bytes, 0);
            assert_eq!(r.rollbacks, 0);
        }
    }

    #[test]
    fn hook_sees_every_round() {
        let mut e = quick_experiment(3, 4);
        let mut seen = Vec::new();
        {
            let mut hook = |r: &RoundRecord, g: &[f32]| {
                seen.push((r.round, g.len()));
            };
            e.run(Some(&mut hook)).unwrap();
        }
        assert_eq!(seen.len(), 4);
        assert!(seen.iter().all(|&(_, len)| len > 0));
    }

    #[test]
    fn participants_follow_select_fraction() {
        let mut e = quick_experiment(10, 2);
        let result = e.run(None).unwrap();
        for r in &result.rounds {
            assert_eq!(r.participants, 7); // 70% of 10
        }
    }

    #[test]
    fn availability_limits_participants() {
        let mut rng = StdRng::seed_from_u64(5);
        let (train, test) = SyntheticConfig::new(2, 1, 4, 4).samples_per_class(30).build_split(10, &mut rng);
        let (train, test) = (Arc::new(train), Arc::new(test));
        let factory = probe_factory(&[16, 2]);
        let mut cfg = ExperimentConfig::quick(4, 3, "probe");
        cfg.select_fraction = 1.0;
        // Client 3 joins only from round 1 onward.
        cfg.availability = Some(Arc::new(|client, round| client != 3 || round >= 1));
        let mut e = Experiment::new(cfg, factory, train, test, Box::new(TestAvg)).unwrap();
        let result = e.run(None).unwrap();
        assert_eq!(result.rounds[0].participants, 3);
        assert_eq!(result.rounds[1].participants, 4);
        // The joiner's catch-up download makes round 1 strictly heavier than
        // a steady-state round.
        assert!(result.rounds[1].bytes >= result.rounds[2].bytes);
    }

    #[test]
    fn join_state_is_requested_only_in_a_round_with_a_joiner() {
        let late_joiner = |cfg: &mut ExperimentConfig| {
            cfg.availability = Some(Arc::new(|client, round| client != 3 || round >= 2));
        };
        let calls = Arc::new(AtomicUsize::new(0));
        let counting = || Box::new(CountingJoin(Arc::clone(&calls)));

        quick_experiment_of(counting(), 4, 5, |_| {}).run(None).unwrap();
        assert_eq!(calls.load(Ordering::Relaxed), 0, "no client ever joins a churn-free run");

        let churn = quick_experiment_of(counting(), 4, 5, late_joiner).run(None).unwrap();
        assert_eq!(calls.load(Ordering::Relaxed), 1, "one round has a joiner");
        // The joiner still pays for the state: the same run under a strategy
        // without one is lighter by exactly those 8 bytes, in that round only.
        let plain = quick_experiment_with(4, 5, late_joiner).run(None).unwrap();
        let extra: Vec<u64> =
            churn.rounds.iter().zip(&plain.rounds).map(|(c, p)| c.bytes - p.bytes).collect();
        assert_eq!(extra, vec![0, 0, 8, 0, 0]);
    }

    #[test]
    fn bad_configs_are_rejected() {
        let mut rng = StdRng::seed_from_u64(5);
        let train = Arc::new(SyntheticConfig::new(2, 1, 4, 4).samples_per_class(5).build(&mut rng));
        let factory = probe_factory(&[16, 2]);
        type Tweak = fn(&mut ExperimentConfig);
        let cases: [(&str, Tweak); 14] = [
            ("zero clients", |cfg| cfg.cluster.n_clients = 0),
            ("zero rounds", |cfg| cfg.rounds = 0),
            ("zero eval_every", |cfg| cfg.eval_every = 0),
            ("NaN compute_secs", |cfg| cfg.compute_secs = f64::NAN),
            ("negative compute_secs", |cfg| cfg.compute_secs = -1.0),
            ("infinite compute_secs", |cfg| cfg.compute_secs = f64::INFINITY),
            ("NaN deadline", |cfg| cfg.defense.round_deadline_secs = Some(f64::NAN)),
            ("zero deadline", |cfg| cfg.defense.round_deadline_secs = Some(0.0)),
            ("negative deadline", |cfg| cfg.defense.round_deadline_secs = Some(-2.0)),
            ("negative deadline, defenses on", |cfg| {
                cfg.defense = DefenseConfig { round_deadline_secs: Some(-2.0), ..DefenseConfig::on() };
            }),
            ("NaN dropout", |cfg| cfg.faults.dropout_prob = f64::NAN),
            ("negative crash", |cfg| cfg.faults.crash_prob = -0.1),
            ("upload loss above one", |cfg| cfg.faults.upload_loss_prob = 1.5),
            ("negative wire delay", |cfg| cfg.faults.wire_delay_prob = -1.0),
        ];
        for (name, tweak) in cases {
            let mut cfg = ExperimentConfig::quick(2, 2, "probe");
            tweak(&mut cfg);
            let err = Experiment::new(
                cfg,
                Arc::clone(&factory),
                Arc::clone(&train),
                Arc::clone(&train),
                Box::new(TestAvg),
            )
            .unwrap_err();
            assert!(matches!(err, FlError::BadConfig(_)), "{name}: {err:?}");
        }
    }

    #[test]
    fn bad_fraction_and_alpha_are_rejected() {
        let mut rng = StdRng::seed_from_u64(5);
        let train = Arc::new(SyntheticConfig::new(2, 1, 4, 4).samples_per_class(5).build(&mut rng));
        let factory = probe_factory(&[16, 2]);
        for (fraction, alpha) in [(0.0, 1.0), (1.5, 1.0), (f64::NAN, 1.0), (0.7, 0.0), (0.7, -1.0)] {
            let mut cfg = ExperimentConfig::quick(2, 2, "probe");
            cfg.select_fraction = fraction;
            cfg.alpha = alpha;
            let err = Experiment::new(
                cfg,
                Arc::clone(&factory),
                Arc::clone(&train),
                Arc::clone(&train),
                Box::new(TestAvg),
            )
            .unwrap_err();
            assert!(
                matches!(err, FlError::BadConfig(_)),
                "fraction {fraction} alpha {alpha}: {err:?}"
            );
        }
    }

    /// `Experiment::new`'s error for a two-class probe task over `train`
    /// and `test`, with `n_clients` clients.
    fn new_error(n_clients: usize, train: InMemoryDataset, test: InMemoryDataset) -> FlError {
        let cfg = ExperimentConfig::quick(n_clients, 2, "probe");
        let (train, test) = (Arc::new(train), Arc::new(test));
        Experiment::new(cfg, probe_factory(&[16, 2]), train, test, Box::new(TestAvg)).unwrap_err()
    }

    #[test]
    fn fewer_training_samples_than_clients_is_a_bad_config() {
        let train = InMemoryDataset::new(vec![0.5; 3 * 16], vec![0, 1, 0], &[1, 4, 4], 2);
        let test = train.clone();
        let err = new_error(8, train, test);
        assert!(matches!(err, FlError::BadConfig(_)), "{err:?}");
    }

    #[test]
    fn empty_test_set_is_a_bad_config() {
        let mut rng = StdRng::seed_from_u64(5);
        let train = SyntheticConfig::new(2, 1, 4, 4).samples_per_class(5).build(&mut rng);
        let empty = InMemoryDataset::new(Vec::new(), Vec::new(), &[1, 4, 4], 2);
        let err = new_error(2, train, empty);
        assert!(matches!(err, FlError::BadConfig(_)), "{err:?}");
    }

    #[test]
    fn client_fan_out_width_changes_neither_losses_nor_locals() {
        // Kernels run serially on whichever thread trains their client, so
        // the fan-out width decides only which thread runs a client: four
        // clients on one thread and on three (two chunks of two) must agree
        // bit for bit, round after round, in the losses and in the rows the
        // fan-out writes. Client 2 sits out, so a chunk that reads the wrong
        // `active` slots trains the wrong clients, and its row must keep the
        // marker it was handed.
        let marker = [f32::from_bits(0x7fc0_0bad)];
        let train_at = |threads: usize| {
            let mut e = quick_experiment(4, 1);
            let global = e.server.global().to_vec();
            let (mut out, mut losses) = (Vec::new(), Vec::new());
            let mut rows = Vec::new();
            for round in 0..3 {
                let mut locals = vec![marker.to_vec(); 4];
                let active = [true, true, false, true];
                train_all(&mut e.clients, &active, &global, round, threads, &mut locals, &mut out);
                losses.extend(out.iter().map(|r| r.as_ref().unwrap().to_bits()));
                rows.extend(locals.iter().map(|l| l.iter().map(|v| v.to_bits()).collect::<Vec<_>>()));
            }
            (losses, rows, global.len())
        };
        let (serial_losses, serial_rows, param_count) = train_at(1);
        let (fanned_losses, fanned_rows, _) = train_at(3);
        assert_eq!(serial_losses.len(), 12);
        assert_eq!(serial_losses[2], 0.0f32.to_bits(), "client 2 sat out");
        assert_eq!(serial_losses, fanned_losses, "the fan-out width changed a training loss");
        for (i, row) in serial_rows.iter().enumerate() {
            if i % 4 == 2 {
                assert_eq!(row, &[marker[0].to_bits()], "inactive client 2's row was written");
            } else {
                assert_eq!(row.len(), param_count, "row {i} holds no flattened upload");
            }
        }
        assert_eq!(serial_rows, fanned_rows, "the fan-out width changed a client's upload row");
    }

    /// Wraps [`TestAvg`] and checks, at every aggregation, each client's
    /// `locals` row against the pre-aggregate global: bit for bit equal for
    /// a client the fault plan dropped after training, different for one
    /// that delivered. Counts the dropped rows it checked.
    struct UndeliveredRowsProbe {
        faults: FaultConfig,
        checked: Arc<AtomicUsize>,
    }
    impl SyncStrategy for UndeliveredRowsProbe {
        fn name(&self) -> &str {
            "test-undelivered-rows"
        }
        fn prepare_uploads_into(
            &mut self,
            round: usize,
            locals: &[Vec<f32>],
            global: &[f32],
            out: &mut Vec<u64>,
        ) {
            TestAvg.prepare_uploads_into(round, locals, global, out);
        }
        fn aggregate(
            &mut self,
            round: usize,
            locals: &[Vec<f32>],
            selected: &[usize],
            active: &[bool],
            global: &mut [f32],
        ) -> AggregateOutcome {
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            for (i, (row, &valid)) in locals.iter().zip(active).enumerate() {
                if self.faults.dropout(i, round) {
                    assert!(!valid, "round {round}: dropped client {i} counted as valid");
                    assert_eq!(bits(row), bits(global), "round {round}: dropped client {i}'s row");
                    self.checked.fetch_add(1, Ordering::Relaxed);
                } else {
                    assert_ne!(bits(row), bits(global), "round {round}: client {i} uploaded the global");
                }
            }
            TestAvg.aggregate(round, locals, selected, active, global)
        }
    }

    #[test]
    fn undelivered_rows_hold_the_pre_aggregate_global() {
        // Every client is present and trains, so the fan-out writes all six
        // rows each round; about half then drop out before delivering, and
        // `collect_locals` must hand the strategy the global in their place.
        let faults = FaultConfig { dropout_prob: 0.5, ..FaultConfig::default() };
        let checked = Arc::new(AtomicUsize::new(0));
        let probe = Box::new(UndeliveredRowsProbe { faults, checked: Arc::clone(&checked) });
        let result = quick_experiment_of(probe, 6, 6, |cfg| {
            cfg.faults = faults;
            cfg.defense = DefenseConfig::on();
        })
        .run(None)
        .unwrap();
        let dropped = checked.load(Ordering::Relaxed);
        assert!(dropped > 0, "the plan should drop someone in an aggregated round");
        assert!(result.total_dropped() >= dropped);
    }

    #[test]
    fn faulty_run_survives_with_defenses() {
        let mut e = quick_experiment_with(6, 8, |cfg| {
            cfg.faults = FaultConfig {
                dropout_prob: 0.2,
                upload_loss_prob: 0.15,
                corrupt_prob: 0.1,
                crash_prob: 0.05,
                ..FaultConfig::default()
            };
            cfg.defense = DefenseConfig::on();
        });
        let result = e.run(None).unwrap();
        assert_eq!(result.rounds.len(), 8);
        assert!(
            result.total_dropped() + result.total_quarantined() > 0,
            "the fault plan should have injected something"
        );
        let mut last = 0.0;
        for r in &result.rounds {
            assert!(r.sim_time_secs > last, "sim time must stay strictly monotone");
            last = r.sim_time_secs;
        }
    }

    #[test]
    fn retransmissions_charge_bytes_and_backoff() {
        let clean = quick_experiment_with(4, 5, |cfg| {
            cfg.defense = DefenseConfig::on();
        })
        .run(None)
        .unwrap();
        let lossy = quick_experiment_with(4, 5, |cfg| {
            cfg.faults = FaultConfig { upload_loss_prob: 0.4, ..FaultConfig::default() };
            cfg.defense = DefenseConfig::on();
        })
        .run(None)
        .unwrap();
        assert!(lossy.total_retransmitted_bytes() > 0, "losses should force retransmissions");
        assert!(
            lossy.rounds.last().unwrap().sim_time_secs > clean.rounds.last().unwrap().sim_time_secs,
            "retry backoff must cost emulated time"
        );
    }

    #[test]
    fn every_upload_lost_ends_the_run_after_the_barren_budget() {
        // Round r is the (r + 1)-th barren round in a row; the ninth one,
        // round 8, is one more than the budget allows.
        let err = quick_experiment_with(4, 12, |cfg| {
            cfg.faults = FaultConfig { upload_loss_prob: 1.0, ..FaultConfig::default() };
            cfg.defense = DefenseConfig::on();
        })
        .run(None)
        .unwrap_err();
        assert!(matches!(err, FlError::QuarantineExhausted { round: 8 }), "{err:?}");
    }

    #[test]
    fn corrupted_uploads_are_quarantined_not_fatal() {
        let mut e = quick_experiment_with(5, 6, |cfg| {
            cfg.faults = FaultConfig { corrupt_prob: 0.3, ..FaultConfig::default() };
            cfg.defense = DefenseConfig::on();
        });
        let mut finite = true;
        let result = {
            let mut hook = |_r: &RoundRecord, g: &[f32]| {
                finite &= g.iter().all(|v| v.is_finite());
            };
            e.run(Some(&mut hook)).unwrap()
        };
        assert!(finite, "the global must stay finite under corruption");
        assert!(result.total_quarantined() > 0, "corrupted uploads should be quarantined");
    }

    #[test]
    fn client_panic_is_captured_as_client_failed() {
        struct PanicLayer;
        impl fedsu_nn::Layer for PanicLayer {
            fn name(&self) -> &str {
                "panic"
            }
            fn forward(&mut self, _input: &fedsu_tensor::Tensor, _train: bool) -> fedsu_nn::Result<fedsu_tensor::Tensor> {
                panic!("injected client fault");
            }
            fn backward(&mut self, _grad: &fedsu_tensor::Tensor) -> fedsu_nn::Result<fedsu_tensor::Tensor> {
                panic!("injected client fault");
            }
        }
        let mut rng = StdRng::seed_from_u64(5);
        let data = Arc::new(SyntheticConfig::new(2, 1, 4, 4).samples_per_class(5).build(&mut rng));
        let n_samples = data.len();
        let mut model = Sequential::new("boom");
        model.push(PanicLayer);
        let batcher = Batcher::new(data, (0..n_samples).collect(), 1);
        let mut client = Client::new(
            0,
            model,
            batcher,
            ClientConfig {
                batch_size: 2,
                local_iters: 1,
                lr: 0.1,
                weight_decay: 0.0,
                schedule: crate::LrSchedule::Constant,
                clip_norm: None,
            },
        );
        let err = train_one(&mut client, 0, &[], 0, &mut Vec::new()).unwrap_err();
        assert_eq!(err, FlError::ClientFailed { id: 0 });
    }

    #[test]
    fn validate_uploads_flags_nan_and_outliers() {
        let global = vec![0.0f32; 4];
        let locals = vec![
            vec![0.1, 0.1, 0.1, 0.1],
            vec![0.2, f32::NAN, 0.1, 0.1],
            vec![1.0e8, 0.0, 0.0, 0.0],
            vec![0.1, 0.2, 0.1, 0.0],
        ];
        let (mut valid, mut norms, mut finite) = (Vec::new(), Vec::new(), Vec::new());
        let quarantined = |returned: &[bool], valid: &[bool]| {
            returned.iter().zip(valid).filter(|&(&r, &v)| r && !v).count()
        };
        let returned = [true, true, true, true];
        validate_uploads_into(&locals, &global, &returned, &mut valid, &mut norms, &mut finite);
        assert_eq!(valid, vec![true, false, false, true]);
        assert_eq!(quarantined(&returned, &valid), 2);
        // Clients that never returned are not counted as quarantined.
        let returned = [true, false, false, true];
        validate_uploads_into(&locals, &global, &returned, &mut valid, &mut norms, &mut finite);
        assert_eq!(valid, vec![true, false, false, true]);
        assert_eq!(quarantined(&returned, &valid), 0);
    }
}
