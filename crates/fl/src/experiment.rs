//! The end-to-end experiment loop: pull → local training → sparsified
//! synchronization → aggregation → evaluation, with emulated timing,
//! optional fault injection, and server-side fault tolerance.

use crate::client::{Client, ClientConfig};
use crate::message::{bytes_with_retries, scalars_to_bytes};
use crate::record::{ExperimentResult, RoundRecord};
use crate::server::Server;
use crate::strategy::{AggregateOutcome, SyncStrategy};
use crate::{FlError, Result};
use fedsu_data::{dirichlet_partition, Batcher, InMemoryDataset};
use fedsu_netsim::{Cluster, ClusterConfig, FaultPenalties, FaultPlan, RoundTimer};
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

/// Server-side fault-tolerance knobs.
///
/// Disabled by default: with `enabled == false` the runtime behaves exactly
/// like the legacy clean-path loop (divergence errors out, a fully-lost
/// round is a config error), which keeps zero-fault runs bit-for-bit
/// reproducible against old records.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DefenseConfig {
    /// Master switch for every defense below.
    pub enabled: bool,
    /// Upload retransmissions allowed per client per round.
    pub max_retries: u32,
    /// Emulated seconds of backoff charged per retransmission.
    pub retry_backoff_secs: f64,
    /// Quarantine uploads whose update norm exceeds this multiple of the
    /// round's (lower) median update norm.
    pub outlier_norm_factor: f32,
    /// Optional hard round deadline in emulated seconds: selected clients
    /// finishing later are dropped from aggregation.
    pub round_deadline_secs: Option<f64>,
    /// Emulated seconds charged when a round produces no usable upload.
    pub lost_round_penalty_secs: f64,
    /// Roll back to the last finite global instead of erroring `Diverged`.
    pub rollback: bool,
    /// Consecutive unusable rounds tolerated before
    /// [`FlError::QuarantineExhausted`].
    pub max_barren_rounds: usize,
}

impl Default for DefenseConfig {
    fn default() -> Self {
        DefenseConfig {
            enabled: false,
            max_retries: 2,
            retry_backoff_secs: 2.0,
            outlier_norm_factor: 8.0,
            round_deadline_secs: None,
            lost_round_penalty_secs: 30.0,
            rollback: true,
            max_barren_rounds: 8,
        }
    }
}

impl DefenseConfig {
    /// Defenses enabled with the default knobs.
    pub fn on() -> Self {
        DefenseConfig { enabled: true, ..DefenseConfig::default() }
    }
}

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
    pub faults: FaultPlan,
    /// Server-side fault-tolerance configuration (default: disabled).
    pub defense: DefenseConfig,
    /// Kernel-level thread budget for tensor matmuls (`0` = auto-detect).
    /// Installed once at the start of [`Experiment::run`]; when the round
    /// loop is already training clients on separate threads it temporarily
    /// forces kernels serial so the two layers never oversubscribe. Parallel
    /// kernels are bit-identical to serial ones, so this never changes
    /// results.
    pub kernel_threads: usize,
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
            .field("kernel_threads", &self.kernel_threads)
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
            faults: FaultPlan::none(),
            defense: DefenseConfig::default(),
            kernel_threads: 0,
        }
    }
}

/// Reusable per-round buffers for [`Experiment::run`]: every vector is
/// cleared and refilled in place each round, so the steady-state loop
/// performs no per-round allocations for its bookkeeping. The refilled
/// values are identical to what fresh allocations would hold, which keeps
/// zero-fault records bit-for-bit reproducible.
#[derive(Default)]
struct RoundScratch {
    avail: Vec<bool>,
    active: Vec<bool>,
    was_active: Vec<bool>,
    download_bytes: Vec<u64>,
    train_results: Vec<Result<f32>>,
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
    survivors: Vec<usize>,
    agg_active: Vec<bool>,
    global_snapshot: Vec<f32>,
    upload_scalars: Vec<u64>,
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
        let mut part_rng = StdRng::seed_from_u64(config.seed ^ 0x9e3779b97f4a7c15);
        let parts = dirichlet_partition(train_data.labels(), n, config.alpha, &mut part_rng);

        let mut clients = Vec::with_capacity(n);
        for (i, part) in parts.into_iter().enumerate() {
            let model = factory(config.seed)?;
            let batcher = Batcher::new(Arc::clone(&train_data), part, config.seed.wrapping_add(i as u64 + 1));
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

    /// Runs all configured rounds.
    ///
    /// With fault tolerance disabled (the default), this is the legacy
    /// clean-path loop: it returns [`FlError::Diverged`] when parameters
    /// become non-finite and propagates any training error. With
    /// [`DefenseConfig::enabled`], faults injected by the configured
    /// [`FaultPlan`] are absorbed: failed or dropped clients are excluded,
    /// corrupted uploads are quarantined, lost uploads are retried with
    /// backoff charged to sim-time, and a poisoned aggregation rolls back to
    /// the last good checkpoint.
    ///
    /// # Errors
    ///
    /// Returns [`FlError::Diverged`] when parameters become non-finite (and
    /// rollback is unavailable), [`FlError::QuarantineExhausted`] when too
    /// many consecutive rounds produce no usable update, or any underlying
    /// training error.
    pub fn run(&mut self, mut hook: Option<RoundHook<'_>>) -> Result<ExperimentResult> {
        // Install the kernel thread budget before any training work; `0`
        // resolves to auto-detect. Safe at any value: parallel kernels are
        // bit-identical to serial ones.
        fedsu_tensor::set_kernel_threads(self.config.kernel_threads);
        let n = self.clients.len();
        let total = self.param_count();
        let faults = self.config.faults;
        let defense = self.config.defense;
        let mut records = Vec::with_capacity(self.config.rounds);
        let mut sim_time = 0.0f64;
        // Round-0 download: every client pulls the full initial model.
        let mut prev_broadcast_scalars = total;
        let mut checkpoint: Option<Vec<f32>> = None;
        if defense.enabled && defense.rollback {
            let mut cp: Vec<f32> = Vec::with_capacity(total);
            cp.extend_from_slice(self.server.global());
            checkpoint = Some(cp);
        }
        let mut barren_streak = 0usize;
        // All per-round bookkeeping lives in one scratch block, refilled in
        // place every round. The reservations below pre-size the variable-
        // length members once so nothing in the loop grows past capacity.
        let mut scratch = RoundScratch::default();
        scratch.was_active.resize(n, false);
        scratch.global_snapshot.resize(total, 0.0);
        scratch.survivors.reserve(n);
        scratch.finite_norms.reserve(n);
        // Per-round allocation attribution (FEDSU_ALLOC_STATS): re-base the
        // process counters so each round's delta lands in the alloc_stats
        // round log. Reporting only — never touches records or sim-time.
        let alloc_trace = fedsu_tensor::alloc_stats::enabled();
        if alloc_trace {
            fedsu_tensor::alloc_stats::begin_run(self.config.rounds);
        }

        for round in 0..self.config.rounds {
            scratch.avail.clear();
            scratch.avail.resize(n, true);
            if let Some(f) = self.config.availability.as_ref() {
                for (i, a) in scratch.avail.iter_mut().enumerate() {
                    *a = f(i, round);
                }
            }
            // Crashed clients are unavailable until their down-window ends;
            // on rejoin they pay the dynamicity catch-up download below.
            scratch.active.clear();
            scratch.active.resize(n, false);
            for (i, (act, &a)) in
                scratch.active.iter_mut().zip(&scratch.avail).enumerate()
            {
                *act = a && !faults.crashed(i, round);
            }
            let mut dropped = scratch
                .avail
                .iter()
                .zip(&scratch.active)
                .filter(|&(&a, &act)| a && !act)
                .count();
            let mut quarantined = 0usize;
            let mut rollbacks = 0usize;

            // Joining clients additionally download the strategy's replicated
            // state (the paper's dynamicity protocol, Sec. V). Serialising it
            // is the strategy's most expensive call, so ask only in a round
            // that has a joiner.
            let any_joiner = round > 0
                && scratch.active.iter().zip(&scratch.was_active).any(|(&act, &was)| act && !was);
            let join_state_bytes = if any_joiner {
                self.strategy.join_state().map_or(0, |s| {
                    u64::try_from(s.len())
                        .expect("join-state size fits in u64 on supported targets")
                })
            } else {
                0
            };
            scratch.download_bytes.clear();
            scratch.download_bytes.resize(n, 0);
            for ((db, &is_active), &was) in scratch
                .download_bytes
                .iter_mut()
                .zip(&scratch.active)
                .zip(&scratch.was_active)
            {
                if is_active {
                    *db = scalars_to_bytes(prev_broadcast_scalars);
                    if !was && round > 0 {
                        *db = scalars_to_bytes(total)
                            .checked_add(join_state_bytes)
                            .expect("rejoin payload fits in u64: model bytes plus a small join state");
                    }
                }
            }

            // 1+2. Pull current global and train locally, in parallel, with
            // per-client panic capture.
            scratch.global_snapshot.copy_from_slice(self.server.global());
            train_all(
                &mut self.clients,
                &scratch.active,
                &scratch.global_snapshot,
                round,
                &mut scratch.train_results,
            );

            // `returned[i]`: client i delivered an upload this round.
            scratch.returned.clear();
            scratch.returned.extend_from_slice(&scratch.active);
            scratch.train_losses.clear();
            scratch.train_losses.resize(n, 0.0);
            for ((res, loss_slot), ret) in scratch
                .train_results
                .iter_mut()
                .zip(scratch.train_losses.iter_mut())
                .zip(scratch.returned.iter_mut())
            {
                match std::mem::replace(res, Ok(0.0)) {
                    Ok(loss) => *loss_slot = loss,
                    Err(FlError::ClientFailed { .. }) if defense.enabled => {
                        *ret = false;
                        dropped += 1;
                    }
                    Err(e) => return Err(e),
                }
            }

            // Mid-round dropouts and lossy uploads.
            let retries = if defense.enabled { defense.max_retries } else { 0 };
            scratch.tx_attempts.clear();
            scratch.tx_attempts.resize(n, 1);
            for (i, (ret, att)) in scratch
                .returned
                .iter_mut()
                .zip(scratch.tx_attempts.iter_mut())
                .enumerate()
            {
                if !*ret {
                    continue;
                }
                if faults.dropout(i, round) {
                    *ret = false;
                    dropped += 1;
                    continue;
                }
                match faults.upload_attempts(i, round, retries) {
                    Some(attempts) => *att = attempts,
                    None => {
                        *ret = false;
                        dropped += 1;
                    }
                }
            }

            if !scratch.returned.iter().any(|&r| r) {
                // Nobody delivered an upload this round.
                if !defense.enabled {
                    return Err(FlError::new_bad_config(format_args!(
                        "no active clients in round {round}"
                    )));
                }
                barren_streak += 1;
                if barren_streak > defense.max_barren_rounds {
                    return Err(FlError::QuarantineExhausted { round });
                }
                sim_time += defense.lost_round_penalty_secs;
                let (accuracy, test_loss) =
                    if round % self.config.eval_every == 0 || round + 1 == self.config.rounds {
                        let (a, l) = self.server.evaluate()?;
                        (Some(a), Some(l))
                    } else {
                        (None, None)
                    };
                let n_active = scratch.active.iter().filter(|&&a| a).count();
                let train_loss = if n_active == 0 {
                    0.0
                } else {
                    scratch.train_losses.iter().sum::<f32>() / n_active as f32
                };
                let record = RoundRecord {
                    round,
                    duration_secs: defense.lost_round_penalty_secs,
                    sim_time_secs: sim_time,
                    accuracy,
                    test_loss,
                    train_loss,
                    sparsification_ratio: 1.0,
                    bytes: scratch.download_bytes.iter().sum(),
                    participants: 0,
                    dropped,
                    quarantined: 0,
                    retransmitted_bytes: 0,
                    rollbacks: 0,
                };
                if let Some(h) = hook.as_mut() {
                    h(&record, self.server.global());
                }
                records.push(record);
                std::mem::swap(&mut scratch.was_active, &mut scratch.active);
                continue;
            }

            // 3. Collect local parameters (clients whose upload never arrives
            // contribute the unchanged global; they are never aggregated).
            // Corruption hits the payload after training, on the wire.
            scratch.locals.resize_with(n, Vec::new);
            for (i, (slot, c)) in
                scratch.locals.iter_mut().zip(&self.clients).enumerate()
            {
                if scratch.returned[i] {
                    c.local_params_into(slot);
                    if faults.corrupts(i, round) {
                        faults.corrupt_upload(i, round, slot);
                    }
                } else {
                    slot.clear();
                    slot.extend_from_slice(&scratch.global_snapshot);
                }
            }

            // 4. Strategy phase A: upload volumes, staged into the
            // round-scratch buffer (no per-round allocation).
            self.strategy.prepare_uploads_into(
                round,
                &scratch.locals,
                &scratch.global_snapshot,
                &mut scratch.upload_scalars,
            );
            if scratch.upload_scalars.len() != n {
                return Err(FlError::new_strategy_contract(format_args!(
                    "prepare_uploads_into staged {} entries for {} clients",
                    scratch.upload_scalars.len(),
                    n
                )));
            }
            scratch.upload_bytes.clear();
            scratch.upload_bytes.resize(n, 0);
            for (b, &s) in scratch.upload_bytes.iter_mut().zip(&scratch.upload_scalars) {
                *b = s * crate::BYTES_PER_SCALAR;
            }

            // 5. Emulated timing + earliest-K selection, with slowdown
            // multipliers and retry backoff charged to each client's clock.
            scratch.compute.clear();
            scratch.compute.resize(n, 0.0);
            scratch.time_factor.clear();
            scratch.time_factor.resize(n, 1.0);
            scratch.extra_secs.clear();
            scratch.extra_secs.resize(n, 0.0);
            for (i, ((comp, tf), extra)) in scratch
                .compute
                .iter_mut()
                .zip(scratch.time_factor.iter_mut())
                .zip(scratch.extra_secs.iter_mut())
                .enumerate()
            {
                if scratch.returned[i] {
                    *comp = self.config.compute_secs;
                    *tf = faults.slowdown(i, round);
                }
                *extra = defense.retry_backoff_secs * f64::from(scratch.tx_attempts[i] - 1);
            }
            let timing = self.timer.round_faulty(
                round,
                &scratch.compute,
                &scratch.upload_bytes,
                &scratch.download_bytes,
                &scratch.returned,
                FaultPenalties {
                    time_factor: &scratch.time_factor,
                    extra_secs: &scratch.extra_secs,
                },
            );

            let mut selected = timing.selected.clone();
            let mut duration = timing.duration_secs;
            if defense.enabled {
                if let Some(deadline) = defense.round_deadline_secs {
                    let before = selected.len();
                    selected.retain(|&i| timing.finish_secs[i] <= deadline);
                    dropped += before - selected.len();
                    duration = duration.min(deadline);
                }
            }

            // Server-side validation: quarantine non-finite and norm-outlier
            // uploads before they can reach aggregation (or a stateful
            // strategy's per-client accumulators).
            if defense.enabled {
                quarantined += validate_uploads_into(
                    &scratch.locals,
                    &scratch.global_snapshot,
                    &scratch.returned,
                    defense.outlier_norm_factor,
                    &mut scratch.valid,
                    &mut scratch.update_norm,
                    &mut scratch.finite_norms,
                );
            } else {
                scratch.valid.clear();
                scratch.valid.extend_from_slice(&scratch.returned);
            }
            scratch.survivors.clear();
            scratch
                .survivors
                .extend(selected.iter().copied().filter(|&i| scratch.valid[i]));
            scratch.agg_active.clear();
            scratch.agg_active.resize(n, false);
            for (i, agg) in scratch.agg_active.iter_mut().enumerate() {
                *agg = scratch.returned[i] && scratch.valid[i];
            }

            // 6. Strategy phase B: aggregate the surviving set into the new
            // global (or hold the global on a barren round).
            let mut outcome;
            if scratch.survivors.is_empty() {
                barren_streak += 1;
                if barren_streak > defense.max_barren_rounds {
                    return Err(FlError::QuarantineExhausted { round });
                }
                outcome = AggregateOutcome {
                    broadcast_scalars: prev_broadcast_scalars,
                    synced_scalars: 0,
                    total_scalars: total,
                };
            } else {
                barren_streak = 0;
                outcome = self.strategy.aggregate(
                    round,
                    &scratch.locals,
                    &scratch.survivors,
                    &scratch.agg_active,
                    self.server.global_mut(),
                );
                if self.server.global().iter().any(|v| !v.is_finite()) {
                    match checkpoint.as_ref() {
                        Some(cp) => {
                            self.server.global_mut().copy_from_slice(cp);
                            rollbacks += 1;
                            // Every client must re-download the restored
                            // global in full next round.
                            outcome.broadcast_scalars = total;
                        }
                        None => return Err(FlError::Diverged { round }),
                    }
                } else if let Some(cp) = checkpoint.as_mut() {
                    cp.copy_from_slice(self.server.global());
                }
            }
            prev_broadcast_scalars = outcome.broadcast_scalars;

            // 7. Accounting and evaluation. Lost transmission attempts burn
            // wire bytes: a payload delivered on attempt `a` cost `a` sends.
            sim_time += duration;
            let upload_wire: u64 = (0..n)
                .filter(|&i| scratch.returned[i])
                .map(|i| bytes_with_retries(scratch.upload_bytes[i], scratch.tx_attempts[i]))
                .sum();
            let retransmitted_bytes: u64 = scratch
                .returned
                .iter()
                .zip(&scratch.upload_bytes)
                .zip(&scratch.tx_attempts)
                .filter(|((&r, _), _)| r)
                .map(|((_, &b), &a)| crate::message::retransmitted_bytes(b, a))
                .sum();
            let bytes: u64 = upload_wire
                .checked_add(scratch.download_bytes.iter().sum::<u64>())
                .expect("round wire total fits in u64: both directions are bounded by model size");

            // Runtime invariant guards (armed by FEDSU_CHECK_INVARIANTS=1):
            // the emulated clock only moves forward, and every uploaded wire
            // byte is accounted for exactly once — aggregated, quarantined,
            // late (missed the round deadline), or burnt on retransmission.
            if fedsu_tensor::invariant::enabled() {
                assert!(
                    duration.is_finite() && duration >= 0.0,
                    "invariant violation [sim-time]: round {round} duration \
                     {duration} is negative or non-finite"
                );
                assert!(
                    sim_time.is_finite(),
                    "invariant violation [sim-time]: cumulative sim time became \
                     non-finite at round {round}"
                );
                let aggregated_bytes: u64 =
                    scratch.survivors.iter().map(|&i| scratch.upload_bytes[i]).sum();
                let quarantined_bytes: u64 = (0..n)
                    .filter(|&i| scratch.returned[i] && !scratch.valid[i])
                    .map(|i| scratch.upload_bytes[i])
                    .sum();
                let late_bytes: u64 = (0..n)
                    .filter(|&i| {
                        scratch.returned[i]
                            && scratch.valid[i]
                            && !scratch.survivors.contains(&i)
                    })
                    .map(|i| scratch.upload_bytes[i])
                    .sum();
                let decomposed_bytes = aggregated_bytes
                    .checked_add(quarantined_bytes)
                    .and_then(|b| b.checked_add(late_bytes))
                    .and_then(|b| b.checked_add(retransmitted_bytes))
                    .expect("wire decomposition fits in u64: every term is bounded by upload wire");
                assert_eq!(
                    upload_wire, decomposed_bytes,
                    "invariant violation [wire-conservation]: round {round} upload \
                     wire bytes do not decompose into aggregated + quarantined + \
                     late + retransmitted"
                );
            }

            let (accuracy, test_loss) = if round % self.config.eval_every == 0 || round + 1 == self.config.rounds {
                let (a, l) = self.server.evaluate()?;
                (Some(a), Some(l))
            } else {
                (None, None)
            };
            let n_active = scratch.active.iter().filter(|&&a| a).count();
            let train_loss = if n_active == 0 {
                0.0
            } else {
                scratch.train_losses.iter().sum::<f32>() / n_active as f32
            };

            let record = RoundRecord {
                round,
                duration_secs: duration,
                sim_time_secs: sim_time,
                accuracy,
                test_loss,
                train_loss,
                sparsification_ratio: 1.0 - outcome.synced_scalars as f64 / outcome.total_scalars.max(1) as f64,
                bytes,
                participants: scratch.survivors.len(),
                dropped,
                quarantined,
                retransmitted_bytes,
                rollbacks,
            };
            if let Some(h) = hook.as_mut() {
                h(&record, self.server.global());
            }
            records.push(record);
            std::mem::swap(&mut scratch.was_active, &mut scratch.active);
            if alloc_trace {
                fedsu_tensor::alloc_stats::mark_round(round);
            }
        }

        if alloc_trace {
            // Stderr report consumed by CI as the alloc-stats artifact; the
            // deltas themselves stay readable via `alloc_stats::rounds()`.
            for r in fedsu_tensor::alloc_stats::rounds() {
                eprintln!("ALLOC_STATS round={} allocs={} bytes={}", r.round, r.allocs, r.bytes);
            }
        }

        Ok(ExperimentResult {
            strategy: self.strategy.name().to_string(),
            model: self.config.model_name.clone(),
            rounds: records,
            param_count: total,
        })
    }
}

/// Rejects non-finite and norm-outlier uploads among the `returned` set.
///
/// An upload is quarantined when it contains a non-finite scalar, or when
/// its L2 update norm (`‖local − global‖`) exceeds `outlier_norm_factor`
/// times the lower median of the round's finite update norms. Fills `valid`
/// with the per-client validity mask (reusing the caller's buffers, so the
/// round loop performs no allocation here) and returns the number of
/// quarantined uploads.
fn validate_uploads_into(
    locals: &[Vec<f32>],
    global: &[f32],
    returned: &[bool],
    outlier_norm_factor: f32,
    valid: &mut Vec<bool>,
    update_norm: &mut Vec<f32>,
    finite_norms: &mut Vec<f32>,
) -> usize {
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
        let mut finite = true;
        let mut sq = 0.0f64;
        for (a, b) in local.iter().zip(global) {
            if !a.is_finite() {
                finite = false;
                break;
            }
            let d = f64::from(a - b);
            sq += d * d;
        }
        if finite {
            *norm = sq.sqrt() as f32;
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
            .get((finite_norms.len() - 1) / 2)
            .copied()
            .unwrap_or(f32::INFINITY)
            .max(1e-6);
        for (v, &norm) in valid.iter_mut().zip(update_norm.iter()) {
            if *v && norm > outlier_norm_factor * median {
                *v = false;
            }
        }
    }
    returned.iter().zip(valid.iter()).filter(|&(&r, &v)| r && !v).count()
}

/// Pulls the global into one client and trains it for one round, converting
/// a panic anywhere inside into [`FlError::ClientFailed`].
fn train_one(client: &mut Client, id: usize, global: &[f32], round: usize) -> Result<f32> {
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| -> Result<f32> {
        client.pull(global)?;
        client.train_round(round)
    }));
    match caught {
        Ok(res) => res,
        Err(_) => Err(FlError::ClientFailed { id }),
    }
}

/// Trains every active client for one round, spreading clients across
/// available cores with scoped threads. Fills `out` — reusing its
/// allocation — with one result per client: `Ok(mean training loss)` (0.0
/// for inactive clients) or the client's individual failure — a panicking
/// client never aborts the process. Each worker thread writes straight into
/// its disjoint chunk of `out`, so the fan-out stages no per-thread result
/// buffers.
fn train_all(
    clients: &mut [Client],
    active: &[bool],
    global: &[f32],
    round: usize,
    out: &mut Vec<Result<f32>>,
) {
    let threads = std::thread::available_parallelism().map_or(1, |p| p.get()).min(clients.len().max(1));
    out.clear();
    out.resize_with(clients.len(), || Ok(0.0f32));

    if threads <= 1 {
        for (i, ((client, slot), &is_active)) in
            clients.iter_mut().zip(out.iter_mut()).zip(active).enumerate()
        {
            if is_active {
                *slot = train_one(client, i, global, round);
            }
        }
        return;
    }

    let chunk = clients.len().div_ceil(threads);
    // Client-level parallelism owns the cores for this round: force tensor
    // kernels serial while the scope is live so the two layers compose
    // without oversubscription, then restore the configured policy. Kernel
    // outputs are bit-identical at every thread count, so this only affects
    // scheduling, never results.
    let saved_kernel_threads = fedsu_tensor::kernel_threads_setting();
    fedsu_tensor::set_kernel_threads(1);
    let dead_chunks = std::thread::scope(|s| {
        let mut handles = Vec::with_capacity(threads);
        for (ci, (chunk_clients, chunk_out)) in
            clients.chunks_mut(chunk).zip(out.chunks_mut(chunk)).enumerate()
        {
            let base = ci * chunk;
            let active = &active;
            handles.push(s.spawn(move || {
                for (off, (client, slot)) in
                    chunk_clients.iter_mut().zip(chunk_out.iter_mut()).enumerate()
                {
                    let id = base + off;
                    if active.get(id).is_some_and(|&a| a) {
                        *slot = train_one(client, id, global, round);
                    }
                }
            }));
        }
        // A chunk thread dying outside the per-client capture should be
        // unreachable; report which chunks (if any) did so the caller's
        // slots can blame every client in them.
        let mut dead_chunks: Vec<usize> = Vec::with_capacity(threads);
        for (ci, h) in handles.into_iter().enumerate() {
            if h.join().is_err() {
                dead_chunks.push(ci);
            }
        }
        dead_chunks
    });
    fedsu_tensor::set_kernel_threads(saved_kernel_threads);

    for ci in dead_chunks {
        let base = ci * chunk;
        for id in base..(base + chunk).min(active.len()) {
            if active[id] {
                out[id] = Err(FlError::ClientFailed { id });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::{average_into, AggregateOutcome};
    use fedsu_data::SyntheticConfig;
    use fedsu_netsim::FaultConfig;
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
            AggregateOutcome {
                broadcast_scalars: global.len(),
                synced_scalars: global.len(),
                total_scalars: global.len(),
            }
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
        let factory: ModelFactory = Arc::new(|seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut m = Sequential::new("probe");
            m.push(fedsu_nn::flatten::Flatten::new());
            m.push_boxed(Box::new(fedsu_nn::models::mlp(&[16, 12, 3], &mut rng)?));
            Ok(m)
        });
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
        let factory: ModelFactory = Arc::new(|seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut m = Sequential::new("probe");
            m.push(fedsu_nn::flatten::Flatten::new());
            m.push_boxed(Box::new(fedsu_nn::models::mlp(&[16, 2], &mut rng)?));
            Ok(m)
        });
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
        let test = Arc::clone(&train);
        let factory: ModelFactory = Arc::new(|seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut m = Sequential::new("probe");
            m.push(fedsu_nn::flatten::Flatten::new());
            m.push_boxed(Box::new(fedsu_nn::models::mlp(&[16, 2], &mut rng)?));
            Ok(m)
        });
        let cfg = ExperimentConfig::quick(2, 0, "probe");
        assert!(Experiment::new(cfg, factory, train, test, Box::new(TestAvg)).is_err());
    }

    #[test]
    fn bad_fraction_and_alpha_are_rejected() {
        let mut rng = StdRng::seed_from_u64(5);
        let train = Arc::new(SyntheticConfig::new(2, 1, 4, 4).samples_per_class(5).build(&mut rng));
        let factory: ModelFactory = Arc::new(|seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut m = Sequential::new("probe");
            m.push(fedsu_nn::flatten::Flatten::new());
            m.push_boxed(Box::new(fedsu_nn::models::mlp(&[16, 2], &mut rng)?));
            Ok(m)
        });
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

    #[test]
    fn deterministic_given_seed() {
        let mut a = quick_experiment(3, 3);
        let mut b = quick_experiment(3, 3);
        let ra = a.run(None).unwrap();
        let rb = b.run(None).unwrap();
        assert_eq!(ra.rounds, rb.rounds);
    }

    #[test]
    fn zero_fault_plan_is_bit_for_bit_identical() {
        // A zero-probability plan with a different fault seed must reproduce
        // the default (no-plan) records exactly.
        let mut a = quick_experiment(4, 4);
        let mut b = quick_experiment_with(4, 4, |cfg| {
            cfg.faults = FaultPlan::new(FaultConfig { seed: 0xDEAD_BEEF, ..FaultConfig::default() });
        });
        let ra = a.run(None).unwrap();
        let rb = b.run(None).unwrap();
        assert_eq!(ra.rounds, rb.rounds);
    }

    #[test]
    fn faulty_run_survives_with_defenses() {
        let mut e = quick_experiment_with(6, 8, |cfg| {
            cfg.faults = FaultPlan::new(FaultConfig {
                dropout_prob: 0.2,
                upload_loss_prob: 0.15,
                corrupt_prob: 0.1,
                crash_prob: 0.05,
                ..FaultConfig::default()
            });
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
            cfg.faults = FaultPlan::new(FaultConfig { upload_loss_prob: 0.4, ..FaultConfig::default() });
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
    fn corrupted_uploads_are_quarantined_not_fatal() {
        let mut e = quick_experiment_with(5, 6, |cfg| {
            cfg.faults = FaultPlan::new(FaultConfig { corrupt_prob: 0.3, ..FaultConfig::default() });
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
        let err = train_one(&mut client, 0, &[], 0).unwrap_err();
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
        let returned = [true, true, true, true];
        let quarantined = validate_uploads_into(
            &locals, &global, &returned, 8.0, &mut valid, &mut norms, &mut finite,
        );
        assert_eq!(valid, vec![true, false, false, true]);
        assert_eq!(quarantined, 2);
        // Clients that never returned are not counted as quarantined.
        let returned = [true, false, false, true];
        let quarantined = validate_uploads_into(
            &locals, &global, &returned, 8.0, &mut valid, &mut norms, &mut finite,
        );
        assert_eq!(valid, vec![true, false, false, true]);
        assert_eq!(quarantined, 0);
    }
}
