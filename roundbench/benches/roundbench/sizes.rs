//! Every workload size, in one place, each with the reason it has that
//! value. Sizes are frozen: a run never scales its work from a measurement,
//! so outputs are checksum-comparable. `--smoke` swaps in the toy column.
//!
//! Calibrated on the 2-core reference container, a shared VM on which other
//! tenants' work slows this program for seconds to minutes at a time: runs
//! of one seed read 20–57 ms for the median sync step on 500 k parameters.
//! Three workloads therefore keep their working set inside the 4 MB L2 and
//! their rounds at milliseconds, where the slow-down is a steady factor
//! that the disturbance probe (`probe.rs`) measures next to every round and
//! takes out; `train_cnn`, whose point is kernel time, keeps its rounds
//! short, their work equal, and one CPU (see [`TRAIN_CNN`]).

/// Rounds at the head of every run that fill pools and fault pages in; they
/// are run and verified but excluded from the timing statistics.
pub const WARMUP_ROUNDS: usize = 10;

/// Set-ups timed back to back before the run (the first also runs the
/// fixed prefix, the last is the instance that is measured).
pub const SETUP_REPEATS: usize = 5;
/// One more set-up is timed every this many seconds while the run lasts;
/// `setup_s` is the median of all samples.
pub const SETUP_SAMPLE_SECS: f64 = 1.0;

/// How steeply a workload's times rise with the disturbance probe's
/// (`probe.rs`): a time measured while the probe read `1 + d` times its
/// undisturbed time is divided by `1 + kappa · d`. Fitted on runs of the
/// reference box that span undisturbed and disturbed minutes: the value that
/// brings the runs' medians closest together.
#[derive(Debug, Clone, Copy)]
pub struct Kappa {
    /// For the time of a round.
    pub round: f64,
    /// For the time of a set-up.
    pub setup: f64,
}

/// The seed handed to the product (`ExperimentConfig::seed`: model
/// initialisation, Dirichlet partition, batch order, cluster). It is part of
/// the frozen configuration, like the learning rate: `--seed` generates the
/// inputs (datasets, trajectories, payloads) and the product receives only
/// those.
pub const PRODUCT_SEED: u64 = 42;

/// Samples per replayed primitive (the issue asks for at least 200).
pub const REPLAY_SAMPLES: usize = 200;

/// Share of `--seconds` the traced run spends on its untraced reference
/// leg (for `trace_overhead_pct`), then on the traced leg; the remainder
/// is left for the replays.
pub const TRACE_UNTRACED_SHARE: f64 = 0.3;
/// See [`TRACE_UNTRACED_SHARE`].
pub const TRACE_TRACED_SHARE: f64 = 0.5;

/// Shape of one `Experiment` workload.
#[derive(Debug, Clone, Copy)]
pub struct ExperimentSizes {
    /// Clients in the cluster.
    pub clients: usize,
    /// Training samples per class.
    pub train_per_class: usize,
    /// Test samples per class.
    pub test_per_class: usize,
    /// Mini-batch size.
    pub batch: usize,
    /// Local SGD iterations per round.
    pub local_iters: usize,
    /// Evaluate every this many rounds.
    pub eval_every: usize,
    /// Rounds per segment (one `Experiment::run` call); a multiple of
    /// `eval_every`. The first segment is the fixed prefix (warm-up
    /// included): checksum, exact wire count and the in-run repeat all cover
    /// exactly its rounds.
    pub segment_rounds: usize,
    /// Rounds at the head of the run that are run and verified but not
    /// timed.
    pub warmup_rounds: usize,
    /// Run the workload on one CPU (the thread's affinity is narrowed to
    /// one, so `train_all` and the kernel pool, which size themselves by
    /// `available_parallelism`, run serially).
    pub one_cpu: bool,
    /// How the workload's times answer to disturbance.
    pub kappa: Kappa,
}

/// `train_cnn`: the paper's CNN (batch 16, lr 0.01, wd 1e-3, FedSU
/// calibrated), so local training dominates the round the way it does for
/// emulator users. Every other size is chosen so that what disturbs a round
/// is what the probe sees just before and just after it:
///
/// * **One CPU.** With both vCPUs busy the median round sat at one of two
///   levels 1.35 × apart for minutes at a time (the host places the two
///   vCPUs on one physical core or on two); ten runs spread 27–30 % and no
///   estimator inside a run can undo that. One busy thread has no such
///   levels. The `train_all` fan-out is therefore not in this workload;
///   `fleet_fedsgd` runs it every round.
/// * **Short rounds**: 4 clients × 1 iteration × batch 16 and evaluation on
///   50 test samples every 5th round give ≈ 26 ms rounds (31 ms with
///   evaluation), so the two probe samples around a round are 26 ms apart
///   and thirty seconds hold a thousand rounds. The issue's 8 clients × 6
///   iterations are 165 ms two threads wide.
/// * **Equal rounds**: 400 samples per class, so a client sees the short
///   batch that ends an epoch once in 60 rounds; at 40 per class one batch
///   in four was short and round times of one run ranged over 83–124 ms.
/// * **Evaluation every 5th round**: p90 is then the median of the
///   evaluation rounds, not of the noise.
///
/// Local training is ≈ 90 % of a plain round, join state + sync step ≈ 10 %.
pub const TRAIN_CNN: ExperimentSizes = ExperimentSizes {
    clients: 4,
    train_per_class: 400,
    test_per_class: 5,
    batch: 16,
    local_iters: 1,
    eval_every: 5,
    segment_rounds: 20,
    warmup_rounds: WARMUP_ROUNDS,
    one_cpu: true,
    // 25 runs: medians spread 37 % as measured, 4 % corrected.
    kappa: Kappa {
        round: 0.6,
        setup: 0.3,
    },
};

/// Toy `train_cnn` for `--smoke`: same code path, seconds not minutes.
pub const TRAIN_CNN_SMOKE: ExperimentSizes = ExperimentSizes {
    clients: 3,
    train_per_class: 6,
    test_per_class: 3,
    batch: 4,
    local_iters: 1,
    eval_every: 1,
    segment_rounds: 12,
    warmup_rounds: WARMUP_ROUNDS,
    one_cpu: true,
    kappa: TRAIN_CNN.kappa,
};

/// `fleet_fedsgd` MLP widths: 17 k parameters. One FedSGD step is a few
/// passes over the parameters, so the per-client-per-parameter work of the
/// round loop and the strategy dominates (sync step + join state ≈ 67 % of
/// the round). The issue's starting point `[64, 512, 384, 10]` (234 k
/// parameters, 30 MB of client and error vectors) read 38–60 ms for the
/// median round across runs of one commit; at this size all of it stays in
/// L2.
pub const FLEET_DIMS: [usize; 4] = [64, 128, 64, 10];
/// Toy widths for `--smoke`.
pub const FLEET_DIMS_SMOKE: [usize; 4] = [64, 24, 16, 10];

/// `fleet_fedsgd`: 16 clients × batch 1 × 1 iteration (cross-device
/// FedSGD), evaluation every 5 rounds so most rounds carry no evaluation.
/// 16 clients rather than the issue's 32 keep the client vectors in L2.
/// Segments are long because a round is ≈ 2 ms and the first round of each
/// `Experiment::run` call re-allocates the loop's scratch.
///
/// It is the one workload two threads wide (`train_all` fans the clients out
/// and joins them every round); on one CPU the product takes another path
/// (the round is 4 ms, most of it in small kernels that cost ten times what
/// they cost here), so that is not an option. Its median round used to step
/// from 2.0 to 2.2–2.4 ms at a random point of every second run with the
/// probe reading the same, and ten runs spread 13 %: that was glibc handing
/// the `join_state()` buffer's pages back to the kernel every round or not,
/// by where in the heap the buffer lay, and `heap.rs` ended it. The warm-up
/// is long because in every run of one collection the first four seconds sat
/// at the upper level (a fresh instance started later in the same process
/// shows no such step).
pub const FLEET_FEDSGD: ExperimentSizes = ExperimentSizes {
    clients: 16,
    train_per_class: 40,
    test_per_class: 20,
    batch: 1,
    local_iters: 1,
    eval_every: 5,
    segment_rounds: 200,
    warmup_rounds: 1_800,
    one_cpu: false,
    // 25 runs: medians spread 49 % as measured, 24 % corrected, of which
    // the heap step above was 12 %.
    kappa: Kappa {
        round: 0.65,
        setup: 0.6,
    },
};

/// Toy `fleet_fedsgd` for `--smoke`.
pub const FLEET_FEDSGD_SMOKE: ExperimentSizes = ExperimentSizes {
    clients: 4,
    train_per_class: 4,
    test_per_class: 2,
    batch: 1,
    local_iters: 1,
    eval_every: 5,
    segment_rounds: 15,
    warmup_rounds: WARMUP_ROUNDS,
    one_cpu: false,
    kappa: FLEET_FEDSGD.kappa,
};

/// Shape of the `manager_sync` workload.
#[derive(Debug, Clone, Copy)]
pub struct ManagerSizes {
    /// Scalars in the model.
    pub params: usize,
    /// Clients (all active every round).
    pub clients: usize,
    /// Clients aggregated per round (0.7 × clients, the paper's fraction).
    pub selected: usize,
    /// Rounds of the fixed prefix (warm-up included).
    pub fixed_rounds: usize,
    /// Every this many rounds 1 % of the linear scalars flip slope, so the
    /// exit and re-entry paths run for the whole length of the run.
    pub churn_every: usize,
    /// How the workload's times answer to disturbance.
    pub kappa: Kappa,
}

/// `manager_sync`: 16 k scalars × 16 clients: client vectors, error
/// accumulators and manager state (2.4 MB) stay in L2, and a sync step is
/// ≈ 0.5 ms. The issue's starting point of 1 M scalars (and 500 k after it)
/// is the regime the paper's Table II reports, but on the reference box its
/// median step read anywhere from 20 to 57 ms across back-to-back runs of
/// one seed, which no bound can gate. The column-strided walk that ROADMAP
/// item 2 removes costs 20 × FedAvg here too, and it is the access pattern
/// the probe copies, so this workload answers to disturbance exactly as the
/// probe does.
pub const MANAGER_SYNC: ManagerSizes = ManagerSizes {
    params: 16_000,
    clients: 16,
    selected: 11,
    fixed_rounds: 100,
    churn_every: 50,
    // 25 runs: medians spread 41 % as measured, 7 % corrected.
    kappa: Kappa {
        round: 1.0,
        setup: 0.4,
    },
};

/// Toy `manager_sync` for `--smoke`.
pub const MANAGER_SYNC_SMOKE: ManagerSizes = ManagerSizes {
    params: 4_000,
    clients: 4,
    selected: 3,
    fixed_rounds: 14,
    churn_every: 6,
    kappa: MANAGER_SYNC.kappa,
};

/// Shape of the `wire_clean` workload.
#[derive(Debug, Clone, Copy)]
pub struct WireSizes {
    /// Clients on the star bus.
    pub clients: usize,
    /// Scalars in the dense downstream model.
    pub params: usize,
    /// One in this many scalars goes up in the sparse `Update` (25 %).
    pub update_stride: usize,
    /// One in this many scalars goes up in the sparse `ErrorReport` (1 %).
    pub error_stride: usize,
    /// Rounds of the fixed prefix (warm-up included).
    pub fixed_rounds: usize,
    /// Ack timeout in milliseconds: generous, so a loaded box measures the
    /// protocol and never the retransmit timer.
    pub ack_timeout_ms: u64,
    /// Run the workload on one CPU (see [`ExperimentSizes::one_cpu`]): the
    /// server and the client thread then take turns on it.
    pub one_cpu: bool,
    /// How the workload's times answer to disturbance.
    pub kappa: Kappa,
}

/// `wire_clean`: 4 clients and a 25 k-scalar model make a round ≈ 400 KB
/// down and ≈ 200 KB up in 12 reliable sends: ≈ 4 ms, of which the codecs,
/// checksums and copies are the bulk and the 24 thread hand-offs the rest.
/// The issue's starting point of 1 M scalars gave 160 ms rounds whose median
/// moved by 10–20 % between runs; at this size frames stay in L2. **One
/// CPU**: with the two threads on two vCPUs the median round sat at 3.3 ms
/// or at 4.0 ms for seconds at a time with nothing else changing (where the
/// host places the vCPUs decides what a hand-off of 400 KB between them
/// costs); taking turns on one CPU they read 3.5 ms, run after run. The
/// protocol is lock-step, so the two threads seldom have work at the same
/// time anyway.
pub const WIRE_CLEAN: WireSizes = WireSizes {
    clients: 4,
    params: 25_000,
    update_stride: 4,
    error_stride: 100,
    fixed_rounds: 30,
    ack_timeout_ms: 2_000,
    one_cpu: true,
    // 25 runs: medians spread 9 % as measured, 7 % corrected (two builds of
    // the same source differ by 6 %, which no probe sees). A set-up
    // is 0.1 ms, too short for any value here to steady it.
    kappa: Kappa {
        round: 0.15,
        setup: 1.0,
    },
};

/// Toy `wire_clean` for `--smoke`.
pub const WIRE_CLEAN_SMOKE: WireSizes = WireSizes {
    clients: 2,
    params: 2_000,
    update_stride: 4,
    error_stride: 100,
    fixed_rounds: 12,
    ack_timeout_ms: 2_000,
    one_cpu: true,
    kappa: WIRE_CLEAN.kappa,
};
