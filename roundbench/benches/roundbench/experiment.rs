//! The two `Experiment` workloads, `train_cnn` and `fleet_fedsgd`: the real
//! round loop, assembled from public constructors only (`Experiment::new`
//! with the benchmark's own config and model factory, so the same run can
//! be repeated with wrapped layers and strategy for the trace).

use crate::measure::{median, median_us, ms_between, Fnv, SetupTimer};
use crate::probe::Probe;
use crate::sizes::{ExperimentSizes, PRODUCT_SEED, REPLAY_SAMPLES};
use crate::trace::{covered_ns, Span, Traced, TracedLayer, Tracer, FEDSU_SPANS};
use crate::{Metrics, Outcome, RunArgs};
use fedsu_core::{FedSu, FedSuConfig};
use fedsu_data::{dirichlet_partition, Batcher, InMemoryDataset, SyntheticConfig};
use fedsu_fl::experiment::ModelFactory;
use fedsu_fl::{ClientConfig, Experiment, ExperimentConfig, LrSchedule, RoundRecord, SyncStrategy};
use fedsu_netsim::{Cluster, ClusterConfig, FaultPenalties, RoundTimer};
use fedsu_nn::activation::Relu;
use fedsu_nn::conv2d::Conv2d;
use fedsu_nn::dense::Dense;
use fedsu_nn::flatten::Flatten;
use fedsu_nn::pool::MaxPool2d;
use fedsu_nn::{Layer, Sequential};
use fedsu_tensor::{alloc_stats, ConvDims};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Instant;

/// Which model and dataset an `Experiment` workload trains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Model {
    /// `models::cnn(10, Small)` on the EMNIST stand-in.
    Cnn,
    /// A wide MLP with the given widths on 8×8 synthetic images.
    Mlp([usize; 4]),
}

/// FedSU at the repo's quick-profile operating point.
fn fedsu_calibrated() -> FedSu {
    FedSu::new(FedSuConfig {
        t_r: 0.1,
        t_s: 10.0,
        ..FedSuConfig::default()
    })
}

/// Pushes `layer`, wrapped when a tracer is given.
fn push<L: Layer + 'static>(
    net: &mut Sequential,
    layer: L,
    trace: Option<&(Arc<Tracer>, crate::trace::Sink)>,
) {
    match trace {
        Some((tracer, sink)) => net.push(TracedLayer::new(layer, tracer, sink)),
        None => net.push(layer),
    };
}

/// The benchmark's model factory. It repeats the layer list of
/// `fedsu_nn::models::cnn` / `mlp` (whose `Sequential` cannot be re-opened
/// to wrap its layers); `build` checks the result against the product
/// constructor parameter for parameter.
fn factory(model: Model, tracer: Option<Arc<Tracer>>) -> ModelFactory {
    Arc::new(move |seed| {
        let mut rng = StdRng::seed_from_u64(seed);
        let trace = tracer.as_ref().map(|t| (Arc::clone(t), t.sink()));
        let trace = trace.as_ref();
        let mut net;
        match model {
            Model::Cnn => {
                net = Sequential::new("cnn");
                push(&mut net, Conv2d::new(1, 6, 5, 1, 2, &mut rng)?, trace);
                push(&mut net, Relu::new(), trace);
                push(&mut net, MaxPool2d::new(2), trace);
                push(&mut net, Conv2d::new(6, 12, 5, 1, 2, &mut rng)?, trace);
                push(&mut net, Relu::new(), trace);
                push(&mut net, MaxPool2d::new(2), trace);
                push(&mut net, Flatten::new(), trace);
                push(&mut net, Dense::new(12 * 7 * 7, 64, &mut rng)?, trace);
                push(&mut net, Relu::new(), trace);
                push(&mut net, Dense::new(64, 10, &mut rng)?, trace);
            }
            Model::Mlp(dims) => {
                net = Sequential::new("mlp");
                push(&mut net, Flatten::new(), trace);
                for (i, pair) in dims.windows(2).enumerate() {
                    push(&mut net, Dense::new(pair[0], pair[1], &mut rng)?, trace);
                    if i + 2 < dims.len() {
                        push(&mut net, Relu::new(), trace);
                    }
                }
            }
        }
        Ok(net)
    })
}

/// The product constructor the factory must agree with.
fn reference_model(model: Model, seed: u64) -> fedsu_nn::Result<Sequential> {
    let mut rng = StdRng::seed_from_u64(seed);
    match model {
        Model::Cnn => fedsu_nn::models::cnn(10, fedsu_nn::models::ModelPreset::Small, &mut rng),
        Model::Mlp(dims) => fedsu_nn::models::mlp(&dims, &mut rng),
    }
}

fn dataset_config(model: Model, sizes: &ExperimentSizes) -> SyntheticConfig {
    match model {
        Model::Cnn => SyntheticConfig::emnist_like(),
        Model::Mlp(_) => SyntheticConfig::new(10, 1, 8, 8),
    }
    .samples_per_class(sizes.train_per_class)
}

fn client_config(sizes: &ExperimentSizes) -> ClientConfig {
    ClientConfig {
        batch_size: sizes.batch,
        local_iters: sizes.local_iters,
        lr: 0.01,
        weight_decay: 1e-3,
        schedule: LrSchedule::Constant,
        clip_norm: None,
    }
}

/// Everything before round 0; `seed` generates the datasets. Returns the
/// experiment and the milliseconds data synthesis took (a per-layer set-up
/// span).
fn build(
    model: Model,
    sizes: &ExperimentSizes,
    seed: u64,
    tracer: Option<&Arc<Tracer>>,
) -> Result<(Experiment, f64), String> {
    let t = Instant::now();
    let mut data_rng = StdRng::seed_from_u64(seed ^ 0xDA7A);
    let (train, test) =
        dataset_config(model, sizes).build_split(sizes.test_per_class, &mut data_rng);
    let synth_ms = t.elapsed().as_secs_f64() * 1e3;

    let strategy: Box<dyn SyncStrategy> = match tracer {
        Some(tr) => Box::new(Traced::new(fedsu_calibrated(), tr, FEDSU_SPANS)),
        None => Box::new(fedsu_calibrated()),
    };
    let config = ExperimentConfig {
        select_fraction: 0.7,
        client: client_config(sizes),
        alpha: 1.0,
        seed: PRODUCT_SEED,
        eval_every: sizes.eval_every,
        ..ExperimentConfig::quick(sizes.clients, sizes.segment_rounds, "roundbench")
    };
    let exp = Experiment::new(
        config,
        factory(model, tracer.cloned()),
        Arc::new(train),
        Arc::new(test),
        strategy,
    )
    .map_err(|e| format!("Experiment::new: {e}"))?;
    Ok((exp, synth_ms))
}

/// What driving an experiment for a while produced.
#[derive(Debug, Default)]
struct Driven {
    /// Wall time of every round after the warm-up, milliseconds.
    round_ms: Vec<f64>,
    /// The probe samples before and after each of those rounds.
    around_us: Vec<[f64; 2]>,
    /// Allocator calls / bytes per post-warm-up round (zeros unless the
    /// counting allocator is compiled in).
    allocs: Vec<f64>,
    alloc_bytes: Vec<f64>,
    /// Checksum over the first segment's records and its final global.
    checksum: u64,
    /// Mean `RoundRecord.bytes` over the first segment (an exact count).
    wire_bytes_per_round: f64,
    last_accuracy: Option<f32>,
    all_finite: bool,
    client_failures: u64,
    attempted: u64,
    failed: u64,
    error: Option<String>,
}

/// Runs the fixed first segment, then further segments until `budget_secs`
/// of wall time have passed since the call and at least `min_rounds` rounds
/// have run. Per-round wall time is taken in
/// the round hook, from outside the loop; the hook's own work, which
/// includes one sample of the disturbance probe per round, is excluded.
fn drive(
    exp: &mut Experiment,
    sizes: &ExperimentSizes,
    budget_secs: f64,
    min_rounds: usize,
    tracer: Option<&Arc<Tracer>>,
    between_segments: &mut dyn FnMut(),
) -> Driven {
    let mut d = Driven {
        all_finite: true,
        ..Driven::default()
    };
    let round_sink = tracer.map(|t| t.sink());
    let started = Instant::now();
    let mut probe = Probe::new();
    let mut fnv = Fnv::default();
    let mut wire_sum = 0u64;
    let mut round_no = 0usize;
    let mut segment = 0usize;
    loop {
        let mut before_us = probe.sample();
        let mut last = Instant::now();
        let mut last_alloc = alloc_stats::snapshot();
        if let Some(t) = tracer {
            t.begin_round(round_no as u32);
        }
        let mut done_in_segment = 0usize;
        let mut hook = |r: &RoundRecord, global: &[f32]| {
            let now = Instant::now();
            let alloc = alloc_stats::snapshot().since(&last_alloc);
            if let (Some(t), Some(sink)) = (tracer, round_sink.as_ref()) {
                t.end_round(sink, "fl.round", t.ns_of(last), t.ns_of(now));
            }
            let after_us = probe.sample();
            if round_no >= sizes.warmup_rounds {
                d.round_ms.push(ms_between(last, now));
                d.around_us.push([before_us, after_us]);
                d.allocs.push(alloc.allocs as f64);
                d.alloc_bytes.push(alloc.bytes as f64);
            }
            if segment == 0 {
                fnv.record(r);
                wire_sum += r.bytes;
                if r.round + 1 == sizes.segment_rounds {
                    fnv.f32s(global);
                }
            }
            if r.accuracy.is_some() {
                d.last_accuracy = r.accuracy;
            }
            d.all_finite &= r.train_loss.is_finite()
                && r.test_loss.is_none_or(f32::is_finite)
                && r.duration_secs.is_finite();
            d.client_failures += (r.dropped + r.quarantined) as u64;
            round_no += 1;
            done_in_segment += 1;
            if let Some(t) = tracer {
                t.begin_round(round_no as u32);
            }
            before_us = after_us;
            last_alloc = alloc_stats::snapshot();
            last = Instant::now();
        };
        let result = exp.run(Some(&mut hook));
        d.attempted += sizes.segment_rounds as u64;
        if let Err(e) = result {
            d.failed += (sizes.segment_rounds - done_in_segment) as u64;
            d.error = Some(format!("round {round_no}: {e}"));
            break;
        }
        if segment == 0 {
            d.checksum = fnv.value();
            d.wire_bytes_per_round = wire_sum as f64 / sizes.segment_rounds as f64;
        }
        segment += 1;
        if round_no >= min_rounds && started.elapsed().as_secs_f64() >= budget_secs {
            break;
        }
        between_segments();
    }
    d
}

/// Folds a finished leg's verification into the outcome.
fn verify(out: &mut Outcome, d: &Driven, model: Model, smoke: bool) {
    out.attempted += d.attempted;
    out.failed += d.failed;
    if let Some(e) = &d.error {
        out.fail(format!("run failed: {e}"));
    }
    if !d.all_finite {
        out.fail("a loss or duration was not finite".to_string());
    }
    // The paper's CNN target; the toy sizes of --smoke are not expected to
    // learn anything.
    if model == Model::Cnn && !smoke && d.last_accuracy.is_none_or(|a| a < 0.60) {
        out.fail(format!(
            "final test accuracy {:?} below 0.60",
            d.last_accuracy
        ));
    }
}

/// Runs one `Experiment` workload (see the crate README for the flow).
pub fn run(name: &'static str, model: Model, sizes: &ExperimentSizes, args: &RunArgs) -> Outcome {
    let mut out = Outcome::new(name);
    // Before the first tensor call, so the kernel pool sizes itself to it.
    if sizes.one_cpu && !crate::affinity::narrow_to_one_cpu() {
        out.fail("cannot narrow this thread's CPU affinity to one CPU".to_string());
    }
    let pool_before = fedsu_tensor::pool::global().outstanding();

    // The factory must build exactly the product's model.
    let same_model = factory(model, None)(PRODUCT_SEED)
        .and_then(|ours| Ok((ours, reference_model(model, PRODUCT_SEED)?)))
        .map(|(ours, theirs)| {
            fedsu_nn::flat::flatten_params(&ours) == fedsu_nn::flat::flatten_params(&theirs)
        });
    if !matches!(same_model, Ok(true)) {
        out.fail("benchmark factory disagrees with the product model constructor".to_string());
    }

    // Set-up, several times; the first instance also runs the fixed segment
    // so the one that is measured can be checked against a repeat.
    let mut setup = SetupTimer::new();
    let build_plain = || build(model, sizes, args.seed, None);
    let (built, repeat_checksum) = if args.traced {
        (build_plain(), None)
    } else {
        let (built, checksum) = setup.before_run(build_plain, |first| {
            first.map_or(0, |(mut exp, _)| {
                drive(&mut exp, sizes, 0.0, 0, None, &mut || {}).checksum
            })
        });
        (built, Some(checksum))
    };
    let (mut exp, synth_ms) = match built {
        Ok(built) => built,
        Err(e) => {
            out.fail(e);
            return out;
        }
    };
    let params = exp.param_count();

    // The untraced leg: all of --seconds, or its reference share in a
    // traced run.
    let budget = if args.traced {
        args.seconds * crate::sizes::TRACE_UNTRACED_SHARE
    } else {
        args.seconds
    };
    // Whatever the budget, some rounds beyond the warm-up are timed.
    let min_rounds = sizes.warmup_rounds + sizes.segment_rounds;
    let plain = drive(&mut exp, sizes, budget, min_rounds, None, &mut || {
        if !args.traced {
            setup.resample(build_plain);
        }
    });
    verify(&mut out, &plain, model, args.smoke);
    out.checksum = plain.checksum;
    if repeat_checksum.is_some_and(|c| c != plain.checksum) {
        out.fail("two runs of the same seed gave different checksums".to_string());
    }
    let state_bytes = exp.strategy().state_bytes();
    drop(exp);

    if !args.traced {
        out.end_to_end(
            &plain.round_ms,
            &plain.around_us,
            &setup,
            &sizes.kappa,
            plain.wire_bytes_per_round,
        );
        return out;
    }

    // The traced leg: same seed, same sizes, decorated layers and strategy.
    let tracer = Tracer::new();
    let (mut exp, _) = match build(model, sizes, args.seed, Some(&tracer)) {
        Ok(built) => built,
        Err(e) => {
            out.fail(e);
            return out;
        }
    };
    let traced = drive(
        &mut exp,
        sizes,
        args.seconds * crate::sizes::TRACE_TRACED_SHARE,
        min_rounds,
        Some(&tracer),
        &mut || {},
    );
    verify(&mut out, &traced, model, args.smoke);
    if traced.checksum != plain.checksum {
        out.fail("traced and untraced runs gave different checksums".to_string());
    }
    let spans = tracer.drain();
    let m = &mut out.metrics;
    layer_metrics(m, &spans, &traced, sizes.warmup_rounds);
    m.set(
        "fl.client_failures",
        (plain.client_failures + traced.client_failures) as f64,
    );
    m.set("core.state_bytes", state_bytes as f64);
    m.set("data.synth_build_ms", synth_ms);
    if let Some(fedsu) = exp
        .strategy()
        .as_any()
        .and_then(|a| a.downcast_ref::<FedSu>())
    {
        crate::manager_sync::history_metrics(m, fedsu, params);
    }
    drop(exp);
    replay(m, model, sizes, args.seed, params);
    pool_drift(&mut out, pool_before);
    out.trace_summary(
        &spans,
        (&traced.round_ms, &traced.around_us),
        (&plain.round_ms, &plain.around_us),
        &sizes.kappa,
        args,
    );
    out
}

/// Drift of `BufferPool::outstanding()` per attempted round. Balanced code
/// leaves the counter where it was; the round loop currently drops pooled
/// tensors instead of recycling them, so this is reported, not gated.
fn pool_drift(out: &mut Outcome, before: u64) {
    let delta = fedsu_tensor::pool::global()
        .outstanding()
        .wrapping_sub(before);
    out.metrics.set(
        "tensor.pool_outstanding_delta",
        delta as f64 / out.attempted.max(1) as f64,
    );
}

/// Per-round layer metrics from the merged spans: each quantity is summed
/// within a round and the median over post-warm-up rounds is reported.
fn layer_metrics(m: &mut Metrics, spans: &[Span], d: &Driven, warmup_rounds: usize) {
    let rounds = spans
        .iter()
        .map(|s| s.round as usize + 1)
        .max()
        .unwrap_or(0);
    let mut by_round: Vec<Vec<&Span>> = vec![Vec::new(); rounds];
    for s in spans {
        by_round[s.round as usize].push(s);
    }
    let mut series: std::collections::BTreeMap<&'static str, Vec<f64>> =
        std::collections::BTreeMap::new();
    let mut counts = [Vec::new(), Vec::new()];
    for round in by_round.iter().skip(warmup_rounds) {
        let Some(whole) = round.iter().find(|s| s.name == "fl.round") else {
            continue;
        };
        let mut sums: std::collections::BTreeMap<&'static str, f64> =
            std::collections::BTreeMap::new();
        let mut children = Vec::with_capacity(round.len());
        let (mut join, mut prepare, mut aggregate) = (None, None, None);
        for s in round.iter().filter(|s| s.parent == whole.id) {
            *sums.entry(s.name).or_default() += s.ms();
            children.push((s.start_ns, s.end_ns));
            match s.name {
                n if n == FEDSU_SPANS.join_state => join = Some(**s),
                n if n == FEDSU_SPANS.prepare => prepare = Some(**s),
                n if n == FEDSU_SPANS.aggregate => aggregate = Some(**s),
                _ => {}
            }
        }
        let mut put = |name: &'static str, v: f64| series.entry(name).or_default().push(v);
        let sum_of = |prefix: &str| {
            sums.iter()
                .filter(|(k, _)| k.starts_with(prefix))
                .fold(0.0, |acc, (_, v)| acc + v)
        };
        let round_ms = whole.ms();
        let (train_fwd, train_bwd, eval_fwd) = (
            sum_of("nn.train_fwd."),
            sum_of("nn.bwd."),
            sum_of("nn.eval_fwd."),
        );
        put("nn.train_fwd_busy_ms", train_fwd);
        put("nn.train_bwd_busy_ms", train_bwd);
        put("nn.eval_fwd_ms", eval_fwd);
        for (metric, span) in LAYER_KIND_METRICS {
            put(metric, sums.get(span).copied().unwrap_or(0.0));
        }
        if let (Some(p), Some(a)) = (prepare, aggregate) {
            let join_ms = join.map_or(0.0, |j| j.ms());
            put("core.join_state_ms", join_ms);
            put(
                "core.join_state_bytes",
                join.map_or(0.0, |j| j.counts[0] as f64),
            );
            put("strategies.prepare_ms.fedsu", p.ms());
            put("strategies.aggregate_ms.fedsu", a.ms());
            put(
                "fl.train_phase_ms",
                p.start_ns.saturating_sub(whole.start_ns) as f64 / 1e6 - join_ms,
            );
            put(
                "fl.select_phase_ms",
                a.start_ns.saturating_sub(p.end_ns) as f64 / 1e6,
            );
            put(
                "fl.finish_phase_ms",
                whole.end_ns.saturating_sub(a.end_ns) as f64 / 1e6,
            );
            counts[0].push(a.counts[0] as f64);
            counts[1].push(a.counts[1] as f64);
            // Time in which no wrapped span ran on any thread: the round
            // loop's own work plus the per-iteration pieces that are
            // replayed instead (loss, optimiser step, batch assembly).
            let uncovered =
                round_ms - covered_ns(whole.start_ns, whole.end_ns, &mut children) as f64 / 1e6;
            put("fl.self_ms", uncovered);
            put("fl.self_share", uncovered / round_ms.max(1e-9));
        }
    }
    for (name, values) in &series {
        m.set(name, median(values));
    }
    m.set("strategies.synced_scalars", median(&counts[0]));
    m.set("strategies.broadcast_scalars", median(&counts[1]));
    m.set("tensor.allocs_per_round", median(&d.allocs));
    m.set("tensor.alloc_bytes_per_round", median(&d.alloc_bytes));
}

/// `nn.fwd_ms.<kind>` / `nn.bwd_ms.<kind>` and the span each sums.
const LAYER_KIND_METRICS: [(&str, &str); 10] = [
    ("nn.fwd_ms.conv2d", "nn.train_fwd.conv2d"),
    ("nn.fwd_ms.dense", "nn.train_fwd.dense"),
    ("nn.fwd_ms.relu", "nn.train_fwd.relu"),
    ("nn.fwd_ms.maxpool", "nn.train_fwd.maxpool"),
    ("nn.fwd_ms.flatten", "nn.train_fwd.flatten"),
    ("nn.bwd_ms.conv2d", "nn.bwd.conv2d"),
    ("nn.bwd_ms.dense", "nn.bwd.dense"),
    ("nn.bwd_ms.relu", "nn.bwd.relu"),
    ("nn.bwd_ms.maxpool", "nn.bwd.maxpool"),
    ("nn.bwd_ms.flatten", "nn.bwd.flatten"),
];

/// Replays, in isolation and on the workload's own shapes, the public
/// functions the live run cannot wrap.
fn replay(m: &mut Metrics, model: Model, sizes: &ExperimentSizes, seed: u64, params: usize) {
    let n = REPLAY_SAMPLES;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
    let (train, _) = dataset_config(model, sizes).build_split(sizes.test_per_class, &mut rng);
    let train: Arc<InMemoryDataset> = Arc::new(train);

    // data: Dirichlet partition and batch assembly.
    m.set(
        "data.partition_ms",
        median_us(n, || {
            let mut part_rng = StdRng::seed_from_u64(PRODUCT_SEED);
            std::hint::black_box(dirichlet_partition(
                train.labels(),
                sizes.clients,
                1.0,
                &mut part_rng,
            ));
        }) / 1e3,
    );
    let mut batcher = Batcher::new(Arc::clone(&train), (0..train.len()).collect(), PRODUCT_SEED);
    m.set(
        "data.next_batch_us",
        median_us(n, || {
            std::hint::black_box(batcher.next_batch(sizes.batch));
        }),
    );

    // nn: one training iteration's unwrapped pieces at this model's size.
    let Ok(mut net) = factory(model, None)(PRODUCT_SEED) else {
        return;
    };
    let (x, labels) = batcher.next_batch(sizes.batch);
    let Ok(logits) = net.forward(&x, true) else {
        return;
    };
    m.set(
        "nn.loss_us",
        median_us(n, || {
            std::hint::black_box(fedsu_nn::loss::softmax_cross_entropy(&logits, &labels).is_ok());
        }),
    );
    let client = client_config(sizes);
    let mut sgd = fedsu_nn::optim::Sgd::new(client.lr).with_weight_decay(client.weight_decay);
    if let Ok((_, grad)) = fedsu_nn::loss::softmax_cross_entropy(&logits, &labels) {
        let _ = net.backward(&grad);
    }
    m.set(
        "nn.optim_step_us",
        median_us(n, || {
            std::hint::black_box(sgd.step(&mut net).is_ok());
        }),
    );
    let mut flat = Vec::with_capacity(params);
    m.set(
        "nn.flatten_params_us",
        median_us(n, || {
            fedsu_nn::flat::flatten_params_into(&net, &mut flat);
        }),
    );
    m.set(
        "nn.load_params_us",
        median_us(n, || {
            std::hint::black_box(fedsu_nn::flat::load_params(&mut net, &flat).is_ok());
        }),
    );

    // netsim: cluster construction and one round's timing model.
    let cluster_cfg = ClusterConfig::paper_like(sizes.clients);
    m.set(
        "netsim.cluster_build_us",
        median_us(n, || {
            std::hint::black_box(Cluster::build(&cluster_cfg, PRODUCT_SEED));
        }),
    );
    let timer = RoundTimer::new(&Cluster::build(&cluster_cfg, PRODUCT_SEED), 0.7);
    let c = sizes.clients;
    let (compute, bytes, active, ones, zeros) = (
        vec![4.0; c],
        vec![params as u64 * 4; c],
        vec![true; c],
        vec![1.0; c],
        vec![0.0; c],
    );
    m.set(
        "netsim.round_timing_us",
        median_us(n, || {
            let penalties = FaultPenalties {
                time_factor: &ones,
                extra_secs: &zeros,
            };
            std::hint::black_box(
                timer.round_faulty(0, &compute, &bytes, &bytes, &active, penalties),
            );
        }),
    );

    // tensor: the non-square matmuls and the conv panels this model issues.
    let b = sizes.batch;
    match model {
        Model::Cnn => {
            for (metric, kind, (m_, k, n_)) in [
                ("tensor.matmul_gflops.6x25x784", Mm::Nn, (6, 25, 784)),
                ("tensor.matmul_gflops.12x150x196", Mm::Nn, (12, 150, 196)),
                ("tensor.matmul_tb_gflops.12x196x150", Mm::Tb, (12, 196, 150)),
                ("tensor.matmul_ta_gflops.150x12x196", Mm::Ta, (150, 12, 196)),
                ("tensor.matmul_tb_gflops.16x588x64", Mm::Tb, (b, 588, 64)),
                ("tensor.matmul_ta_gflops.64x16x588", Mm::Ta, (64, b, 588)),
                ("tensor.matmul_gflops.16x64x588", Mm::Nn, (b, 64, 588)),
            ] {
                m.set(metric, matmul_gflops(kind, m_, k, n_, &mut rng));
            }
            let conv = |in_channels, side| ConvDims {
                in_channels,
                in_h: side,
                in_w: side,
                kernel: 5,
                stride: 1,
                padding: 2,
            };
            for (im2col_metric, col2im_metric, dims) in [
                (
                    "tensor.im2col_us.conv1",
                    "tensor.col2im_us.conv1",
                    conv(1, 28),
                ),
                (
                    "tensor.im2col_us.conv2",
                    "tensor.col2im_us.conv2",
                    conv(6, 14),
                ),
            ] {
                let image = fedsu_tensor::Tensor::randn(
                    &[dims.in_channels * dims.in_h * dims.in_w],
                    1.0,
                    &mut rng,
                );
                let mut cols = Vec::new();
                m.set(
                    im2col_metric,
                    median_us(n, || {
                        std::hint::black_box(
                            fedsu_tensor::im2col_into(image.data(), &dims, &mut cols).is_ok(),
                        );
                    }),
                );
                let mut back = vec![0.0f32; image.len()];
                m.set(
                    col2im_metric,
                    median_us(n, || {
                        std::hint::black_box(
                            fedsu_tensor::col2im_into(&cols, &mut back, &dims).is_ok(),
                        );
                    }),
                );
            }
        }
        Model::Mlp(_) => {
            for (metric, kind, (m_, k, n_)) in [
                ("tensor.matmul_tb_gflops.1x128x64", Mm::Tb, (b, 128, 64)),
                ("tensor.matmul_ta_gflops.64x1x128", Mm::Ta, (64, b, 128)),
                ("tensor.matmul_gflops.1x64x128", Mm::Nn, (b, 64, 128)),
            ] {
                m.set(metric, matmul_gflops(kind, m_, k, n_, &mut rng));
            }
        }
    }
}

/// Which `matmul*_into` entry point a replay calls.
#[derive(Debug, Clone, Copy)]
enum Mm {
    /// `C[m,n] = A[m,k] · B[k,n]`.
    Nn,
    /// `C[m,n] = Aᵀ · B`, `A: [k,m]`.
    Ta,
    /// `C[m,n] = A · Bᵀ`, `B: [n,k]`.
    Tb,
}

/// Median GFLOP/s of one `m×k×n` product (2·m·k·n flops).
fn matmul_gflops(kind: Mm, m: usize, k: usize, n: usize, rng: &mut StdRng) -> f64 {
    let a = fedsu_tensor::Tensor::randn(&[m * k], 1.0, rng);
    let b = fedsu_tensor::Tensor::randn(&[k * n], 1.0, rng);
    let mut out = vec![0.0f32; m * n];
    let us = median_us(REPLAY_SAMPLES, || {
        let ok = match kind {
            Mm::Nn => fedsu_tensor::matmul_into(a.data(), b.data(), &mut out, m, k, n),
            Mm::Ta => fedsu_tensor::matmul_transpose_a_into(a.data(), b.data(), &mut out, k, m, n),
            Mm::Tb => fedsu_tensor::matmul_transpose_b_into(a.data(), b.data(), &mut out, m, k, n),
        };
        std::hint::black_box(ok.is_ok());
    });
    2.0 * (m * k * n) as f64 / (us * 1e3).max(1e-9)
}
