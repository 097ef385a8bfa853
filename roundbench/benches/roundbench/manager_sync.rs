//! `manager_sync`: `fedsu-core` as a library. No `Experiment`: the two
//! calls the round loop makes on a strategy (`prepare_uploads_into`,
//! `aggregate`) are driven directly, FedSU and FedAvg side by side on the
//! same `locals`, over seeded trajectories that keep a controlled share of
//! the scalars in speculation. One "round" is one FedSU sync step.

use crate::measure::{median, ms_between, Fnv, SetupTimer};
use crate::probe::Probe;
use crate::sizes::{ManagerSizes, TRACE_TRACED_SHARE, TRACE_UNTRACED_SHARE, WARMUP_ROUNDS};
use crate::trace::{steady, Span, Traced, Tracer, FEDAVG_SPANS, FEDSU_SPANS};
use crate::{Metrics, Outcome, RunArgs};
use fedsu_core::{FedSu, FedSuConfig};
use fedsu_fl::SyncStrategy;
use fedsu_strategies::FedAvg;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Instant;

/// Length of the per-client noise table (a prime, so client and round
/// offsets never line the table up with the parameter index).
const NOISE_LEN: usize = 65_521;
/// Per-client noise relative to a scalar's slope: small enough that a
/// linear scalar's second differences stay negligible after averaging.
const NOISE_REL: f32 = 1e-4;
/// One scalar in this many never follows a line (20 %).
const JITTER_STRIDE: usize = 5;

/// The generated inputs and both legs' global vectors.
struct Rig {
    sizes: ManagerSizes,
    truth: Vec<f32>,
    slope: Vec<f32>,
    noise: Vec<f32>,
    locals: Vec<Vec<f32>>,
    global_su: Vec<f32>,
    global_avg: Vec<f32>,
    uploads: Vec<u64>,
    selected: Vec<usize>,
    active: Vec<bool>,
}

impl Rig {
    /// Everything before round 0: trajectories from the seed, buffers.
    fn new(sizes: ManagerSizes, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let p = sizes.params;
        let truth: Vec<f32> = (0..p).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let slope = (0..p)
            .map(|_| rng.gen_range(0.5f32..1.5) * 1e-2 * if rng.gen::<bool>() { 1.0 } else { -1.0 })
            .collect();
        let noise = (0..NOISE_LEN)
            .map(|_| rng.gen_range(-1.0f32..1.0))
            .collect();
        Rig {
            sizes,
            global_su: truth.clone(),
            global_avg: truth.clone(),
            locals: vec![vec![0.0; p]; sizes.clients],
            truth,
            slope,
            noise,
            uploads: Vec::with_capacity(sizes.clients),
            selected: Vec::with_capacity(sizes.selected),
            active: vec![true; sizes.clients],
        }
    }

    /// Advances the trajectories one round and refills `locals` (outside
    /// every timed span): 80 % of the scalars drift along their slope, 20 %
    /// step by a pseudo-random sign, and every `churn_every` rounds 1 % of
    /// the indices flip slope.
    fn generate(&mut self, round: usize) {
        let flip = (round > 0 && round.is_multiple_of(self.sizes.churn_every))
            .then_some((round / self.sizes.churn_every) % 100);
        let sign_offset = (round * 7_919) % NOISE_LEN;
        let signs = self.noise.iter().cycle().skip(sign_offset);
        for (j, ((t, s), sign)) in self
            .truth
            .iter_mut()
            .zip(self.slope.iter_mut())
            .zip(signs)
            .enumerate()
        {
            if j % JITTER_STRIDE == 0 {
                *t += s.abs() * if *sign >= 0.0 { 1.0 } else { -1.0 };
            } else {
                if flip == Some(j % 100) {
                    *s = -*s;
                }
                *t += *s;
            }
        }
        for (c, local) in self.locals.iter_mut().enumerate() {
            let offset = (c * 8_191 + round * 131) % NOISE_LEN;
            let noise = self.noise.iter().cycle().skip(offset);
            for ((l, (t, s)), n) in local
                .iter_mut()
                .zip(self.truth.iter().zip(&self.slope))
                .zip(noise)
            {
                *l = t + s.abs() * NOISE_REL * n;
            }
        }
        let k = self.sizes.clients;
        self.selected.clear();
        self.selected
            .extend((0..self.sizes.selected).map(|i| (round + i) % k));
        self.selected.sort_unstable();
    }

    /// The mean of the selected clients written the obvious way, ascending
    /// client order per element: what `FedAvg` must equal bit for bit.
    fn naive_mean_matches(&self) -> bool {
        let inv = 1.0 / self.selected.len() as f32;
        self.global_avg.iter().enumerate().all(|(j, &got)| {
            let mut g = 0.0f32;
            for &c in &self.selected {
                g += self.locals[c][j] * inv;
            }
            g.to_bits() == got.to_bits()
        })
    }
}

/// What driving both legs for a while produced.
#[derive(Debug, Default)]
struct Driven {
    fedsu_ms: Vec<f64>,
    fedavg_ms: Vec<f64>,
    /// The probe samples before and after each timed round.
    around_us: Vec<[f64; 2]>,
    checksum: u64,
    wire_bytes_per_round: f64,
    attempted: u64,
    failed: u64,
    mean_ok: bool,
    finite: bool,
}

/// One leg's sync step: the two calls the round loop makes, timed around
/// the pair. Returns the milliseconds and the scalars all clients upload.
fn sync_step<S: SyncStrategy>(
    strategy: &mut S,
    round: usize,
    rig: &mut Rig,
    global: Leg,
) -> (f64, u64) {
    let global = match global {
        Leg::FedSu => &mut rig.global_su,
        Leg::FedAvg => &mut rig.global_avg,
    };
    let t = Instant::now();
    strategy.prepare_uploads_into(round, &rig.locals, global, &mut rig.uploads);
    strategy.aggregate(round, &rig.locals, &rig.selected, &rig.active, global);
    (ms_between(t, Instant::now()), rig.uploads.iter().sum())
}

/// Which global vector a sync step updates.
#[derive(Clone, Copy)]
enum Leg {
    FedSu,
    FedAvg,
}

/// Runs the fixed prefix, then further rounds until `budget_secs` have
/// passed. The legs alternate which goes first. The naive-mean check runs
/// during the prefix (every round with `check_every_round`).
fn drive<A: SyncStrategy, B: SyncStrategy>(
    rig: &mut Rig,
    fedsu: &mut A,
    fedavg: &mut B,
    budget_secs: f64,
    check_every_round: bool,
    tracer: Option<&Arc<Tracer>>,
    between_rounds: &mut dyn FnMut(),
) -> Driven {
    let mut d = Driven {
        mean_ok: true,
        finite: true,
        ..Driven::default()
    };
    let started = Instant::now();
    let round_sink = tracer.map(|t| t.sink());
    let fixed = rig.sizes.fixed_rounds;
    let mut fnv = Fnv::default();
    let mut wire = 0u64;
    let mut round = 0usize;
    let mut probe = Probe::new();
    while round < fixed || started.elapsed().as_secs_f64() < budget_secs {
        rig.generate(round);
        let before_us = probe.sample();
        let start_ns = tracer.map(|t| {
            t.begin_round(round as u32);
            t.now_ns()
        });
        let ((su_ms, upload_scalars), (avg_ms, _)) = if round.is_multiple_of(2) {
            let su = sync_step(fedsu, round, rig, Leg::FedSu);
            (su, sync_step(fedavg, round, rig, Leg::FedAvg))
        } else {
            let avg = sync_step(fedavg, round, rig, Leg::FedAvg);
            (sync_step(fedsu, round, rig, Leg::FedSu), avg)
        };
        if let (Some(t), Some(sink), Some(start_ns)) = (tracer, round_sink.as_ref(), start_ns) {
            // The round loop asks for the join state once per round.
            std::hint::black_box(fedsu.join_state());
            t.end_round(sink, "roundbench.round", start_ns, t.now_ns());
        }
        let after_us = probe.sample();
        d.attempted += 1;
        let finite = rig.global_su.iter().all(|v| v.is_finite());
        let mean_ok = (round >= fixed && !check_every_round) || rig.naive_mean_matches();
        if !(finite && mean_ok) {
            d.failed += 1;
        }
        d.finite &= finite;
        d.mean_ok &= mean_ok;
        if round >= WARMUP_ROUNDS {
            d.around_us.push([before_us, after_us]);
            d.fedsu_ms.push(su_ms);
            d.fedavg_ms.push(avg_ms);
        }
        if round < fixed {
            fnv.u64(upload_scalars);
            wire += upload_scalars * 4;
            if round + 1 == fixed {
                fnv.f32s(&rig.global_su);
                fnv.f32s(&rig.global_avg);
                d.checksum = fnv.value();
                d.wire_bytes_per_round = wire as f64 / fixed as f64;
            }
        }
        round += 1;
        between_rounds();
    }
    d
}

fn fedsu_calibrated() -> FedSu {
    FedSu::new(FedSuConfig {
        t_r: 0.1,
        t_s: 10.0,
        ..FedSuConfig::default()
    })
}

fn verify(out: &mut Outcome, d: &Driven) {
    out.attempted += d.attempted;
    out.failed += d.failed;
    if !d.mean_ok {
        out.fail("FedAvg global differs from the naive ascending-client mean".to_string());
    }
    if !d.finite {
        out.fail("FedSU global became non-finite".to_string());
    }
}

/// `core.*` counts from the manager's own per-round history (exact).
pub fn history_metrics(m: &mut Metrics, fedsu: &FedSu, params: usize) {
    m.set(
        "core.predictable_share",
        steady_median(fedsu, |s| s.predictable) / params.max(1) as f64,
    );
    m.set("core.checks", steady_median(fedsu, |s| s.checks));
    m.set("core.enters", steady_median(fedsu, |s| s.enters));
    m.set("core.exits", steady_median(fedsu, |s| s.exits));
}

/// Median over post-warm-up rounds of one column of the manager history.
fn steady_median(fedsu: &FedSu, column: fn(&fedsu_core::RoundStats) -> usize) -> f64 {
    let steady: Vec<f64> = fedsu
        .history()
        .iter()
        .skip(WARMUP_ROUNDS)
        .map(|s| column(s) as f64)
        .collect();
    median(&steady)
}

/// Runs the workload.
pub fn run(sizes: &ManagerSizes, args: &RunArgs) -> Outcome {
    let mut out = Outcome::new("manager_sync");
    // Set-up, several times; the first instance also runs the fixed prefix
    // so the one that is measured can be checked against a repeat.
    let mut setup = SetupTimer::new();
    let build = || {
        (
            Rig::new(*sizes, args.seed),
            fedsu_calibrated(),
            FedAvg::new(),
        )
    };
    let ((mut rig, mut fedsu, mut fedavg), repeat_checksum) = if args.traced {
        (build(), None)
    } else {
        let (built, checksum) = setup.before_run(build, |(mut rig, mut fedsu, mut fedavg)| {
            drive(
                &mut rig,
                &mut fedsu,
                &mut fedavg,
                0.0,
                args.smoke,
                None,
                &mut || {},
            )
            .checksum
        });
        (built, Some(checksum))
    };

    let budget = if args.traced {
        args.seconds * TRACE_UNTRACED_SHARE
    } else {
        args.seconds
    };
    let plain = drive(
        &mut rig,
        &mut fedsu,
        &mut fedavg,
        budget,
        args.smoke,
        None,
        &mut || {
            if !args.traced {
                setup.resample(build);
            }
        },
    );
    verify(&mut out, &plain);
    out.checksum = plain.checksum;
    if repeat_checksum.is_some_and(|c| c != plain.checksum) {
        out.fail("two runs of the same seed gave different checksums".to_string());
    }
    let share = steady_median(&fedsu, |s| s.predictable) / sizes.params.max(1) as f64;
    if share < 0.5 {
        out.fail(format!(
            "steady-state predictable share {share:.3} below 0.5"
        ));
    }
    let state_bytes = fedsu.state_bytes();
    drop((rig, fedsu, fedavg));

    if !args.traced {
        out.end_to_end(
            &plain.fedsu_ms,
            &plain.around_us,
            &setup,
            &sizes.kappa,
            plain.wire_bytes_per_round,
        );
        return out;
    }

    let tracer = Tracer::new();
    let mut rig = Rig::new(*sizes, args.seed);
    let mut fedsu = Traced::new(fedsu_calibrated(), &tracer, FEDSU_SPANS);
    let mut fedavg = Traced::new(FedAvg::new(), &tracer, FEDAVG_SPANS);
    let traced = drive(
        &mut rig,
        &mut fedsu,
        &mut fedavg,
        args.seconds * TRACE_TRACED_SHARE,
        args.smoke,
        Some(&tracer),
        &mut || {},
    );
    verify(&mut out, &traced);
    if traced.checksum != plain.checksum {
        out.fail("traced and untraced runs gave different checksums".to_string());
    }
    let spans = tracer.drain();
    let m = &mut out.metrics;
    span_metrics(m, &spans);
    history_metrics(m, fedsu.inner(), sizes.params);
    m.set("core.state_bytes", state_bytes as f64);
    out.trace_summary(
        &spans,
        (&traced.fedsu_ms, &traced.around_us),
        (&plain.fedsu_ms, &plain.around_us),
        &sizes.kappa,
        args,
    );
    out
}

/// Medians over post-warm-up rounds of each leg's spans, and their ratio.
fn span_metrics(m: &mut Metrics, spans: &[Span]) {
    let series = |name: &str| -> Vec<f64> { steady(spans, name).map(Span::ms).collect() };
    let step = |prepare: &[f64], aggregate: &[f64]| -> f64 {
        median(
            &prepare
                .iter()
                .zip(aggregate)
                .map(|(p, a)| p + a)
                .collect::<Vec<_>>(),
        )
    };
    let (su_p, su_a) = (series(FEDSU_SPANS.prepare), series(FEDSU_SPANS.aggregate));
    let (avg_p, avg_a) = (series(FEDAVG_SPANS.prepare), series(FEDAVG_SPANS.aggregate));
    m.set("strategies.prepare_ms.fedsu", median(&su_p));
    m.set("strategies.aggregate_ms.fedsu", median(&su_a));
    m.set("strategies.prepare_ms.fedavg", median(&avg_p));
    m.set("strategies.aggregate_ms.fedavg", median(&avg_a));
    m.set(
        "strategies.fedsu_over_fedavg",
        step(&su_p, &su_a) / step(&avg_p, &avg_a).max(1e-9),
    );
    m.set(
        "core.join_state_ms",
        median(&series(FEDSU_SPANS.join_state)),
    );
    let counts = |name: &str, i: usize| -> Vec<f64> {
        steady(spans, name).map(|s| s.counts[i] as f64).collect()
    };
    m.set(
        "core.join_state_bytes",
        median(&counts(FEDSU_SPANS.join_state, 0)),
    );
    m.set(
        "strategies.synced_scalars",
        median(&counts(FEDSU_SPANS.aggregate, 0)),
    );
    m.set(
        "strategies.broadcast_scalars",
        median(&counts(FEDSU_SPANS.aggregate, 1)),
    );
}
