//! `wire_clean`: the transport island on its own. A `LocalBus::star` under
//! `ServerSession` / `ClientSession` with a zero-fault plan: every round the
//! server reliably broadcasts a dense `Model` and every client reliably
//! sends a sparse `Update` and a sparse `ErrorReport`. The server runs on
//! the calling thread and one more thread drives the client sessions in
//! ascending id order, so two threads are busy in total.

use crate::measure::{median, median_us, ms_between, Fnv, SetupTimer};
use crate::probe::Probe;
use crate::sizes::{
    WireSizes, REPLAY_SAMPLES, TRACE_TRACED_SHARE, TRACE_UNTRACED_SHARE, WARMUP_ROUNDS,
};
use crate::trace::{steady, Sink, Tracer};
use crate::{Metrics, Outcome, RunArgs};
use fedsu_transport::{
    ClientEndpoint, ClientSession, Envelope, LocalBus, Message, ReliabilityStats, ServerEndpoint,
    ServerSession, SessionConfig, SparseValues,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long a receive may stay quiet before the run is declared failed.
const RECV_TIMEOUT: Duration = Duration::from_secs(10);

/// The round's three payloads, generated from the seed.
struct Payloads {
    model: Vec<f32>,
    update: SparseValues,
    errors: SparseValues,
}

impl Payloads {
    fn new(sizes: &WireSizes, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let model: Vec<f32> = (0..sizes.params)
            .map(|_| rng.gen_range(-1.0f32..1.0))
            .collect();
        let mut sparse = |stride: usize| {
            let first = rng.gen_range(0..stride);
            let indices: Vec<u32> = (first..sizes.params)
                .step_by(stride)
                .map(|i| i as u32)
                .collect();
            let values = indices
                .iter()
                .map(|_| rng.gen_range(-1.0f32..1.0))
                .collect();
            SparseValues::sparse(indices, values)
        };
        let update = sparse(sizes.update_stride);
        let errors = sparse(sizes.error_stride);
        Payloads {
            model,
            update,
            errors,
        }
    }

    fn model_msg(&self, round: u32) -> Message {
        Message::Model {
            round,
            values: SparseValues::dense(self.model.clone()),
        }
    }

    fn update_msg(&self, round: u32, client: u32) -> Message {
        Message::Update {
            round,
            client,
            values: self.update.clone(),
        }
    }

    fn error_msg(&self, round: u32, client: u32) -> Message {
        Message::ErrorReport {
            round,
            client,
            errors: self.errors.clone(),
        }
    }

    /// Scalars the fl runtime would account for one round (× 4 = bytes).
    fn accounted_scalars(&self, clients: usize) -> usize {
        clients * (self.model.len() + self.update.len() + self.errors.len())
    }
}

/// Stamps the round (and nothing else) into a reused message.
fn set_round(msg: &mut Message, r: u32) {
    match msg {
        Message::Model { round, .. }
        | Message::Update { round, .. }
        | Message::ErrorReport { round, .. }
        | Message::QuantizedUpdate { round, .. } => *round = r,
        _ => {}
    }
}

/// Bit-for-bit equality of two decoded payloads (`==` on floats would let
/// `0.0 == -0.0` through).
fn bit_equal(a: &Message, b: &Message) -> bool {
    a.encode() == b.encode()
}

/// Times `f` as a span when tracing, runs it bare otherwise.
fn spanned<T>(
    trace: Option<&(Arc<Tracer>, Sink)>,
    name: &'static str,
    bytes: u64,
    f: impl FnOnce() -> T,
) -> T {
    match trace {
        Some((tracer, sink)) => tracer.span(sink, name, f, |_| [bytes, 0]),
        None => f(),
    }
}

/// Everything before round 0: payloads, the bus, both ends' sessions.
struct Rig {
    payloads: Payloads,
    server: ServerSession<ServerEndpoint>,
    clients: Vec<ClientSession<ClientEndpoint>>,
}

fn setup(sizes: &WireSizes, seed: u64) -> Rig {
    let cfg = SessionConfig {
        ack_timeout: Duration::from_millis(sizes.ack_timeout_ms),
        ..SessionConfig::default()
    };
    let (server, clients) = LocalBus::star(sizes.clients);
    Rig {
        payloads: Payloads::new(sizes, seed),
        server: ServerSession::new(server, cfg),
        clients: clients
            .into_iter()
            .map(|e| {
                let id = e.id() as u32;
                ClientSession::new(e, id, cfg)
            })
            .collect(),
    }
}

/// How a drive of the protocol is to be run.
#[derive(Clone, Copy)]
struct Plan<'a> {
    sizes: &'a WireSizes,
    payloads: &'a Payloads,
    budget_secs: f64,
    /// Compare every decoded payload bit for bit in every round (`--smoke`);
    /// otherwise only during the warm-up rounds, which are not timed.
    deep_check_all: bool,
    tracer: Option<&'a Arc<Tracer>>,
}

impl Plan<'_> {
    fn deep(&self, round: usize) -> bool {
        self.deep_check_all || round < WARMUP_ROUNDS
    }

    fn trace(&self) -> Option<(Arc<Tracer>, Sink)> {
        self.tracer.map(|t| (Arc::clone(t), t.sink()))
    }
}

/// The client side: every round, receive the model on each session in
/// ascending id order, then send each client's two uploads. Ends when the
/// server says `Shutdown`. Returns the merged reliability counters.
fn client_loop(
    mut sessions: Vec<ClientSession<ClientEndpoint>>,
    plan: Plan<'_>,
) -> Result<ReliabilityStats, String> {
    let trace = plan.trace();
    let mut expected = plan.payloads.model_msg(0);
    let mut uploads: Vec<(Message, Message)> = (0..sessions.len() as u32)
        .map(|c| {
            (
                plan.payloads.update_msg(0, c),
                plan.payloads.error_msg(0, c),
            )
        })
        .collect();
    let update_bytes = uploads.first().map_or(0, |(u, _)| u.encode().len() as u64);
    let mut round = 0u32;
    'rounds: loop {
        set_round(&mut expected, round);
        for c in 0..sessions.len() {
            sessions[c].begin_epoch(round);
            let got = sessions[c]
                .recv_reliable(RECV_TIMEOUT)
                .map_err(|e| format!("client {c} round {round}: {e}"))?;
            if got == Message::Shutdown {
                // The server says goodbye to every client; collect the rest.
                for (c2, s2) in sessions.iter_mut().enumerate().skip(c + 1) {
                    s2.begin_epoch(round);
                    s2.recv_reliable(RECV_TIMEOUT)
                        .map_err(|e| format!("client {c2} shutdown: {e}"))?;
                }
                break 'rounds;
            }
            let ok = if plan.deep(round as usize) {
                bit_equal(&got, &expected)
            } else {
                matches!(&got, Message::Model { round: r, values } if *r == round && values.len() == plan.sizes.params)
            };
            if !ok {
                return Err(format!(
                    "client {c} round {round}: decoded model differs from what was sent"
                ));
            }
        }
        for (s, (update, errors)) in sessions.iter_mut().zip(uploads.iter_mut()) {
            set_round(update, round);
            set_round(errors, round);
            spanned(
                trace.as_ref(),
                "transport.send_reliable",
                update_bytes,
                || s.send_reliable(update),
            )
            .and_then(|()| s.send_reliable(errors))
            .map_err(|e| format!("client round {round}: {e}"))?;
        }
        round += 1;
    }
    Ok(sessions
        .iter()
        .fold(ReliabilityStats::default(), |acc, s| acc.merged(&s.stats())))
}

/// What one drive of the protocol produced.
#[derive(Debug, Default)]
struct Driven {
    round_ms: Vec<f64>,
    /// The probe samples before and after each timed round.
    around_us: Vec<[f64; 2]>,
    checksum: u64,
    wire_bytes_per_round: f64,
    attempted: u64,
    error: Option<String>,
    reliability: ReliabilityStats,
    frames: u64,
    bytes: u64,
}

/// The server side: the fixed prefix, then rounds until the budget is
/// spent, then `Shutdown`. Owns the session so that an early return hangs
/// up and the client thread fails fast instead of waiting out a timeout.
fn server_loop(
    mut srv: ServerSession<ServerEndpoint>,
    plan: Plan<'_>,
    d: &mut Driven,
    between_rounds: &mut dyn FnMut(),
) -> Result<(), String> {
    let trace = plan.trace();
    let started = Instant::now();
    let n = plan.sizes.clients;
    let fixed = plan.sizes.fixed_rounds;
    let mut model = plan.payloads.model_msg(0);
    let model_bytes = model.encode().len() as u64;
    let mut expected: Vec<(Message, Message)> = (0..n as u32)
        .map(|c| {
            (
                plan.payloads.update_msg(0, c),
                plan.payloads.error_msg(0, c),
            )
        })
        .collect();
    let mut fnv = Fnv::default();
    let mut round = 0usize;
    let mut probe = Probe::new();
    let mut before_us = probe.sample();
    while round < fixed || started.elapsed().as_secs_f64() < plan.budget_secs {
        d.attempted += 1;
        let r = round as u32;
        let t0 = Instant::now();
        if let Some(t) = plan.tracer {
            t.begin_round(r);
        }
        srv.begin_epoch(r);
        set_round(&mut model, r);
        spanned(
            trace.as_ref(),
            "transport.broadcast",
            model_bytes * n as u64,
            || srv.broadcast_reliable(&model),
        )
        .map_err(|e| format!("round {round} broadcast: {e}"))?;
        let mut seen = vec![0u8; n];
        for _ in 0..2 * n {
            let (from, msg) = spanned(trace.as_ref(), "transport.recv_wait", 0, || {
                srv.recv_reliable(RECV_TIMEOUT)
            })
            .map_err(|e| format!("round {round} receive: {e}"))?;
            let (update, errors) = expected
                .get_mut(from)
                .ok_or("message from an unknown client")?;
            set_round(update, r);
            set_round(errors, r);
            let want = if seen[from] == 0 { &*update } else { &*errors };
            let ok = if plan.deep(round) {
                bit_equal(&msg, want)
            } else {
                std::mem::discriminant(&msg) == std::mem::discriminant(want)
            };
            if !ok || seen[from] > 1 {
                return Err(format!(
                    "round {round}: client {from}'s decoded upload differs from what was sent"
                ));
            }
            if round < fixed {
                fnv.bytes(&msg.encode());
            }
            seen[from] += 1;
        }
        let t1 = Instant::now();
        if let (Some(t), Some((_, sink))) = (plan.tracer, trace.as_ref()) {
            t.end_round(sink, "roundbench.round", t.ns_of(t0), t.ns_of(t1));
        }
        let after_us = probe.sample();
        if round >= WARMUP_ROUNDS {
            d.round_ms.push(ms_between(t0, t1));
            d.around_us.push([before_us, after_us]);
        }
        round += 1;
        between_rounds();
        before_us = after_us;
        if round == fixed {
            // Lockstep rounds: everything the clients sent has arrived.
            let stats = srv.link().stats();
            let wire = stats.bytes_sent + stats.bytes_received;
            fnv.u64(wire);
            d.checksum = fnv.value();
            d.wire_bytes_per_round = wire as f64 / round as f64;
        }
    }
    srv.begin_epoch(round as u32);
    srv.broadcast_reliable(&Message::Shutdown)
        .map_err(|e| format!("shutdown: {e}"))?;
    let link = srv.link().stats();
    d.frames = link.messages_sent + link.messages_received;
    d.bytes = link.bytes_sent + link.bytes_received;
    d.reliability = srv.stats();
    Ok(())
}

/// Drives a set-up rig to the end: server on this thread, clients on one
/// more.
fn drive(
    rig: Rig,
    sizes: &WireSizes,
    budget_secs: f64,
    deep_check_all: bool,
    tracer: Option<&Arc<Tracer>>,
    between_rounds: &mut dyn FnMut(),
) -> Driven {
    let Rig {
        payloads,
        server,
        clients,
    } = rig;
    let plan = Plan {
        sizes,
        payloads: &payloads,
        budget_secs,
        deep_check_all,
        tracer,
    };
    let mut d = Driven::default();
    std::thread::scope(|scope| {
        let client_side = scope.spawn(move || client_loop(clients, plan));
        let served = server_loop(server, plan, &mut d, between_rounds);
        let client_stats = client_side
            .join()
            .unwrap_or_else(|_| Err("client thread panicked".to_string()));
        match (served, client_stats) {
            (Ok(()), Ok(stats)) => d.reliability = d.reliability.merged(&stats),
            (Err(e), _) | (_, Err(e)) => d.error = Some(e),
        }
    });
    d
}

fn verify(out: &mut Outcome, d: &Driven) {
    out.attempted += d.attempted;
    if let Some(e) = &d.error {
        out.fail(e.clone());
    }
    if d.reliability.retransmits != 0 || d.reliability.corrupt_frames_rejected != 0 {
        out.fail(format!(
            "clean wire saw {} retransmits",
            d.reliability.retransmits
        ));
    }
}

/// Runs the workload.
pub fn run(sizes: &WireSizes, args: &RunArgs) -> Outcome {
    let mut out = Outcome::new("wire_clean");
    if sizes.one_cpu && !crate::affinity::narrow_to_one_cpu() {
        out.fail("cannot narrow this thread's CPU affinity to one CPU".to_string());
    }
    // Set-up, several times; the first instance also runs the fixed prefix
    // so the one that is measured can be checked against a repeat.
    let mut timer = SetupTimer::new();
    let build = || setup(sizes, args.seed);
    let (rig, repeat_checksum) = if args.traced {
        (build(), None)
    } else {
        let (rig, checksum) = timer.before_run(build, |first| {
            drive(first, sizes, 0.0, args.smoke, None, &mut || {}).checksum
        });
        (rig, Some(checksum))
    };
    let budget = if args.traced {
        args.seconds * TRACE_UNTRACED_SHARE
    } else {
        args.seconds
    };
    let plain = drive(rig, sizes, budget, args.smoke, None, &mut || {
        if !args.traced {
            timer.resample(build);
        }
    });
    verify(&mut out, &plain);
    out.checksum = plain.checksum;
    if repeat_checksum.is_some_and(|c| c != plain.checksum) {
        out.fail("two runs of the same seed gave different checksums".to_string());
    }
    if !args.traced {
        out.end_to_end(
            &plain.round_ms,
            &plain.around_us,
            &timer,
            &sizes.kappa,
            plain.wire_bytes_per_round,
        );
        return out;
    }

    let tracer = Tracer::new();
    let traced = drive(
        setup(sizes, args.seed),
        sizes,
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
    let series = |name: &str| -> Vec<f64> { steady(&spans, name).map(|s| s.ms() * 1e3).collect() };
    m.set(
        "transport.send_reliable_us",
        median(&series("transport.send_reliable")),
    );
    m.set(
        "transport.broadcast_us",
        median(&series("transport.broadcast")),
    );
    m.set(
        "transport.recv_wait_us",
        median(&series("transport.recv_wait")),
    );
    let rounds = traced.attempted.max(1) as f64;
    m.set("transport.frames_sent", traced.frames as f64 / rounds);
    m.set("transport.bytes_sent", traced.bytes as f64 / rounds);
    m.set(
        "transport.retransmits",
        traced.reliability.retransmits as f64,
    );
    m.set(
        "transport.duplicates_dropped",
        traced.reliability.dups_dropped as f64,
    );
    let payloads = Payloads::new(sizes, args.seed);
    m.set(
        "transport.encoded_over_accounted",
        traced.bytes as f64 / rounds / (payloads.accounted_scalars(sizes.clients) * 4) as f64,
    );
    replay(m, &payloads);
    out.trace_summary(
        &spans,
        (&traced.round_ms, &traced.around_us),
        (&plain.round_ms, &plain.around_us),
        &sizes.kappa,
        args,
    );
    out
}

/// Replays the codecs in isolation on the round's own frames.
fn replay(m: &mut Metrics, payloads: &Payloads) {
    let n = REPLAY_SAMPLES;
    let dense = payloads.model_msg(0);
    let sparse = payloads.update_msg(0, 0);
    let mut buf = Vec::new();
    m.set(
        "transport.encode_us.dense",
        median_us(n, || dense.encode_into(&mut buf)),
    );
    let dense_bytes = buf.clone();
    m.set(
        "transport.encode_us.sparse",
        median_us(n, || sparse.encode_into(&mut buf)),
    );
    let sparse_bytes = buf.clone();
    m.set(
        "transport.decode_us.dense",
        median_us(n, || {
            std::hint::black_box(Message::decode(&dense_bytes).is_ok());
        }),
    );
    m.set(
        "transport.decode_us.sparse",
        median_us(n, || {
            std::hint::black_box(Message::decode(&sparse_bytes).is_ok());
        }),
    );
    // Envelope::data takes the payload by value, as the session does after
    // encoding; the clone is made outside the timed call.
    let mut frame = Vec::new();
    let mut us = Vec::with_capacity(n);
    for _ in 0..n {
        let payload = dense_bytes.clone();
        let t = Instant::now();
        frame = Envelope::data(0, 0, 0, 0, payload).encode();
        us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    m.set("transport.envelope_encode_us", median(&us));
    m.set(
        "transport.envelope_decode_us",
        median_us(n, || {
            std::hint::black_box(Envelope::decode(&frame).is_ok());
        }),
    );
}
