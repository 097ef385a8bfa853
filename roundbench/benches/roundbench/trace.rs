//! The traced run's span recorder and the decorators that feed it.
//!
//! Nothing here touches product code: [`Traced`] wraps any
//! `SyncStrategy`, [`TracedLayer`] wraps any `Layer`, and both time only
//! calls that cross a public boundary. Spans stay in memory (one sink per
//! model replica / strategy / session driver, so recording never contends)
//! and are merged after the run. When in-program spans land (ROADMAP
//! item 1) these decorators go away and the span names stay.

use fedsu_fl::{AggregateOutcome, SyncStrategy};
use fedsu_nn::{Layer, Param};
use fedsu_tensor::Tensor;
use std::cell::Cell;
use std::io::Write;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// One timed call across a layer boundary.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Unique id (1-based; 0 means "no span").
    pub id: u64,
    /// Id of the span that caused this one (the round), 0 for a round.
    pub parent: u64,
    /// `<layer>.<what>`; layers are the crate names.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, same clock.
    pub end_ns: u64,
    /// Round the span belongs to (counted over the whole run).
    pub round: u32,
    /// Ordinal of the OS thread that ran the call.
    pub thread: u32,
    /// Counts taken at the same boundary (bytes, scalars); meaning per name.
    pub counts: [u64; 2],
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e6
    }
}

/// Where one decorator instance keeps its spans.
pub type Sink = Arc<Mutex<Vec<Span>>>;

static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);
thread_local! {
    static THREAD_ORDINAL: Cell<u32> = const { Cell::new(u32::MAX) };
}

fn thread_ordinal() -> u32 {
    THREAD_ORDINAL.with(|t| {
        if t.get() == u32::MAX {
            t.set(NEXT_THREAD.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

/// Shared clock, id source and registry of sinks for one traced run.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    round: AtomicU32,
    round_span: AtomicU64,
    sinks: Mutex<Vec<Sink>>,
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new() -> Arc<Self> {
        Arc::new(Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            round: AtomicU32::new(0),
            round_span: AtomicU64::new(0),
            sinks: Mutex::new(Vec::new()),
        })
    }

    /// Nanoseconds since the tracer was created.
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// The tracer clock's reading of `at`.
    pub fn ns_of(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Registers and returns a fresh sink.
    pub fn sink(&self) -> Sink {
        let sink: Sink = Arc::new(Mutex::new(Vec::new()));
        self.sinks
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(Arc::clone(&sink));
        sink
    }

    /// Opens round `round`: spans recorded from now on name it as parent.
    pub fn begin_round(&self, round: u32) {
        self.round.store(round, Ordering::Relaxed);
        self.round_span.store(
            self.next_id.fetch_add(1, Ordering::Relaxed),
            Ordering::Relaxed,
        );
    }

    /// Records the span of the round opened by [`Tracer::begin_round`].
    pub fn end_round(&self, sink: &Sink, name: &'static str, start_ns: u64, end_ns: u64) {
        let span = Span {
            id: self.round_span.load(Ordering::Relaxed),
            parent: 0,
            name,
            start_ns,
            end_ns,
            round: self.round.load(Ordering::Relaxed),
            thread: thread_ordinal(),
            counts: [0; 2],
        };
        sink.lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(span);
    }

    /// Times `f` as a child of the current round and records it in `sink`;
    /// `counts` turns the call's result into the span's counts.
    pub fn span<T>(
        &self,
        sink: &Sink,
        name: &'static str,
        f: impl FnOnce() -> T,
        counts: impl FnOnce(&T) -> [u64; 2],
    ) -> T {
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        let span = Span {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent: self.round_span.load(Ordering::Relaxed),
            name,
            start_ns,
            end_ns,
            round: self.round.load(Ordering::Relaxed),
            thread: thread_ordinal(),
            counts: counts(&out),
        };
        sink.lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(span);
        out
    }

    /// Drains every sink into one list ordered by start time.
    pub fn drain(&self) -> Vec<Span> {
        let sinks = self.sinks.lock().unwrap_or_else(PoisonError::into_inner);
        let mut all = Vec::new();
        for sink in sinks.iter() {
            all.append(&mut sink.lock().unwrap_or_else(PoisonError::into_inner));
        }
        all.sort_by_key(|s| (s.start_ns, s.id));
        all
    }
}

/// Nanoseconds of `[start, end)` covered by at least one of `children`
/// (clipped to the interval). A span's self time is its duration minus
/// this; with children on several threads it is the time no child ran.
pub fn covered_ns(start: u64, end: u64, children: &mut [(u64, u64)]) -> u64 {
    children.sort_unstable();
    let mut covered = 0u64;
    let mut cursor = start;
    for &(s, e) in children.iter() {
        let s = s.max(cursor);
        let e = e.min(end);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    covered
}

/// The spans called `name` that belong to post-warm-up rounds.
pub fn steady<'a>(spans: &'a [Span], name: &'a str) -> impl Iterator<Item = &'a Span> {
    spans
        .iter()
        .filter(move |s| s.name == name && s.round as usize >= crate::sizes::WARMUP_ROUNDS)
}

/// Writes spans as JSON lines: `{"id","parent","name","start_ns","end_ns",
/// "round","thread","counts"}`.
pub fn write_jsonl(path: &str, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"round\":{},\"thread\":{},\"counts\":[{},{}]}}",
            s.id, s.parent, s.name, s.start_ns, s.end_ns, s.round, s.thread, s.counts[0], s.counts[1]
        )?;
    }
    out.flush()
}

/// Span names of one strategy leg.
#[derive(Debug, Clone, Copy)]
pub struct StrategySpans {
    /// `prepare_uploads_into`; counts: `[Σ upload scalars, 0]`.
    pub prepare: &'static str,
    /// `aggregate`; counts: `[synced scalars, broadcast scalars]`.
    pub aggregate: &'static str,
    /// `join_state`; counts: `[serialised bytes, 0]`.
    pub join_state: &'static str,
}

/// Span names of the FedSU leg.
pub const FEDSU_SPANS: StrategySpans = StrategySpans {
    prepare: "strategies.prepare.fedsu",
    aggregate: "strategies.aggregate.fedsu",
    join_state: "core.join_state",
};

/// Span names of the FedAvg leg.
pub const FEDAVG_SPANS: StrategySpans = StrategySpans {
    prepare: "strategies.prepare.fedavg",
    aggregate: "strategies.aggregate.fedavg",
    join_state: "core.join_state.fedavg",
};

/// A `SyncStrategy` that forwards every method and stamps the three calls
/// the round loop makes.
pub struct Traced<S: SyncStrategy> {
    inner: S,
    tracer: Arc<Tracer>,
    sink: Sink,
    names: StrategySpans,
}

impl<S: SyncStrategy> Traced<S> {
    /// Wraps `inner`.
    pub fn new(inner: S, tracer: &Arc<Tracer>, names: StrategySpans) -> Self {
        Traced {
            inner,
            tracer: Arc::clone(tracer),
            sink: tracer.sink(),
            names,
        }
    }

    /// The wrapped strategy.
    pub fn inner(&self) -> &S {
        &self.inner
    }
}

impl<S: SyncStrategy> SyncStrategy for Traced<S> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn prepare_uploads_into(
        &mut self,
        round: usize,
        locals: &[Vec<f32>],
        global: &[f32],
        out: &mut Vec<u64>,
    ) {
        let inner = &mut self.inner;
        self.tracer.span(
            &self.sink,
            self.names.prepare,
            || {
                inner.prepare_uploads_into(round, locals, global, out);
                out.iter().sum::<u64>()
            },
            |&scalars| [scalars, 0],
        );
    }

    fn aggregate(
        &mut self,
        round: usize,
        locals: &[Vec<f32>],
        selected: &[usize],
        active: &[bool],
        global: &mut [f32],
    ) -> AggregateOutcome {
        let inner = &mut self.inner;
        self.tracer.span(
            &self.sink,
            self.names.aggregate,
            || inner.aggregate(round, locals, selected, active, global),
            |o| [o.synced_scalars as u64, o.broadcast_scalars as u64],
        )
    }

    fn state_bytes(&self) -> usize {
        self.inner.state_bytes()
    }

    fn join_state(&self) -> Option<Vec<u8>> {
        self.tracer.span(
            &self.sink,
            self.names.join_state,
            || self.inner.join_state(),
            |s| [s.as_ref().map_or(0, |b| b.len() as u64), 0],
        )
    }

    fn skip_fractions(&self) -> Option<Vec<f64>> {
        self.inner.skip_fractions()
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        self.inner.as_any()
    }
}

/// Span names of one layer kind: training forward, evaluation forward,
/// backward.
fn layer_spans(kind: &str) -> [&'static str; 3] {
    match kind {
        "conv2d" => ["nn.train_fwd.conv2d", "nn.eval_fwd.conv2d", "nn.bwd.conv2d"],
        "dense" => ["nn.train_fwd.dense", "nn.eval_fwd.dense", "nn.bwd.dense"],
        "relu" => ["nn.train_fwd.relu", "nn.eval_fwd.relu", "nn.bwd.relu"],
        "maxpool2d" => [
            "nn.train_fwd.maxpool",
            "nn.eval_fwd.maxpool",
            "nn.bwd.maxpool",
        ],
        "flatten" => [
            "nn.train_fwd.flatten",
            "nn.eval_fwd.flatten",
            "nn.bwd.flatten",
        ],
        _ => ["nn.train_fwd.other", "nn.eval_fwd.other", "nn.bwd.other"],
    }
}

/// A `Layer` that forwards every method and stamps `forward` (keyed by the
/// `train` flag) and `backward`.
pub struct TracedLayer<L: Layer> {
    inner: L,
    tracer: Arc<Tracer>,
    sink: Sink,
    names: [&'static str; 3],
}

impl<L: Layer> TracedLayer<L> {
    /// Wraps `inner`; `sink` is the model replica's sink.
    pub fn new(inner: L, tracer: &Arc<Tracer>, sink: &Sink) -> Self {
        let names = layer_spans(inner.name());
        TracedLayer {
            inner,
            tracer: Arc::clone(tracer),
            sink: Arc::clone(sink),
            names,
        }
    }
}

impl<L: Layer> Layer for TracedLayer<L> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn forward(&mut self, input: &Tensor, train: bool) -> fedsu_nn::Result<Tensor> {
        let inner = &mut self.inner;
        let name = if train { self.names[0] } else { self.names[1] };
        self.tracer
            .span(&self.sink, name, || inner.forward(input, train), |_| [0; 2])
    }

    fn backward(&mut self, grad_output: &Tensor) -> fedsu_nn::Result<Tensor> {
        let inner = &mut self.inner;
        self.tracer.span(
            &self.sink,
            self.names[2],
            || inner.backward(grad_output),
            |_| [0; 2],
        )
    }

    fn visit_params_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.inner.visit_params_mut(f);
    }

    fn visit_params(&self, f: &mut dyn FnMut(&Param)) {
        self.inner.visit_params(f);
    }
}
