//! Tensor-kernel performance harness: serial reference vs blocked-scalar vs
//! SIMD matmul, with bit-identity verification.
//!
//! Emits `BENCH_kernels.json` (override the path with `FEDSU_BENCH_OUT`)
//! recording wall time and GFLOP/s for each configuration, so the repo has
//! a perf trajectory across commits (`cargo run -p fedsu-xtask --
//! bench-check` ratchets against the checked-in copy). The harness **fails
//! (non-zero exit)** if any blocked/SIMD output diverges bit-wise
//! from the serial reference — the determinism contract is enforced here as
//! well as in the test suite, on bench-sized shapes. Bench inputs are
//! finite (no NaNs), so exact bit equality holds across SIMD levels; the
//! NaN-payload carve-out in DESIGN.md §10.1 never applies here.
//!
//! Every block is one kernel at one `(m, k, n)` and has three rows:
//! `serial_reference` (the naive loop), `blocked_scalar` (the blocked kernel
//! pinned to [`SimdLevel::Scalar`]: the pre-SIMD baseline) and `simd_serial`
//! (the same kernel at the active SIMD level — hardware-detected, or
//! `FEDSU_SIMD`), timed round-robin on one thread with the operands at a
//! fixed placement: the reference's median per-call wall time, and each
//! other row's median per-round ratio to it (see [`time_round_robin`] and
//! [`placed`]). Blocks:
//!
//! * **square `A·B`** (`"kernel":"nn"`), one per size; both transpose
//!   kernels are verified at these sizes too;
//! * **the paper CNN's training products** (`"kernel":"ta"` for `Aᵀ·B`,
//!   `"tb"` for `A·Bᵀ`), at every scale: the backward pass's shapes, where a
//!   round's time goes.
//!
//! Scales via `FEDSU_SCALE`: `smoke` (tiny square shapes, CI), `quick`
//! (default, includes the 512×512 acceptance point **and** the smoke shapes
//! so a quick-scale baseline can ratchet a smoke-scale CI run), `full`
//! (adds 1024).

use fedsu_bench::Scale;
use fedsu_tensor::{
    hardware_simd_level, matmul_into, matmul_transpose_a_into, matmul_transpose_b_into, reference,
    set_simd_level, simd_level, SimdLevel,
};
use std::time::Instant;

/// Minimum measured wall time per configuration; repeat runs until reached.
const MIN_MEASURE_SECS: f64 = 0.05;

/// Fewest repeats a configuration's median is taken over.
const MIN_REPEATS: usize = 5;

/// The paper CNN's transpose products at batch 16, `(kernel, m, k, n)` —
/// the `tensor.matmul_{ta,tb}_gflops.*` rows of `BENCHMARK.json` plus
/// conv1's.
const TRAINING_SHAPES: [(Kernel, usize, usize, usize); 6] = [
    (Kernel::Ta, 25, 6, 784),   // conv1 dcols = Wᵀ·dY
    (Kernel::Ta, 150, 12, 196), // conv2 dcols
    (Kernel::Ta, 64, 16, 588),  // dense1 dW = dYᵀ·X
    (Kernel::Tb, 6, 784, 25),   // conv1 dW = dY·colsᵀ
    (Kernel::Tb, 12, 196, 150), // conv2 dW
    (Kernel::Tb, 16, 588, 64),  // dense1 forward, x·Wᵀ
];

/// One of the three matmul entry points.
#[derive(Debug, Clone, Copy)]
enum Kernel {
    /// `C = A·B`.
    Nn,
    /// `C = Aᵀ·B`, `A` stored `[k, m]`.
    Ta,
    /// `C = A·Bᵀ`, `B` stored `[n, k]`.
    Tb,
}

impl Kernel {
    fn name(self) -> &'static str {
        match self {
            Kernel::Nn => "nn",
            Kernel::Ta => "ta",
            Kernel::Tb => "tb",
        }
    }

    /// The naive serial ground truth. `A` holds `m·k` scalars and `B`
    /// `k·n` whatever the orientation.
    fn reference(self, a: &[f32], b: &[f32], (m, k, n): (usize, usize, usize)) -> Vec<f32> {
        match self {
            Kernel::Nn => reference::matmul(a, b, m, k, n),
            Kernel::Ta => reference::matmul_transpose_a(a, b, k, m, n),
            Kernel::Tb => reference::matmul_transpose_b(a, b, m, k, n),
        }
    }

    /// The production kernel at the current SIMD level.
    fn run(self, a: &[f32], b: &[f32], out: &mut [f32], (m, k, n): (usize, usize, usize)) {
        match self {
            Kernel::Nn => matmul_into(a, b, out, m, k, n),
            Kernel::Ta => matmul_transpose_a_into(a, b, out, k, m, n),
            Kernel::Tb => matmul_transpose_b_into(a, b, out, m, k, n),
        }
        .expect("bench shapes are consistent");
    }
}

struct XorShift(u64);

impl XorShift {
    fn next_f32(&mut self) -> f32 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        ((self.0 >> 40) as f32) / (1u32 << 23) as f32 - 1.0
    }
}

fn filled(len: usize, seed: u64) -> Vec<f32> {
    let mut rng = XorShift(seed | 1);
    (0..len).map(|_| rng.next_f32()).collect()
}

fn bits_equal(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Times `bodies` round-robin, one call of each in turn, for at least
/// [`MIN_REPEATS`] rounds and [`MIN_MEASURE_SECS`] per body, after a fifth
/// of that untimed (caches, page faults and the clock ramp-up of a
/// run's first block). Returns per-call wall times in seconds: the first
/// body's median, and for every other body the first's median times the
/// median of its per-round ratio to the first. A disturbance of the host
/// that outlasts a round slows both sides of a ratio alike, so the ratios
/// to the first body — what the ratchet compares — hold.
// Benches are the sanctioned wall-clock sites: this is the measurement.
#[allow(clippy::disallowed_methods)]
fn time_round_robin(bodies: &mut [&mut dyn FnMut()]) -> Vec<f64> {
    let warm = Instant::now();
    while warm.elapsed().as_secs_f64() < MIN_MEASURE_SECS / 5.0 {
        bodies.iter_mut().for_each(|body| body());
    }
    let mut times = vec![Vec::new(); bodies.len()];
    let budget = MIN_MEASURE_SECS * bodies.len() as f64;
    let (mut spent, mut rounds) = (0.0, 0);
    while spent < budget || rounds < MIN_REPEATS {
        for (body, times) in bodies.iter_mut().zip(&mut times) {
            let t0 = Instant::now();
            body();
            let dt = t0.elapsed().as_secs_f64();
            times.push(dt);
            spent += dt;
        }
        rounds += 1;
    }
    let median = |mut t: Vec<f64>| {
        t.sort_by(f64::total_cmp);
        t[t.len() / 2]
    };
    let first = times[0].clone();
    let base = median(first.clone());
    times
        .into_iter()
        .map(|t| base * median(t.iter().zip(&first).map(|(t, t0)| t / t0).collect()))
        .collect()
}

struct Row {
    label: &'static str,
    simd: SimdLevel,
    wall_secs: f64,
    gflops: f64,
    bit_identical: bool,
}

/// One timed block: the rows of one kernel at one shape.
struct Block {
    kernel: Kernel,
    dims: (usize, usize, usize),
    rows: Vec<Row>,
}

/// Whether `kernel` reproduces `want` bit for bit at the scalar and the
/// active level.
fn verify(kernel: Kernel, a: &[f32], b: &[f32], dims: (usize, usize, usize), want: &[f32], active: SimdLevel) -> bool {
    let mut out = vec![0.0f32; want.len()];
    let mut ok = true;
    for level in [SimdLevel::Scalar, active] {
        set_simd_level(level);
        kernel.run(a, b, &mut out, dims);
        ok &= bits_equal(&out, want);
    }
    set_simd_level(active);
    ok
}

/// `lens` buffers carved from one arena, the first on a 4 KiB boundary and
/// each next one on the page after the previous one ends, one cache line
/// further in per buffer. Where the allocator happened to put a block's
/// operands moved the `64³` `simd_serial` row between 36 and 62 GFLOP/s
/// (stores to `C` 4 KiB-aliasing loads of `B`); at a fixed placement every
/// run times the same layout.
fn placed<const N: usize>(lens: [usize; N]) -> (Vec<f32>, [std::ops::Range<usize>; N]) {
    const PAGE: usize = 1024; // f32s per 4 KiB
    const LINE: usize = 16; // f32s per 64-byte cache line
    let mut end = 0usize;
    let mut ranges = lens.map(|_| 0..0);
    for (i, (range, len)) in ranges.iter_mut().zip(lens).enumerate() {
        let start = end.next_multiple_of(PAGE) + i * LINE;
        (*range, end) = (start..start + len, start + len);
    }
    let arena = vec![0.0f32; end + PAGE];
    // `align_offset` may decline (`usize::MAX`); the arena is then unaligned.
    let base = arena.as_ptr().align_offset(4096).min(PAGE);
    for range in &mut ranges {
        *range = range.start + base..range.end + base;
    }
    (arena, ranges)
}

/// Times `kernel` at `dims` (the three rows) and verifies it. Returns the
/// block and whether every output matched the reference bit for bit.
fn bench_block(kernel: Kernel, dims: (usize, usize, usize), active: SimdLevel) -> (Block, bool) {
    let (m, k, n) = dims;
    let flops = 2.0 * (m as f64) * (k as f64) * (n as f64);
    let (mut arena, [a_at, b_at, blocked_at, simd_at]) = placed([m * k, k * n, m * n, m * n]);
    arena[a_at.clone()].copy_from_slice(&filled(m * k, 0xA11C_E5ED ^ (m * k) as u64));
    arena[b_at.clone()].copy_from_slice(&filled(k * n, 0xB0B5_1ED5 ^ (k * n) as u64));
    let (inputs, outputs) = arena.split_at_mut(blocked_at.start);
    let (a, b) = (&inputs[a_at], &inputs[b_at]);
    let (blocked, simd) = outputs.split_at_mut(simd_at.start - blocked_at.start);
    let (blocked, simd) = (&mut blocked[..m * n], &mut simd[..m * n]);

    // The ground truth is the serial-reference row. The `simd_serial` row
    // may itself run at Scalar (`FEDSU_SIMD=off`): it still exists so the
    // scalar-fallback CI run produces a comparable file.
    let mut want = Vec::new();
    let times = time_round_robin(&mut [
        &mut || want = kernel.reference(a, b, dims),
        &mut || {
            set_simd_level(SimdLevel::Scalar);
            kernel.run(a, b, blocked, dims);
        },
        &mut || {
            set_simd_level(active);
            kernel.run(a, b, simd, dims);
        },
    ]);
    let outputs: [&[f32]; 3] = [&want, blocked, simd];
    let configs = [("serial_reference", SimdLevel::Scalar), ("blocked_scalar", SimdLevel::Scalar), ("simd_serial", active)];
    let rows: Vec<Row> = configs
        .into_iter()
        .zip(times)
        .zip(outputs)
        .map(|(((label, simd), wall_secs), out)| Row {
            label,
            simd,
            wall_secs,
            gflops: flops / wall_secs / 1e9,
            bit_identical: bits_equal(out, &want),
        })
        .collect();
    let mut all_identical = rows.iter().all(|r| r.bit_identical);
    all_identical &= verify(kernel, a, b, dims, &want, active);
    (Block { kernel, dims, rows }, all_identical)
}

/// Benches one square `A·B` size and verifies both transpose kernels at it.
fn bench_square(n: usize, active: SimdLevel) -> (Block, bool) {
    let dims = (n, n, n);
    let (block, mut all_identical) = bench_block(Kernel::Nn, dims, active);
    let a = filled(n * n, 0x7A7A_0001 ^ n as u64);
    let b = filled(n * n, 0x7B7B_0002 ^ n as u64);
    for kernel in [Kernel::Ta, Kernel::Tb] {
        all_identical &= verify(kernel, &a, &b, dims, &kernel.reference(&a, &b, dims), active);
    }
    (block, all_identical)
}

fn print_block(block: &Block) {
    let (m, k, n) = block.dims;
    println!("{} {m}x{k}x{n}:", block.kernel.name());
    for r in &block.rows {
        println!(
            "  {:<18} simd={:<6} {:>11.3} us {:>8.2} GFLOP/s  bit-identical: {}",
            r.label,
            r.simd.name(),
            r.wall_secs * 1e6,
            r.gflops,
            r.bit_identical
        );
    }
}

fn block_json(block: &Block) -> String {
    let gflops_of =
        |name: &str| block.rows.iter().find(|r| r.label == name).map_or(0.0, |r| r.gflops);
    let blocked = gflops_of("blocked_scalar");
    let simd_speedup = if blocked > 0.0 { gflops_of("simd_serial") / blocked } else { 0.0 };
    let row_json: Vec<String> = block
        .rows
        .iter()
        .map(|r| {
            format!(
                "{{\"label\":\"{}\",\"threads\":1,\"simd\":\"{}\",\"wall_secs\":{:.9},\
                 \"gflops\":{:.4},\"bit_identical\":{}}}",
                r.label,
                r.simd.name(),
                r.wall_secs,
                r.gflops,
                r.bit_identical
            )
        })
        .collect();
    let (m, k, n) = block.dims;
    format!(
        "{{\"kernel\":\"{}\",\"m\":{m},\"k\":{k},\"n\":{n},\"simd_speedup\":{simd_speedup:.4},\
         \"rows\":[{}]}}",
        block.kernel.name(),
        row_json.join(",")
    )
}

fn main() {
    let scale = Scale::from_env();
    let sizes: &[usize] = match scale {
        Scale::Smoke => &[32, 64],
        Scale::Quick => &[32, 64, 128, 256, 512],
        Scale::Full => &[32, 64, 128, 256, 512, 1024],
    };
    let hw = fedsu_tensor::hardware_threads();
    let active = simd_level();
    eprintln!(
        "kernel bench: scale {scale:?}, sizes {sizes:?} + {} training shapes, {hw} hardware \
         threads, simd {} (hardware supports {})",
        TRAINING_SHAPES.len(),
        active.name(),
        hardware_simd_level().name()
    );

    // The blocks every scale shares come first, in the same order, so a
    // smoke run times them in the state a quick-scale baseline did.
    let mut blocks = Vec::new();
    let mut all_ok = true;
    for (kernel, m, k, n) in TRAINING_SHAPES {
        let (block, ok) = bench_block(kernel, (m, k, n), active);
        all_ok &= ok;
        blocks.push(block);
    }
    for &n in sizes {
        let (block, ok) = bench_square(n, active);
        all_ok &= ok;
        blocks.push(block);
    }
    for block in &blocks {
        print_block(block);
    }

    let block_json: Vec<String> = blocks.iter().map(block_json).collect();
    let json = format!(
        "{{\"bench\":\"kernels\",\"scale\":\"{scale:?}\",\"hardware_threads\":{hw},\
         \"simd_level\":\"{}\",\"all_bit_identical\":{all_ok},\"sizes\":[{}]}}\n",
        active.name(),
        block_json.join(",")
    );
    // Cargo runs bench binaries with the package dir (crates/bench) as CWD,
    // so resolve relative output paths against the workspace root — that is
    // where the checked-in baseline lives and where CI's bench-check looks.
    let out_path = std::path::PathBuf::from(
        std::env::var("FEDSU_BENCH_OUT").unwrap_or_else(|_| "BENCH_kernels.json".to_string()),
    );
    let out_path = if out_path.is_absolute() {
        out_path
    } else {
        option_env!("CARGO_MANIFEST_DIR")
            .map(|m| std::path::Path::new(m).join("../.."))
            .unwrap_or_default()
            .join(out_path)
    };
    match std::fs::write(&out_path, &json) {
        Ok(()) => eprintln!("wrote {}", out_path.display()),
        Err(e) => {
            eprintln!("error: could not write {}: {e}", out_path.display());
            std::process::exit(1);
        }
    }
    if !all_ok {
        eprintln!("error: blocked/SIMD kernel output diverged bit-wise from reference");
        std::process::exit(1);
    }
}
