//! Tensor-kernel performance harness: serial reference vs blocked-scalar vs
//! SIMD vs SIMD+parallel matmul, with bit-identity verification.
//!
//! Emits `BENCH_kernels.json` (override the path with `FEDSU_BENCH_OUT`)
//! recording wall time and GFLOP/s for each configuration, so the repo has
//! a perf trajectory across commits (`cargo run -p fedsu-xtask --
//! bench-check` ratchets against the checked-in copy). The harness **fails
//! (non-zero exit)** if any blocked/SIMD/parallel output diverges bit-wise
//! from the serial reference — the determinism contract is enforced here as
//! well as in the test suite, on bench-sized shapes. Bench inputs are
//! finite (no NaNs), so exact bit equality holds across SIMD levels; the
//! NaN-payload carve-out in DESIGN.md §10.1 never applies here.
//!
//! Per size the rows are:
//!
//! * `serial_reference` — naive triple loop (`reference::matmul`);
//! * `blocked_scalar`   — the blocked/tiled kernel pinned to
//!   [`SimdLevel::Scalar`], one thread (the pre-SIMD baseline);
//! * `simd_serial`      — the same blocked kernel at the active SIMD level
//!   (hardware-detected, or `FEDSU_SIMD` override), one thread;
//! * `simd_parallel_tN` — active SIMD level with N worker threads.
//!
//! Scales via `FEDSU_SCALE`: `smoke` (tiny shapes, CI), `quick` (default,
//! includes the 512×512 acceptance point **and** the smoke shapes so a
//! quick-scale baseline can ratchet a smoke-scale CI run), `full` (adds
//! 1024).

use fedsu_bench::Scale;
use fedsu_tensor::{
    hardware_simd_level, matmul_into, matmul_transpose_a_into, matmul_transpose_b_into, reference,
    set_kernel_threads, set_simd_level, simd_level, SimdLevel,
};
use std::time::Instant;

/// Thread settings exercised for the parallel rows (beyond serial `1`).
const PARALLEL_THREADS: [usize; 3] = [2, 4, 8];

/// Minimum measured wall time per configuration; repeat runs until reached.
const MIN_MEASURE_SECS: f64 = 0.05;

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

fn level_name(level: SimdLevel) -> &'static str {
    match level {
        SimdLevel::Scalar => "scalar",
        SimdLevel::Sse2 => "sse2",
        SimdLevel::Avx2 => "avx2",
    }
}

/// Times `body` with enough repetitions to cover [`MIN_MEASURE_SECS`];
/// returns the best per-run wall time in seconds.
// Benches are the sanctioned wall-clock sites: this is the measurement.
#[allow(clippy::disallowed_methods)]
fn time_best<F: FnMut()>(mut body: F) -> f64 {
    let mut best = f64::INFINITY;
    let mut spent = 0.0;
    let mut runs = 0usize;
    while spent < MIN_MEASURE_SECS || runs < 3 {
        let t0 = Instant::now();
        body();
        let dt = t0.elapsed().as_secs_f64();
        best = best.min(dt);
        spent += dt;
        runs += 1;
        if runs > 10_000 {
            break;
        }
    }
    best
}

struct Row {
    label: String,
    threads: usize,
    simd: SimdLevel,
    wall_secs: f64,
    gflops: f64,
    bit_identical: bool,
}

/// Benches one square size; returns the per-configuration rows and whether
/// every configuration matched the reference bit-for-bit.
fn bench_size(n: usize, active: SimdLevel) -> (Vec<Row>, bool) {
    let (m, k) = (n, n);
    let a = filled(m * k, 0xA11C_E5ED ^ n as u64);
    let b = filled(k * n, 0xB0B5_1ED5 ^ n as u64);
    let flops = 2.0 * (m as f64) * (k as f64) * (n as f64);

    // Ground truth (timed as the serial-reference row).
    let mut want = Vec::new();
    let t_ref = time_best(|| want = reference::matmul(&a, &b, m, k, n));

    let mut rows = vec![Row {
        label: "serial_reference".to_string(),
        threads: 1,
        simd: SimdLevel::Scalar,
        wall_secs: t_ref,
        gflops: flops / t_ref / 1e9,
        bit_identical: true,
    }];
    let mut all_identical = true;

    // (label, simd level, threads). `blocked_scalar` is the pre-SIMD
    // blocked kernel; the `simd_*` rows run at the active level, which may
    // itself be Scalar if `FEDSU_SIMD=off` — the rows still exist so the
    // scalar-fallback CI run produces a comparable file.
    let mut configs = vec![("blocked_scalar", SimdLevel::Scalar, 1_usize), ("simd_serial", active, 1)];
    for &t in &PARALLEL_THREADS {
        configs.push(("simd_parallel", active, t));
    }

    let mut out = vec![0.0f32; m * n];
    for (label, level, threads) in configs {
        set_simd_level(level);
        set_kernel_threads(threads);
        let t = time_best(|| {
            matmul_into(&a, &b, &mut out, m, k, n).expect("matmul_into on bench shapes");
        });
        let ok = bits_equal(&out, &want);
        all_identical &= ok;
        let label = if threads == 1 { label.to_string() } else { format!("{label}_t{threads}") };
        rows.push(Row {
            label,
            threads,
            simd: level,
            wall_secs: t,
            gflops: flops / t / 1e9,
            bit_identical: ok,
        });
    }

    // Verify (not time) the transpose kernels at this size too: the
    // determinism contract covers all three kernels, at both the scalar
    // and the active SIMD level.
    let want_ta = reference::matmul_transpose_a(&a, &b, k, m, n);
    let want_tb = reference::matmul_transpose_b(&a, &b, m, k, n);
    for level in [SimdLevel::Scalar, active] {
        set_simd_level(level);
        for &threads in &[1usize, 4] {
            set_kernel_threads(threads);
            matmul_transpose_a_into(&a, &b, &mut out, k, m, n).expect("ta on bench shapes");
            all_identical &= bits_equal(&out, &want_ta);
            matmul_transpose_b_into(&a, &b, &mut out, m, k, n).expect("tb on bench shapes");
            all_identical &= bits_equal(&out, &want_tb);
        }
    }
    set_kernel_threads(0);
    set_simd_level(active);

    (rows, all_identical)
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn main() {
    let scale = Scale::from_env();
    let sizes: &[usize] = match scale {
        Scale::Smoke => &[32, 64],
        Scale::Quick => &[32, 64, 128, 256, 512],
        Scale::Full => &[32, 64, 128, 256, 512, 1024],
    };
    let hw = std::thread::available_parallelism().map_or(1, |p| p.get());
    let active = simd_level();
    eprintln!(
        "kernel bench: scale {scale:?}, sizes {sizes:?}, {hw} hardware threads, \
         simd {} (hardware supports {})",
        level_name(active),
        level_name(hardware_simd_level())
    );

    let mut size_blocks = Vec::new();
    let mut all_ok = true;
    for &n in sizes {
        let (rows, ok) = bench_size(n, active);
        all_ok &= ok;
        let gflops_of = |name: &str| {
            rows.iter().find(|r| r.label == name).map_or(0.0, |r| r.gflops)
        };
        let serial = rows
            .iter()
            .find(|r| r.label == "serial_reference")
            .map_or(f64::INFINITY, |r| r.wall_secs);
        let best_parallel = rows
            .iter()
            .filter(|r| r.label.starts_with("simd_parallel"))
            .map(|r| r.wall_secs)
            .fold(f64::INFINITY, f64::min);
        let speedup = if best_parallel > 0.0 { serial / best_parallel } else { 0.0 };
        let blocked = gflops_of("blocked_scalar");
        let simd_speedup = if blocked > 0.0 { gflops_of("simd_serial") / blocked } else { 0.0 };

        println!("{n}x{n}x{n}:");
        for r in &rows {
            println!(
                "  {:<18} t={:<2} simd={:<6} {:>9.2} ms {:>8.2} GFLOP/s  bit-identical: {}",
                r.label,
                r.threads,
                level_name(r.simd),
                r.wall_secs * 1e3,
                r.gflops,
                r.bit_identical
            );
        }
        println!("  simd_serial vs blocked_scalar: {simd_speedup:.2}x");
        println!("  best parallel speedup vs serial reference: {speedup:.2}x");

        let row_json: Vec<String> = rows
            .iter()
            .map(|r| {
                format!(
                    "{{\"label\":\"{}\",\"threads\":{},\"simd\":\"{}\",\"wall_secs\":{:.9},\
                     \"gflops\":{:.4},\"bit_identical\":{}}}",
                    json_escape(&r.label),
                    r.threads,
                    level_name(r.simd),
                    r.wall_secs,
                    r.gflops,
                    r.bit_identical
                )
            })
            .collect();
        size_blocks.push(format!(
            "{{\"m\":{n},\"k\":{n},\"n\":{n},\"simd_speedup\":{:.4},\
             \"best_parallel_speedup\":{:.4},\"rows\":[{}]}}",
            simd_speedup,
            speedup,
            row_json.join(",")
        ));
    }

    let json = format!(
        "{{\"bench\":\"kernels\",\"scale\":\"{scale:?}\",\"hardware_threads\":{hw},\
         \"simd_level\":\"{}\",\"all_bit_identical\":{all_ok},\"sizes\":[{}]}}\n",
        level_name(active),
        size_blocks.join(",")
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
        eprintln!("error: blocked/SIMD/parallel kernel output diverged bit-wise from reference");
        std::process::exit(1);
    }
}
