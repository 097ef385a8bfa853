//! Bit-identity contract for the blocked matmul kernels.
//!
//! Every kernel in `fedsu_tensor` must produce bit-identical output to the
//! naive serial reference at every SIMD level. These tests sweep shapes
//! from degenerate (empty, 1×k, k×1) through several `MC` row blocks, with
//! ±0.0, NaN, and ±inf planted in the operands.
//!
//! The SIMD level is process-wide and the strict comparisons below are only
//! meaningful while the level they pinned is still in force, so every test
//! that sets it holds [`gate`] for its whole body; `cargo test` may still
//! run the binary's tests on parallel threads.
//!
//! Two comparison strengths (DESIGN.md §10.1):
//!
//! * **strict** — kernel vs kernel at one SIMD level: every bit, including
//!   NaN payloads, must match, because every call routes each element's
//!   accumulation chain through the same compiled primitives.
//! * **modulo NaN payload** — kernel vs the independently-compiled naive
//!   `reference` loops: when an add meets *two* NaN operands with distinct
//!   payloads (a planted NaN and an `inf·0` indefinite, say), IEEE 754
//!   leaves the surviving payload to the implementation and LLVM picks the
//!   operand order per compiled loop, so payload equality across separately
//!   compiled loops is not a meaningful contract. NaN-ness itself still is.

use fedsu_tensor::{
    col2im_into, hardware_simd_level, im2col_into, matmul, matmul_into, matmul_transpose_a_into,
    matmul_transpose_b_into, reference, set_simd_level, simd, simd_level, ConvDims, SimdLevel,
    Tensor,
};
use std::sync::Mutex;

/// Serializes the tests that set the global SIMD level (poison-tolerant:
/// one failed test must not fail the rest).
static GATE: Mutex<()> = Mutex::new(());

fn gate() -> std::sync::MutexGuard<'static, ()> {
    GATE.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// (m, k, n) shapes: degenerate, small, awkward odd sizes, sizes spanning
/// more than one `MC` row block, and the
/// paper CNN's training shapes in every orientation `BENCHMARK.json` meters
/// (`tensor.matmul{,_ta,_tb}_gflops.*`) plus conv1's backward pair
/// (`(6, 784, 25)` is its `A·Bᵀ` with n = 25, `(25, 6, 784)` its `Aᵀ·B`),
/// whose widths hit every split of the vector kernels at the AVX2 width:
/// 784 = 24·32 + 2·8, 196 = 6·32 + 4, 588 = 18·32 + 8 + 4,
/// 150 = 4·32 + 2·8 + 6, 25 = 3·8 + 1. Odd m leaves the paired-row `A·B` /
/// `Aᵀ·B` kernel a single last row, and m mod 4 ≠ 0 the four-row `A·Bᵀ`
/// kernel its pair and single-row kernels; `(7, 3, 33)` does both with
/// k < 4·N, and `(150, 12, 196)` leaves the four-row kernel a pair in the
/// last of three `MC` blocks. Every residue `n mod 8` from 1 to 7 appears
/// with `n > 8` (n = 33, 10, 19, 196, 13, 150, 23), so each kernel's last
/// register block ends at the row's end, overlapping the one before it;
/// `n = 68` and `n = 67` end in an `NC = 64`
/// strip narrower than a register, whose last block starts in the strip
/// before, and `(2, 300, 11)` runs that block over two `KC` tiles.
const SHAPES: [(usize, usize, usize); 27] = [
    (0, 3, 2),
    (3, 0, 2),
    (3, 4, 0),
    (1, 5, 1),
    (5, 1, 3),
    (3, 4, 5),
    (17, 9, 13),
    (64, 64, 64),
    (33, 129, 65),
    (6, 25, 784),
    (12, 150, 196),
    (16, 64, 588),
    (1, 64, 128),
    (150, 12, 196),
    (64, 16, 588),
    (12, 196, 150),
    (16, 588, 64),
    (1, 128, 64),
    (6, 784, 25),
    (25, 6, 784),
    (7, 3, 33),
    (5, 7, 10),
    (9, 33, 19),
    (6, 17, 23),
    (11, 70, 68),
    (3, 130, 67),
    (2, 300, 11),
];

struct XorShift(u64);

impl XorShift {
    fn next_f32(&mut self) -> f32 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        // Map to roughly [-4, 4) so products stay comfortably finite.
        ((self.0 >> 40) as f32) / (1u32 << 21) as f32 - 4.0
    }
}

/// Deterministic matrix fill with IEEE special values sprinkled in.
fn filled(len: usize, seed: u64, specials: bool) -> Vec<f32> {
    let mut rng = XorShift(seed | 1);
    let mut v: Vec<f32> = (0..len).map(|_| rng.next_f32()).collect();
    if specials {
        for (i, x) in v.iter_mut().enumerate() {
            match i % 97 {
                13 => *x = 0.0,
                29 => *x = -0.0,
                53 => *x = f32::NAN,
                71 => *x = f32::INFINITY,
                89 => *x = f32::NEG_INFINITY,
                _ => {}
            }
        }
    }
    v
}

fn assert_bits_eq(got: &[f32], want: &[f32], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length mismatch");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{what}: element {i} differs: {g:?} (bits {:#010x}) vs reference {w:?} (bits {:#010x})",
            g.to_bits(),
            w.to_bits()
        );
    }
}

/// Bit equality modulo NaN payload: any NaN matches any NaN. Used only
/// against the separately-compiled naive reference, where double-NaN adds
/// have implementation-chosen payloads (see module docs).
fn assert_bits_eq_mod_nan(got: &[f32], want: &[f32], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length mismatch");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        if g.is_nan() && w.is_nan() {
            continue;
        }
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{what}: element {i} differs: {g:?} (bits {:#010x}) vs reference {w:?} (bits {:#010x})",
            g.to_bits(),
            w.to_bits()
        );
    }
}

fn sweep(specials: bool) {
    for &(m, k, n) in &SHAPES {
        let a = filled(m * k, 0x9E37_79B9 ^ (m as u64) << 32 | k as u64, specials);
        let b = filled(k * n, 0xDEAD_BEEF ^ (k as u64) << 32 | n as u64, specials);
        let want_nn = reference::matmul(&a, &b, m, k, n);
        // For the transpose kernels, reinterpret the same buffers under the
        // transposed shapes: A:[k,m] for ᵀA, B:[n,k] for ᵀB.
        let a_t = filled(k * m, 0x1234_5678 ^ (m as u64) << 32 | k as u64, specials);
        let want_ta = reference::matmul_transpose_a(&a_t, &b, k, m, n);
        let b_t = filled(n * k, 0x0F0F_F0F0 ^ (n as u64) << 32 | k as u64, specials);
        let want_tb = reference::matmul_transpose_b(&a, &b_t, m, k, n);

        let mut out = vec![f32::NAN; m * n]; // stale garbage must be overwritten
        matmul_into(&a, &b, &mut out, m, k, n).expect("matmul_into");
        assert_bits_eq_mod_nan(&out, &want_nn, &format!("matmul {m}x{k}x{n}"));

        let mut out = vec![f32::NAN; m * n];
        matmul_transpose_a_into(&a_t, &b, &mut out, k, m, n).expect("matmul_transpose_a_into");
        assert_bits_eq_mod_nan(&out, &want_ta, &format!("matmul_ta {m}x{k}x{n}"));

        let mut out = vec![f32::NAN; m * n];
        matmul_transpose_b_into(&a, &b_t, &mut out, m, k, n).expect("matmul_transpose_b_into");
        assert_bits_eq_mod_nan(&out, &want_tb, &format!("matmul_tb {m}x{k}x{n}"));
    }
}

#[test]
fn kernels_bit_identical_to_reference() {
    sweep(false);
}

#[test]
fn kernels_bit_identical_with_ieee_specials_planted() {
    sweep(true);
}

#[test]
fn tensor_wrappers_match_reference() {
    let (m, k, n) = (37, 23, 29);
    let a = Tensor::from_vec(filled(m * k, 7, true), &[m, k]).expect("a");
    let b = Tensor::from_vec(filled(k * n, 11, true), &[k, n]).expect("b");
    let want = reference::matmul(a.data(), b.data(), m, k, n);
    let c = matmul(&a, &b).expect("matmul");
    assert_bits_eq_mod_nan(c.data(), &want, "tensor matmul");
}

#[test]
fn nan_in_b_behind_zero_row_of_a_propagates() {
    // Regression for the removed `av == 0.0` sparsity shortcut: a zero row in
    // A must NOT mask a NaN in B (IEEE 754: 0.0 * NaN = NaN). The shape spans
    // two `MC` row blocks.
    let (m, k, n) = (96, 64, 64);
    let mut a = filled(m * k, 42, false);
    for v in a.iter_mut().take(k) {
        *v = 0.0; // first row of A entirely zero
    }
    let mut b = filled(k * n, 43, false);
    b[0] = f32::NAN; // B[0,0]
    let mut out = vec![0.0f32; m * n];
    matmul_into(&a, &b, &mut out, m, k, n).expect("matmul_into");
    assert!(out[0].is_nan(), "zero row in A masked a NaN in B: got {}", out[0]);
    // The rest of row 0 multiplies the zero row against finite columns.
    assert!(out[1..n].iter().all(|v| *v == 0.0), "row 0 tail not zero");
}

/// Every SIMD level the running hardware can execute, scalar first.
fn supported_levels() -> Vec<SimdLevel> {
    let hw = hardware_simd_level();
    [SimdLevel::Scalar, SimdLevel::Avx2]
        .into_iter()
        .filter(|&l| l <= hw)
        .collect()
}

/// Value correctness at every SIMD level: the full shape sweep against the
/// naive reference (modulo NaN payload), repeated with each level forced.
#[test]
fn reference_sweep_holds_at_every_simd_level() {
    let _g = gate();
    let prior = simd_level();
    for level in supported_levels() {
        set_simd_level(level);
        sweep(true);
        sweep(false);
    }
    set_simd_level(prior);
}

/// The contract, strict form: at each SIMD level, a repeated call is
/// bit-for-bit identical — NaN payloads included — to that level's first
/// run, because every element's chain runs through the same compiled
/// instance. Across levels the comparison is modulo NaN payload: a
/// double-NaN add resolves to whichever operand's payload the level's
/// compiled primitive propagates, which is deterministic per level but not
/// portable between them (DESIGN.md §10.1).
#[test]
fn kernels_bit_identical_across_simd_levels() {
    let _g = gate();
    let prior = simd_level();
    for &(m, k, n) in &SHAPES {
        let a = filled(m * k, 0x9E37_79B9 ^ (m as u64) << 32 | k as u64, true);
        let b = filled(k * n, 0xDEAD_BEEF ^ (k as u64) << 32 | n as u64, true);
        let a_t = filled(k * m, 0x1234_5678 ^ (m as u64) << 32 | k as u64, true);
        let b_t = filled(n * k, 0x0F0F_F0F0 ^ (n as u64) << 32 | k as u64, true);

        // Cross-level baseline: the scalar level.
        set_simd_level(SimdLevel::Scalar);
        let mut scalar_nn = vec![f32::NAN; m * n];
        matmul_into(&a, &b, &mut scalar_nn, m, k, n).expect("scalar matmul");
        let mut scalar_ta = vec![f32::NAN; m * n];
        matmul_transpose_a_into(&a_t, &b, &mut scalar_ta, k, m, n).expect("scalar ta");
        let mut scalar_tb = vec![f32::NAN; m * n];
        matmul_transpose_b_into(&a, &b_t, &mut scalar_tb, m, k, n).expect("scalar tb");

        for level in supported_levels() {
            // Per-level baseline: this level's first run.
            set_simd_level(level);
            let mut want_nn = vec![f32::NAN; m * n];
            matmul_into(&a, &b, &mut want_nn, m, k, n).expect("baseline matmul");
            let mut want_ta = vec![f32::NAN; m * n];
            matmul_transpose_a_into(&a_t, &b, &mut want_ta, k, m, n).expect("baseline ta");
            let mut want_tb = vec![f32::NAN; m * n];
            matmul_transpose_b_into(&a, &b_t, &mut want_tb, m, k, n).expect("baseline tb");

            let lvl = format!("{m}x{k}x{n} {level:?}");
            assert_bits_eq_mod_nan(&want_nn, &scalar_nn, &format!("level nn {lvl}"));
            assert_bits_eq_mod_nan(&want_ta, &scalar_ta, &format!("level ta {lvl}"));
            assert_bits_eq_mod_nan(&want_tb, &scalar_tb, &format!("level tb {lvl}"));

            let mut out = vec![f32::NAN; m * n];
            matmul_into(&a, &b, &mut out, m, k, n).expect("matmul_into");
            assert_bits_eq(&out, &want_nn, &format!("strict nn {lvl}"));

            let mut out = vec![f32::NAN; m * n];
            matmul_transpose_a_into(&a_t, &b, &mut out, k, m, n).expect("ta");
            assert_bits_eq(&out, &want_ta, &format!("strict ta {lvl}"));

            let mut out = vec![f32::NAN; m * n];
            matmul_transpose_b_into(&a, &b_t, &mut out, m, k, n).expect("tb");
            assert_bits_eq(&out, &want_tb, &format!("strict tb {lvl}"));
        }
    }
    set_simd_level(prior);
}

/// im2col / col2im at every SIMD level, odd geometries, specials planted —
/// compared against a fixed Scalar-level run.
#[test]
fn conv_lowering_bit_identical_across_simd_levels() {
    let _g = gate();
    let geometries = [
        ConvDims { in_channels: 2, in_h: 7, in_w: 9, kernel: 3, stride: 1, padding: 1 },
        ConvDims { in_channels: 3, in_h: 6, in_w: 11, kernel: 5, stride: 2, padding: 3 },
        ConvDims { in_channels: 1, in_h: 1, in_w: 17, kernel: 3, stride: 3, padding: 2 },
    ];
    let prior = simd_level();
    for dims in geometries {
        let image = filled(dims.in_channels * dims.in_h * dims.in_w, 0x00C0_FFEE, true);
        let cols = filled(dims.col_rows() * dims.col_cols(), 0xFEED, true);

        // Ground truth: the scalar level.
        set_simd_level(SimdLevel::Scalar);
        let mut want_cols = Vec::new();
        im2col_into(&image, &dims, &mut want_cols).expect("reference im2col");
        let mut want_img = filled(image.len(), 0xBAD_5EED, true);
        let img_seed = want_img.clone();
        col2im_into(&cols, &mut want_img, &dims).expect("reference col2im");

        for level in supported_levels() {
            set_simd_level(level);
            let mut got = Vec::new();
            im2col_into(&image, &dims, &mut got).expect("im2col");
            assert_bits_eq(&got, &want_cols, &format!("im2col {dims:?} {level:?}"));
            let mut img = img_seed.clone();
            col2im_into(&cols, &mut img, &dims).expect("col2im");
            assert_bits_eq(&img, &want_img, &format!("col2im {dims:?} {level:?}"));
        }
    }
    set_simd_level(prior);
}

/// Elementwise lanes (axpy, activations, SGD steps) at every level against
/// the scalar level, on odd/remainder lengths with specials. Uses the
/// level-pinned `_with` dispatchers, so this test needs no global state.
#[test]
fn elementwise_lanes_bit_identical_across_simd_levels() {
    for len in [0usize, 1, 7, 8, 9, 31, 33, 1023] {
        let x = filled(len, 0xA11CE ^ len as u64, true);
        let y0 = filled(len, 0xB0B ^ (len as u64) << 8, true);

        let mut want_axpy = y0.clone();
        simd::axpy_with(SimdLevel::Scalar, &mut want_axpy, 0.75, &x);
        let mut want_relu = vec![0.0f32; len];
        simd::relu_fwd_with(SimdLevel::Scalar, &x, &mut want_relu);
        let mut want_sgd = y0.clone();
        let mut want_grad = x.clone();
        simd::sgd_step_with(SimdLevel::Scalar, &mut want_sgd, &mut want_grad, 0.1, 0.01);
        // FedSU's two masked rows: every third lane off, so unselected lanes
        // meet the planted specials too.
        let mask: Vec<f32> = (0..len).map(|i| if i % 3 == 0 { simd::LANE_OFF } else { simd::LANE_ON }).collect();
        let mut want_masked = y0.clone();
        simd::add_assign_masked_with(SimdLevel::Scalar, &mut want_masked, &x, &mask);
        let mut want_diff = vec![0.0f32; len];
        simd::add_diff_masked_with(SimdLevel::Scalar, &mut want_diff, &x, &y0, &mask);
        for i in (0..len).step_by(3) {
            assert_eq!(want_masked[i].to_bits(), y0[i].to_bits(), "unselected lane {i} of {len} held, -0.0 included");
            assert_eq!(want_diff[i].to_bits(), 0, "unselected lane {i} of {len} stays +0.0 past inf and NaN");
        }

        for level in supported_levels() {
            let mut got = y0.clone();
            simd::axpy_with(level, &mut got, 0.75, &x);
            assert_bits_eq(&got, &want_axpy, &format!("axpy len={len} {level:?}"));
            let mut got = vec![0.0f32; len];
            simd::relu_fwd_with(level, &x, &mut got);
            assert_bits_eq(&got, &want_relu, &format!("relu_fwd len={len} {level:?}"));
            let mut got = y0.clone();
            let mut grad = x.clone();
            simd::sgd_step_with(level, &mut got, &mut grad, 0.1, 0.01);
            assert_bits_eq(&got, &want_sgd, &format!("sgd_step len={len} {level:?}"));
            assert_bits_eq(&grad, &want_grad, &format!("sgd_step grad len={len} {level:?}"));
            let mut got = y0.clone();
            simd::add_assign_masked_with(level, &mut got, &x, &mask);
            assert_bits_eq(&got, &want_masked, &format!("add_assign_masked len={len} {level:?}"));
            let mut got = vec![0.0f32; len];
            simd::add_diff_masked_with(level, &mut got, &x, &y0, &mask);
            assert_bits_eq(&got, &want_diff, &format!("add_diff_masked len={len} {level:?}"));
        }
    }
}

#[test]
fn signed_zero_semantics_match_reference() {
    // (-0.0) * x accumulated from +0.0 keeps IEEE signed-zero behaviour
    // identical between reference and blocked kernels.
    let (m, k, n) = (4, 3, 4);
    let a = vec![-0.0f32; m * k];
    let b = filled(k * n, 99, false);
    let want = reference::matmul(&a, &b, m, k, n);
    let mut out = vec![f32::NAN; m * n];
    matmul_into(&a, &b, &mut out, m, k, n).expect("matmul_into");
    assert_bits_eq(&out, &want, "signed zero");
}
