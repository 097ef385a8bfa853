//! Rank-2 matrix multiplication kernels.
//!
//! Three variants are provided so the NN layers never have to materialize a
//! transposed copy: `C = A·B`, `C = Aᵀ·B`, and `C = A·Bᵀ`. Each comes in a
//! [`Tensor`] form and a slice `_into` form that writes into a
//! caller-provided buffer (so hot loops can reuse scratch storage).
//!
//! ## Execution strategy
//!
//! All variants run cache-blocked micro-kernels over blocks of output rows
//! ([`MC`] rows at a time, with the shared dimension additionally tiled by
//! [`KC`] in the ikj kernel), serially on the calling thread. Inside each row
//! block the inner loops run on the runtime-selected SIMD lanes from
//! [`crate::simd`], vectorizing across output columns only. `A·B` and `Aᵀ·B`
//! are one register-blocked ikj kernel: it broadcasts every `A` scalar, so it
//! reads row `i` of `Aᵀ` down column `i` of the stored `A` (stride `m`) at no
//! cost and with no transposed copy; `A·Bᵀ` runs dot-product rows, four,
//! then two, then one at a time.
//!
//! A row (or column strip) at least one register wide whose width the
//! register does not divide ends with one more register block ending at
//! its last column, overlapping the block before: `A·Bᵀ` overwrites the
//! shared outputs with the same dot chains, and the accumulating ikj kernel
//! stores only its tail lanes, writing the others back as it loaded them.
//! Only rows narrower than a register run the scalar remainder loop.
//!
//! ## Determinism contract
//!
//! For every output element `(i, j)` the kernels perform exactly one
//! `c += a·b` accumulation per index `p` of the shared dimension, in
//! ascending `p` order, starting from `+0.0` — the same sequence as the naive serial
//! kernels in [`reference`]. Row blocking and `k`-tiling both preserve that
//! per-element order, so outputs are bit-identical to the reference
//! (including signed zeros; NaN payloads per DESIGN.md §10.1). No sparsity
//! shortcuts are taken: a zero operand still multiplies, so NaN/inf propagate
//! per IEEE 754 and the `FEDSU_CHECK_INVARIANTS` guards can observe them.

use crate::simd::TileLayout;
use crate::{simd, Result, Tensor, TensorError};
use std::ops::Range;

/// Rows of output processed per cache block.
const MC: usize = 64;

/// Tile length along the shared `k` dimension in the ikj kernel: one tile of
/// `B` (`KC × n` scalars) stays cache-hot across a whole row block.
const KC: usize = 256;

/// Column-strip width in the ikj kernel: the innermost row loop reuses one
/// `KC × NC` window of `B` (64 KiB at `f32`) across the whole row block, so
/// wide outputs stop re-streaming the full `B` tile once per row.
const NC: usize = 64;

/// Which of the three kernels a dispatch runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// `C = A·B` with `A: [m, k]`, `B: [k, n]`.
    Nn,
    /// `C = Aᵀ·B` with `A: [k, m]`, `B: [k, n]`.
    TransposeA,
    /// `C = A·Bᵀ` with `A: [m, k]`, `B: [n, k]`.
    TransposeB,
}

impl Kind {
    fn op(self) -> &'static str {
        match self {
            Kind::Nn => "matmul",
            Kind::TransposeA => "matmul_transpose_a",
            Kind::TransposeB => "matmul_transpose_b",
        }
    }
}

fn check_rank2(t: &Tensor, op: &'static str) -> Result<(usize, usize)> {
    match t.shape() {
        &[rows, cols] => Ok((rows, cols)),
        _ => Err(TensorError::RankMismatch { expected: 2, actual: t.rank(), op }),
    }
}

fn check_len(buf: &[f32], rows: usize, cols: usize) -> Result<()> {
    if rows.checked_mul(cols) != Some(buf.len()) {
        return Err(TensorError::new_length_mismatch(buf.len(), &[rows, cols]));
    }
    Ok(())
}

/// ikj micro-kernel for `C = A·B` (`A` stored `[m, k]`: `layout` is
/// `{ row: k, step: 1 }`) or `C = Aᵀ·B` (`A` stored `[k, m]`: `{ row: 1,
/// step: m }`) over output rows `rows`: `out` holds exactly those rows
/// (`rows.len() × n`), pre-zeroed by the caller.
///
/// Inside each `k`-tile the columns are additionally walked in [`NC`]-wide
/// strips, innermost over the block's rows, so one narrow window of the `B`
/// tile (`KC × NC` scalars) stays L1-resident across all [`MC`] output rows
/// instead of the whole `KC × n` tile streaming through the cache once per
/// row. Strip order is a pure loop interchange over independent output
/// elements: each `c[i][j]` still receives its `+= a·b` updates in ascending
/// `p` order, so bit-identity with the reference is unaffected.
fn block_ikj(a: &[f32], b: &[f32], rows: Range<usize>, out: &mut [f32], layout: TileLayout, k: usize, n: usize) {
    if k == 0 || n == 0 || rows.is_empty() {
        return;
    }
    let level = simd::simd_level();
    for pb in (0..k).step_by(KC) {
        let pe = (pb + KC).min(k);
        let b_tile = b.get(pb * n..pe * n).unwrap_or(&[]);
        // The block's first row's tile starts here; the strip kernel finds
        // the others `layout.row` apart and pairs rows from the block's
        // first one (blocks are MC-aligned and MC is even).
        let a_block = a.get(rows.start * layout.row + pb * layout.step..).unwrap_or(&[]);
        for jb in (0..n).step_by(NC) {
            simd::nn_strip_with(level, out, a_block, layout, b_tile, n, jb..(jb + NC).min(n));
        }
    }
}

/// Dot-product micro-kernel for `C = A·Bᵀ` over output rows `rows`; each
/// element is one sequential dot in ascending `p` order. The row block keeps
/// a small set of `A` rows hot while `B` streams through once per four rows.
/// A block of at least four rows whose count four does not divide ends with
/// one more four-row call over its last four rows: the rows it shares with
/// the call before are overwritten with the same chains, bit for bit.
fn block_tb(a: &[f32], b: &[f32], rows: Range<usize>, out: &mut [f32], k: usize, n: usize) {
    if n == 0 || rows.is_empty() {
        return;
    }
    if k == 0 {
        // Every dot product is empty; the pre-zeroed output is the answer.
        return;
    }
    let level = simd::simd_level();
    let a_rows = a.get(rows.start * k..rows.end * k).unwrap_or(&[]);
    // Four rows share each transposed window of B. Grouping starts at the
    // block's first row (blocks are MC-aligned and MC is a multiple of four).
    for (a4, c4) in a_rows.chunks_exact(4 * k).zip(out.chunks_exact_mut(4 * n)) {
        simd::tb_row4_with(level, c4, a4, b, k);
    }
    // The block's last `m mod 4` rows: a pair, then an odd last row.
    let whole = rows.len() / 4 * 4;
    let (Some(a_rest), Some(c_rest)) = (a_rows.get(whole * k..), out.get_mut(whole * n..)) else { return };
    let mut a_pair = a_rest.chunks_exact(2 * k);
    let mut c_pair = c_rest.chunks_exact_mut(2 * n);
    for (a2, c2) in (&mut a_pair).zip(&mut c_pair) {
        simd::tb_row2_with(level, c2, a2, b, k);
    }
    if let (Some(a_row), Some(c_row)) = (a_pair.remainder().get(..k), c_pair.into_remainder().get_mut(..n)) {
        simd::tb_row_with(level, c_row, a_row, b, k);
    }
}

/// Runs the blocked kernel over all `m` output rows, [`MC`] rows at a time;
/// `out` is `m × n`, pre-zeroed.
fn run_rows(kind: Kind, a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    if out.is_empty() {
        return;
    }
    for (bi, block) in out.chunks_mut(MC * n).enumerate() {
        let start = bi * MC;
        let rows = start..m.min(start + MC);
        match kind {
            Kind::Nn => block_ikj(a, b, rows, block, TileLayout { row: k, step: 1 }, k, n),
            Kind::TransposeA => block_ikj(a, b, rows, block, TileLayout { row: 1, step: m }, k, n),
            Kind::TransposeB => block_tb(a, b, rows, block, k, n),
        }
    }
}

fn run_into(kind: Kind, a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    out.fill(0.0);
    run_rows(kind, a, b, out, m, k, n);
    crate::invariant::check_op_output(kind.op(), &[a, b], out);
}

/// Computes `C = A · B` on raw row-major slices, `A: [m, k]`, `B: [k, n]`,
/// overwriting `out: [m, n]`. Bit-identical to [`reference::matmul`]
/// modulo NaN payload.
///
/// # Errors
///
/// Returns [`TensorError::LengthMismatch`] when a buffer length disagrees
/// with its stated shape.
pub fn matmul_into(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) -> Result<()> {
    check_len(a, m, k)?;
    check_len(b, k, n)?;
    check_len(out, m, n)?;
    run_into(Kind::Nn, a, b, out, m, k, n);
    Ok(())
}

/// Computes `C = Aᵀ · B` on raw row-major slices, `A: [k, m]`, `B: [k, n]`,
/// overwriting `out: [m, n]`. Bit-identical to
/// [`reference::matmul_transpose_a`] modulo NaN payload.
///
/// # Errors
///
/// Returns [`TensorError::LengthMismatch`] when a buffer length disagrees
/// with its stated shape.
pub fn matmul_transpose_a_into(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    k: usize,
    m: usize,
    n: usize,
) -> Result<()> {
    check_len(a, k, m)?;
    check_len(b, k, n)?;
    check_len(out, m, n)?;
    run_into(Kind::TransposeA, a, b, out, m, k, n);
    Ok(())
}

/// Computes `C = A · Bᵀ` on raw row-major slices, `A: [m, k]`, `B: [n, k]`,
/// overwriting `out: [m, n]`. Bit-identical to
/// [`reference::matmul_transpose_b`] modulo NaN payload.
///
/// # Errors
///
/// Returns [`TensorError::LengthMismatch`] when a buffer length disagrees
/// with its stated shape.
pub fn matmul_transpose_b_into(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) -> Result<()> {
    check_len(a, m, k)?;
    check_len(b, n, k)?;
    check_len(out, m, n)?;
    run_into(Kind::TransposeB, a, b, out, m, k, n);
    Ok(())
}

/// Computes `C = A · B` for rank-2 tensors, `A: [m, k]`, `B: [k, n]`.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] for non-rank-2 inputs and
/// [`TensorError::ShapeMismatch`] when inner dimensions disagree.
pub fn matmul(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let (m, ka) = check_rank2(a, "matmul")?;
    let (kb, n) = check_rank2(b, "matmul")?;
    if ka != kb {
        return Err(TensorError::new_shape_mismatch(a.shape(), b.shape(), "matmul"));
    }
    let mut out = Tensor::zeros(&[m, n]);
    matmul_into(a.data(), b.data(), out.data_mut(), m, ka, n)?;
    Ok(out)
}

/// Computes `C = Aᵀ · B`, with `A: [k, m]`, `B: [k, n]`, producing `[m, n]`.
///
/// # Errors
///
/// Same error conditions as [`matmul`].
pub fn matmul_transpose_a(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let (ka, m) = check_rank2(a, "matmul_transpose_a")?;
    let (kb, n) = check_rank2(b, "matmul_transpose_a")?;
    if ka != kb {
        return Err(TensorError::new_shape_mismatch(a.shape(), b.shape(), "matmul_transpose_a"));
    }
    let mut out = Tensor::zeros(&[m, n]);
    matmul_transpose_a_into(a.data(), b.data(), out.data_mut(), ka, m, n)?;
    Ok(out)
}

/// Computes `C = A · Bᵀ`, with `A: [m, k]`, `B: [n, k]`, producing `[m, n]`.
///
/// # Errors
///
/// Same error conditions as [`matmul`].
pub fn matmul_transpose_b(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let (m, ka) = check_rank2(a, "matmul_transpose_b")?;
    let (n, kb) = check_rank2(b, "matmul_transpose_b")?;
    if ka != kb {
        return Err(TensorError::new_shape_mismatch(a.shape(), b.shape(), "matmul_transpose_b"));
    }
    let mut out = Tensor::zeros(&[m, n]);
    matmul_transpose_b_into(a.data(), b.data(), out.data_mut(), m, ka, n)?;
    Ok(out)
}

/// Naive single-threaded reference kernels: the semantic ground truth the
/// blocked kernels must match bit-for-bit. Used by the
/// bit-identity tests and the kernel benchmark harness; never by the
/// runtime.
///
/// Buffer lengths must agree with the stated shapes; short buffers simply
/// truncate the iteration (the production entry points validate lengths
/// before ever reaching a kernel).
pub mod reference {
    /// `C = A·B` with `A: [m, k]`, `B: [k, n]`, in the canonical ikj order:
    /// each element accumulates `a[i][p] * b[p][j]` for ascending `p` from
    /// `+0.0`.
    pub fn matmul(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; m * n];
        if k == 0 || n == 0 {
            return out;
        }
        for (a_row, c_row) in a.chunks_exact(k).zip(out.chunks_exact_mut(n)) {
            for (&av, b_row) in a_row.iter().zip(b.chunks_exact(n)) {
                for (c, &bv) in c_row.iter_mut().zip(b_row.iter()) {
                    *c += av * bv;
                }
            }
        }
        out
    }

    /// `C = Aᵀ·B` with `A: [k, m]`, `B: [k, n]`: each element accumulates
    /// `a[p][i] * b[p][j]` for ascending `p` from `+0.0`.
    pub fn matmul_transpose_a(a: &[f32], b: &[f32], k: usize, m: usize, n: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; m * n];
        if m == 0 || n == 0 || k == 0 {
            return out;
        }
        for (a_row, b_row) in a.chunks_exact(m).zip(b.chunks_exact(n)) {
            for (&av, c_row) in a_row.iter().zip(out.chunks_exact_mut(n)) {
                for (c, &bv) in c_row.iter_mut().zip(b_row.iter()) {
                    *c += av * bv;
                }
            }
        }
        out
    }

    /// `C = A·Bᵀ` with `A: [m, k]`, `B: [n, k]`: each element is one
    /// sequential dot product in ascending `p` order from `+0.0`.
    pub fn matmul_transpose_b(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; m * n];
        if k == 0 || n == 0 {
            return out;
        }
        for (a_row, c_row) in a.chunks_exact(k).zip(out.chunks_exact_mut(n)) {
            for (c, b_row) in c_row.iter_mut().zip(b.chunks_exact(k)) {
                let mut acc = 0.0f32;
                for (&av, &bv) in a_row.iter().zip(b_row.iter()) {
                    acc += av * bv;
                }
                *c = acc;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(data: &[f32], shape: &[usize]) -> Tensor {
        Tensor::from_vec(data.to_vec(), shape).unwrap()
    }

    #[test]
    fn matmul_small_known_values() {
        // [[1,2],[3,4]] * [[5,6],[7,8]] = [[19,22],[43,50]]
        let a = t(&[1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = t(&[5.0, 6.0, 7.0, 8.0], &[2, 2]);
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_rectangular() {
        let a = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let b = t(&[7.0, 8.0, 9.0, 10.0, 11.0, 12.0], &[3, 2]);
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.shape(), &[2, 2]);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn transpose_variants_match_explicit_transpose() {
        let a = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]); // 2x3
        let b = t(&[1.0, 0.5, -1.0, 2.0, 0.0, 3.0], &[2, 3]); // 2x3

        // Aᵀ(3x2) · B(2x3) -> 3x3
        let c1 = matmul_transpose_a(&a, &b).unwrap();
        assert_eq!(c1.shape(), &[3, 3]);
        // hand transpose
        let at = t(&[1.0, 4.0, 2.0, 5.0, 3.0, 6.0], &[3, 2]);
        let c1_ref = matmul(&at, &b).unwrap();
        assert_eq!(c1.data(), c1_ref.data());

        // A(2x3) · Bᵀ(3x2) -> 2x2
        let c2 = matmul_transpose_b(&a, &b).unwrap();
        let bt = t(&[1.0, 2.0, 0.5, 0.0, -1.0, 3.0], &[3, 2]);
        let c2_ref = matmul(&a, &bt).unwrap();
        assert_eq!(c2.data(), c2_ref.data());
    }

    #[test]
    fn mismatched_inner_dims_error() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[4, 2]);
        assert!(matmul(&a, &b).is_err());
        assert!(matmul_transpose_a(&a, &b).is_err());
        let b2 = Tensor::zeros(&[2, 4]);
        assert!(matmul_transpose_b(&a, &b2).is_err());
    }

    #[test]
    fn rank_checked() {
        let a = Tensor::zeros(&[6]);
        let b = Tensor::zeros(&[2, 3]);
        assert!(matches!(matmul(&a, &b), Err(crate::TensorError::RankMismatch { .. })));
    }

    #[test]
    fn identity_is_neutral() {
        let a = t(&[1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let i = t(&[1.0, 0.0, 0.0, 1.0], &[2, 2]);
        assert_eq!(matmul(&a, &i).unwrap().data(), a.data());
        assert_eq!(matmul(&i, &a).unwrap().data(), a.data());
    }

    #[test]
    fn into_variants_validate_lengths() {
        let mut out = vec![0.0f32; 4];
        assert!(matmul_into(&[0.0; 3], &[0.0; 4], &mut out, 2, 2, 2).is_err());
        assert!(matmul_into(&[0.0; 4], &[0.0; 3], &mut out, 2, 2, 2).is_err());
        let mut short = vec![0.0f32; 3];
        assert!(matmul_into(&[0.0; 4], &[0.0; 4], &mut short, 2, 2, 2).is_err());
        assert!(matmul_transpose_a_into(&[0.0; 3], &[0.0; 4], &mut out, 2, 2, 2).is_err());
        assert!(matmul_transpose_b_into(&[0.0; 3], &[0.0; 4], &mut out, 2, 2, 2).is_err());
        // 2^63 · 2 wraps to 0, the length of an empty buffer: the shape
        // product must be checked, not wrapped (or, in this profile, panic).
        let half = usize::MAX / 2 + 1;
        assert!(matches!(matmul_into(&[], &[], &mut [], half, 2, 0), Err(TensorError::LengthMismatch { .. })));
    }

    #[test]
    fn into_variants_overwrite_stale_output() {
        let a = [1.0f32, 0.0, 0.0, 1.0];
        let b = [3.0f32, 4.0, 5.0, 6.0];
        let mut out = vec![f32::NAN; 4];
        matmul_into(&a, &b, &mut out, 2, 2, 2).unwrap();
        assert_eq!(out, b);
    }

    /// The NaN-propagation regression: the old kernels skipped `av == 0.0`
    /// multiplications as a sparsity shortcut, which silently suppressed
    /// IEEE propagation — a zero row in `A` masked a NaN planted in `B`.
    /// IEEE 754 requires `0.0 × NaN = NaN`.
    #[test]
    fn zero_row_in_a_does_not_mask_nan_in_b() {
        // Row 0 of A is all zeros; B carries a NaN in row 0.
        let a = t(&[0.0, 0.0, 1.0, 1.0], &[2, 2]);
        let b = t(&[f32::NAN, 5.0, 6.0, 7.0], &[2, 2]);
        let c = matmul(&a, &b).unwrap();
        let got = c.data().first().copied().unwrap_or(0.0);
        assert!(got.is_nan(), "0·NaN must propagate, got {got}");
        // The unaffected column keeps its ordinary value: 0·5 + 0·7 = 0.
        assert_eq!(c.data().get(1).copied(), Some(0.0));
    }

    #[test]
    fn zero_column_in_a_does_not_mask_nan_in_b_transpose_a() {
        // Column 0 of A (= row 0 of Aᵀ) is all zeros; B carries a NaN.
        let a = t(&[0.0, 1.0, 0.0, 1.0], &[2, 2]); // A: [k=2, m=2]
        let b = t(&[f32::NAN, 5.0, 6.0, 7.0], &[2, 2]);
        let c = matmul_transpose_a(&a, &b).unwrap();
        let got = c.data().first().copied().unwrap_or(0.0);
        assert!(got.is_nan(), "0·NaN must propagate through Aᵀ·B, got {got}");
    }

    #[test]
    fn zero_times_infinity_is_nan_not_zero() {
        let a = t(&[0.0, 0.0], &[1, 2]);
        let b = t(&[f32::INFINITY, 1.0], &[2, 1]);
        let c = matmul(&a, &b).unwrap();
        let got = c.data().first().copied().unwrap_or(0.0);
        assert!(got.is_nan(), "0·inf must yield NaN, got {got}");
    }
}
