//! Runtime-dispatched SIMD inner loops for the hot kernels.
//!
//! This module is the single place in the workspace that touches
//! `std::arch` intrinsics. It provides `f32x8`-style vector lanes (AVX2)
//! and a scalar fallback, selected **once per process** from the host CPU
//! via `is_x86_feature_detected!` and overridable for testing:
//!
//! * `FEDSU_SIMD=off|scalar|avx2` — environment override, consulted on
//!   first use and clamped to what the hardware actually supports; any
//!   other value means auto.
//! * [`set_simd_level`] — in-process override (also clamped), so tests can
//!   sweep every level.
//!
//! ## Bit-identity contract (DESIGN.md §10.1)
//!
//! Every vectorized loop in this module vectorizes **across output
//! elements**, never across a single element's reduction: lane `j` of a
//! vector always holds the one value that the scalar code would compute for
//! output element `j`, and each output element keeps exactly one ascending
//! accumulation chain starting from `+0.0`. Multiplies and adds are issued
//! as separate instructions (`mul` then `add`, never a fused
//! multiply-add), matching Rust's scalar semantics, which never contract
//! `a + b * c` into an FMA. Branches become branchless compare+select
//! (`cmp` + `and`/`andnot`) only where the scalar path is itself written as
//! the equivalent compare+select, so NaN payloads and signed zeros travel
//! identically.
//!
//! The resulting guarantee has three tiers (DESIGN.md §10.1 spells out the
//! full contract):
//!
//! 1. **Strict per level, on any thread.** At a fixed SIMD level, outputs
//!    are bit-for-bit identical (NaN payloads included) whichever thread
//!    calls: a kernel call runs serially on its caller's thread and every
//!    element goes through the same compiled kernel instance, so
//!    `fedsu-fl`'s client fan-out width decides which thread trains a
//!    client, never what it computes.
//! 2. **Modulo NaN payload, across levels.** Between `scalar` and `avx2`
//!    (and against the naive `reference::` loops) every finite value,
//!    signed zero, and infinity is bit-identical; only the *payload* of a
//!    NaN may differ, and only when an add sees **two** NaN operands
//!    (e.g. a planted-NaN accumulator plus an `inf·0` product). IEEE 754
//!    lets `NaN + NaN` return either payload, and LLVM commutes the
//!    operands of an `fadd` independently per compiled loop instance — the
//!    payload is deterministic for a given level but not portable between
//!    differently compiled instances, so the contract scopes that freedom
//!    instead of pretending to remove it.
//! 3. **Strict even across levels** for kernels whose accumulation chains
//!    span multiple kernel calls with shifting vector/remainder splits
//!    (conv's col2im scatter, and the direct input gradient's adds): those
//!    use the NaN-*holding* add (`if !y.is_nan() { y += x }`, vectorized
//!    as an unordered-compare blend), which never performs a double-NaN
//!    add and is therefore exact at every level.
//!
//! The canonical scalar loops below are `#[inline(never)]` so each has one
//! compiled instance: per level the payload choice is frozen, which is what
//! makes tier 1 strict rather than merely modulo-NaN.
//!
//! ## Safety contract (`unsafe` waiver)
//!
//! `unsafe_code` is denied workspace-wide; this module carries the one
//! reviewed `#![allow]`. The waiver is kept narrow by construction:
//!
//! * Each vector kernel is one generic body over the private `Lanes`
//!   register trait. Raw-pointer loads and stores exist in exactly two
//!   places, the `load`/`store` methods of `impl Lanes for __m256`, and
//!   each checks that its slice is exactly one register long before
//!   touching it. Kernel bodies hand them subslices
//!   carved by `chunks_exact`/`chunks_exact_mut`/`split_at`(`_mut`) or a
//!   checked `get` (so the check folds away) and never index — there is no
//!   pointer arithmetic anywhere.
//! * What is left of `unsafe` is one precondition, "this instruction set is
//!   present". The only `#[target_feature]` functions are the one-call
//!   wrappers the `kernels!` table emits, one per row, reachable only
//!   through that row's `match level`: the `Avx2` arm runs only when
//!   [`hardware_simd_level`] has observed the feature, and every override is
//!   clamped to that detected capability.
//! * Remainder lanes fall back to plain safe scalar code, except in the
//!   matmul micro-kernels: there a row at least one register wide ends with
//!   one more register block whose last lane is the row's last column
//!   (DESIGN.md §10.1, "Tails"), and only narrower rows run the scalar loop.
//!
//! ## Adding a kernel
//!
//! 1. The ground truth: an `#[inline(never)]` loop in `mod scalar`.
//! 2. One `#[inline(always)] unsafe fn name<V: Lanes>` body in `mod x86`:
//!    chunk by `V::N`, keep the scalar loop's operand order
//!    (`acc.fadd(a.fmul(b))`, never fused), give the remainder to `scalar::name`.
//! 3. One row in the `kernels!` table — it emits the AVX2 wrapper and the
//!    `name_with` dispatcher — and a unit test against `scalar::name`.
#![allow(unsafe_code)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Vector width the dispatched kernels run at.
///
/// Ordered by capability: `Scalar < Avx2`, so levels can be clamped with
/// `min` against the detected hardware ceiling. The discriminant is the
/// level's number in reports (`0` scalar, `2` AVX2); `1` was the retired
/// 128-bit tier and stays unused so that the numbering does not move.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SimdLevel {
    /// Plain scalar loops — the semantic ground truth.
    Scalar = 0,
    /// 256-bit `f32x8` lanes.
    Avx2 = 2,
}

impl SimdLevel {
    /// Stable lowercase name (used by `FEDSU_SIMD` and the bench JSON).
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Avx2 => "avx2",
        }
    }

    fn index(self) -> usize {
        self as usize
    }

    fn from_index(i: usize) -> SimdLevel {
        if i == SimdLevel::Avx2.index() {
            SimdLevel::Avx2
        } else {
            SimdLevel::Scalar
        }
    }
}

/// Sentinel meaning "no in-process override": the environment-resolved
/// default applies.
const OVERRIDE_UNSET: usize = usize::MAX;

static OVERRIDE: AtomicUsize = AtomicUsize::new(OVERRIDE_UNSET);
static HARDWARE: OnceLock<SimdLevel> = OnceLock::new();
static DEFAULT: OnceLock<SimdLevel> = OnceLock::new();

fn detect_hardware() -> SimdLevel {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            return SimdLevel::Avx2;
        }
    }
    SimdLevel::Scalar
}

/// The widest level this CPU supports (detected once, then cached).
pub fn hardware_simd_level() -> SimdLevel {
    *HARDWARE.get_or_init(detect_hardware)
}

/// Parses a `FEDSU_SIMD` value; unrecognized or absent means "auto"
/// (hardware maximum).
fn parse_env(value: Option<&str>) -> Option<SimdLevel> {
    let v = value?.trim();
    if v.eq_ignore_ascii_case("off") || v.eq_ignore_ascii_case("scalar") {
        Some(SimdLevel::Scalar)
    } else if v.eq_ignore_ascii_case("avx2") {
        Some(SimdLevel::Avx2)
    } else {
        None
    }
}

fn default_level() -> SimdLevel {
    *DEFAULT.get_or_init(|| {
        let hw = hardware_simd_level();
        parse_env(std::env::var("FEDSU_SIMD").ok().as_deref()).map_or(hw, |l| l.min(hw))
    })
}

/// The level the dispatched operations currently run at.
///
/// Resolution order: the [`set_simd_level`] override if one was installed,
/// else the `FEDSU_SIMD` environment selection (consulted once, on first
/// use), else the hardware maximum. The result never exceeds
/// [`hardware_simd_level`].
pub fn simd_level() -> SimdLevel {
    match OVERRIDE.load(Ordering::SeqCst) {
        OVERRIDE_UNSET => default_level(),
        i => SimdLevel::from_index(i),
    }
}

/// Forces the dispatch level for this process, clamped to the detected
/// hardware capability (requesting `Avx2` on a machine without AVX2
/// installs `Scalar`).
///
/// Levels agree bit-for-bit on all finite/±0/±inf outputs (and modulo
/// NaN payload otherwise — see the module docs), so changing this at any
/// point affects speed, not results. Tests use it to sweep every level in
/// one process.
pub fn set_simd_level(level: SimdLevel) {
    OVERRIDE.store(level.min(hardware_simd_level()).index(), Ordering::SeqCst);
}

/// A cleared lane of a mask row: no bit set (`+0.0`).
pub const LANE_OFF: f32 = 0.0;
/// A set lane of a mask row: every bit set. As a float this is a NaN, so
/// compare lanes with `to_bits`; the masked kernels only ever `and` /
/// `select` with it.
pub const LANE_ON: f32 = f32::from_bits(u32::MAX);

/// Where [`sweep_chunks_with`] saturates a chunk's observation count: the
/// width of the count in FedSU's join image.
const OBSERVED_MAX: f32 = u16::MAX as f32;

/// Where an ikj strip ([`nn_strip_with`]) finds its rows' `k`-tiles of the
/// left operand: row `r`'s scalar `p` is `a[r·row + p·step]`. `A·B` reads
/// stretches of the rows of `A` (`row: k, step: 1`); `Aᵀ·B` reads stretches
/// of the columns of the stored `[k, m]` operand (`row: 1, step: m`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileLayout {
    /// Distance between the first scalars of consecutive rows' tiles.
    pub row: usize,
    /// Distance between consecutive scalars of one row's tile.
    pub step: usize,
}

impl TileLayout {
    /// Row `r`'s tile of `len > 0` scalars, as the stored slice from its
    /// first scalar to its last.
    fn tile(self, a: &[f32], r: usize, len: usize) -> &[f32] {
        let start = r * self.row;
        a.get(start..=start + (len - 1) * self.step).unwrap_or(&[])
    }
}

/// The rows one [`sweep_chunks_with`] call reads and writes: FedSU's
/// per-scalar values (`global` to `sum`, one lane per scalar) and its
/// per-chunk decision state (`remaining` to `magnitude`, one lane per
/// chunk). The counters hold small non-negative integers, exact in `f32`.
#[derive(Debug)]
pub struct SweepRows<'a> {
    /// The global model; rewritten off the mask.
    pub global: &'a mut [f32],
    /// Each scalar's last regular update; rewritten off the mask.
    pub prev_update: &'a mut [f32],
    /// The selected clients' sum.
    pub sum: &'a [f32],
    /// Rounds left in each chunk's no-checking period; positive exactly
    /// while the chunk speculates (is on the predictability mask).
    pub remaining: &'a mut [f32],
    /// Updates observed since the chunk last entered regular updating,
    /// saturating at `u16::MAX`.
    pub observed: &'a mut [f32],
    /// EMA of the chunk's mean second difference.
    pub signed: &'a mut [f32],
    /// EMA of that difference's magnitude.
    pub magnitude: &'a mut [f32],
}

/// The constants of one [`sweep_chunks_with`] call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepRule {
    /// Scalars per chunk; the last chunk may be short.
    pub chunk: usize,
    /// `1 / |selected|`: a regular scalar's new value is `sum·inv`.
    pub inv: f32,
    /// EMA decay `θ`.
    pub theta: f32,
    /// Observations a chunk needs before it may enter speculation.
    pub warmup: f32,
    /// Pre-filter of the entry test: a chunk whose new EMA pair clears both
    /// magnitude guards and has `|signed| > magnitude·ratio_bound` is not
    /// flagged. `+inf` flags every chunk past its warm-up.
    pub ratio_bound: f32,
}

/// The lanes of the widest register: the direct convolution kernels size
/// their rows and scratch in multiples of it at every level.
const REGISTER: usize = 8;

/// The geometry of one sample of a stride-1 "same" convolution (odd
/// `kernel`, padding `(kernel − 1) / 2`, output as large as the input), and
/// the layouts its direct kernels ([`conv_fwd_with`], [`conv_dx_with`],
/// [`conv_dw_with`]) read and write. All of them run in a *padded frame* of
/// [`width`](Self::width) columns, the image's `in_w` plus `kernel − 1`:
///
/// * a **padded plane** ([`plane`](Self::plane) scalars) holds pixel
///   `(y, x)` of a channel at `(y + p)·width + x + p`, and `+0.0` at every
///   other position;
/// * a **row** ([`lanes`](Self::lanes) scalars) holds output position
///   `(oy, ox)` of a channel at `oy·width + ox`; the `kernel − 1` positions
///   after each image row (and those past the last one) are gaps.
///
/// In that frame tap `t = (c, ky, kx)` of output position `q` reads padded
/// position `q + c·plane + ky·width + kx`, for every `q` and tap alike — an
/// out-of-image tap reads the `+0.0` that `im2col` writes there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SameConv {
    /// Input channels.
    pub in_channels: usize,
    /// Output channels.
    pub out_channels: usize,
    /// Square kernel size (odd).
    pub kernel: usize,
    /// Image (and output) height.
    pub in_h: usize,
    /// Image (and output) width.
    pub in_w: usize,
}

impl SameConv {
    /// Columns of the padded frame: `in_w + kernel − 1`.
    pub fn width(&self) -> usize {
        self.in_w + self.kernel.saturating_sub(1)
    }

    /// Scalars of one row: the frame's output positions rounded up to a
    /// register, and one register more, so that every register a kernel
    /// loads or stores lies inside it.
    pub fn lanes(&self) -> usize {
        (self.in_h * self.width()).next_multiple_of(REGISTER) + REGISTER
    }

    /// Scalars of one padded plane: a row, and the farthest tap offset
    /// `(kernel − 1)·(width + 1)` past it.
    pub fn plane(&self) -> usize {
        self.lanes() + self.kernel.saturating_sub(1) * (self.width() + 1)
    }

    /// Scalars of the transposed-`dY` scratch of [`conv_dw_with`]: one
    /// register-rounded row of output channels per output position.
    pub fn dyt_len(&self) -> usize {
        self.in_h * self.in_w * self.out_channels.next_multiple_of(REGISTER)
    }

    /// Scalars of the tap scratch of [`conv_dx_with`]: a lane mask and one
    /// row per kernel column.
    pub fn taps_len(&self) -> usize {
        (self.kernel + 1) * self.lanes()
    }

    /// Weights per output channel: `in_channels · kernel²`.
    pub fn fan_in(&self) -> usize {
        self.in_channels * self.kernel * self.kernel
    }

    /// Whether some dimension is zero: the kernels then do nothing.
    fn is_empty(&self) -> bool {
        self.in_channels == 0 || self.out_channels == 0 || self.kernel == 0 || self.in_h == 0 || self.in_w == 0
    }

    /// Offset of tap `t = (c, ky, kx)` (flat, ascending) in the padded
    /// planes, relative to the output position reading it.
    fn tap_offset(&self, t: usize) -> usize {
        let k = self.kernel.max(1);
        let (c, ky, kx) = (t / (k * k), t / k % k, t % k);
        c * self.plane() + ky * self.width() + kx
    }

    /// The `n`-lane registers a vector kernel computes a row in (see
    /// [`Registers`]).
    #[cfg(target_arch = "x86_64")]
    fn registers(&self, n: usize) -> Registers {
        let (pw, w) = (self.width(), self.in_w);
        let by_rows = self.in_h * w.div_ceil(n) <= (self.in_h * pw).div_ceil(n);
        let (rows, stride, len) = if by_rows { (self.in_h, pw, w) } else { (1, 0, self.in_h * pw) };
        Registers { n, row: 0, x: 0, rows, stride, len, out: (by_rows && w >= n).then_some(w) }
    }
}

/// The `n`-lane registers a vector kernel computes a row of [`SameConv`]'s
/// frame in, covering every output position: per image row, its registers
/// (the last one ending at the row's end, overlapping the one before), or
/// along the whole row of the frame when that takes fewer registers (planes
/// narrower than a register). Each is its first position in the frame, and
/// its first output index (`oy·in_w + ox`) when it lies inside one image
/// row. A register may cover gaps; a position two registers cover gets the
/// same value twice.
#[cfg(target_arch = "x86_64")]
#[derive(Debug, Clone, Copy)]
struct Registers {
    n: usize,
    /// The next register's row and column.
    row: usize,
    x: usize,
    rows: usize,
    /// Frame positions per row (`0` along the whole frame row).
    stride: usize,
    /// Positions per row.
    len: usize,
    /// The output row length, when every register lies in one image row.
    out: Option<usize>,
}

#[cfg(target_arch = "x86_64")]
impl Iterator for Registers {
    type Item = (usize, Option<usize>);

    #[inline(always)]
    fn next(&mut self) -> Option<Self::Item> {
        if self.row >= self.rows {
            return None;
        }
        let x = self.x.min(self.len.saturating_sub(self.n));
        let item = (self.row * self.stride + x, self.out.map(|w| self.row * w + x));
        self.x += self.n;
        if self.x >= self.len {
            (self.row, self.x) = (self.row + 1, 0);
        }
        Some(item)
    }
}

// ---------------------------------------------------------------------------
// Scalar ground truth
// ---------------------------------------------------------------------------

/// Scalar implementations: the exact loops the vector paths must reproduce
/// bit-for-bit. Also used verbatim for remainder lanes.
///
/// Every function is `#[inline(never)]` so each loop is compiled **exactly
/// once** in the binary. Were these inlined into the `#[target_feature]`
/// kernels, the compiler would re-instruction-select them under the wider
/// subtarget, where it is free to commute the operands of a commutative
/// `addss`/`mulss` — and x86 NaN propagation follows the *first* operand,
/// so two NaNs competing in one accumulation chain (say an input NaN and a
/// `0·inf` indefinite) could surface different payload bits between the
/// remainder path and the pure-scalar level. One compilation per loop
/// removes that freedom.
mod scalar {
    /// `y[i] += a * x[i]` over the common length.
    #[inline(never)]
    pub(super) fn axpy(y: &mut [f32], a: f32, x: &[f32]) {
        for (y, &x) in y.iter_mut().zip(x.iter()) {
            *y += a * x;
        }
    }

    /// `y[i] += x[i]` over the common length.
    #[inline(never)]
    pub(super) fn add_assign(y: &mut [f32], x: &[f32]) {
        for (y, &x) in y.iter_mut().zip(x.iter()) {
            *y += x;
        }
    }

    /// `y[i] += x[i]` unless `y[i]` is already NaN, in which case it is
    /// held bit-exactly. Used where one element's accumulation chain spans
    /// *several* kernel calls with shifting vector/remainder splits (conv
    /// scatter): holding a NaN accumulator makes the result independent of
    /// which operand order the compiler picks for each add, because an add
    /// then never sees two NaN operands — the only case where x86 `addps`
    /// payload propagation depends on operand order.
    #[inline(never)]
    pub(super) fn scatter_add(y: &mut [f32], x: &[f32]) {
        for (y, &x) in y.iter_mut().zip(x.iter()) {
            if !y.is_nan() {
                *y += x;
            }
        }
    }

    /// `r[i] += l[i] - g[i]` over the common length.
    #[inline(never)]
    pub(super) fn add_diff(r: &mut [f32], l: &[f32], g: &[f32]) {
        for ((r, &l), &g) in r.iter_mut().zip(l.iter()).zip(g.iter()) {
            *r += l - g;
        }
    }

    /// `y[i] = m[i] ? y[i] + x[i] : y[i]`, `m[i]` a lane word
    /// ([`LANE_OFF`](super::LANE_OFF) / [`LANE_ON`](super::LANE_ON)): the
    /// sum is taken everywhere and bits are selected, so an unselected `y`
    /// keeps its exact bits (`-0.0` included, which `y + (x & m)` would
    /// turn into `+0.0`).
    #[inline(never)]
    pub(super) fn add_assign_masked(y: &mut [f32], x: &[f32], m: &[f32]) {
        for ((y, &x), &m) in y.iter_mut().zip(x.iter()).zip(m.iter()) {
            let m = m.to_bits();
            *y = f32::from_bits((m & (*y + x).to_bits()) | (!m & y.to_bits()));
        }
    }

    /// `r[i] += (l[i] - g[i]) & m[i]`, `m[i]` a lane word: an unselected
    /// `r` receives `+0.0` whatever `l` and `g` hold (inf and NaN included).
    #[inline(never)]
    pub(super) fn add_diff_masked(r: &mut [f32], l: &[f32], g: &[f32], m: &[f32]) {
        for (((r, &l), &g), &m) in r.iter_mut().zip(l.iter()).zip(g.iter()).zip(m.iter()) {
            *r += f32::from_bits((l - g).to_bits() & m.to_bits());
        }
    }

    /// `out[i] = |x[i]|` (sign bit cleared; NaN payloads preserved).
    #[inline(never)]
    pub(super) fn abs_into(out: &mut [f32], x: &[f32]) {
        for (o, &v) in out.iter_mut().zip(x.iter()) {
            *o = v.abs();
        }
    }

    /// `out[i] = x[i]` if `x[i] > 0`, else `+0.0` (NaN compares false).
    #[inline(never)]
    pub(super) fn relu_fwd(x: &[f32], out: &mut [f32]) {
        for (o, &v) in out.iter_mut().zip(x.iter()) {
            *o = if v > 0.0 { v } else { 0.0 };
        }
    }

    /// `out[i] = g[i]` if `x[i] > 0`, else `+0.0`.
    #[inline(never)]
    pub(super) fn relu_bwd(x: &[f32], g: &[f32], out: &mut [f32]) {
        for ((o, &v), &gv) in out.iter_mut().zip(x.iter()).zip(g.iter()) {
            *o = if v > 0.0 { gv } else { 0.0 };
        }
    }

    /// One SGD step with weight decay; zeroes the gradient.
    #[inline(never)]
    pub(super) fn sgd_step(x: &mut [f32], g: &mut [f32], lr: f32, wd: f32) {
        for (x, gr) in x.iter_mut().zip(g.iter_mut()) {
            let eff = *gr + wd * *x;
            *x -= lr * eff;
            *gr = 0.0;
        }
    }

    /// One column strip `cols` of a block of output rows of the ikj kernel
    /// over one `k`-tile: for every row `r` of `c_rows` (rows of `n`) and `j`
    /// in `cols`, `c[r][j] += a[r·row + p·step] * b_tile[p·n + j]` for
    /// ascending `p` (`b_tile` is the tile's rows of `B`). The ground truth
    /// runs the rows one after the other through [`nn_tile_tail`] — the rows
    /// are independent, so their order is immaterial; the vector levels
    /// take them in pairs so each `B` load feeds two rows.
    pub(super) fn nn_strip(c_rows: &mut [f32], a: &[f32], layout: super::TileLayout, b_tile: &[f32], n: usize, cols: std::ops::Range<usize>) {
        let len = b_tile.len().checked_div(n).unwrap_or(0);
        if len == 0 {
            return;
        }
        for (r, c_row) in c_rows.chunks_exact_mut(n).enumerate() {
            let c_cols = c_row.get_mut(cols.clone()).unwrap_or_default();
            nn_tile_tail(c_cols, layout.tile(a, r, len), layout.step, b_tile, n, cols.start);
        }
    }

    /// One output row's columns from `col` on of the ikj kernel over one
    /// `k`-tile: `c_tail[j] += a_tile[p·a_step] * b_tile[p·n + col + j]` for
    /// ascending `p`. The scalar level runs whole strips through it and the
    /// vector levels their remainder columns, so both share one compiled
    /// accumulation loop per step kind.
    #[inline(never)]
    pub(super) fn nn_tile_tail(c_tail: &mut [f32], a_tile: &[f32], a_step: usize, b_tile: &[f32], n: usize, col: usize) {
        if a_step == 1 {
            nn_tile_tail_at(c_tail, a_tile, 1, b_tile, n, col);
        } else {
            nn_tile_tail_at(c_tail, a_tile, a_step, b_tile, n, col);
        }
    }

    #[inline(always)]
    fn nn_tile_tail_at(c_tail: &mut [f32], a_tile: &[f32], a_step: usize, b_tile: &[f32], n: usize, col: usize) {
        for (p, b_row) in b_tile.chunks_exact(n).enumerate() {
            let Some(&av) = a_tile.get(p * a_step) else { break };
            let bt = b_row.get(col..).unwrap_or(&[]);
            for (c, &bv) in c_tail.iter_mut().zip(bt.iter()) {
                *c += av * bv;
            }
        }
    }

    /// One output row of the `C = A·Bᵀ` kernel: `c_row[j]` is the sequential
    /// dot of `a_row` with row `j` of `B` (`b` is `len(c_row)` rows of `k`).
    /// Requires `k > 0`.
    #[inline(never)]
    pub(super) fn tb_row(c_row: &mut [f32], a_row: &[f32], b: &[f32], k: usize) {
        for (c, b_row) in c_row.iter_mut().zip(b.chunks_exact(k)) {
            let mut acc = 0.0f32;
            for (&av, &bv) in a_row.iter().zip(b_row.iter()) {
                acc += av * bv;
            }
            *c = acc;
        }
    }

    /// `acc[c] += mean of run c of x`, each run `chunk` long (the last may
    /// be short) and folded from `−0.0` in ascending order, as `f32::sum`
    /// folds.
    #[inline(never)]
    pub(super) fn add_chunk_means(acc: &mut [f32], x: &[f32], chunk: usize) {
        for (a, run) in acc.iter_mut().zip(x.chunks(chunk.max(1))) {
            *a += run.iter().fold(-0.0, |sum, &x| sum + x) / run.len() as f32;
        }
    }

    /// [`add_diff_masked`], then [`add_chunk_means`] of the updated `r`.
    pub(super) fn add_diff_masked_means(r: &mut [f32], l: &[f32], g: &[f32], m: &[f32], acc: &mut [f32], chunk: usize) {
        add_diff_masked(r, l, g, m);
        add_chunk_means(acc, r, chunk);
    }

    /// FedSU's sweep (see [`sweep_chunks_with`](super::sweep_chunks_with)).
    pub(super) fn sweep_chunks(rows: super::SweepRows<'_>, rule: super::SweepRule, flags: (&mut [u64], &mut [u64])) -> usize {
        sweep_chunks_from(rows, rule, flags, 0)
    }

    /// The sweep over rows whose first chunk is chunk `first`: per chunk, its
    /// scalars' regular update with their second differences and update
    /// magnitudes folded onto `+0.0`, then its decision step, written as the
    /// vector levels compute it lane by lane.
    #[inline(never)]
    pub(super) fn sweep_chunks_from(rows: super::SweepRows<'_>, rule: super::SweepRule, flags: (&mut [u64], &mut [u64]), first: usize) -> usize {
        let super::SweepRows { global, prev_update, sum, remaining, observed, signed, magnitude } = rows;
        let chunk = rule.chunk.max(1);
        let scalars = global.chunks_mut(chunk).zip(prev_update.chunks_mut(chunk)).zip(sum.chunks(chunk));
        let state = remaining.iter_mut().zip(observed.iter_mut()).zip(signed.iter_mut().zip(magnitude.iter_mut()));
        let omt = 1.0 - rule.theta;
        let (due_bits, entry_bits) = flags;
        let mut next_due = 0;
        for (c, (((vs, ps), ss), ((r, o), (s, m)))) in (first..).zip(scalars.zip(state)) {
            let len = vs.len() as f32;
            let on = *r > 0.0;
            let (mut second, mut update) = (0.0f32, 0.0f32);
            for ((v, p), &sum) in vs.iter_mut().zip(ps.iter_mut()).zip(ss) {
                let avg = sum * rule.inv;
                let g = avg - *v;
                second += g - *p;
                update += g.abs();
                if !on {
                    (*v, *p) = (avg, g);
                }
            }
            *r -= if on { 1.0 } else { 0.0 };
            let due = on && *r == 0.0;
            next_due += usize::from(on && *r == 1.0);
            let skip = on || *o == 0.0;
            let bumped = *o + 1.0;
            if !on {
                *o = if bumped > super::OBSERVED_MAX { super::OBSERVED_MAX } else { bumped };
            }
            let x = second / len;
            if !skip {
                *s = rule.theta * *s + omt * x;
                *m = rule.theta * *m + omt * x.abs();
            }
            let guard = 1e-3 * (update / len).abs();
            let reject = *m > guard && *m > f32::EPSILON && s.abs() > *m * rule.ratio_bound;
            let candidate = !(skip || rule.warmup > *o || reject);
            if let (Some(d), Some(e)) = (due_bits.get_mut(c / 64), entry_bits.get_mut(c / 64)) {
                *d |= u64::from(due) << (c % 64);
                *e |= u64::from(candidate) << (c % 64);
            }
        }
        next_due
    }

    /// Four output rows of the `C = A·Bᵀ` kernel (`c_rows` and `a_rows` hold
    /// four rows each): [`tb_row`] per row. The vector levels transpose each
    /// window of `B` once for all four. Requires `k > 0`.
    pub(super) fn tb_row4(c_rows: &mut [f32], a_rows: &[f32], b: &[f32], k: usize) {
        tb_rows(c_rows, a_rows, b, k, 4);
    }

    /// [`tb_row4`] for two rows.
    pub(super) fn tb_row2(c_rows: &mut [f32], a_rows: &[f32], b: &[f32], k: usize) {
        tb_rows(c_rows, a_rows, b, k, 2);
    }

    fn tb_rows(c_rows: &mut [f32], a_rows: &[f32], b: &[f32], k: usize, rows: usize) {
        let n = c_rows.len() / rows;
        if n == 0 {
            return;
        }
        for (c_row, a_row) in c_rows.chunks_exact_mut(n).zip(a_rows.chunks_exact(k)) {
            tb_row(c_row, a_row, b, k);
        }
    }

    /// The direct "same" conv forward (see
    /// [`conv_fwd_with`](super::conv_fwd_with)): each output plane from
    /// `+0.0`, then `+= w·x` per tap and image row, taps in ascending order,
    /// so every element keeps the `W·cols` chain of the lowering; then
    /// `+ b`.
    #[inline(never)]
    pub(super) fn conv_fwd(out: &mut [f32], weight: &[f32], bias: &[f32], padded: &[f32], g: super::SameConv) {
        if g.is_empty() {
            return;
        }
        let (pw, w) = (g.width(), g.in_w);
        let planes = out.chunks_exact_mut(g.in_h * w).zip(weight.chunks_exact(g.fan_in())).zip(bias);
        for ((plane, w_row), &b) in planes {
            plane.fill(0.0);
            for (t, &wv) in w_row.iter().enumerate() {
                let src = padded.get(g.tap_offset(t)..).unwrap_or(&[]);
                for (row, x) in plane.chunks_exact_mut(w).zip(src.chunks(pw)) {
                    for (y, &x) in row.iter_mut().zip(x) {
                        *y += wv * x;
                    }
                }
            }
            for y in plane.iter_mut() {
                *y += b;
            }
        }
    }

    /// The direct "same" conv input gradient (see
    /// [`conv_dx_with`](super::conv_dx_with)): per tap in ascending order,
    /// the tap's row from `+0.0` with one [`axpy`] per output channel
    /// (`Wᵀ·dY`'s chain), then its output positions' NaN-holding adds onto
    /// the padded planes ([`scatter_add`] per image row).
    pub(super) fn conv_dx(dxp: &mut [f32], weight: &[f32], rows: &[f32], taps: &mut [f32], g: super::SameConv) {
        if g.is_empty() {
            return;
        }
        let (lanes, fan_in, pw) = (g.lanes(), g.fan_in(), g.width());
        let Some(t_row) = taps.get_mut(..lanes) else { return };
        for t in 0..fan_in {
            t_row.fill(0.0);
            for (dy_row, w_row) in rows.chunks_exact(lanes).zip(weight.chunks_exact(fan_in)) {
                axpy(t_row, w_row.get(t).copied().unwrap_or(0.0), dy_row);
            }
            let dst = dxp.get_mut(g.tap_offset(t)..).unwrap_or_default();
            for (d_row, t_out) in dst.chunks_mut(pw).zip(t_row.chunks(pw).take(g.in_h)) {
                scatter_add(d_row.get_mut(..g.in_w).unwrap_or_default(), t_out);
            }
        }
    }

    /// The direct "same" conv weight and bias gradients (see
    /// [`conv_dw_with`](super::conv_dw_with)): per weight one dot chain over
    /// the output positions in ascending order from `+0.0` (`dY·colsᵀ`'s),
    /// added to its gradient; per bias the `f32::sum` chain of its `dY`
    /// plane (ascending, from `−0.0`), added to its gradient. `dyt` is the
    /// vector levels' scratch.
    #[inline(never)]
    pub(super) fn conv_dw(wgrad: &mut [f32], bgrad: &mut [f32], dy: &[f32], padded: &[f32], _dyt: &mut [f32], g: super::SameConv) {
        if g.is_empty() {
            return;
        }
        let (pw, w) = (g.width(), g.in_w);
        let rows = wgrad.chunks_exact_mut(g.fan_in()).zip(bgrad.iter_mut());
        for ((g_row, bg), dy_plane) in rows.zip(dy.chunks_exact(g.in_h * w)) {
            for (t, gv) in g_row.iter_mut().enumerate() {
                let src = padded.get(g.tap_offset(t)..).unwrap_or(&[]);
                let mut acc = 0.0f32;
                for (dy_row, x_row) in dy_plane.chunks_exact(w).zip(src.chunks(pw)) {
                    for (&d, &x) in dy_row.iter().zip(x_row.iter()) {
                        acc += d * x;
                    }
                }
                *gv += acc;
            }
            *bg += dy_plane.iter().fold(-0.0, |s, &x| s + x);
        }
    }
}

// ---------------------------------------------------------------------------
// x86-64 vector implementations
// ---------------------------------------------------------------------------

/// The vector kernels, each written **once** over the `Lanes` register
/// type; the `kernels!` table instantiates every body at `__m256` (AVX2).
///
/// Every function is `unsafe` with the same contract: the caller must be
/// running with the CPU feature of the lane type it names (see `Lanes`). All
/// of them are `#[inline(always)]` so the whole body is compiled inside the
/// `#[target_feature]` wrapper that names the type — one compiled instance of
/// each kernel per level.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{scalar, SameConv, SweepRows, SweepRule, LANE_OFF, LANE_ON, OBSERVED_MAX};
    use std::ops::Range;
    use std::arch::x86_64::{
        __m256, _mm256_add_ps, _mm256_and_ps, _mm256_andnot_ps, _mm256_cmp_ps, _mm256_loadu_ps,
        _mm256_movemask_ps, _mm256_mul_ps, _mm256_or_ps, _mm256_permute2f128_ps, _mm256_set1_ps,
        _mm256_setzero_ps, _mm256_shuffle_ps, _mm256_storeu_ps, _mm256_sub_ps, _mm256_unpackhi_ps,
        _mm256_unpacklo_ps, _CMP_EQ_OQ, _CMP_GT_OQ, _CMP_UNORD_Q,
    };

    /// The widest [`Lanes::N`]: sizes the stack arrays a generic body cannot
    /// size with `V::N`.
    const MAX_N: usize = 8;

    /// One `f32` vector register type: what a kernel body needs to know about
    /// "how wide, and which instructions". Operations map one-to-one onto
    /// single instructions — in particular `fmul` and `fadd` stay separate
    /// (never an FMA) — so a body's written operand order *is* its IEEE
    /// operation sequence at every width. (The arithmetic carries LLVM's
    /// `f` prefix, which keeps it apart from `Tensor::add`/`sub` by name.)
    ///
    /// # Safety
    ///
    /// Every method requires the CPU feature of its impl (AVX for
    /// `__m256`). The methods carry no `#[target_feature]`
    /// themselves: they are `#[inline(always)]` into a kernel body, which is
    /// `#[inline(always)]` into the `kernels!` wrapper that enables the
    /// feature, after the dispatcher has checked the level against the
    /// hardware.
    pub(super) trait Lanes: Copy {
        /// Lanes per register.
        const N: usize;
        /// Reads `s`, which must be exactly [`Self::N`] long (checked).
        unsafe fn load(s: &[f32]) -> Self;
        /// Overwrites `s`, which must be exactly [`Self::N`] long (checked).
        unsafe fn store(self, s: &mut [f32]);
        /// `a` in every lane, bit-exact.
        unsafe fn splat(a: f32) -> Self;
        /// `+0.0` in every lane.
        unsafe fn zero() -> Self;
        /// Lanewise `self + o`.
        unsafe fn fadd(self, o: Self) -> Self;
        /// Lanewise `self - o`.
        unsafe fn fsub(self, o: Self) -> Self;
        /// Lanewise `self * o`.
        unsafe fn fmul(self, o: Self) -> Self;
        /// Bitwise `self & o`.
        unsafe fn and(self, o: Self) -> Self;
        /// Bitwise `!self & o`.
        unsafe fn andnot(self, o: Self) -> Self;
        /// Bitwise `self | o`.
        unsafe fn or(self, o: Self) -> Self;
        /// `self > 0` as a full-width lane mask (NaN compares false, like the
        /// scalar `>`).
        unsafe fn gt_zero(self) -> Self;
        /// `self.is_nan()` as a full-width lane mask.
        unsafe fn is_nan(self) -> Self;
        /// `self > o` as a full-width lane mask (NaN compares false).
        unsafe fn gt(self, o: Self) -> Self;
        /// `self == o` as a full-width lane mask (NaN compares false, `-0.0`
        /// equals `+0.0`).
        unsafe fn eq(self, o: Self) -> Self;
        /// The sign bit of every lane, lane `j` at bit `j`: the set lanes of a
        /// lane mask.
        unsafe fn movemask(self) -> u32;
        /// In-register transpose of the `N × N` block held in the first
        /// [`Self::N`] registers: lane `j` of output `t` is lane `t` of input
        /// `j`. Registers past `N` pass through.
        unsafe fn transpose(rows: [Self; MAX_N]) -> [Self; MAX_N];

        /// `mask ? a : b` per lane, as `(mask & a) | (!mask & b)`: moves bits,
        /// so NaN payloads and signed zeros travel unchanged.
        #[inline(always)]
        unsafe fn select(mask: Self, a: Self, b: Self) -> Self {
            mask.and(a).or(mask.andnot(b))
        }
    }

    impl Lanes for __m256 {
        const N: usize = 8;
        #[inline(always)]
        unsafe fn load(s: &[f32]) -> Self {
            assert_eq!(s.len(), Self::N);
            // SAFETY: `s` is exactly the 8 lanes this unaligned load reads.
            unsafe { _mm256_loadu_ps(s.as_ptr()) }
        }
        #[inline(always)]
        unsafe fn store(self, s: &mut [f32]) {
            assert_eq!(s.len(), Self::N);
            // SAFETY: `s` is exactly the 8 lanes this unaligned store writes.
            unsafe { _mm256_storeu_ps(s.as_mut_ptr(), self) }
        }
        #[inline(always)]
        unsafe fn splat(a: f32) -> Self {
            _mm256_set1_ps(a)
        }
        #[inline(always)]
        unsafe fn zero() -> Self {
            _mm256_setzero_ps()
        }
        #[inline(always)]
        unsafe fn fadd(self, o: Self) -> Self {
            _mm256_add_ps(self, o)
        }
        #[inline(always)]
        unsafe fn fsub(self, o: Self) -> Self {
            _mm256_sub_ps(self, o)
        }
        #[inline(always)]
        unsafe fn fmul(self, o: Self) -> Self {
            _mm256_mul_ps(self, o)
        }
        #[inline(always)]
        unsafe fn and(self, o: Self) -> Self {
            _mm256_and_ps(self, o)
        }
        #[inline(always)]
        unsafe fn andnot(self, o: Self) -> Self {
            _mm256_andnot_ps(self, o)
        }
        #[inline(always)]
        unsafe fn or(self, o: Self) -> Self {
            _mm256_or_ps(self, o)
        }
        #[inline(always)]
        unsafe fn gt_zero(self) -> Self {
            _mm256_cmp_ps::<_CMP_GT_OQ>(self, _mm256_setzero_ps())
        }
        #[inline(always)]
        unsafe fn is_nan(self) -> Self {
            _mm256_cmp_ps::<_CMP_UNORD_Q>(self, self)
        }
        #[inline(always)]
        unsafe fn gt(self, o: Self) -> Self {
            _mm256_cmp_ps::<_CMP_GT_OQ>(self, o)
        }
        #[inline(always)]
        unsafe fn eq(self, o: Self) -> Self {
            _mm256_cmp_ps::<_CMP_EQ_OQ>(self, o)
        }
        #[inline(always)]
        unsafe fn movemask(self) -> u32 {
            _mm256_movemask_ps(self) as u32
        }
        /// 8×8: unpack pairs, shuffle quads, then swap 128-bit halves.
        #[inline(always)]
        unsafe fn transpose([v0, v1, v2, v3, v4, v5, v6, v7]: [Self; MAX_N]) -> [Self; MAX_N] {
            let t0 = _mm256_unpacklo_ps(v0, v1);
            let t1 = _mm256_unpackhi_ps(v0, v1);
            let t2 = _mm256_unpacklo_ps(v2, v3);
            let t3 = _mm256_unpackhi_ps(v2, v3);
            let t4 = _mm256_unpacklo_ps(v4, v5);
            let t5 = _mm256_unpackhi_ps(v4, v5);
            let t6 = _mm256_unpacklo_ps(v6, v7);
            let t7 = _mm256_unpackhi_ps(v6, v7);
            let u0 = _mm256_shuffle_ps::<0x44>(t0, t2);
            let u1 = _mm256_shuffle_ps::<0xEE>(t0, t2);
            let u2 = _mm256_shuffle_ps::<0x44>(t1, t3);
            let u3 = _mm256_shuffle_ps::<0xEE>(t1, t3);
            let u4 = _mm256_shuffle_ps::<0x44>(t4, t6);
            let u5 = _mm256_shuffle_ps::<0xEE>(t4, t6);
            let u6 = _mm256_shuffle_ps::<0x44>(t5, t7);
            let u7 = _mm256_shuffle_ps::<0xEE>(t5, t7);
            [
                _mm256_permute2f128_ps::<0x20>(u0, u4),
                _mm256_permute2f128_ps::<0x20>(u1, u5),
                _mm256_permute2f128_ps::<0x20>(u2, u6),
                _mm256_permute2f128_ps::<0x20>(u3, u7),
                _mm256_permute2f128_ps::<0x31>(u0, u4),
                _mm256_permute2f128_ps::<0x31>(u1, u5),
                _mm256_permute2f128_ps::<0x31>(u2, u6),
                _mm256_permute2f128_ps::<0x31>(u3, u7),
            ]
        }
    }

    /// `y[i] += a * x[i]`: lanewise `add(y, mul(a, x))`, same mul-then-add
    /// order as the scalar loop.
    #[inline(always)]
    pub(super) unsafe fn axpy<V: Lanes>(y: &mut [f32], a: f32, x: &[f32]) {
        let av = V::splat(a);
        let mut yc = y.chunks_exact_mut(V::N);
        let mut xc = x.chunks_exact(V::N);
        for (ys, xs) in (&mut yc).zip(&mut xc) {
            V::load(ys).fadd(av.fmul(V::load(xs))).store(ys);
        }
        scalar::axpy(yc.into_remainder(), a, xc.remainder());
    }

    /// `y[i] += x[i]`.
    #[inline(always)]
    pub(super) unsafe fn add_assign<V: Lanes>(y: &mut [f32], x: &[f32]) {
        let mut yc = y.chunks_exact_mut(V::N);
        let mut xc = x.chunks_exact(V::N);
        for (ys, xs) in (&mut yc).zip(&mut xc) {
            V::load(ys).fadd(V::load(xs)).store(ys);
        }
        scalar::add_assign(yc.into_remainder(), xc.remainder());
    }

    /// NaN-holding scatter add: `select(isnan(y), y, y + x)` per lane,
    /// matching the scalar guard bit-for-bit (see [`scalar::scatter_add`] for
    /// why the guard exists).
    #[inline(always)]
    pub(super) unsafe fn scatter_add<V: Lanes>(y: &mut [f32], x: &[f32]) {
        let mut yc = y.chunks_exact_mut(V::N);
        let mut xc = x.chunks_exact(V::N);
        for (ys, xs) in (&mut yc).zip(&mut xc) {
            let yv = V::load(ys);
            V::select(yv.is_nan(), yv, yv.fadd(V::load(xs))).store(ys);
        }
        scalar::scatter_add(yc.into_remainder(), xc.remainder());
    }

    /// `r[i] += l[i] - g[i]`: lanewise `add(r, sub(l, g))`, matching the
    /// scalar `r + (l - g)` evaluation order.
    #[inline(always)]
    pub(super) unsafe fn add_diff<V: Lanes>(r: &mut [f32], l: &[f32], g: &[f32]) {
        let mut rc = r.chunks_exact_mut(V::N);
        let mut lc = l.chunks_exact(V::N);
        let mut gc = g.chunks_exact(V::N);
        for ((rs, ls), gs) in (&mut rc).zip(&mut lc).zip(&mut gc) {
            V::load(rs).fadd(V::load(ls).fsub(V::load(gs))).store(rs);
        }
        scalar::add_diff(rc.into_remainder(), lc.remainder(), gc.remainder());
    }

    /// Masked add: `select(m, y + x, y)` per lane, the scalar loop's bit
    /// select.
    #[inline(always)]
    pub(super) unsafe fn add_assign_masked<V: Lanes>(y: &mut [f32], x: &[f32], m: &[f32]) {
        let mut yc = y.chunks_exact_mut(V::N);
        let mut xc = x.chunks_exact(V::N);
        let mut mc = m.chunks_exact(V::N);
        for ((ys, xs), ms) in (&mut yc).zip(&mut xc).zip(&mut mc) {
            let yv = V::load(ys);
            V::select(V::load(ms), yv.fadd(V::load(xs)), yv).store(ys);
        }
        scalar::add_assign_masked(yc.into_remainder(), xc.remainder(), mc.remainder());
    }

    /// Masked difference accumulation: lanewise `add(r, and(sub(l, g), m))`.
    #[inline(always)]
    pub(super) unsafe fn add_diff_masked<V: Lanes>(r: &mut [f32], l: &[f32], g: &[f32], m: &[f32]) {
        let mut rc = r.chunks_exact_mut(V::N);
        let mut lc = l.chunks_exact(V::N);
        let mut gc = g.chunks_exact(V::N);
        let mut mc = m.chunks_exact(V::N);
        for (((rs, ls), gs), ms) in (&mut rc).zip(&mut lc).zip(&mut gc).zip(&mut mc) {
            V::load(rs).fadd(V::load(ls).fsub(V::load(gs)).and(V::load(ms))).store(rs);
        }
        scalar::add_diff_masked(rc.into_remainder(), lc.remainder(), gc.remainder(), mc.remainder());
    }

    /// `out[i] = |x[i]|` by clearing the sign bit — exactly what the scalar
    /// `f32::abs` does, so NaN payloads are preserved.
    #[inline(always)]
    pub(super) unsafe fn abs_into<V: Lanes>(out: &mut [f32], x: &[f32]) {
        let mask = V::splat(f32::from_bits(0x7fff_ffff));
        let mut oc = out.chunks_exact_mut(V::N);
        let mut xc = x.chunks_exact(V::N);
        for (os, xs) in (&mut oc).zip(&mut xc) {
            V::load(xs).and(mask).store(os);
        }
        scalar::abs_into(oc.into_remainder(), xc.remainder());
    }

    /// ReLU forward as compare+select: lanes where `x > 0` keep `x`
    /// (bit-exact, NaN payloads included); all others become `+0.0`.
    #[inline(always)]
    pub(super) unsafe fn relu_fwd<V: Lanes>(x: &[f32], out: &mut [f32]) {
        let mut xc = x.chunks_exact(V::N);
        let mut oc = out.chunks_exact_mut(V::N);
        for (xs, os) in (&mut xc).zip(&mut oc) {
            let xv = V::load(xs);
            xv.gt_zero().and(xv).store(os);
        }
        scalar::relu_fwd(xc.remainder(), oc.into_remainder());
    }

    /// ReLU backward: lanes where `x > 0` pass `g` through unchanged, all
    /// others emit `+0.0`.
    #[inline(always)]
    pub(super) unsafe fn relu_bwd<V: Lanes>(x: &[f32], g: &[f32], out: &mut [f32]) {
        let mut xc = x.chunks_exact(V::N);
        let mut gc = g.chunks_exact(V::N);
        let mut oc = out.chunks_exact_mut(V::N);
        for ((xs, gs), os) in (&mut xc).zip(&mut gc).zip(&mut oc) {
            V::load(xs).gt_zero().and(V::load(gs)).store(os);
        }
        scalar::relu_bwd(xc.remainder(), gc.remainder(), oc.into_remainder());
    }

    /// SGD step: `eff = g + wd·x; x -= lr·eff; g = 0`, all in the scalar
    /// evaluation order.
    #[inline(always)]
    pub(super) unsafe fn sgd_step<V: Lanes>(x: &mut [f32], g: &mut [f32], lr: f32, wd: f32) {
        let (lrv, wdv) = (V::splat(lr), V::splat(wd));
        let mut xc = x.chunks_exact_mut(V::N);
        let mut gc = g.chunks_exact_mut(V::N);
        for (xs, gs) in (&mut xc).zip(&mut gc) {
            let xv = V::load(xs);
            let eff = V::load(gs).fadd(wdv.fmul(xv));
            xv.fsub(lrv.fmul(eff)).store(xs);
            V::zero().store(gs);
        }
        scalar::sgd_step(xc.into_remainder(), gc.into_remainder(), lr, wd);
    }

    /// Chunk means accumulated. At chunk 1 a run is one lane, whose mean is
    /// the lane itself (`(−0.0 + x) / 1` is `x`, bit for bit), so this is
    /// [`add_assign`]; a longer run is one chain across lanes, which the
    /// scalar loop runs.
    #[inline(always)]
    pub(super) unsafe fn add_chunk_means<V: Lanes>(acc: &mut [f32], x: &[f32], chunk: usize) {
        if chunk != 1 {
            return scalar::add_chunk_means(acc, x, chunk);
        }
        add_assign::<V>(acc, x);
    }

    /// [`add_diff_masked`] and [`add_chunk_means`] in one pass over the rows
    /// at chunk 1 (a lane's mean is the lane, as there); one after the other
    /// at a longer chunk.
    #[inline(always)]
    pub(super) unsafe fn add_diff_masked_means<V: Lanes>(r: &mut [f32], l: &[f32], g: &[f32], m: &[f32], acc: &mut [f32], chunk: usize) {
        if chunk != 1 {
            add_diff_masked::<V>(r, l, g, m);
            return scalar::add_chunk_means(acc, r, chunk);
        }
        let (mut rc, mut ac) = (r.chunks_exact_mut(V::N), acc.chunks_exact_mut(V::N));
        let (mut lc, mut gc, mut mc) = (l.chunks_exact(V::N), g.chunks_exact(V::N), m.chunks_exact(V::N));
        for ((rs, acs), ((ls, gs), ms)) in (&mut rc).zip(&mut ac).zip((&mut lc).zip(&mut gc).zip(&mut mc)) {
            let rv = V::load(rs).fadd(V::load(ls).fsub(V::load(gs)).and(V::load(ms)));
            rv.store(rs);
            V::load(acs).fadd(rv).store(acs);
        }
        scalar::add_diff_masked_means(rc.into_remainder(), lc.remainder(), gc.remainder(), mc.remainder(), ac.into_remainder(), 1);
    }

    /// FedSU's sweep, `N` chunks a register at chunk 1: the scalar loop's
    /// branches become lane masks, each chunk's fold is its one lane (the
    /// division by a length of 1 is left out, exact on the quiet result of
    /// an operation), and a register's flags are its masks' sign bits. A
    /// longer chunk's fold is one chain across lanes, which the scalar loop
    /// runs.
    #[inline(always)]
    pub(super) unsafe fn sweep_chunks<V: Lanes>(rows: SweepRows<'_>, rule: SweepRule, flags: (&mut [u64], &mut [u64])) -> usize {
        if rule.chunk != 1 {
            return scalar::sweep_chunks(rows, rule, flags);
        }
        let SweepRows { global, prev_update, sum, remaining, observed, signed, magnitude } = rows;
        let (zero, one, all, max) = (V::zero(), V::splat(1.0), V::splat(LANE_ON), V::splat(OBSERVED_MAX));
        let (inv, theta, omt) = (V::splat(rule.inv), V::splat(rule.theta), V::splat(1.0 - rule.theta));
        let (warmup, bound, eps) = (V::splat(rule.warmup), V::splat(rule.ratio_bound), V::splat(f32::EPSILON));
        let (guard, abs) = (V::splat(1e-3), V::splat(f32::from_bits(0x7fff_ffff)));
        // Whole registers of every row in one counted loop, the rest lane by
        // lane.
        let lens = [global.len(), prev_update.len(), sum.len(), remaining.len(), observed.len(), signed.len(), magnitude.len()];
        let whole = lens.into_iter().min().unwrap_or(0) / V::N * V::N;
        let ((v_main, v_rest), (p_main, p_rest)) = (cut_mut(global, whole), cut_mut(prev_update, whole));
        let ((r_main, r_rest), (o_main, o_rest)) = (cut_mut(remaining, whole), cut_mut(observed, whole));
        let ((s_main, s_rest), (m_main, m_rest)) = (cut_mut(signed, whole), cut_mut(magnitude, whole));
        let (sum_main, sum_rest) = sum.split_at(whole.min(sum.len()));
        let values = v_main.chunks_exact_mut(V::N).zip(p_main.chunks_exact_mut(V::N)).zip(sum_main.chunks_exact(V::N));
        let counters = r_main.chunks_exact_mut(V::N).zip(o_main.chunks_exact_mut(V::N));
        let state = counters.zip(s_main.chunks_exact_mut(V::N).zip(m_main.chunks_exact_mut(V::N)));
        let (due_bits, entry_bits) = flags;
        let mut due_next = zero;
        // `N` divides 64, so a register's lanes are bits of one word.
        for (lane0, (((vs, ps), sums), ((rs, os), (ss, ms)))) in (0..).step_by(V::N).zip(values.zip(state)) {
            let r = V::load(rs);
            let on = r.gt(zero);
            let (v, p) = (V::load(vs), V::load(ps));
            let avg = V::load(sums).fmul(inv);
            let g = avg.fsub(v);
            // A chunk of one folds its lane onto `+0.0` (a `−0.0` becomes
            // `+0.0`); `|g|` is never `−0.0`, so its fold is `|g|` itself.
            let second = zero.fadd(g.fsub(p));
            let update = g.and(abs);
            V::select(on, v, avg).store(vs);
            V::select(on, p, g).store(ps);
            let r = r.fsub(on.and(one));
            let due = on.and(r.eq(zero));
            r.store(rs);
            due_next = due_next.fadd(on.and(r.eq(one)).and(one));
            let o = V::load(os);
            let skip = on.or(o.eq(zero));
            let bumped = o.fadd(one);
            let o = V::select(on, o, V::select(bumped.gt(max), max, bumped));
            o.store(os);
            let (s, m) = (V::load(ss), V::load(ms));
            let s = V::select(skip, s, theta.fmul(s).fadd(omt.fmul(second)));
            let m = V::select(skip, m, theta.fmul(m).fadd(omt.fmul(second.and(abs))));
            s.store(ss);
            m.store(ms);
            let reject = m.gt(guard.fmul(update)).and(m.gt(eps)).and(s.and(abs).gt(m.fmul(bound)));
            let candidate = skip.or(warmup.gt(o)).or(reject).andnot(all);
            if let (Some(d), Some(e)) = (due_bits.get_mut(lane0 / 64), entry_bits.get_mut(lane0 / 64)) {
                *d |= u64::from(due.movemask()) << (lane0 % 64);
                *e |= u64::from(candidate.movemask()) << (lane0 % 64);
            }
        }
        let rest = SweepRows {
            global: v_rest,
            prev_update: p_rest,
            sum: sum_rest,
            remaining: r_rest,
            observed: o_rest,
            signed: s_rest,
            magnitude: m_rest,
        };
        lane_sum::<V>(due_next) + scalar::sweep_chunks_from(rest, rule, (due_bits, entry_bits), whole)
    }

    /// `s` cut after its first `mid` lanes (all of it if shorter).
    #[inline(always)]
    fn cut_mut(s: &mut [f32], mid: usize) -> (&mut [f32], &mut [f32]) {
        let mid = mid.min(s.len());
        s.split_at_mut(mid)
    }

    /// The sum of a register's lanes, each a small non-negative integer.
    #[inline(always)]
    unsafe fn lane_sum<V: Lanes>(v: V) -> usize {
        let mut lanes = [0.0f32; MAX_N];
        if let Some(lanes) = lanes.get_mut(..V::N) {
            v.store(lanes);
        }
        lanes.iter().map(|&x| x as usize).sum()
    }

    /// The `W` accumulators of one `W·N`-column register block, resumed from
    /// the output strip.
    #[inline(always)]
    unsafe fn load_block<V: Lanes, const W: usize>(cs: &[f32]) -> [V; W] {
        let mut acc = [V::zero(); W];
        for (acc, c) in acc.iter_mut().zip(cs.chunks_exact(V::N)) {
            *acc = V::load(c);
        }
        acc
    }

    /// Writes a register block back to the strip [`load_block`] read it from.
    #[inline(always)]
    unsafe fn store_block<V: Lanes, const W: usize>(acc: [V; W], cs: &mut [f32]) {
        for (acc, c) in acc.iter().zip(cs.chunks_exact_mut(V::N)) {
            acc.store(c);
        }
    }

    /// One `W·N`-column register block of one output row over the `k`-tile:
    /// each column's ascending-`p` chain stays in one lane of one
    /// accumulator for the whole tile. Loading the accumulators from the
    /// output strip and storing them back at tile boundaries resumes the
    /// exact scalar chain. `col` is the block's first column within the
    /// `n`-wide rows of `b_tile`; `A` is read `a_step` apart.
    #[inline(always)]
    unsafe fn row_block<V: Lanes, const W: usize>(cs: &mut [f32], a_tile: &[f32], a_step: usize, b_tile: &[f32], n: usize, col: usize) {
        let acc = load_block::<V, W>(cs);
        store_block(tile_chains(acc, a_tile, a_step, b_tile, n, col), cs);
    }

    /// The `k`-tile's `+= a·b` steps of a `W·N`-column register block,
    /// resumed from `acc`, in ascending `p`.
    #[inline(always)]
    unsafe fn tile_chains<V: Lanes, const W: usize>(mut acc: [V; W], a_tile: &[f32], a_step: usize, b_tile: &[f32], n: usize, col: usize) -> [V; W] {
        for (p, b_row) in b_tile.chunks_exact(n).enumerate() {
            let Some(&av) = a_tile.get(p * a_step) else { break };
            let Some(bs) = b_row.get(col..col + W * V::N) else { continue };
            let avv = V::splat(av);
            for (acc, b) in acc.iter_mut().zip(bs.chunks_exact(V::N)) {
                *acc = acc.fadd(avv.fmul(V::load(b)));
            }
        }
        acc
    }

    /// `TAIL_LANES[MAX_N - N + t..][..N]` sets the last `t` of `N` lanes.
    const TAIL_LANES: [f32; 2 * MAX_N] = {
        let (off, on) = (super::LANE_OFF, LANE_ON);
        [off, off, off, off, off, off, off, off, on, on, on, on, on, on, on, on]
    };

    /// The vector tail of an ikj strip whose last `tail` columns (`0 < tail
    /// < N`) end at the end of `cs`, the `N` columns from `col` on: one
    /// register block runs the whole tile over all `N`, and the store
    /// selects its chains for the last `tail` lanes only. The lanes before
    /// them are stored back with the bits they were loaded with, so the
    /// columns another block already finished (in this strip or the one
    /// before it) keep exactly one chain.
    #[inline(always)]
    unsafe fn tail_block<V: Lanes>(cs: &mut [f32], tail: usize, a_tile: &[f32], a_step: usize, b_tile: &[f32], n: usize, col: usize) {
        let Some(mask) = TAIL_LANES.get(MAX_N - V::N + tail..MAX_N + tail) else { return };
        let [old] = load_block::<V, 1>(cs);
        let [acc] = tile_chains([old], a_tile, a_step, b_tile, n, col);
        V::select(V::load(mask), acc, old).store(cs);
    }

    /// ikj strip kernel over a block of rows: pairs of rows through
    /// [`nn_tile_cols2`] from the block's first row, an odd last row through
    /// [`nn_tile_cols`], then each row's columns after its last whole
    /// register through [`tail_block`]. Every `A` scalar is a broadcast, so reading a tile
    /// `step` apart costs what reading it along a row does; a unit step gets
    /// its own instance with the step folded to a constant (and so does a
    /// one-scalar tile, which has no step to speak of: a batch-1 `Aᵀ·B`).
    #[inline(always)]
    pub(super) unsafe fn nn_strip<V: Lanes>(c_rows: &mut [f32], a: &[f32], layout: super::TileLayout, b_tile: &[f32], n: usize, cols: Range<usize>) {
        if layout.step == 1 || b_tile.len() == n {
            nn_strip_at::<V>(c_rows, a, super::TileLayout { step: 1, ..layout }, b_tile, n, cols);
        } else {
            nn_strip_at::<V>(c_rows, a, layout, b_tile, n, cols);
        }
    }

    #[inline(always)]
    unsafe fn nn_strip_at<V: Lanes>(c_rows: &mut [f32], a: &[f32], layout: super::TileLayout, b_tile: &[f32], n: usize, cols: Range<usize>) {
        let len = b_tile.len().checked_div(n).unwrap_or(0);
        if len == 0 || cols.end > n {
            return;
        }
        let rows = c_rows.len() / n;
        let mut pairs = c_rows.chunks_exact_mut(2 * n);
        for (r, c2) in (&mut pairs).enumerate() {
            let (c0, c1) = c2.split_at_mut(n);
            let (Some(c0), Some(c1)) = (c0.get_mut(cols.clone()), c1.get_mut(cols.clone())) else { continue };
            let a_tiles = (layout.tile(a, 2 * r, len), layout.tile(a, 2 * r + 1, len));
            nn_tile_cols2::<V>((c0, c1), a_tiles, layout.step, b_tile, n, cols.start);
        }
        if let Some(c_last) = pairs.into_remainder().get_mut(cols.clone()) {
            nn_tile_cols::<V>(c_last, layout.tile(a, rows - 1, len), layout.step, b_tile, n, cols.start);
        }
        let tail = cols.len() % V::N;
        if tail == 0 {
            return;
        }
        // The strip's last `tail` columns, which the whole registers above
        // left: one register block ending at the strip's end where the row
        // has `N` columns up to there.
        let whole = cols.end - tail;
        let start = cols.end.checked_sub(V::N);
        for (r, c_row) in c_rows.chunks_exact_mut(n).enumerate() {
            let a_tile = layout.tile(a, r, len);
            match start {
                Some(start) => {
                    if let Some(cs) = c_row.get_mut(start..cols.end) {
                        tail_block::<V>(cs, tail, a_tile, layout.step, b_tile, n, start);
                    }
                }
                None => {
                    if let Some(c_tail) = c_row.get_mut(whole..cols.end) {
                        scalar::nn_tile_tail(c_tail, a_tile, layout.step, b_tile, n, whole);
                    }
                }
            }
        }
    }

    /// One row's strip: `4·N`-column register blocks, then single-register
    /// blocks; the columns after the last whole register are left to the
    /// caller.
    #[inline(always)]
    unsafe fn nn_tile_cols<V: Lanes>(c_cols: &mut [f32], a_tile: &[f32], a_step: usize, b_tile: &[f32], n: usize, col0: usize) {
        let mut col = col0;
        let mut blocks = c_cols.chunks_exact_mut(4 * V::N);
        for cs in &mut blocks {
            row_block::<V, 4>(cs, a_tile, a_step, b_tile, n, col);
            col += 4 * V::N;
        }
        for cs in blocks.into_remainder().chunks_exact_mut(V::N) {
            row_block::<V, 1>(cs, a_tile, a_step, b_tile, n, col);
            col += V::N;
        }
    }

    /// Two rows' strip: `4·N`-column register blocks with both rows'
    /// accumulators live (8 registers), so each `B` load feeds two rows'
    /// multiply-adds — the register-blocking step that makes the kernel
    /// load-port- rather than bandwidth-bound on wide outputs. Each element
    /// still receives its `+= a·b` updates in ascending-`p` order; the
    /// columns after the last such block go through the single-row kernel.
    #[inline(always)]
    unsafe fn nn_tile_cols2<V: Lanes>(c_cols: (&mut [f32], &mut [f32]), a_tiles: (&[f32], &[f32]), a_step: usize, b_tile: &[f32], n: usize, col0: usize) {
        let ((c0_cols, c1_cols), (a0_tile, a1_tile)) = (c_cols, a_tiles);
        let mut col = col0;
        let mut blocks0 = c0_cols.chunks_exact_mut(4 * V::N);
        let mut blocks1 = c1_cols.chunks_exact_mut(4 * V::N);
        for (cs0, cs1) in (&mut blocks0).zip(&mut blocks1) {
            let mut acc0 = load_block::<V, 4>(cs0);
            let mut acc1 = load_block::<V, 4>(cs1);
            for (p, b_row) in b_tile.chunks_exact(n).enumerate() {
                let (Some(&av0), Some(&av1)) = (a0_tile.get(p * a_step), a1_tile.get(p * a_step)) else { break };
                let Some(bs) = b_row.get(col..col + 4 * V::N) else { continue };
                let (av0v, av1v) = (V::splat(av0), V::splat(av1));
                for ((acc0, acc1), b) in acc0.iter_mut().zip(acc1.iter_mut()).zip(bs.chunks_exact(V::N)) {
                    let bv = V::load(b);
                    *acc0 = acc0.fadd(av0v.fmul(bv));
                    *acc1 = acc1.fadd(av1v.fmul(bv));
                }
            }
            store_block(acc0, cs0);
            store_block(acc1, cs1);
            col += 4 * V::N;
        }
        nn_tile_cols::<V>(blocks0.into_remainder(), a0_tile, a_step, b_tile, n, col);
        nn_tile_cols::<V>(blocks1.into_remainder(), a1_tile, a_step, b_tile, n, col);
    }

    /// `A·Bᵀ` row kernel: `N` output columns at a time. `N`-lane windows of
    /// the `N` rows of `B` are transposed in registers so that lane `j` of
    /// the accumulator carries output column `j`'s one sequential
    /// ascending-`p` dot chain (broadcast-multiply-add per `p`, no horizontal
    /// reduction anywhere). When `n mod N ≠ 0` and `n ≥ N`, the last block
    /// takes the last `N` rows of `B` and ends at the row's end: the columns
    /// it shares with the block before are overwritten with the same chains,
    /// so they are recomputed bit for bit. Requires `k > 0`.
    #[inline(always)]
    pub(super) unsafe fn tb_row<V: Lanes>(c_row: &mut [f32], a_row: &[f32], b: &[f32], k: usize) {
        let n = c_row.len();
        let mut c_blocks = c_row.chunks_exact_mut(V::N);
        let mut b_groups = b.chunks_exact(V::N * k);
        for (cs, group) in (&mut c_blocks).zip(&mut b_groups) {
            tb_block::<V>(cs, a_row, group, k);
        }
        let tail = c_blocks.into_remainder();
        if tail.is_empty() {
            return;
        }
        match n.checked_sub(V::N) {
            Some(last) => {
                if let (Some(cs), Some(group)) = (c_row.get_mut(last..), b.get(last * k..n * k)) {
                    tb_block::<V>(cs, a_row, group, k);
                }
            }
            None => scalar::tb_row(tail, a_row, b, k),
        }
    }

    /// The first columns of the `N`-column blocks covering `n ≥ N` columns:
    /// every multiple of `N` below `n - N + 1`, then `n - N` if `N` does not
    /// divide `n` — the last block ends at the row's end.
    #[inline(always)]
    fn block_starts<V: Lanes>(n: usize) -> impl Iterator<Item = usize> {
        let whole = n / V::N * V::N;
        (0..whole).step_by(V::N).chain((whole < n).then(|| n - V::N))
    }

    /// One [`tb_row`] block: `cs` is `N` outputs, `group` their `N` rows of
    /// `B`.
    #[inline(always)]
    unsafe fn tb_block<V: Lanes>(cs: &mut [f32], a_row: &[f32], group: &[f32], k: usize) {
        let mut rows: [&[f32]; MAX_N] = [&[]; MAX_N];
        let mut rest = group;
        for r in rows.iter_mut().take(V::N) {
            // Unreachable `else`: a group is exactly N rows of k.
            let Some((row, tail)) = rest.split_at_checked(k) else { return };
            (*r, rest) = (row, tail);
        }
        let mut acc = V::zero();
        let mut p = 0usize;
        let mut a_main = a_row.chunks_exact(V::N);
        for a_win in &mut a_main {
            let mut cols = [V::zero(); MAX_N];
            for (col, row) in cols.iter_mut().zip(rows.iter().take(V::N)) {
                if let Some(win) = row.get(p..p + V::N) {
                    *col = V::load(win);
                }
            }
            // After the transpose, cols[t] lane j = element p+t of row j:
            // ascending p, one mul+add per step, per lane.
            for (&av, col) in a_win.iter().zip(V::transpose(cols)) {
                acc = acc.fadd(V::splat(av).fmul(col));
            }
            p += V::N;
        }
        for (&av, p) in a_main.remainder().iter().zip(p..) {
            let mut col = [0.0f32; MAX_N];
            for (lane, row) in col.iter_mut().zip(rows) {
                *lane = row.get(p).copied().unwrap_or(0.0);
            }
            acc = acc.fadd(V::splat(av).fmul(V::load(col.split_at(V::N).0)));
        }
        // The single overwrite of these outputs (`*c = acc`), matching
        // the scalar kernel.
        acc.store(cs);
    }

    /// Four rows of [`tb_row`] at once: each transposed window of `B` feeds
    /// all four rows' accumulators, so the transposes cost a quarter per
    /// output; every output keeps `tb_row`'s chain, and the last block ends
    /// at the rows' end as `tb_row`'s does. `c_rows` and `a_rows` hold four
    /// rows each.
    #[inline(always)]
    pub(super) unsafe fn tb_row4<V: Lanes>(c_rows: &mut [f32], a_rows: &[f32], b: &[f32], k: usize) {
        tb_rows::<V, 4>(c_rows, a_rows, b, k);
    }

    /// [`tb_row4`] for two rows (`c_rows` and `a_rows` hold two rows each).
    #[inline(always)]
    pub(super) unsafe fn tb_row2<V: Lanes>(c_rows: &mut [f32], a_rows: &[f32], b: &[f32], k: usize) {
        tb_rows::<V, 2>(c_rows, a_rows, b, k);
    }

    /// `R` rows of [`tb_row`] sharing each transposed window of `B`.
    #[inline(always)]
    unsafe fn tb_rows<V: Lanes, const R: usize>(c_rows: &mut [f32], a_rows: &[f32], b: &[f32], k: usize) {
        let n = c_rows.len() / R;
        if n == 0 {
            return;
        }
        let mut c_split = c_rows.chunks_exact_mut(n);
        let mut c: [&mut [f32]; R] = std::array::from_fn(|_| c_split.next().unwrap_or_default());
        let mut a_split = a_rows.chunks_exact(k);
        let a: [&[f32]; R] = std::array::from_fn(|_| a_split.next().unwrap_or_default());
        if n < V::N {
            for (c_row, a_row) in c.iter_mut().zip(a) {
                scalar::tb_row(c_row, a_row, b, k);
            }
            return;
        }
        for col0 in block_starts::<V>(n) {
            if let Some(group) = b.get(col0 * k..(col0 + V::N) * k) {
                tb_block_rows::<V, R>(&mut c, a, group, col0, k);
            }
        }
    }

    /// One [`tb_rows`] block: columns `col0..col0 + N` of the rows `c`,
    /// `group` their `N` rows of `B`.
    #[inline(always)]
    unsafe fn tb_block_rows<V: Lanes, const R: usize>(c: &mut [&mut [f32]; R], a: [&[f32]; R], group: &[f32], col0: usize, k: usize) {
        let mut rows: [&[f32]; MAX_N] = [&[]; MAX_N];
        for (r, row) in rows.iter_mut().zip(group.chunks_exact(k)) {
            *r = row;
        }
        let mut acc = [V::zero(); R];
        let mut p = 0usize;
        while p + V::N <= k {
            let mut cols = [V::zero(); MAX_N];
            for (col, row) in cols.iter_mut().zip(rows.iter().take(V::N)) {
                if let Some(win) = row.get(p..p + V::N) {
                    *col = V::load(win);
                }
            }
            // After the transpose, cols[t] lane j = element p+t of row j:
            // ascending p, one mul+add per step, per lane.
            let cols = V::transpose(cols);
            for (acc, a_row) in acc.iter_mut().zip(a) {
                let Some(a_win) = a_row.get(p..p + V::N) else { continue };
                for (&av, &col) in a_win.iter().zip(&cols) {
                    *acc = acc.fadd(V::splat(av).fmul(col));
                }
            }
            p += V::N;
        }
        // The `k mod N` tail: element p of each row of B, one per lane.
        for p in p..k {
            let mut col = [0.0f32; MAX_N];
            for (lane, row) in col.iter_mut().zip(rows) {
                *lane = row.get(p).copied().unwrap_or(0.0);
            }
            let col = V::load(col.split_at(V::N).0);
            for (acc, a_row) in acc.iter_mut().zip(a) {
                let Some(&av) = a_row.get(p) else { continue };
                *acc = acc.fadd(V::splat(av).fmul(col));
            }
        }
        // The single overwrite of these outputs (`*c = acc`), matching
        // the scalar kernel.
        for (c_row, acc) in c.iter_mut().zip(acc) {
            if let Some(cs) = c_row.get_mut(col0..col0 + V::N) {
                acc.store(cs);
            }
        }
    }

    /// The next `U` registers from `starts`, the last group filled up
    /// with repeats of its last register: a repeated register recomputes the
    /// same lanes, and the conv kernels store registers, never add them.
    #[inline(always)]
    fn next_group<T: Copy, const U: usize>(starts: &mut impl Iterator<Item = T>) -> Option<[T; U]> {
        let first = starts.next()?;
        let mut group = [first; U];
        let mut last = first;
        for slot in group.iter_mut().skip(1) {
            if let Some(q) = starts.next() {
                last = q;
            }
            *slot = last;
        }
        Some(group)
    }

    /// `len` scalars of `s` from each of `starts`, if all are inside it.
    #[inline(always)]
    fn windows<'a, const U: usize>(s: &'a [f32], starts: [usize; U], len: usize) -> Option<[&'a [f32]; U]> {
        let mut out: [&'a [f32]; U] = [&[]; U];
        for (o, &q) in out.iter_mut().zip(&starts) {
            *o = s.get(q..q + len)?;
        }
        Some(out)
    }

    /// The direct "same" conv forward: output channels four at a time, then
    /// a pair, then one ([`conv_fwd_rows`]), with the kernel size a constant
    /// for the sizes the models use.
    #[inline(always)]
    pub(super) unsafe fn conv_fwd<V: Lanes>(out: &mut [f32], weight: &[f32], bias: &[f32], padded: &[f32], g: SameConv) {
        match g.kernel {
            5 => conv_fwd_k::<V, 5>(out, weight, bias, padded, g),
            3 => conv_fwd_k::<V, 3>(out, weight, bias, padded, g),
            1 => conv_fwd_k::<V, 1>(out, weight, bias, padded, g),
            _ => conv_fwd_k::<V, 0>(out, weight, bias, padded, g),
        }
    }

    /// [`conv_fwd`] at kernel size `K` (`0`: the size in `g`).
    #[inline(always)]
    unsafe fn conv_fwd_k<V: Lanes, const K: usize>(out: &mut [f32], weight: &[f32], bias: &[f32], padded: &[f32], g: SameConv) {
        if g.is_empty() {
            return;
        }
        let (plane, fan_in) = (g.in_h * g.in_w, g.fan_in());
        let mut o4 = out.chunks_exact_mut(4 * plane);
        let mut w4 = weight.chunks_exact(4 * fan_in);
        let mut b4 = bias.chunks_exact(4);
        for ((o, w), b) in (&mut o4).zip(&mut w4).zip(&mut b4) {
            conv_fwd_rows::<V, 4, 2, K>(o, w, b, padded, g);
        }
        let mut o2 = o4.into_remainder().chunks_exact_mut(2 * plane);
        let mut w2 = w4.remainder().chunks_exact(2 * fan_in);
        let mut b2 = b4.remainder().chunks_exact(2);
        for ((o, w), b) in (&mut o2).zip(&mut w2).zip(&mut b2) {
            conv_fwd_rows::<V, 2, 4, K>(o, w, b, padded, g);
        }
        let rest = o2.into_remainder().chunks_exact_mut(plane).zip(w2.remainder().chunks_exact(fan_in));
        for ((o, w), b) in rest.zip(b2.remainder().chunks_exact(1)) {
            conv_fwd_rows::<V, 1, 8, K>(o, w, b, padded, g);
        }
    }

    /// `R` output channels' planes, `U` registers of each at a time: each
    /// padded load feeds the `R` channels, each broadcast weight the `U`
    /// registers, and every lane runs its position's chain over the taps in
    /// ascending order from `+0.0`, then `+ b`. A kernel row's `k` taps
    /// read one window of `k − 1 + N` padded scalars per register. A
    /// register inside one image row is stored whole; one that is not (a
    /// plane narrower than a register) lane by lane, its gaps dropped.
    #[inline(always)]
    unsafe fn conv_fwd_rows<V: Lanes, const R: usize, const U: usize, const K: usize>(out: &mut [f32], weight: &[f32], bias: &[f32], padded: &[f32], g: SameConv) {
        let k = if K == 0 { g.kernel } else { K };
        let (fan_in, plane, pw) = (g.fan_in(), g.plane(), g.width());
        let Some(w_rows) = windows::<R>(weight, std::array::from_fn(|r| r * fan_in), fan_in) else { return };
        let mut lanes = [0.0f32; MAX_N];
        let mut starts = g.registers(V::N);
        while let Some(regs) = next_group::<_, U>(&mut starts) {
            let qs = regs.map(|(q, _)| q);
            let mut acc = [[V::zero(); U]; R];
            for c in 0..g.in_channels {
                for ky in 0..k {
                    let (base, t0) = (c * plane + ky * pw, (c * k + ky) * k);
                    let xs = windows::<U>(padded, qs.map(|q| base + q), k - 1 + V::N);
                    if let (Some(xs), Some(ws)) = (xs, windows_of::<R>(&w_rows, t0, k)) {
                        acc = conv_fwd_taps::<V, R, U, K>(acc, xs, ws, k);
                    }
                }
            }
            for ((acc, o_plane), &b) in acc.iter().zip(out.chunks_exact_mut(g.in_h * g.in_w)).zip(bias) {
                let b = V::splat(b);
                for (a, &(q, at)) in acc.iter().zip(&regs) {
                    let y = a.fadd(b);
                    if let Some(s) = at.and_then(|at| o_plane.get_mut(at..at + V::N)) {
                        y.store(s);
                        continue;
                    }
                    y.store(lanes.get_mut(..V::N).unwrap_or_default());
                    store_lanes(o_plane, lanes.get(..V::N).unwrap_or_default(), q, g);
                }
            }
        }
    }

    /// Writes the lanes of a register that does not lie inside one image row
    /// (frame positions from `q` on) to their output positions, dropping
    /// the gaps. Out of line, so the register stores around it stay small
    /// enough to unroll.
    #[inline(never)]
    fn store_lanes(o_plane: &mut [f32], lanes: &[f32], q: usize, g: SameConv) {
        let pw = g.width().max(1);
        let (mut oy, mut ox) = (q / pw, q % pw);
        for &v in lanes {
            if ox < g.in_w {
                if let Some(d) = o_plane.get_mut(oy * g.in_w + ox) {
                    *d = v;
                }
            }
            ox += 1;
            if ox == pw {
                (oy, ox) = (oy + 1, 0);
            }
        }
    }

    /// One kernel row's `k` taps of [`conv_fwd_rows`]'s accumulators: `xs`
    /// holds each register's `k − 1 + N` padded scalars, `ws` each
    /// channel's `k` weights.
    #[inline(always)]
    unsafe fn conv_fwd_taps<V: Lanes, const R: usize, const U: usize, const K: usize>(mut acc: [[V; U]; R], xs: [&[f32]; U], ws: [&[f32]; R], k: usize) -> [[V; U]; R] {
        for kx in 0..if K == 0 { k } else { K } {
            let mut x = [V::zero(); U];
            for (x, s) in x.iter_mut().zip(&xs) {
                if let Some(s) = s.get(kx..kx + V::N) {
                    *x = V::load(s);
                }
            }
            for (acc, w) in acc.iter_mut().zip(&ws) {
                let wv = V::splat(w.get(kx).copied().unwrap_or(0.0));
                for (a, &x) in acc.iter_mut().zip(&x) {
                    *a = a.fadd(wv.fmul(x));
                }
            }
        }
        acc
    }

    /// `len` scalars of each of `rows` from `at`, if all are long enough.
    #[inline(always)]
    fn windows_of<'a, const R: usize>(rows: &[&'a [f32]; R], at: usize, len: usize) -> Option<[&'a [f32]; R]> {
        let mut out = [&[][..]; R];
        for (o, row) in out.iter_mut().zip(rows) {
            *o = row.get(at..at + len)?;
        }
        Some(out)
    }

    /// The direct "same" conv input gradient: per input channel and kernel
    /// row, the rows of its `kernel` taps at once ([`conv_dx_taps`]: each
    /// `dY` load feeds every tap), then each tap row's NaN-holding
    /// [`scatter_add`] onto the padded plane, in ascending tap order. The
    /// first `lanes` of `taps` become the output-position mask; a gap of a
    /// tap row holds `−0.0`, which the NaN-holding add leaves every value
    /// alone under.
    #[inline(always)]
    pub(super) unsafe fn conv_dx<V: Lanes>(dxp: &mut [f32], weight: &[f32], rows: &[f32], taps: &mut [f32], g: SameConv) {
        if g.is_empty() {
            return;
        }
        let (lanes, plane, pw, k) = (g.lanes(), g.plane(), g.width(), g.kernel);
        let Some((mask, t_rows)) = taps.split_at_mut_checked(lanes) else { return };
        mask.fill(LANE_OFF);
        for row in mask.chunks_mut(pw).take(g.in_h) {
            row.get_mut(..g.in_w).unwrap_or_default().fill(LANE_ON);
        }
        t_rows.fill(-0.0);
        for c in 0..g.in_channels {
            for ky in 0..k {
                let t0 = (c * k + ky) * k;
                match k {
                    5 => conv_dx_taps::<V, 5, 2>(t_rows, weight, rows, mask, t0, g),
                    3 => conv_dx_taps::<V, 3, 3>(t_rows, weight, rows, mask, t0, g),
                    _ => {
                        for (kx, t_row) in t_rows.chunks_exact_mut(lanes).take(k).enumerate() {
                            conv_dx_taps::<V, 1, 8>(t_row, weight, rows, mask, t0 + kx, g);
                        }
                    }
                }
                let base = c * plane + ky * pw;
                for (kx, t_row) in t_rows.chunks_exact(lanes).take(k).enumerate() {
                    if let Some(dst) = dxp.get_mut(base + kx..base + kx + lanes) {
                        scatter_add::<V>(dst, t_row);
                    }
                }
            }
        }
    }

    /// The rows of the `KX` taps from `t0` on, `U` registers at a time: per
    /// output channel in ascending order one load of each `dY` register and
    /// one broadcast weight per tap, every lane's chain from `+0.0`; stored
    /// through the mask, a gap as `−0.0`.
    #[inline(always)]
    unsafe fn conv_dx_taps<V: Lanes, const KX: usize, const U: usize>(t_rows: &mut [f32], weight: &[f32], rows: &[f32], mask: &[f32], t0: usize, g: SameConv) {
        let (lanes, fan_in) = (g.lanes(), g.fan_in());
        let gap = V::splat(-0.0);
        let mut starts = g.registers(V::N).map(|(q, _)| q);
        while let Some(qs) = next_group::<_, U>(&mut starts) {
            let mut acc = [[V::zero(); U]; KX];
            for (dy_row, w_row) in rows.chunks_exact(lanes).zip(weight.chunks_exact(fan_in)) {
                let Some(w_taps) = w_row.get(t0..t0 + KX) else { continue };
                let mut d = [V::zero(); U];
                for (d, &q) in d.iter_mut().zip(&qs) {
                    if let Some(s) = dy_row.get(q..q + V::N) {
                        *d = V::load(s);
                    }
                }
                for (acc, &wv) in acc.iter_mut().zip(w_taps) {
                    let wv = V::splat(wv);
                    for (a, &d) in acc.iter_mut().zip(&d) {
                        *a = a.fadd(wv.fmul(d));
                    }
                }
            }
            for (acc, t_row) in acc.iter().zip(t_rows.chunks_exact_mut(lanes)) {
                for (a, &q) in acc.iter().zip(&qs) {
                    if let (Some(s), Some(m)) = (t_row.get_mut(q..q + V::N), mask.get(q..q + V::N)) {
                        V::select(V::load(m), *a, gap).store(s);
                    }
                }
            }
        }
    }

    /// The direct "same" conv weight and bias gradients, lanes over output
    /// channels: `dY` is transposed into `dyt` (per output position, its
    /// channels rounded up to a register, `+0.0` past the last), then the
    /// taps run in groups ([`conv_dw_block`]) over one or two registers of
    /// channels. A group is `M` runs of `K` consecutive taps — kernel rows
    /// when `K` is the kernel size, single taps when it is 1 — with `M·K`
    /// about eight chains per register.
    #[inline(always)]
    pub(super) unsafe fn conv_dw<V: Lanes>(wgrad: &mut [f32], bgrad: &mut [f32], dy: &[f32], padded: &[f32], dyt: &mut [f32], g: SameConv) {
        if g.is_empty() {
            return;
        }
        let (out_plane, cp) = (g.in_h * g.in_w, g.out_channels.next_multiple_of(V::N));
        let Some(dyt) = dyt.get_mut(..out_plane * cp) else { return };
        // `dyt[j][o] = dy[o][j]`, `N × N` blocks through registers, the
        // positions after the last whole block lane by lane.
        let whole = out_plane / V::N * V::N;
        for o0 in (0..cp).step_by(V::N) {
            let planes = o0..g.out_channels.min(o0 + V::N);
            for j0 in (0..whole).step_by(V::N) {
                let mut rows = [V::zero(); MAX_N];
                for (r, o) in rows.iter_mut().zip(planes.clone()) {
                    if let Some(s) = dy.get(o * out_plane + j0..o * out_plane + j0 + V::N) {
                        *r = V::load(s);
                    }
                }
                for (col, j) in V::transpose(rows).iter().take(V::N).zip(j0..) {
                    if let Some(s) = dyt.get_mut(j * cp + o0..j * cp + o0 + V::N) {
                        col.store(s);
                    }
                }
            }
            for j in whole..out_plane {
                for o in o0..o0 + V::N {
                    if let Some(d) = dyt.get_mut(j * cp + o) {
                        *d = if o < g.out_channels { dy.get(o * out_plane + j).copied().unwrap_or(0.0) } else { 0.0 };
                    }
                }
            }
        }
        for o0 in (0..cp).step_by(2 * V::N) {
            let grads = (&mut *wgrad, &mut *bgrad);
            match (cp - o0 >= 2 * V::N, g.kernel) {
                (true, 5) => conv_dw_block::<V, 2, 1, 5>(grads, dyt, padded, o0, g),
                (false, 5) => conv_dw_block::<V, 1, 1, 5>(grads, dyt, padded, o0, g),
                (true, 3) => conv_dw_block::<V, 2, 1, 3>(grads, dyt, padded, o0, g),
                (false, 3) => conv_dw_block::<V, 1, 3, 3>(grads, dyt, padded, o0, g),
                (true, _) => conv_dw_block::<V, 2, 4, 1>(grads, dyt, padded, o0, g),
                (false, _) => conv_dw_block::<V, 1, 8, 1>(grads, dyt, padded, o0, g),
            }
        }
    }

    /// The channels `o0..o0 + UO·N` of every tap, `M` runs of `K` taps at a
    /// time (the last group filled up with repeats of its last run, whose
    /// chains are not added), each chain added to its weight's gradient;
    /// the first group also folds the bias sums.
    #[inline(always)]
    unsafe fn conv_dw_block<V: Lanes, const UO: usize, const M: usize, const K: usize>(grads: (&mut [f32], &mut [f32]), dyt: &[f32], padded: &[f32], o0: usize, g: SameConv) {
        let (wgrad, bgrad) = grads;
        let fan_in = g.fan_in();
        let runs = fan_in / K;
        let mut lanes = [0.0f32; MAX_N];
        for r0 in (0..runs).step_by(M) {
            let live = (runs - r0).min(M);
            let offsets: [usize; M] = std::array::from_fn(|m| g.tap_offset((r0 + m.min(live - 1)) * K));
            let (acc, bias) = if r0 == 0 {
                conv_dw_chains::<V, UO, M, K, true>(offsets, dyt, padded, o0, g)
            } else {
                conv_dw_chains::<V, UO, M, K, false>(offsets, dyt, padded, o0, g)
            };
            for (run, acc) in (r0..r0 + live).zip(&acc) {
                for (tap, acc) in (run * K..).zip(acc) {
                    for (u, a) in acc.iter().enumerate() {
                        a.store(lanes.get_mut(..V::N).unwrap_or_default());
                        for (o, &v) in (o0 + u * V::N..g.out_channels).zip(&lanes) {
                            if let Some(gv) = wgrad.get_mut(o * fan_in + tap) {
                                *gv += v;
                            }
                        }
                    }
                }
            }
            if r0 == 0 {
                for (u, b) in bias.iter().enumerate() {
                    b.store(lanes.get_mut(..V::N).unwrap_or_default());
                    for (bg, &v) in bgrad.iter_mut().skip(o0 + u * V::N).zip(&lanes) {
                        *bg += v;
                    }
                }
            }
        }
    }

    /// The dot chains of `M` runs of `K` taps (the runs at `offsets` in the
    /// padded planes) over the channels `o0..o0 + UO·N`: per output position
    /// in ascending order, one load of each `dY` register and one broadcast
    /// padded scalar per tap, every chain from `+0.0`; with `BIAS`, also the
    /// `dY` sums from `−0.0`.
    #[inline(always)]
    unsafe fn conv_dw_chains<V: Lanes, const UO: usize, const M: usize, const K: usize, const BIAS: bool>(offsets: [usize; M], dyt: &[f32], padded: &[f32], o0: usize, g: SameConv) -> ([[[V; UO]; K]; M], [V; UO]) {
        let (w, pw) = (g.in_w, g.width());
        let cp = g.out_channels.next_multiple_of(V::N);
        let mut acc = [[[V::zero(); UO]; K]; M];
        let mut bias = [V::splat(-0.0); UO];
        for (oy, d_rows) in dyt.chunks_exact(w * cp).enumerate() {
            let Some(xs) = windows::<M>(padded, offsets.map(|off| off + oy * pw), w + K - 1) else { continue };
            for (ox, d_row) in d_rows.chunks_exact(cp).enumerate() {
                let mut d = [V::zero(); UO];
                for (u, d) in d.iter_mut().enumerate() {
                    if let Some(s) = d_row.get(o0 + u * V::N..o0 + (u + 1) * V::N) {
                        *d = V::load(s);
                    }
                }
                for (acc, x) in acc.iter_mut().zip(&xs) {
                    let Some(x) = x.get(ox..ox + K) else { continue };
                    for (acc, &xv) in acc.iter_mut().zip(x) {
                        let xv = V::splat(xv);
                        for (a, &d) in acc.iter_mut().zip(&d) {
                            *a = a.fadd(d.fmul(xv));
                        }
                    }
                }
                if BIAS {
                    for (b, &d) in bias.iter_mut().zip(&d) {
                        *b = b.fadd(d);
                    }
                }
            }
        }
        (acc, bias)
    }
}

// ---------------------------------------------------------------------------
// Dispatched entry points
// ---------------------------------------------------------------------------

/// The kernel table, one row per kernel: `name: name_with[, name](args)
/// [-> ret];`.
///
/// `name` is the kernel — `scalar::name` and the generic `x86::name::<V>`.
/// Every row gets the level-pinned dispatcher `name_with(level, args)` and,
/// inside it, the `#[target_feature]` wrapper that instantiates the one
/// body at `__m256`; these wrappers are the only `#[target_feature]`
/// functions in the workspace. A row that also lists the plain `name` gets
/// the entry point that resolves [`simd_level`] once per call (only kernels
/// with a caller outside a level-pinned loop list one). The `Avx2` arm
/// exists on x86-64 only; everywhere else every level runs the scalar
/// kernel.
macro_rules! kernels {
    ($($(#[$doc:meta])* $name:ident: $($entry:ident),+ ($($arg:ident: $ty:ty),*) $(-> $ret:ty)?;)*) => {
        $(kernels!(@row $(#[$doc])* $name: $($entry),+ ($($arg: $ty),*) [$($ret)?]);)*
    };
    (@row $(#[$doc:meta])* $name:ident: $with:ident, $plain:ident ($($arg:ident: $ty:ty),*) [$($ret:ty)?]) => {
        $(#[$doc])*
        pub fn $plain($($arg: $ty),*) $(-> $ret)? {
            $with(simd_level(), $($arg),*)
        }

        kernels!(@row $(#[$doc])* $name: $with ($($arg: $ty),*) [$($ret)?]);
    };
    (@row $(#[$doc:meta])* $name:ident: $with:ident ($($arg:ident: $ty:ty),*) [$($ret:ty)?]) => {
        $(#[$doc])*
        ///
        /// Level-pinned form, so tight loops resolve the level once. `level`
        /// must not exceed [`hardware_simd_level`] (both [`simd_level`] and
        /// [`set_simd_level`] guarantee this).
        pub fn $with(level: SimdLevel, $($arg: $ty),*) $(-> $ret)? {
            #[cfg(target_arch = "x86_64")]
            #[target_feature(enable = "avx2")]
            unsafe fn avx2($($arg: $ty),*) $(-> $ret)? {
                // SAFETY: this fn enables AVX2, which includes the AVX that
                // `Lanes for __m256` requires.
                unsafe { x86::$name::<std::arch::x86_64::__m256>($($arg),*) }
            }
            match level {
                // SAFETY: `level` never exceeds the detected hardware
                // capability — the one precondition of this fn — so the AVX2
                // the wrapper enables is present.
                #[cfg(target_arch = "x86_64")]
                SimdLevel::Avx2 => unsafe { avx2($($arg),*) },
                _ => scalar::$name($($arg),*),
            }
        }
    };
}

kernels! {
    /// `y[i] += a * x[i]` over the common prefix of `y` and `x`.
    ///
    /// Bit-identical at every SIMD level (separate mul+add, one chain per
    /// element).
    axpy: axpy_with(y: &mut [f32], a: f32, x: &[f32]);

    /// `y[i] += x[i]` over the common prefix of `y` and `x`.
    add_assign: add_assign_with(y: &mut [f32], x: &[f32]);

    /// NaN-holding scatter add for accumulation chains that span multiple
    /// kernel calls (conv col2im): `y[i] += x[i]` unless `y[i]` is NaN, which
    /// is held bit-exactly so double-NaN operand-order ambiguity can never
    /// arise.
    scatter_add: scatter_add_with(y: &mut [f32], x: &[f32]);

    /// `r[i] += l[i] - g[i]` over the common prefix (top-k residual
    /// accumulation: evaluated as `r + (l - g)` at every level).
    add_diff: add_diff_with(r: &mut [f32], l: &[f32], g: &[f32]);

    /// `y[i] = m[i] ? y[i] + x[i] : y[i]` over the common prefix, `m` a row
    /// of lane words ([`LANE_OFF`] / [`LANE_ON`]). Bits are selected, not
    /// added: an unselected `y[i]` is untouched, `-0.0` included (FedSU's
    /// speculative step over the predictability mask).
    add_assign_masked: add_assign_masked_with(y: &mut [f32], x: &[f32], m: &[f32]);

    /// `r[i] += (l[i] - g[i]) & m[i]` over the common prefix, `m` a row of
    /// lane words: an unselected `r[i]` receives `+0.0` even where `l` or `g`
    /// is infinite or NaN (FedSU's per-client error accumulation).
    add_diff_masked: add_diff_masked_with(r: &mut [f32], l: &[f32], g: &[f32], m: &[f32]);

    /// `out[i] = |x[i]|` over the common prefix: clears the sign bit,
    /// preserving NaN payloads, exactly like `f32::abs`.
    abs_into: abs_into_with(out: &mut [f32], x: &[f32]);

    /// ReLU forward: `out[i] = x[i] if x[i] > 0 else +0.0`. NaN inputs
    /// yield `+0.0` (the comparison is false), `-0.0` yields `+0.0`.
    relu_fwd: relu_fwd_with, relu_fwd(x: &[f32], out: &mut [f32]);

    /// ReLU backward: `out[i] = g[i] if x[i] > 0 else +0.0` (the
    /// subgradient at 0 is 0).
    relu_bwd: relu_bwd_with, relu_bwd(x: &[f32], g: &[f32], out: &mut [f32]);

    /// Fused SGD step over the common prefix: `eff = g + wd·x;
    /// x -= lr·eff; g = 0`, in exactly that scalar evaluation order.
    sgd_step: sgd_step_with, sgd_step(x: &mut [f32], g: &mut [f32], lr: f32, wd: f32);

    /// One column strip `cols` of a block of output rows of the ikj kernel
    /// (`A·B` and `Aᵀ·B`) over one `k`-tile: for every row `r` of `c_rows`
    /// (rows of `n`) and `j` in `cols`, `c[r][j] += a[r·row + p·step] *
    /// b_tile[p·n + j]` for ascending `p` (`layout` is `row`/`step`;
    /// `b_tile` is the tile's rows of `B`). Strip-wise calls let the caller
    /// keep a narrow `B` window cache-resident across the whole block
    /// without changing any element's accumulation order. Rows are paired
    /// from the block's first row (the matmul driver cuts blocks
    /// `MC`-aligned). A strip's last `width mod N` columns run as one
    /// register block ending at `cols.end` (when `cols.end ≥ N`), which may
    /// start before `cols.start`: its store selects the new chains for
    /// those columns only and writes the lanes before them back with the
    /// bits it loaded.
    nn_strip: nn_strip_with(c_rows: &mut [f32], a: &[f32], layout: TileLayout, b_tile: &[f32], n: usize, cols: std::ops::Range<usize>);

    /// One output row of the `C = A·Bᵀ` kernel: `c_row[j] = dot(a_row,
    /// b[j·k..][..k])`, each dot one sequential ascending-`p` chain; a row at
    /// least `N` wide ends with a block over its last `N` columns, whose
    /// overlap with the block before is overwritten with the same chains.
    /// Requires `k > 0` (the caller short-circuits empty dots).
    tb_row: tb_row_with(c_row: &mut [f32], a_row: &[f32], b: &[f32], k: usize);

    /// Four output rows of the `C = A·Bᵀ` kernel at once (`c_rows` and
    /// `a_rows` hold four rows each): every output is the same dot chain as
    /// [`tb_row_with`]'s, and each transposed window of `B` feeds all four
    /// rows (the matmul driver groups within `MC`-aligned blocks). Its own table
    /// row rather than one block kernel over both: inlined next to a
    /// four-row loop, `tb_row` ran 30–38 % slower on batch-1 products.
    /// Requires `k > 0`.
    tb_row4: tb_row4_with(c_rows: &mut [f32], a_rows: &[f32], b: &[f32], k: usize);

    /// [`tb_row4_with`] for two rows (`c_rows` and `a_rows` hold two rows
    /// each): the pair a block's `m mod 4` rows start with.
    tb_row2: tb_row2_with(c_rows: &mut [f32], a_rows: &[f32], b: &[f32], k: usize);

    /// `acc[c] += sum(run c of x) / len(run c)` over `x`'s runs of `chunk`
    /// consecutive scalars (the last may be short), each sum one ascending
    /// chain from `−0.0`, as `f32::sum` folds: the per-chunk mean FedSU's
    /// checks are made of, accumulated onto a chunk row. At chunk 1 a mean is
    /// its one lane (`(−0.0 + x) / 1` is `x`), and this is `acc[c] += x[c]`.
    add_chunk_means: add_chunk_means_with(acc: &mut [f32], x: &[f32], chunk: usize);

    /// [`add_diff_masked_with`] on `r`, then [`add_chunk_means_with`] of the
    /// updated `r` onto `acc` — in one pass over the rows at chunk 1. FedSU's
    /// error pass for a client whose report a due check needs.
    add_diff_masked_means: add_diff_masked_means_with(r: &mut [f32], l: &[f32], g: &[f32], m: &[f32], acc: &mut [f32], chunk: usize);

    /// FedSU's countdown-and-update pass over the rows of [`SweepRows`],
    /// chunk by chunk (`rule.chunk` scalars each, the last chunk possibly
    /// short; the chunk rows hold one lane per chunk):
    ///
    /// * every scalar computes `avg = sum·inv` and `g = avg − global`; in a
    ///   regular chunk `global = avg` and `prev_update = g`, in a speculative
    ///   one both keep their exact bits. The chunk folds `g − prev_update`
    ///   (the old one) and `|g|` over its scalars onto `+0.0` and divides by
    ///   its length: its mean second difference and mean update magnitude.
    /// * **speculative** chunk (`remaining > 0`): the countdown spends one
    ///   round; its check (or fixed-period exit) is due when it reaches 0.
    /// * **regular** chunk: the observation count rises by one, saturating
    ///   at `u16::MAX`; unless this is the chunk's first observation the EMA
    ///   pair folds in the mean second difference (`⟨x⟩ ← θ·⟨x⟩ + (1−θ)·x`,
    ///   as `EmaPair::observe` does); past its warm-up the chunk is an entry
    ///   candidate unless `rule.ratio_bound` rejects it.
    ///
    /// Chunk `c` sets bit `c` (bit `c % 64` of word `c / 64`) of `flags.0`
    /// when its check is due and of `flags.1` when it is an entry candidate;
    /// other bits are left as they are, and each row needs a bit for every
    /// chunk. Returns how many speculative chunks are left with exactly one
    /// round (the checks due next round). Vectorized at chunk 1; a longer
    /// chunk's folds are chains across lanes, and it runs the scalar loop.
    sweep_chunks: sweep_chunks_with(rows: SweepRows<'_>, rule: SweepRule, flags: (&mut [u64], &mut [u64])) -> usize;

    /// The forward of one sample of a stride-1 "same" convolution: output
    /// position `(oy, ox)` of plane `o` of `out` (`[out_channels, in_h,
    /// in_w]`) becomes `weight[o]`'s chain over the taps `t = (c, ky, kx)`
    /// in ascending order from `+0.0`, `+= weight[o][t] · padded[q +
    /// offset(t)]` with `q` its position in [`SameConv`]'s frame — the chain
    /// `W·cols` runs on `im2col`'s columns, read in place from `padded`
    /// (`in_channels` padded planes) — then `+ bias[o]`.
    conv_fwd: conv_fwd_with, conv_fwd(out: &mut [f32], weight: &[f32], bias: &[f32], padded: &[f32], g: SameConv);

    /// The input gradient of one sample of a stride-1 "same" convolution,
    /// in [`SameConv`]'s frame: for every tap `t` in ascending order, each
    /// output position `q` of `rows` (`dY`, `out_channels` rows) makes the
    /// chain `Wᵀ·dY` runs, `Σ_o weight[o][t] · rows[o][q]` in ascending `o`
    /// from `+0.0`, and adds it with the NaN-holding add of `col2im` to
    /// `dxp[q + offset(t)]` (`in_channels` padded planes, zeroed by the
    /// caller) — an out-of-image tap adds to a padding position. `taps` is
    /// scratch of [`SameConv::taps_len`] scalars.
    conv_dx: conv_dx_with, conv_dx(dxp: &mut [f32], weight: &[f32], rows: &[f32], taps: &mut [f32], g: SameConv);

    /// The weight and bias gradients of one sample of a stride-1 "same"
    /// convolution: `wgrad[o][t] += Σ_j dy[o][j] · padded[q(j) + offset(t)]`
    /// over the output positions `j` (`dy` is `[out_channels, in_h·in_w]`)
    /// in ascending order from `+0.0` — the chain of `dY·colsᵀ` — and
    /// `bgrad[o] += dy[o]`'s sum, folded from `−0.0` as `f32::sum` folds.
    /// `dyt` is scratch of [`SameConv::dyt_len`] scalars.
    conv_dw: conv_dw_with, conv_dw(wgrad: &mut [f32], bgrad: &mut [f32], dy: &[f32], padded: &[f32], dyt: &mut [f32], g: SameConv);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic fill with specials (±0.0, NaN, ±inf) planted
    /// periodically so select/abs paths face the full IEEE surface.
    fn filled(len: usize, seed: u32) -> Vec<f32> {
        let mut state = seed | 1;
        (0..len)
            .map(|i| {
                state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                match i % 23 {
                    7 => -0.0,
                    11 => f32::NAN,
                    15 => f32::INFINITY,
                    19 => f32::NEG_INFINITY,
                    _ => (state >> 8) as f32 / (1 << 16) as f32 - 128.0,
                }
            })
            .collect()
    }

    fn assert_bits_eq(a: &[f32], b: &[f32], what: &str) {
        assert_eq!(a.len(), b.len(), "{what}: length");
        for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: index {i}: {x} vs {y}");
        }
    }

    /// Bit equality modulo NaN payloads: any NaN matches any NaN. Used where
    /// two *differently compiled* loop instances cover the same element (see
    /// the double-NaN carve-out in the module docs): `NaN + NaN` keeps
    /// whichever operand the compiled add ordered first, so the payload is
    /// deterministic per instance but not portable between instances.
    fn assert_bits_eq_mod_nan(a: &[f32], b: &[f32], what: &str) {
        assert_eq!(a.len(), b.len(), "{what}: length");
        for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
            assert!(
                x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()),
                "{what}: index {i}: {x} ({:#010x}) vs {y} ({:#010x})",
                x.to_bits(),
                y.to_bits()
            );
        }
    }

    fn levels() -> Vec<SimdLevel> {
        [SimdLevel::Scalar, SimdLevel::Avx2]
            .into_iter()
            .filter(|&l| l <= hardware_simd_level())
            .collect()
    }

    const LENS: [usize; 6] = [0, 1, 7, 8, 33, 1000];

    #[test]
    fn env_parsing_rules() {
        assert_eq!(parse_env(None), None);
        assert_eq!(parse_env(Some("")), None);
        assert_eq!(parse_env(Some("garbage")), None);
        assert_eq!(parse_env(Some("off")), Some(SimdLevel::Scalar));
        assert_eq!(parse_env(Some("Scalar")), Some(SimdLevel::Scalar));
        assert_eq!(parse_env(Some(" avx2 ")), Some(SimdLevel::Avx2));
        assert_eq!(parse_env(Some("AVX2")), Some(SimdLevel::Avx2));
        // The retired 128-bit tier's name selects auto, like any other.
        assert_eq!(parse_env(Some("sse2")), None);
    }

    #[test]
    fn level_order_and_names() {
        assert!(SimdLevel::Scalar < SimdLevel::Avx2);
        // The report numbers (roundbench's `tensor.simd_level`).
        assert_eq!((SimdLevel::Scalar as u8, SimdLevel::Avx2 as u8), (0, 2));
        for l in [SimdLevel::Scalar, SimdLevel::Avx2] {
            assert_eq!(SimdLevel::from_index(l.index()), l);
            assert_eq!(parse_env(Some(l.name())), Some(l));
        }
    }

    #[test]
    fn override_is_clamped_to_hardware() {
        let prior = simd_level();
        set_simd_level(SimdLevel::Avx2);
        assert!(simd_level() <= hardware_simd_level());
        set_simd_level(SimdLevel::Scalar);
        assert_eq!(simd_level(), SimdLevel::Scalar);
        set_simd_level(prior);
        assert_eq!(simd_level(), prior);
    }

    #[test]
    fn axpy_bit_identical_across_levels() {
        for &len in &LENS {
            let x = filled(len, 3);
            let mut want = filled(len, 5);
            scalar::axpy(&mut want, 1.7, &x);
            for level in levels() {
                let mut got = filled(len, 5);
                axpy_with(level, &mut got, 1.7, &x);
                assert_bits_eq(&got, &want, &format!("axpy {level:?} len {len}"));
            }
        }
    }

    #[test]
    fn add_assign_and_add_diff_bit_identical_across_levels() {
        for &len in &LENS {
            let x = filled(len, 11);
            let g = filled(len, 13);
            let mut want_add = filled(len, 17);
            let mut want_diff = filled(len, 17);
            scalar::add_assign(&mut want_add, &x);
            scalar::add_diff(&mut want_diff, &x, &g);
            for level in levels() {
                let mut got = filled(len, 17);
                add_assign_with(level, &mut got, &x);
                assert_bits_eq(&got, &want_add, &format!("add_assign {level:?} len {len}"));
                let mut got = filled(len, 17);
                add_diff_with(level, &mut got, &x, &g);
                assert_bits_eq(&got, &want_diff, &format!("add_diff {level:?} len {len}"));
            }
        }
    }

    #[test]
    fn masked_kernels_bit_identical_across_levels() {
        for &len in &LENS {
            let x = filled(len, 11);
            let g = filled(len, 13);
            // Every fifth lane off, so both arms meet every special in `filled`.
            let m: Vec<f32> = (0..len).map(|i| if i % 5 == 0 { LANE_OFF } else { LANE_ON }).collect();
            let mut want_add = filled(len, 17);
            let mut want_diff = filled(len, 17);
            scalar::add_assign_masked(&mut want_add, &x, &m);
            scalar::add_diff_masked(&mut want_diff, &x, &g, &m);
            for level in levels() {
                let mut got = filled(len, 17);
                add_assign_masked_with(level, &mut got, &x, &m);
                assert_bits_eq(&got, &want_add, &format!("add_assign_masked {level:?} len {len}"));
                let mut got = filled(len, 17);
                add_diff_masked_with(level, &mut got, &x, &g, &m);
                assert_bits_eq(&got, &want_diff, &format!("add_diff_masked {level:?} len {len}"));
            }
        }
    }

    #[test]
    fn masked_kernels_leave_unselected_lanes_alone() {
        // Ten lanes, odd ones selected: both arms in the vector body and
        // in the remainder.
        let m: Vec<f32> = (0..10).map(|i| if i % 2 == 1 { LANE_ON } else { LANE_OFF }).collect();
        let l: Vec<f32> = (0..10).map(|i| if i % 4 < 2 { f32::INFINITY } else { f32::NAN }).collect();
        let g = [f32::INFINITY; 10];
        for level in levels() {
            // `-0.0 + 0.0` is `+0.0`: a lane that was added to shows it.
            let mut y = [-0.0f32; 10];
            add_assign_masked_with(level, &mut y, &[0.0; 10], &m);
            let mut r = [0.0f32; 10];
            add_diff_masked_with(level, &mut r, &l, &g, &m);
            for i in 0..10 {
                if i % 2 == 1 {
                    assert_eq!(y[i].to_bits(), 0, "{level:?}: selected lane {i} is summed");
                    assert!(r[i].is_nan(), "{level:?}: selected lane {i} takes inf - inf / NaN - inf");
                } else {
                    assert_eq!(y[i].to_bits(), (-0.0f32).to_bits(), "{level:?}: unselected -0.0 at lane {i} held");
                    assert_eq!(r[i].to_bits(), 0, "{level:?}: unselected lane {i} stays +0.0");
                }
            }
        }
    }

    #[test]
    fn scatter_add_holds_nan_and_is_bit_identical_across_levels() {
        // Offset the special pattern so NaN/inf in `x` meet different
        // specials in `y` — the exact double-NaN / inf+(-inf) collisions the
        // NaN-holding guard exists for.
        for &len in &LENS {
            let x: Vec<f32> = filled(len + 13, 73).split_off(13);
            let mut want = filled(len, 79);
            scalar::scatter_add(&mut want, &x);
            for level in levels() {
                let mut got = filled(len, 79);
                scatter_add_with(level, &mut got, &x);
                assert_bits_eq(&got, &want, &format!("scatter_add {level:?} len {len}"));
            }
        }
        // The hold rule itself: a NaN accumulator keeps its exact payload.
        let payload = f32::from_bits(0x7fc0_1234);
        for level in levels() {
            let mut y = [payload, 1.0, f32::INFINITY];
            scatter_add_with(level, &mut y, &[5.0, f32::NEG_INFINITY, f32::NEG_INFINITY]);
            assert_eq!(y[0].to_bits(), 0x7fc0_1234, "{level:?}: NaN held");
            assert_eq!(y[1], f32::NEG_INFINITY);
            assert!(y[2].is_nan(), "{level:?}: inf + -inf is NaN");
        }
    }

    #[test]
    fn abs_and_activations_bit_identical_across_levels() {
        for &len in &LENS {
            let x = filled(len, 29);
            let g = filled(len, 31);
            let mut want = vec![0.0f32; len];
            for level in levels() {
                let tag = format!("{level:?} len {len}");
                let mut got = vec![0.0f32; len];
                scalar::abs_into(&mut want, &x);
                abs_into_with(level, &mut got, &x);
                assert_bits_eq(&got, &want, &format!("abs {tag}"));
                scalar::relu_fwd(&x, &mut want);
                relu_fwd_with(level, &x, &mut got);
                assert_bits_eq(&got, &want, &format!("relu_fwd {tag}"));
                scalar::relu_bwd(&x, &g, &mut want);
                relu_bwd_with(level, &x, &g, &mut got);
                assert_bits_eq(&got, &want, &format!("relu_bwd {tag}"));
            }
        }
    }

    #[test]
    fn relu_ieee_edge_cases() {
        let x = [f32::NAN, -0.0, 0.0, -1.0, 2.0, f32::NEG_INFINITY, f32::INFINITY];
        for level in levels() {
            let mut out = vec![9.0f32; x.len()];
            relu_fwd_with(level, &x, &mut out);
            assert_eq!(out.first().copied().map(f32::to_bits), Some(0.0f32.to_bits()), "NaN input → +0.0");
            assert_eq!(out.get(1).copied().map(f32::to_bits), Some(0.0f32.to_bits()), "-0.0 → +0.0");
            assert_eq!(out.get(4).copied(), Some(2.0));
            assert_eq!(out.last().copied(), Some(f32::INFINITY));
        }
    }

    #[test]
    fn sgd_steps_bit_identical_across_levels() {
        for &len in &LENS {
            let mut want_x = filled(len, 41);
            let mut want_g = filled(len, 43);
            scalar::sgd_step(&mut want_x, &mut want_g, 0.05, 1e-3);
            for level in levels() {
                let mut x = filled(len, 41);
                let mut g = filled(len, 43);
                sgd_step_with(level, &mut x, &mut g, 0.05, 1e-3);
                let tag = format!("{level:?} len {len}");
                assert_bits_eq(&x, &want_x, &format!("sgd x {tag}"));
                assert_bits_eq(&g, &want_g, &format!("sgd g {tag}"));
            }
        }
    }

    #[test]
    fn nn_tile_cols_bit_identical_across_levels_and_strip_widths() {
        for &(rows, n) in &[(1usize, 1usize), (3, 7), (4, 8), (5, 33), (7, 40), (2, 100), (6, 129)] {
            // One output row over a tile of `rows` scalars.
            let layout = TileLayout { row: rows, step: 1 };
            let a_tile = filled(rows, 53);
            let b_tile = filled(rows * n, 59);
            let mut want = filled(n, 61);
            scalar::nn_strip(&mut want, &a_tile, layout, &b_tile, n, 0..n);
            for level in levels() {
                // Whole row as one strip (strict: the exact production call
                // shape), then split into strips of every width. Strip
                // decomposition preserves each element's ascending-`p` chain
                // but moves elements between differently compiled loop
                // bodies (vector body vs remainder), so sub-strip checks are
                // modulo NaN payload — values, zeros' signs, and infinities
                // must still agree exactly.
                for strip in [n, 1, 8, 13, 32] {
                    let mut got = filled(n, 61);
                    for jb in (0..n).step_by(strip) {
                        nn_strip_with(level, &mut got, &a_tile, layout, &b_tile, n, jb..(jb + strip).min(n));
                    }
                    let what = format!("nn_strip {level:?} {rows}x{n} strip {strip}");
                    if strip == n {
                        assert_bits_eq(&got, &want, &what);
                    } else {
                        assert_bits_eq_mod_nan(&got, &want, &what);
                    }
                }
            }
        }
    }

    #[test]
    fn nn_tile_cols2_matches_two_single_rows() {
        // (40, 32, 3): the tail block starts before the strip, in columns
        // this call does not own; they must come back with the bits they had.
        for &(n, col0, width) in &[(1usize, 0usize, 1usize), (8, 0, 8), (40, 0, 40), (40, 8, 24), (129, 96, 33), (100, 64, 36), (40, 32, 3)] {
            // A block of two output rows, each over a tile of five scalars.
            let layout = TileLayout { row: 5, step: 1 };
            let a = filled(2 * 5, 73);
            let b_tile = filled(5 * n, 83);
            let cols = col0..col0 + width;
            let mut want = filled(2 * n, 87);
            scalar::nn_strip(&mut want, &a, layout, &b_tile, n, cols.clone());
            for level in levels() {
                let mut got = filled(2 * n, 87);
                nn_strip_with(level, &mut got, &a, layout, &b_tile, n, cols.clone());
                // Values, signed zeros, and infinities must agree exactly;
                // double-NaN payloads may differ between the paired vector
                // kernel and the scalar rows (module-doc carve-out).
                assert_bits_eq_mod_nan(&got, &want, &format!("nn_strip pair {level:?} n={n} cols {cols:?}"));
            }
        }
    }

    /// `Aᵀ·B` reads each row's tile down a column of the stored operand,
    /// `step` apart with other columns' values (here NaN) in between: the
    /// same block, stored either way, must give the same outputs — a pair
    /// and an odd last row, at every level.
    #[test]
    fn nn_strip_reads_a_strided_tile_like_a_contiguous_one() {
        for &(rows, len, n, step) in &[(1usize, 5usize, 9usize, 4usize), (2, 5, 33, 2), (3, 6, 40, 3), (3, 7, 129, 150)] {
            let by_rows = filled(rows * len, 97);
            // The transpose of `by_rows` inside a [len, step] matrix.
            let mut by_columns = vec![f32::NAN; len * step];
            for (r, row) in by_rows.chunks_exact(len).enumerate() {
                for (p, &x) in row.iter().enumerate() {
                    by_columns[p * step + r] = x;
                }
            }
            let b_tile = filled(len * n, 103);
            for level in levels() {
                let mut want = filled(rows * n, 107);
                let mut got = want.clone();
                nn_strip_with(level, &mut want, &by_rows, TileLayout { row: len, step: 1 }, &b_tile, n, 0..n);
                nn_strip_with(level, &mut got, &by_columns, TileLayout { row: 1, step }, &b_tile, n, 0..n);
                // The unit step runs its own compiled instance: modulo NaN
                // payload, like any two instances.
                assert_bits_eq_mod_nan(&got, &want, &format!("nn_strip {level:?} {rows}x{len}x{n} step {step}"));
            }
        }
    }

    #[test]
    fn tb_row_bit_identical_across_levels() {
        for &(cols, k) in &[(1usize, 1usize), (3, 5), (8, 8), (9, 16), (16, 33), (5, 100), (17, 7)] {
            let a_row = filled(k, 67);
            let b = filled(cols * k, 71);
            let mut want = vec![0.0f32; cols];
            scalar::tb_row(&mut want, &a_row, &b, k);
            for level in levels() {
                let mut got = vec![0.0f32; cols];
                tb_row_with(level, &mut got, &a_row, &b, k);
                assert_bits_eq(&got, &want, &format!("tb_row {level:?} {cols}x{k}"));
            }
        }
    }

    #[test]
    fn tb_row4_matches_four_single_rows() {
        for &(cols, k) in &[(1usize, 1usize), (3, 5), (8, 8), (9, 16), (16, 33), (5, 100), (17, 7)] {
            let a_rows = filled(4 * k, 131);
            let b = filled(cols * k, 137);
            let mut want = vec![0.0f32; 4 * cols];
            for (c_row, a_row) in want.chunks_exact_mut(cols).zip(a_rows.chunks_exact(k)) {
                scalar::tb_row(c_row, a_row, &b, k);
            }
            for level in levels() {
                let mut got = vec![0.0f32; 4 * cols];
                tb_row4_with(level, &mut got, &a_rows, &b, k);
                // Another compiled instance than `tb_row`'s: modulo NaN payload.
                assert_bits_eq_mod_nan(&got, &want, &format!("tb_row4 {level:?} {cols}x{k}"));
            }
        }
    }

    /// Every length up to two AVX2 registers and one lane: empty, all
    /// remainder, whole registers and both.
    const SHORT_LENS: std::ops::RangeInclusive<usize> = 0..=17;

    /// A decision-state lane pattern: counters at 0, 1, a few, one below and
    /// at saturation; EMA lanes with ±0, ±inf, NaN and a subnormal.
    fn planted_counts(len: usize, values: &[f32]) -> Vec<f32> {
        (0..len).map(|i| values[i % values.len()]).collect()
    }

    fn planted_ema(len: usize, seed: u32) -> Vec<f32> {
        let specials = [0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY, f32::NAN, f32::from_bits(3), 1e-6];
        let mut xs = filled(len, seed);
        for (i, x) in xs.iter_mut().enumerate().filter(|(i, _)| i % 3 == 0) {
            *x = specials[i / 3 % specials.len()];
        }
        xs
    }

    #[test]
    fn chunk_means_bit_identical_across_levels() {
        for len in SHORT_LENS.chain([33, 1000]) {
            for chunk in [1, 3] {
                let x = filled(len, 151);
                let g = filled(len, 157);
                let m: Vec<f32> = (0..len).map(|i| if i % 4 == 1 { LANE_OFF } else { LANE_ON }).collect();
                let n_chunks = len.div_ceil(chunk);
                let mut want_acc = filled(n_chunks, 163);
                scalar::add_chunk_means(&mut want_acc, &x, chunk);
                let (mut want_r, mut want_racc) = (filled(len, 167), filled(n_chunks, 173));
                scalar::add_diff_masked(&mut want_r, &x, &g, &m);
                scalar::add_chunk_means(&mut want_racc, &want_r, chunk);
                for level in levels() {
                    let tag = format!("{level:?} len {len} chunk {chunk}");
                    let mut acc = filled(n_chunks, 163);
                    add_chunk_means_with(level, &mut acc, &x, chunk);
                    assert_bits_eq(&acc, &want_acc, &format!("add_chunk_means {tag}"));
                    let (mut r, mut racc) = (filled(len, 167), filled(n_chunks, 173));
                    add_diff_masked_means_with(level, &mut r, &x, &g, &m, &mut racc, chunk);
                    assert_bits_eq(&r, &want_r, &format!("add_diff_masked_means r {tag}"));
                    assert_bits_eq(&racc, &want_racc, &format!("add_diff_masked_means acc {tag}"));
                }
            }
        }
        // Each mean folds from `−0.0`, the identity: a `−0.0` stays `−0.0`,
        // where a fold from `+0.0` would make it `+0.0`. A run of three
        // divides its sum by three.
        for level in levels() {
            let mut acc = [-0.0f32; 9];
            add_chunk_means_with(level, &mut acc, &[-0.0; 9], 1);
            assert!(acc.iter().all(|a| a.to_bits() == (-0.0f32).to_bits()), "{level:?}: {acc:?}");
            let mut acc = [1.0f32, 2.0];
            add_chunk_means_with(level, &mut acc, &[1.0, 2.0, 6.0, 4.0], 3);
            assert_eq!(acc, [1.0 + 3.0, 2.0 + 4.0], "{level:?}: ragged last run");
        }
    }

    /// The rows of a sweep over `len` scalars in chunks of `chunk`.
    fn sweep_rows(len: usize, chunk: usize) -> [Vec<f32>; 7] {
        let n_chunks = len.div_ceil(chunk);
        [
            filled(len, 181),
            planted_ema(len, 191),
            filled(len, 193),
            planted_counts(n_chunks, &[0.0, 1.0, 2.0, 0.0, 7.0, 0.0]),
            planted_counts(n_chunks, &[0.0, 1.0, 3.0, 65534.0, 65535.0, 2.0, 5.0]),
            planted_ema(n_chunks, 197),
            planted_ema(n_chunks, 199).iter().map(|m| m.abs()).collect(),
        ]
    }

    /// The flagged chunks, ascending, each with whether its check is due.
    type Flagged = Vec<(usize, bool)>;

    /// Runs `sweep` on `rows` with cleared flag words and reads the flags.
    fn sweep_with(rows: &mut [Vec<f32>; 7], sweep: impl FnOnce(SweepRows<'_>, (&mut [u64], &mut [u64])) -> usize) -> (Flagged, usize) {
        let [global, prev_update, sum, remaining, observed, signed, magnitude] = rows;
        let words = remaining.len().div_ceil(64);
        let (mut due, mut entry) = (vec![0u64; words], vec![0u64; words]);
        let rows = SweepRows { global, prev_update, sum, remaining, observed, signed, magnitude };
        let due_next = sweep(rows, (&mut due, &mut entry));
        let bit = |words: &[u64], c: usize| words[c / 64] >> (c % 64) & 1 == 1;
        let flagged = (0..words * 64).filter(|&c| bit(&due, c) || bit(&entry, c)).map(|c| (c, bit(&due, c))).collect();
        (flagged, due_next)
    }

    fn sweep(level: SimdLevel, rows: &mut [Vec<f32>; 7], rule: SweepRule) -> (Flagged, usize) {
        sweep_with(rows, |rows, flags| sweep_chunks_with(level, rows, rule, flags))
    }

    #[test]
    fn sweep_chunks_bit_identical_across_levels() {
        for len in SHORT_LENS.chain([33, 1000]) {
            for chunk in [1, 3] {
                for ratio_bound in [0.25, f32::INFINITY] {
                    let rule = SweepRule { chunk, inv: 1.0 / 3.0, theta: 0.9, warmup: 3.0, ratio_bound };
                    let mut want = sweep_rows(len, chunk);
                    let (want_flagged, want_due) = sweep_with(&mut want, |rows, flags| scalar::sweep_chunks(rows, rule, flags));
                    for level in levels() {
                        let tag = format!("{level:?} len {len} chunk {chunk} bound {ratio_bound}");
                        let mut got = sweep_rows(len, chunk);
                        let (flagged, due) = sweep(level, &mut got, rule);
                        for (row, (g, w)) in got.iter().zip(&want).enumerate() {
                            assert_bits_eq(g, w, &format!("sweep_chunks row {row} {tag}"));
                        }
                        assert_eq!((flagged, due), (want_flagged.clone(), want_due), "{tag}");
                    }
                }
            }
        }
    }

    #[test]
    fn sweep_chunks_fold_second_differences_onto_plus_zero() {
        // `avg = −0.0·inv`, `g = avg − (+0.0) = −0.0`, `g − prev = −0.0`:
        // folded onto `+0.0` the chunk's mean second difference is `+0.0`, so
        // `0.5·(−0.0) + 0.5·(+0.0)` leaves the signed EMA at `+0.0` (a fold
        // from `−0.0` would leave `−0.0`).
        for level in levels() {
            for len in [1, 9, 17] {
                let mut rows = [vec![0.0; len], vec![0.0; len], vec![-0.0; len], vec![0.0; len], vec![5.0; len], vec![-0.0; len], vec![0.0; len]];
                let rule = SweepRule { chunk: 1, inv: 1.0, theta: 0.5, warmup: 9.0, ratio_bound: f32::INFINITY };
                sweep(level, &mut rows, rule);
                assert!(rows[5].iter().all(|s| s.to_bits() == 0), "{level:?} len {len}: {:?}", rows[5]);
            }
        }
    }

    #[test]
    fn sweep_chunks_counts_down_saturates_and_flags() {
        // Six chunks of one scalar, repeated past two AVX2 registers:
        // 0 speculates with two rounds left, 1 with one (its check is due),
        // 2 is regular and never observed, 3 is regular at saturation, 4
        // reaches its warm-up (3) now, 5 is one observation short of it.
        const REMAINING: [f32; 6] = [2.0, 1.0, 0.0, 0.0, 0.0, 0.0];
        const OBSERVED: [f32; 6] = [9.0, 9.0, 0.0, 65535.0, 2.0, 1.0];
        let len = 18;
        let rule = SweepRule { chunk: 1, inv: 0.5, theta: 0.75, warmup: 3.0, ratio_bound: f32::INFINITY };
        for level in levels() {
            let mut rows = [
                vec![-0.0; len],
                vec![0.5; len],
                vec![3.0; len],
                planted_counts(len, &REMAINING),
                planted_counts(len, &OBSERVED),
                vec![0.25; len],
                vec![0.5; len],
            ];
            let (flagged, due_next) = sweep(level, &mut rows, rule);
            let want: Flagged = (0..3).flat_map(|r| [(6 * r + 1, true), (6 * r + 3, false), (6 * r + 4, false)]).collect();
            assert_eq!(flagged, want, "{level:?}: the due check and both chunks past warm-up, ascending");
            assert_eq!(due_next, 3, "{level:?}: one chunk a pattern has one round left");
            let [global, prev_update, _, remaining, observed, signed, magnitude] = &rows;
            for i in 0..len {
                let (was_left, was_seen) = (REMAINING[i % 6], OBSERVED[i % 6]);
                let on = was_left > 0.0;
                // Off the mask `avg = 1.5` and `g = 1.5 − (−0.0)`: the second
                // difference is `1.0`.
                let (want_global, want_prev) = if on { (-0.0f32, 0.5) } else { (1.5, 1.5) };
                assert_eq!(global[i].to_bits(), want_global.to_bits(), "{level:?} lane {i}");
                assert_eq!(prev_update[i], want_prev, "{level:?} lane {i}");
                assert_eq!(remaining[i], if on { was_left - 1.0 } else { 0.0 }, "{level:?} lane {i}");
                let want_seen = if on { was_seen } else { (was_seen + 1.0).min(65535.0) };
                assert_eq!(observed[i], want_seen, "{level:?} lane {i}");
                // `⟨x⟩ ← 0.75·⟨x⟩ + 0.25·1.0`, except at a first observation.
                let observes = !on && was_seen > 0.0;
                let (want_s, want_m) = if observes { (0.4375, 0.625) } else { (0.25, 0.5) };
                assert_eq!((signed[i], magnitude[i]), (want_s, want_m), "{level:?} lane {i}");
            }
        }
    }
}
