//! The disturbance probe: a fixed loop of the benchmark's own, timed right
//! before and right after every round and every set-up, and the correction
//! that takes the disturbance it shows out of the measured times.
//!
//! The reference box is a shared VM. Other tenants' work on the sibling
//! hardware thread slows this program for seconds to minutes at a time, by a
//! factor that depends on what the code does (the probe up to 2.5 ×,
//! `manager_sync` 1.8 ×, `train_cnn` 1.5 ×, `wire_clean` 1.2 ×), with no
//! steal time and nothing to see in `/proc/stat`. Whole runs sit in one
//! state, so no statistic over a run's own round times can undo it. The
//! probe can: its time rises with the share of the time the core is
//! contended (its fastest percentile is its undisturbed time, and repeats
//! within 2 % across runs), and a round's time rises in
//! proportion, `kappa` times as steeply, `kappa` being a measured constant
//! of the workload (`sizes.rs`). The probe never calls the product, so no
//! change to the product moves it.

use crate::measure::{median, percentile};
use std::time::Instant;

/// Rows of the probe's table (as many as `manager_sync` has clients).
const ROWS: usize = 16;
/// Columns of the probe's table: 16 × 16 000 floats are 1 MB, inside the L2
/// cache like the workloads' own working sets.
const COLS: usize = 16_000;
/// The probe's undisturbed time is this quantile of a run's samples.
const UNDISTURBED_QUANTILE: f64 = 0.01;

/// The probe's table and where it writes.
#[derive(Debug)]
pub struct Probe {
    rows: Vec<Vec<f32>>,
    sums: Vec<f32>,
}

impl Probe {
    /// A probe ready to sample.
    pub fn new() -> Self {
        Probe {
            rows: (0..ROWS).map(|r| vec![r as f32 * 0.25; COLS]).collect(),
            sums: vec![0.0; COLS],
        }
    }

    /// A column-wise pass over the table: sixteen concurrent read streams, a
    /// branch and a multiply-add per element. Of the loops tried (a pure
    /// multiply-add chain, a sequential stream, a pointer chase) this is the
    /// one contention on the core slows most.
    #[inline(never)]
    fn pass(&mut self) -> f32 {
        let mut total = 0.0f32;
        for (j, sum) in self.sums.iter_mut().enumerate() {
            let mut s = 0.0f32;
            for row in &self.rows {
                let v = row[j];
                if v.abs() > 1e-3 {
                    s += v * 0.0625;
                }
            }
            *sum = s;
            total += s;
        }
        total
    }

    /// Runs the loop once and returns its time in microseconds.
    pub fn sample(&mut self) -> f64 {
        let t = Instant::now();
        std::hint::black_box(self.pass());
        t.elapsed().as_secs_f64() * 1e6
    }
}

/// The probe's undisturbed time on the reference box, microseconds. The
/// fastest percentile of a run's samples reads 275–287 there in all but the
/// most disturbed runs (one in sixty read 383, and its rounds came out 19 %
/// high), so a run is not allowed to put its floor above this. On another
/// machine the constant is off by a fixed factor, on both sides of every
/// comparison.
const UNDISTURBED_US: f64 = 280.0;

/// The probe's undisturbed time over a run: a low quantile of every sample
/// taken, and no more than [`UNDISTURBED_US`].
pub fn undisturbed_us(samples: impl Iterator<Item = f64>) -> f64 {
    let all: Vec<f64> = samples.collect();
    if all.is_empty() {
        return UNDISTURBED_US;
    }
    percentile(&all, UNDISTURBED_QUANTILE).min(UNDISTURBED_US)
}

/// The measured times with the disturbance taken out: `times[i]` was
/// measured between the probe samples `around[i]`, and is divided by
/// `1 + kappa · d`, `d` being how far the mean of the two samples lies above
/// `undisturbed_us`, as a share of it.
pub fn corrected(times: &[f64], around: &[[f64; 2]], undisturbed_us: f64, kappa: f64) -> Vec<f64> {
    times
        .iter()
        .zip(around)
        .map(|(t, [before, after])| {
            let disturbance = median(&[*before, *after]) / undisturbed_us.max(1e-9) - 1.0;
            t / (1.0 + kappa * disturbance).max(0.5)
        })
        .collect()
}
