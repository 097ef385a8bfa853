//! Small measuring tools shared by every workload: order statistics, the
//! FNV-1a checksum used for output verification, the resident-set
//! high-water mark, and hand-written JSON output (the workspace has no
//! serialiser dependency; `crates/bench` writes its JSON the same way).

use crate::probe::Probe;
use fedsu_fl::RoundRecord;
use std::fmt::Write as _;
use std::time::Instant;

/// Median of `values` (mean of the two middle elements for even counts);
/// `0.0` when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile (`q` in `(0, 1]`); `0.0` when empty.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Milliseconds between two instants.
pub fn ms_between(from: Instant, to: Instant) -> f64 {
    to.saturating_duration_since(from).as_secs_f64() * 1e3
}

/// Calls `f` `samples` times and returns the median duration of one call in
/// microseconds.
pub fn median_us(samples: usize, mut f: impl FnMut()) -> f64 {
    let mut us = Vec::with_capacity(samples);
    for _ in 0..samples {
        let t = Instant::now();
        f();
        us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    median(&us)
}

/// Set-up time samples: a few taken back to back before the run, then one
/// every [`SETUP_SAMPLE_SECS`](crate::sizes::SETUP_SAMPLE_SECS) while it
/// runs; `setup_s` is the median of all of them, each corrected for the
/// disturbance the probe showed around it. Set-ups repeated back to back
/// reuse just-freed, cache-warm memory; a set-up taken between rounds starts
/// where a real one starts, with the caches full of something else, and
/// those samples are the majority.
#[derive(Debug)]
pub struct SetupTimer {
    samples_s: Vec<f64>,
    around_us: Vec<[f64; 2]>,
    probe: Probe,
    last: Instant,
}

impl SetupTimer {
    /// An empty timer.
    pub fn new() -> Self {
        SetupTimer {
            samples_s: Vec::new(),
            around_us: Vec::new(),
            probe: Probe::new(),
            last: Instant::now(),
        }
    }

    /// Times one set-up, the probe before and after it, and returns what it
    /// built.
    pub fn time<T>(&mut self, build: impl FnOnce() -> T) -> T {
        let before = self.probe.sample();
        let t = Instant::now();
        let built = build();
        self.samples_s.push(t.elapsed().as_secs_f64());
        self.around_us.push([before, self.probe.sample()]);
        self.last = Instant::now();
        built
    }

    /// The set-ups before the run: `SETUP_REPEATS` of them, timed. The first
    /// is handed to `prefix`, which runs the fixed prefix on it and returns
    /// the checksum the measured instance must reproduce; the last is
    /// returned for measuring. Earlier instances are dropped before the next
    /// is built, so the resident-set peak is one instance's.
    pub fn before_run<T>(
        &mut self,
        build: impl Fn() -> T,
        prefix: impl FnOnce(T) -> u64,
    ) -> (T, u64) {
        let repeat_checksum = prefix(self.time(&build));
        for _ in 2..crate::sizes::SETUP_REPEATS {
            drop(self.time(&build));
        }
        (self.time(&build), repeat_checksum)
    }

    /// Times one more set-up, and drops what it built, when the last sample
    /// is old enough. Called between rounds, outside every timed span.
    pub fn resample<T>(&mut self, build: impl FnOnce() -> T) {
        if self.last.elapsed().as_secs_f64() >= crate::sizes::SETUP_SAMPLE_SECS {
            drop(self.time(build));
        }
    }

    /// Median of the samples as measured, in seconds.
    pub fn median_s(&self) -> f64 {
        median(&self.samples_s)
    }

    /// Every sample, in seconds, in the order taken.
    pub fn samples_s(&self) -> &[f64] {
        &self.samples_s
    }

    /// The probe samples before and after each set-up, in microseconds.
    pub fn around_us(&self) -> &[[f64; 2]] {
        &self.around_us
    }
}

/// Running FNV-1a-64 over bit patterns; the verification checksum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds raw bytes in.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds one `u64` in (little-endian).
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Folds the bit patterns of a float slice in.
    pub fn f32s(&mut self, values: &[f32]) {
        for v in values {
            self.bytes(&v.to_bits().to_le_bytes());
        }
    }

    /// Folds every deterministic field of a round record in.
    pub fn record(&mut self, r: &RoundRecord) {
        self.u64(r.round as u64);
        self.u64(r.duration_secs.to_bits());
        self.u64(r.sim_time_secs.to_bits());
        self.u64(r.accuracy.map_or(u64::MAX, |a| u64::from(a.to_bits())));
        self.u64(r.test_loss.map_or(u64::MAX, |l| u64::from(l.to_bits())));
        self.u64(u64::from(r.train_loss.to_bits()));
        self.u64(r.sparsification_ratio.to_bits());
        self.u64(r.bytes);
        self.u64(r.participants as u64);
        self.u64(r.dropped as u64);
        self.u64(r.quarantined as u64);
        self.u64(r.retransmitted_bytes);
        self.u64(r.rollbacks as u64);
    }

    /// The checksum so far.
    pub fn value(self) -> u64 {
        self.0
    }
}

/// Peak resident set size of this process in MiB (`VmHWM` of
/// `/proc/self/status`); `0.0` where the file is unavailable.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A JSON number: every digit of a finite value, `0` for NaN/∞ (which no
/// metric should produce; verification reports them separately).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
