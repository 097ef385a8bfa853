//! Deterministic fault injection.
//!
//! The paper's dynamicity protocol (Sec. V) and time-to-accuracy claims
//! (Table 1) are about surviving a messy fleet — clients that join late,
//! drop mid-round, or return garbage. A [`FaultPlan`] decides, per
//! `(client, round)`, whether that client suffers one of five fault kinds:
//!
//! * **mid-round dropout** — the client trains but its upload never arrives;
//! * **upload loss** — a transmission attempt is lost and must be retried;
//! * **upload corruption** — NaN/outlier scalars appear in the payload;
//! * **transient slowdown** — compute and link time are multiplied;
//! * **crash with rejoin** — the client disappears for a fixed number of
//!   rounds and then rejoins through the dynamicity catch-up path.
//!
//! Every decision is a pure function of `(seed, kind, client, round)` via a
//! splitmix64-style hash, so fault schedules are reproducible bit-for-bit
//! regardless of query order, and a zero-probability plan is exactly the
//! clean path.

const SALT_DROPOUT: u64 = 0xD509;
const SALT_LOSS: u64 = 0x1055;
const SALT_CORRUPT: u64 = 0xC0BB;
const SALT_SLOWDOWN: u64 = 0x510D;
const SALT_CRASH: u64 = 0xCBA5;
const SALT_POSITION: u64 = 0xB05;
const SALT_SIGN: u64 = 0x516;
const SALT_WIRE_DROP: u64 = 0xD20F;
const SALT_WIRE_CORRUPT: u64 = 0xF11F;
const SALT_WIRE_DUP: u64 = 0xD0BF;
const SALT_WIRE_REORDER: u64 = 0x2E02;
const SALT_WIRE_DELAY: u64 = 0xDE1A;
const SALT_WIRE_BIT: u64 = 0xB17;

/// splitmix64 finalizer: a cheap, well-mixed 64-bit hash step.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Probabilities and shape parameters of the injected faults. All
/// probabilities default to zero (the clean path).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Per-(client, round) probability of a mid-round dropout: the client
    /// trains, but its upload never reaches the server.
    pub dropout_prob: f64,
    /// Per-transmission-attempt probability that an upload is lost and must
    /// be retransmitted.
    pub upload_loss_prob: f64,
    /// Per-(client, round) probability that an upload arrives corrupted
    /// (NaN and outlier scalars injected into the payload).
    pub corrupt_prob: f64,
    /// Per-(client, round) probability of a transient slowdown.
    pub slowdown_prob: f64,
    /// Multiplier applied to the slowed client's compute and link time.
    pub slowdown_factor: f64,
    /// Per-round probability that a client crashes.
    pub crash_prob: f64,
    /// Rounds a crashed client stays away before rejoining (and paying the
    /// dynamicity catch-up download).
    pub crash_down_rounds: usize,
    /// Per-frame probability that the wire silently drops an outbound frame
    /// (data or ack). Consumed by the transport chaos bus; the emulation
    /// models the same loss analytically via [`FaultConfig::upload_loss_prob`].
    pub wire_drop_prob: f64,
    /// Per-frame probability that a delivered frame arrives bit-corrupted
    /// (the session layer's checksum must reject it).
    pub wire_corrupt_prob: f64,
    /// Per-frame probability that a frame is delivered twice (the session
    /// layer's dedup must drop the copy).
    pub wire_duplicate_prob: f64,
    /// Per-frame probability that a frame is held back one slot and
    /// delivered after the next frame on the same link (adjacent reorder).
    pub wire_reorder_prob: f64,
    /// Per-frame probability that a frame is delayed
    /// [`FaultConfig::wire_delay_depth`] subsequent sends before delivery.
    pub wire_delay_prob: f64,
    /// How many subsequent sends on the same link a delayed frame waits
    /// before it is released (clamped to at least 1 when a delay fires).
    pub wire_delay_depth: usize,
    /// Seed of the fault schedule, independent of the experiment's master
    /// seed so fault sweeps hold the learning problem fixed.
    pub seed: u64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            dropout_prob: 0.0,
            upload_loss_prob: 0.0,
            corrupt_prob: 0.0,
            slowdown_prob: 0.0,
            slowdown_factor: 4.0,
            crash_prob: 0.0,
            crash_down_rounds: 3,
            wire_drop_prob: 0.0,
            wire_corrupt_prob: 0.0,
            wire_duplicate_prob: 0.0,
            wire_reorder_prob: 0.0,
            wire_delay_prob: 0.0,
            wire_delay_depth: 2,
            seed: 0xFA17,
        }
    }
}

impl FaultConfig {
    /// Whether every fault probability — emulation-level *and* wire-level —
    /// is zero (the clean path). Honest about the wire knobs so zero-fault
    /// fast paths stay exact: a config that injects anything anywhere is
    /// never treated as clean.
    pub fn is_zero(&self) -> bool {
        self.dropout_prob == 0.0
            && self.upload_loss_prob == 0.0
            && self.corrupt_prob == 0.0
            && self.slowdown_prob == 0.0
            && self.crash_prob == 0.0
            && self.wire_is_zero()
    }

    /// Whether every wire-level fault probability is zero (the chaos bus is
    /// a transparent pass-through).
    pub fn wire_is_zero(&self) -> bool {
        self.wire_drop_prob == 0.0
            && self.wire_corrupt_prob == 0.0
            && self.wire_duplicate_prob == 0.0
            && self.wire_reorder_prob == 0.0
            && self.wire_delay_prob == 0.0
    }
}

/// Identity of one wire-level fault decision: a frame on a directed link,
/// in a session epoch, with a sequence number and a retransmission attempt.
///
/// Keying decisions on the *attempt* is what makes retransmission
/// effective under a deterministic plan: the retry of a dropped frame is a
/// different key and rolls fresh fault decisions, exactly like
/// [`FaultPlan::upload_attempts`] rolls per attempt on the emulation side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireFrame {
    /// Directed-link identity (the chaos bus folds client id, direction and
    /// frame kind into this).
    pub link: u64,
    /// Session epoch (the round the frame belongs to).
    pub epoch: u64,
    /// Sequence number within the epoch.
    pub seq: u64,
    /// Transmission attempt, 0-based (0 = first send).
    pub attempt: u64,
}

/// A realized, deterministic fault schedule (see the module docs).
///
/// Cheap to clone; every query is a pure hash of `(seed, kind, client,
/// round)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    config: FaultConfig,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

impl FaultPlan {
    /// A plan realizing `config`.
    pub fn new(config: FaultConfig) -> Self {
        FaultPlan { config }
    }

    /// The zero-fault plan: injects nothing, reproducing clean runs
    /// bit-for-bit.
    pub fn none() -> Self {
        FaultPlan { config: FaultConfig::default() }
    }

    /// The underlying configuration.
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// Whether this plan injects nothing.
    pub fn is_zero(&self) -> bool {
        self.config.is_zero()
    }

    /// Uniform value in `[0, 1)` for one `(kind, client, round, extra)`
    /// decision.
    fn unit(&self, salt: u64, client: usize, round: usize, extra: u64) -> f64 {
        let mut h = mix(self.config.seed ^ salt);
        h = mix(h ^ client as u64);
        h = mix(h ^ round as u64);
        h = mix(h ^ extra);
        (h >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Whether `client` drops out mid-round at `round` (trains, but its
    /// upload never arrives).
    pub fn dropout(&self, client: usize, round: usize) -> bool {
        self.config.dropout_prob > 0.0
            && self.unit(SALT_DROPOUT, client, round, 0) < self.config.dropout_prob
    }

    /// Whether `client`'s upload at `round` arrives corrupted.
    pub fn corrupts(&self, client: usize, round: usize) -> bool {
        self.config.corrupt_prob > 0.0
            && self.unit(SALT_CORRUPT, client, round, 0) < self.config.corrupt_prob
    }

    /// Injects NaN and outlier scalars into an upload payload in place
    /// (call only when [`FaultPlan::corrupts`] is true; harmless otherwise).
    pub fn corrupt_upload(&self, client: usize, round: usize, values: &mut [f32]) {
        if values.is_empty() {
            return;
        }
        let n = values.len();
        // Corrupt a deterministic ~1/64 slice of the payload, at least one
        // scalar: half NaN (detectable), half finite outliers (only caught
        // by norm validation).
        let k = (n / 64).max(1);
        for m in 0..k {
            let mut h = mix(self.config.seed ^ SALT_POSITION);
            h = mix(h ^ client as u64);
            h = mix(h ^ round as u64);
            h = mix(h ^ m as u64);
            let idx = h
                .checked_rem(n as u64)
                .and_then(|i| usize::try_from(i).ok())
                .unwrap_or(usize::MAX);
            if let Some(v) = values.get_mut(idx) {
                if m % 2 == 0 {
                    *v = f32::NAN;
                } else {
                    let sign = if mix(h ^ SALT_SIGN) & 1 == 0 { 1.0 } else { -1.0 };
                    *v = sign * 1.0e8;
                }
            }
        }
    }

    /// Time multiplier for `client` at `round` (1.0 = nominal; the
    /// configured factor during a transient slowdown).
    pub fn slowdown(&self, client: usize, round: usize) -> f64 {
        if self.config.slowdown_prob > 0.0
            && self.unit(SALT_SLOWDOWN, client, round, 0) < self.config.slowdown_prob
        {
            self.config.slowdown_factor.max(1.0)
        } else {
            1.0
        }
    }

    /// Number of transmissions needed for `client`'s upload at `round` to
    /// get through, given up to `max_retries` retransmissions after the
    /// first attempt. `None` means every attempt was lost and the upload
    /// never arrived.
    pub fn upload_attempts(&self, client: usize, round: usize, max_retries: u32) -> Option<u32> {
        if self.config.upload_loss_prob <= 0.0 {
            return Some(1);
        }
        for attempt in 0..=max_retries {
            if self.unit(SALT_LOSS, client, round, u64::from(attempt))
                >= self.config.upload_loss_prob
            {
                return Some(attempt.saturating_add(1));
            }
        }
        None
    }

    /// Whether `client` crashed at exactly `round` (the start of a
    /// down-window).
    fn crash_event(&self, client: usize, round: usize) -> bool {
        self.config.crash_prob > 0.0
            && self.unit(SALT_CRASH, client, round, 0) < self.config.crash_prob
    }

    /// Whether `client` is down at `round` because of a crash in the
    /// preceding `crash_down_rounds` window. A client that was down at
    /// `round - 1` but not at `round` has rejoined and pays the dynamicity
    /// catch-up download.
    pub fn crashed(&self, client: usize, round: usize) -> bool {
        if self.config.crash_prob <= 0.0 {
            return false;
        }
        let window = self.config.crash_down_rounds.max(1);
        (0..window).any(|back| round.checked_sub(back).is_some_and(|r| self.crash_event(client, r)))
    }

    /// Whether this plan's wire-level knobs inject nothing (the chaos bus
    /// may take its transparent fast path).
    pub fn wire_is_zero(&self) -> bool {
        self.config.wire_is_zero()
    }

    /// Uniform value in `[0, 1)` for one wire-frame decision.
    fn wire_unit(&self, salt: u64, frame: &WireFrame) -> f64 {
        let mut h = mix(self.config.seed ^ salt);
        h = mix(h ^ frame.link);
        h = mix(h ^ frame.epoch);
        h = mix(h ^ frame.seq);
        h = mix(h ^ frame.attempt);
        (h >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Whether the wire silently drops `frame`.
    pub fn wire_drops(&self, frame: &WireFrame) -> bool {
        self.config.wire_drop_prob > 0.0
            && self.wire_unit(SALT_WIRE_DROP, frame) < self.config.wire_drop_prob
    }

    /// Whether `frame` arrives bit-corrupted (apply with
    /// [`FaultPlan::corrupt_frame`]).
    pub fn wire_corrupts(&self, frame: &WireFrame) -> bool {
        self.config.wire_corrupt_prob > 0.0
            && self.wire_unit(SALT_WIRE_CORRUPT, frame) < self.config.wire_corrupt_prob
    }

    /// Whether `frame` is delivered twice.
    pub fn wire_duplicates(&self, frame: &WireFrame) -> bool {
        self.config.wire_duplicate_prob > 0.0
            && self.wire_unit(SALT_WIRE_DUP, frame) < self.config.wire_duplicate_prob
    }

    /// Whether `frame` is held back one slot (delivered after the next
    /// frame on the same link).
    pub fn wire_reorders(&self, frame: &WireFrame) -> bool {
        self.config.wire_reorder_prob > 0.0
            && self.wire_unit(SALT_WIRE_REORDER, frame) < self.config.wire_reorder_prob
    }

    /// How many subsequent sends on the same link `frame` is delayed for
    /// (`0` = delivered immediately; a fired delay is at least 1 slot).
    pub fn wire_delay(&self, frame: &WireFrame) -> usize {
        if self.config.wire_delay_prob > 0.0
            && self.wire_unit(SALT_WIRE_DELAY, frame) < self.config.wire_delay_prob
        {
            self.config.wire_delay_depth.max(1)
        } else {
            0
        }
    }

    /// Flips deterministic bits of a frame payload in place: roughly one
    /// flipped bit per 64 bytes, always at least one on a non-empty frame.
    /// Call only when [`FaultPlan::wire_corrupts`] is true; harmless (but
    /// still mutating) otherwise.
    pub fn corrupt_frame(&self, frame: &WireFrame, bytes: &mut [u8]) {
        if bytes.is_empty() {
            return;
        }
        let n = bytes.len();
        let flips = (n / 64).max(1);
        for m in 0..flips {
            let mut h = mix(self.config.seed ^ SALT_WIRE_BIT);
            h = mix(h ^ frame.link);
            h = mix(h ^ frame.epoch);
            h = mix(h ^ frame.seq);
            h = mix(h ^ frame.attempt);
            h = mix(h ^ m as u64);
            let idx = h
                .checked_rem(n as u64)
                .and_then(|i| usize::try_from(i).ok())
                .unwrap_or(usize::MAX);
            let bit = ((h >> 17) % 8) as u8;
            if let Some(b) = bytes.get_mut(idx) {
                *b ^= 1 << bit;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(config: FaultConfig) -> FaultPlan {
        FaultPlan::new(config)
    }

    #[test]
    fn zero_plan_injects_nothing() {
        let p = FaultPlan::none();
        assert!(p.is_zero());
        for c in 0..8 {
            for r in 0..64 {
                assert!(!p.dropout(c, r));
                assert!(!p.corrupts(c, r));
                assert!(!p.crashed(c, r));
                assert_eq!(p.slowdown(c, r), 1.0);
                assert_eq!(p.upload_attempts(c, r, 3), Some(1));
            }
        }
    }

    #[test]
    fn decisions_are_deterministic_and_seed_sensitive() {
        let a = plan(FaultConfig { dropout_prob: 0.3, ..FaultConfig::default() });
        let b = plan(FaultConfig { dropout_prob: 0.3, ..FaultConfig::default() });
        let c = plan(FaultConfig { dropout_prob: 0.3, seed: 99, ..FaultConfig::default() });
        let hits = |p: &FaultPlan| -> Vec<bool> {
            (0..200).map(|r| p.dropout(r % 7, r)).collect()
        };
        assert_eq!(hits(&a), hits(&b));
        assert_ne!(hits(&a), hits(&c), "different seeds should differ");
    }

    #[test]
    fn dropout_rate_tracks_probability() {
        let p = plan(FaultConfig { dropout_prob: 0.25, ..FaultConfig::default() });
        let n = 4000;
        let hits = (0..n).filter(|&r| p.dropout(r % 16, r / 16)).count();
        let rate = hits as f64 / n as f64;
        assert!((rate - 0.25).abs() < 0.05, "empirical rate {rate}");
    }

    #[test]
    fn corruption_injects_nan_and_outliers() {
        let p = plan(FaultConfig { corrupt_prob: 1.0, ..FaultConfig::default() });
        let mut values = vec![0.5f32; 256];
        p.corrupt_upload(0, 0, &mut values);
        assert!(values.iter().any(|v| v.is_nan()), "expected a NaN scalar");
        assert!(
            values.iter().any(|v| v.is_finite() && v.abs() > 1.0e6),
            "expected a finite outlier"
        );
        // Idempotent / deterministic.
        let mut again = vec![0.5f32; 256];
        p.corrupt_upload(0, 0, &mut again);
        let pattern =
            |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(pattern(&values), pattern(&again));
        // Tiny payloads still get at least one corrupted scalar.
        let mut one = vec![0.5f32];
        p.corrupt_upload(3, 9, &mut one);
        assert!(!one[0].is_finite() || one[0].abs() > 1.0e6);
        p.corrupt_upload(0, 0, &mut []);
    }

    #[test]
    fn upload_attempts_respect_retry_budget() {
        let p = plan(FaultConfig { upload_loss_prob: 0.5, ..FaultConfig::default() });
        let mut exhausted = 0;
        let mut total_attempts = 0u64;
        for r in 0..500 {
            match p.upload_attempts(r % 8, r, 2) {
                Some(a) => {
                    assert!((1..=3).contains(&a));
                    total_attempts += u64::from(a);
                }
                None => exhausted += 1,
            }
        }
        // With loss 0.5 and 2 retries, ~1/8 of uploads exhaust the budget.
        assert!(exhausted > 10, "some uploads should exhaust retries");
        assert!(total_attempts > 500, "some uploads should need retries");
    }

    #[test]
    fn crash_windows_last_and_end() {
        let p = plan(FaultConfig {
            crash_prob: 0.05,
            crash_down_rounds: 4,
            ..FaultConfig::default()
        });
        // Find a crash event and check the down-window shape.
        let mut checked = false;
        'outer: for c in 0..8 {
            for r in 0..200 {
                if p.crash_event(c, r) {
                    for k in 0..4 {
                        assert!(p.crashed(c, r + k), "down within the window");
                    }
                    checked = true;
                    break 'outer;
                }
            }
        }
        assert!(checked, "expected at least one crash event");
        // Crashes are rare enough that most rounds are up.
        let up = (0..400).filter(|&r| !p.crashed(r % 8, r / 8)).count();
        assert!(up > 200, "client should be up most of the time, up {up}");
    }

    #[test]
    fn slowdown_multiplies_or_is_one() {
        let p = plan(FaultConfig {
            slowdown_prob: 0.5,
            slowdown_factor: 3.0,
            ..FaultConfig::default()
        });
        let factors: Vec<f64> = (0..200).map(|r| p.slowdown(r % 4, r)).collect();
        assert!(factors.contains(&3.0));
        assert!(factors.contains(&1.0));
        assert!(factors.iter().all(|&f| f == 1.0 || f == 3.0));
    }

    #[test]
    fn config_roundtrips_through_plan() {
        let cfg = FaultConfig { dropout_prob: 0.1, seed: 7, ..FaultConfig::default() };
        let p = FaultPlan::new(cfg);
        assert_eq!(*p.config(), cfg);
        assert!(!p.is_zero());
    }

    fn frame(link: u64, epoch: u64, seq: u64, attempt: u64) -> WireFrame {
        WireFrame { link, epoch, seq, attempt }
    }

    #[test]
    fn zero_plan_wire_knobs_inject_nothing() {
        let p = FaultPlan::none();
        assert!(p.wire_is_zero());
        for s in 0..200 {
            let f = frame(s % 5, s % 7, s, s % 3);
            assert!(!p.wire_drops(&f));
            assert!(!p.wire_corrupts(&f));
            assert!(!p.wire_duplicates(&f));
            assert!(!p.wire_reorders(&f));
            assert_eq!(p.wire_delay(&f), 0);
        }
    }

    #[test]
    fn wire_knobs_make_is_zero_honest() {
        for tweak in [
            |c: &mut FaultConfig| c.wire_drop_prob = 0.1,
            |c: &mut FaultConfig| c.wire_corrupt_prob = 0.1,
            |c: &mut FaultConfig| c.wire_duplicate_prob = 0.1,
            |c: &mut FaultConfig| c.wire_reorder_prob = 0.1,
            |c: &mut FaultConfig| c.wire_delay_prob = 0.1,
        ] {
            let mut cfg = FaultConfig::default();
            assert!(cfg.is_zero() && cfg.wire_is_zero());
            tweak(&mut cfg);
            assert!(!cfg.is_zero(), "a wire knob must make the config non-clean");
            assert!(!cfg.wire_is_zero());
        }
        // Emulation-level knobs alone leave the wire clean.
        let cfg = FaultConfig { dropout_prob: 0.5, ..FaultConfig::default() };
        assert!(!cfg.is_zero());
        assert!(cfg.wire_is_zero());
    }

    #[test]
    fn wire_decisions_are_deterministic_and_attempt_keyed() {
        let p = plan(FaultConfig { wire_drop_prob: 0.5, ..FaultConfig::default() });
        let q = plan(FaultConfig { wire_drop_prob: 0.5, ..FaultConfig::default() });
        let hits = |p: &FaultPlan| -> Vec<bool> {
            (0..400).map(|s| p.wire_drops(&frame(s % 4, s % 9, s, 0))).collect()
        };
        assert_eq!(hits(&p), hits(&q), "same plan, same schedule");
        // Attempts roll fresh decisions: some frame dropped on attempt 0
        // must pass on a later attempt (this is what makes retries work).
        let recovered = (0..400).any(|s| {
            let f0 = frame(1, 2, s, 0);
            let f1 = frame(1, 2, s, 1);
            p.wire_drops(&f0) && !p.wire_drops(&f1)
        });
        assert!(recovered, "a retry should survive where the first attempt dropped");
    }

    #[test]
    fn wire_rates_track_probabilities() {
        let p = plan(FaultConfig {
            wire_drop_prob: 0.25,
            wire_duplicate_prob: 0.25,
            ..FaultConfig::default()
        });
        let n = 4000u64;
        let drops = (0..n).filter(|&s| p.wire_drops(&frame(s % 8, 0, s, 0))).count();
        let dups = (0..n).filter(|&s| p.wire_duplicates(&frame(s % 8, 0, s, 0))).count();
        for (name, hits) in [("drop", drops), ("dup", dups)] {
            let rate = hits as f64 / n as f64;
            assert!((rate - 0.25).abs() < 0.05, "empirical {name} rate {rate}");
        }
    }

    #[test]
    fn corrupt_frame_flips_bits_deterministically() {
        let p = plan(FaultConfig { wire_corrupt_prob: 1.0, ..FaultConfig::default() });
        let f = frame(3, 1, 7, 0);
        let clean = vec![0xA5u8; 256];
        let mut a = clean.clone();
        p.corrupt_frame(&f, &mut a);
        assert_ne!(a, clean, "corruption must change the payload");
        let mut b = clean.clone();
        p.corrupt_frame(&f, &mut b);
        assert_eq!(a, b, "corruption is deterministic per frame");
        // A different attempt corrupts differently.
        let mut c = clean.clone();
        p.corrupt_frame(&frame(3, 1, 7, 1), &mut c);
        assert_ne!(a, c, "attempt must be part of the corruption key");
        // Tiny and empty payloads are safe.
        let mut one = vec![0u8];
        p.corrupt_frame(&f, &mut one);
        assert_ne!(one[0], 0);
        p.corrupt_frame(&f, &mut []);
    }

    #[test]
    fn wire_delay_respects_depth_and_reorder_is_one_slot() {
        let p = plan(FaultConfig {
            wire_delay_prob: 0.5,
            wire_delay_depth: 3,
            ..FaultConfig::default()
        });
        let delays: Vec<usize> = (0..200).map(|s| p.wire_delay(&frame(0, 0, s, 0))).collect();
        assert!(delays.contains(&3));
        assert!(delays.contains(&0));
        assert!(delays.iter().all(|&d| d == 0 || d == 3));
        // Depth 0 clamps to 1 when a delay fires.
        let p = plan(FaultConfig {
            wire_delay_prob: 1.0,
            wire_delay_depth: 0,
            ..FaultConfig::default()
        });
        assert!((0..50).all(|s| p.wire_delay(&frame(0, 0, s, 0)) == 1));
    }
}
