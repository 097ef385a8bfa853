//! Deterministic fault injection.
//!
//! The paper's dynamicity protocol (Sec. V) and time-to-accuracy claims
//! (Table 1) are about surviving a messy fleet — clients that join late,
//! drop mid-round, or return garbage. A [`FaultConfig`] is the plan: it
//! decides, per `(client, round)`, whether that client suffers one of five
//! fault kinds:
//!
//! * **mid-round dropout** — the client trains but its upload never arrives;
//! * **upload loss** — a transmission attempt is lost and must be retried;
//! * **upload corruption** — NaN/outlier scalars appear in the payload;
//! * **transient slowdown** — compute and link time are multiplied by
//!   [`SLOWDOWN_FACTOR`];
//! * **crash with rejoin** — the client disappears for
//!   [`CRASH_DOWN_ROUNDS`] rounds and then rejoins through the dynamicity
//!   catch-up path.
//!
//! and, per [`WireFrame`], whether the transport's chaos decorator drops,
//! corrupts, duplicates, reorders or delays (by [`WIRE_DELAY_DEPTH`] sends)
//! that frame.
//!
//! Every decision is a pure function of `(seed, kind, keys)` through one
//! splitmix64-style keyed hash, so fault schedules are reproducible
//! bit-for-bit regardless of query order, and a zero-probability plan is
//! exactly the clean path: it never hashes.

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

/// Multiplier applied to a slowed client's compute and link time.
pub const SLOWDOWN_FACTOR: f64 = 3.0;
/// Rounds a crashed client stays away before rejoining (and paying the
/// dynamicity catch-up download).
pub const CRASH_DOWN_ROUNDS: usize = 2;
/// How many subsequent sends on the same link a delayed frame waits before
/// it is released.
pub const WIRE_DELAY_DEPTH: usize = 3;

/// splitmix64 finalizer: a cheap, well-mixed 64-bit hash step.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A position in `[0, n)` drawn from `h`, or `None` when `n` is zero.
fn position(h: u64, n: usize) -> Option<usize> {
    h.checked_rem(n as u64).and_then(|i| usize::try_from(i).ok())
}

/// The fault plan: the probabilities of the injected faults and the seed
/// of their schedule. Every probability defaults to zero (the clean path).
/// Cheap to copy; every decision is a pure hash of `(seed, kind, keys)`.
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
    /// Per-(client, round) probability of a transient slowdown by
    /// [`SLOWDOWN_FACTOR`].
    pub slowdown_prob: f64,
    /// Per-round probability that a client crashes for
    /// [`CRASH_DOWN_ROUNDS`] rounds.
    pub crash_prob: f64,
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
    /// Per-frame probability that a frame is delayed [`WIRE_DELAY_DEPTH`]
    /// subsequent sends before delivery.
    pub wire_delay_prob: f64,
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
            crash_prob: 0.0,
            wire_drop_prob: 0.0,
            wire_corrupt_prob: 0.0,
            wire_duplicate_prob: 0.0,
            wire_reorder_prob: 0.0,
            wire_delay_prob: 0.0,
            seed: 0xFA17,
        }
    }
}

/// Identity of one wire-level fault decision: a frame on a directed link,
/// in a session epoch, with a sequence number and a retransmission attempt.
///
/// Keying decisions on the *attempt* is what makes retransmission
/// effective under a deterministic plan: the retry of a dropped frame is a
/// different key and rolls fresh fault decisions, exactly like
/// [`FaultConfig::upload_attempts`] rolls per attempt on the emulation side.
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

impl WireFrame {
    /// The hash keys of this frame's decisions, in key order.
    fn keys(&self) -> [u64; 4] {
        [self.link, self.epoch, self.seq, self.attempt]
    }
}

impl FaultConfig {
    /// The ten fault probabilities: the five emulation-level ones, then the
    /// five wire-level ones.
    pub fn probabilities(&self) -> [f64; 10] {
        [
            self.dropout_prob,
            self.upload_loss_prob,
            self.corrupt_prob,
            self.slowdown_prob,
            self.crash_prob,
            self.wire_drop_prob,
            self.wire_corrupt_prob,
            self.wire_duplicate_prob,
            self.wire_reorder_prob,
            self.wire_delay_prob,
        ]
    }

    /// Whether every fault probability — emulation-level *and* wire-level —
    /// is zero (the clean path). Honest about the wire knobs so zero-fault
    /// fast paths stay exact: a config that injects anything anywhere is
    /// never treated as clean.
    pub fn is_zero(&self) -> bool {
        self.probabilities().iter().all(|&p| p == 0.0)
    }

    /// Whether every wire-level fault probability is zero (the chaos bus is
    /// a transparent pass-through).
    pub fn wire_is_zero(&self) -> bool {
        self.probabilities().iter().skip(5).all(|&p| p == 0.0)
    }

    /// The one keyed hash behind every decision: `seed ^ salt` mixed, then
    /// each key folded in order.
    fn hash<const N: usize>(&self, salt: u64, keys: [u64; N]) -> u64 {
        keys.into_iter().fold(mix(self.seed ^ salt), |h, k| mix(h ^ k))
    }

    /// Whether the fault of probability `prob` keyed `(salt, keys)` fires:
    /// the hash, read as a uniform value in `[0, 1)`, falls below `prob`. A
    /// zero probability never hashes.
    fn fires<const N: usize>(&self, prob: f64, salt: u64, keys: [u64; N]) -> bool {
        prob > 0.0 && prob > (self.hash(salt, keys) >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Whether `client` drops out mid-round at `round` (trains, but its
    /// upload never arrives).
    pub fn dropout(&self, client: usize, round: usize) -> bool {
        self.fires(self.dropout_prob, SALT_DROPOUT, [client as u64, round as u64, 0])
    }

    /// Injects NaN and outlier scalars into `client`'s upload payload at
    /// `round` in place when its corruption fires; returns whether it did.
    pub fn corrupt_upload(&self, client: usize, round: usize, values: &mut [f32]) -> bool {
        let (c, r) = (client as u64, round as u64);
        if !self.fires(self.corrupt_prob, SALT_CORRUPT, [c, r, 0]) {
            return false;
        }
        // Corrupt a deterministic ~1/64 slice of the payload, at least one
        // scalar: half NaN (detectable), half finite outliers (only caught
        // by norm validation).
        for m in 0..(values.len() / 64).max(1) {
            let h = self.hash(SALT_POSITION, [c, r, m as u64]);
            if let Some(v) = position(h, values.len()).and_then(|i| values.get_mut(i)) {
                *v = if m % 2 == 0 {
                    f32::NAN
                } else if mix(h ^ SALT_SIGN) & 1 == 0 {
                    1.0e8
                } else {
                    -1.0e8
                };
            }
        }
        true
    }

    /// Time multiplier for `client` at `round`: [`SLOWDOWN_FACTOR`] during
    /// a transient slowdown, else 1.0.
    pub fn slowdown(&self, client: usize, round: usize) -> f64 {
        if self.fires(self.slowdown_prob, SALT_SLOWDOWN, [client as u64, round as u64, 0]) {
            SLOWDOWN_FACTOR
        } else {
            1.0
        }
    }

    /// Number of transmissions needed for `client`'s upload at `round` to
    /// get through, given up to `max_retries` retransmissions after the
    /// first attempt. `None` means every attempt was lost and the upload
    /// never arrived.
    pub fn upload_attempts(&self, client: usize, round: usize, max_retries: u32) -> Option<u32> {
        let (c, r) = (client as u64, round as u64);
        (0..=max_retries)
            .find(|&attempt| !self.fires(self.upload_loss_prob, SALT_LOSS, [c, r, u64::from(attempt)]))
            .map(|attempt| attempt.saturating_add(1))
    }

    /// Whether `client` is down at `round` because of a crash in the
    /// preceding [`CRASH_DOWN_ROUNDS`] rounds. A client that was down at
    /// `round - 1` but not at `round` has rejoined and pays the dynamicity
    /// catch-up download.
    pub fn crashed(&self, client: usize, round: usize) -> bool {
        (0..CRASH_DOWN_ROUNDS).any(|back| {
            round.checked_sub(back).is_some_and(|r| {
                self.fires(self.crash_prob, SALT_CRASH, [client as u64, r as u64, 0])
            })
        })
    }

    /// Whether the wire silently drops `frame`.
    pub fn wire_drops(&self, frame: &WireFrame) -> bool {
        self.fires(self.wire_drop_prob, SALT_WIRE_DROP, frame.keys())
    }

    /// Whether `frame` is delivered twice.
    pub fn wire_duplicates(&self, frame: &WireFrame) -> bool {
        self.fires(self.wire_duplicate_prob, SALT_WIRE_DUP, frame.keys())
    }

    /// Whether `frame` is held back one slot (delivered after the next
    /// frame on the same link).
    pub fn wire_reorders(&self, frame: &WireFrame) -> bool {
        self.fires(self.wire_reorder_prob, SALT_WIRE_REORDER, frame.keys())
    }

    /// How many subsequent sends on the same link `frame` is delayed for:
    /// [`WIRE_DELAY_DEPTH`] when its delay fires, else 0.
    pub fn wire_delay(&self, frame: &WireFrame) -> usize {
        if self.fires(self.wire_delay_prob, SALT_WIRE_DELAY, frame.keys()) {
            WIRE_DELAY_DEPTH
        } else {
            0
        }
    }

    /// Flips deterministic bits of `frame`'s payload in place when its
    /// corruption fires — roughly one flipped bit per 64 bytes, always at
    /// least one on a non-empty frame — and returns whether it did.
    pub fn corrupt_frame(&self, frame: &WireFrame, bytes: &mut [u8]) -> bool {
        if !self.fires(self.wire_corrupt_prob, SALT_WIRE_CORRUPT, frame.keys()) {
            return false;
        }
        let [link, epoch, seq, attempt] = frame.keys();
        for m in 0..(bytes.len() / 64).max(1) {
            let h = self.hash(SALT_WIRE_BIT, [link, epoch, seq, attempt, m as u64]);
            if let Some(b) = position(h, bytes.len()).and_then(|i| bytes.get_mut(i)) {
                *b ^= 1 << ((h >> 17) % 8);
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_plan_injects_nothing() {
        let p = FaultConfig::default();
        assert!(p.is_zero());
        for c in 0..8 {
            for r in 0..64 {
                assert!(!p.dropout(c, r));
                let mut values = [0.5f32; 8];
                assert!(!p.corrupt_upload(c, r, &mut values));
                assert_eq!(values, [0.5; 8]);
                assert!(!p.crashed(c, r));
                assert_eq!(p.slowdown(c, r), 1.0);
                assert_eq!(p.upload_attempts(c, r, 3), Some(1));
            }
        }
    }

    #[test]
    fn decisions_are_deterministic_and_seed_sensitive() {
        let a = FaultConfig { dropout_prob: 0.3, ..FaultConfig::default() };
        let b = FaultConfig { dropout_prob: 0.3, ..FaultConfig::default() };
        let c = FaultConfig { dropout_prob: 0.3, seed: 99, ..FaultConfig::default() };
        let hits = |p: &FaultConfig| -> Vec<bool> {
            (0..200).map(|r| p.dropout(r % 7, r)).collect()
        };
        assert_eq!(hits(&a), hits(&b));
        assert_ne!(hits(&a), hits(&c), "different seeds should differ");
    }

    #[test]
    fn dropout_rate_tracks_probability() {
        let p = FaultConfig { dropout_prob: 0.25, ..FaultConfig::default() };
        let n = 4000;
        let hits = (0..n).filter(|&r| p.dropout(r % 16, r / 16)).count();
        let rate = hits as f64 / n as f64;
        assert!((rate - 0.25).abs() < 0.05, "empirical rate {rate}");
    }

    #[test]
    fn corruption_injects_nan_and_outliers() {
        let p = FaultConfig { corrupt_prob: 1.0, ..FaultConfig::default() };
        let mut values = vec![0.5f32; 256];
        assert!(p.corrupt_upload(0, 0, &mut values));
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
        let p = FaultConfig { upload_loss_prob: 0.5, ..FaultConfig::default() };
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
        let p = FaultConfig { crash_prob: 0.05, ..FaultConfig::default() };
        // Find the start of a down-window and check its shape: down for
        // `CRASH_DOWN_ROUNDS` rounds from there.
        let start = (0..8)
            .flat_map(|c| (1..200).map(move |r| (c, r)))
            .find(|&(c, r)| p.crashed(c, r) && !p.crashed(c, r - 1));
        let (c, r) = start.expect("expected at least one crash event");
        for k in 0..CRASH_DOWN_ROUNDS {
            assert!(p.crashed(c, r + k), "down within the window");
        }
        // Crashes are rare enough that most rounds are up.
        let up = (0..400).filter(|&r| !p.crashed(r % 8, r / 8)).count();
        assert!(up > 200, "client should be up most of the time, up {up}");
    }

    #[test]
    fn slowdown_multiplies_or_is_one() {
        let p = FaultConfig { slowdown_prob: 0.5, ..FaultConfig::default() };
        let factors: Vec<f64> = (0..200).map(|r| p.slowdown(r % 4, r)).collect();
        assert!(factors.contains(&SLOWDOWN_FACTOR));
        assert!(factors.contains(&1.0));
        assert!(factors.iter().all(|&f| f == 1.0 || f == SLOWDOWN_FACTOR));
    }

    fn frame(link: u64, epoch: u64, seq: u64, attempt: u64) -> WireFrame {
        WireFrame { link, epoch, seq, attempt }
    }

    #[test]
    fn zero_plan_wire_knobs_inject_nothing() {
        let p = FaultConfig::default();
        assert!(p.wire_is_zero());
        for s in 0..200 {
            let f = frame(s % 5, s % 7, s, s % 3);
            assert!(!p.wire_drops(&f));
            let mut bytes = [0xA5u8; 8];
            assert!(!p.corrupt_frame(&f, &mut bytes));
            assert_eq!(bytes, [0xA5; 8]);
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
        let p = FaultConfig { wire_drop_prob: 0.5, ..FaultConfig::default() };
        let q = FaultConfig { wire_drop_prob: 0.5, ..FaultConfig::default() };
        let hits = |p: &FaultConfig| -> Vec<bool> {
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
        let p = FaultConfig {
            wire_drop_prob: 0.25,
            wire_duplicate_prob: 0.25,
            ..FaultConfig::default()
        };
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
        let p = FaultConfig { wire_corrupt_prob: 1.0, ..FaultConfig::default() };
        let f = frame(3, 1, 7, 0);
        let clean = vec![0xA5u8; 256];
        let mut a = clean.clone();
        assert!(p.corrupt_frame(&f, &mut a));
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
        let p = FaultConfig { wire_delay_prob: 0.5, ..FaultConfig::default() };
        let delays: Vec<usize> = (0..200).map(|s| p.wire_delay(&frame(0, 0, s, 0))).collect();
        assert!(delays.contains(&WIRE_DELAY_DEPTH));
        assert!(delays.contains(&0));
        assert!(delays.iter().all(|&d| d == 0 || d == WIRE_DELAY_DEPTH));
    }

    #[test]
    fn fault_schedule_is_pinned_across_versions() {
        // Every decision, emulation and wire alike, folded into one FNV-1a
        // digest with every probability at 0.3: a change to any salt, key
        // order or hash step moves it.
        fn fold(hash: &mut u64, value: u64) {
            for b in value.to_le_bytes() {
                *hash = (*hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        }
        let digest = |seed: u64| {
            let p = FaultConfig {
                dropout_prob: 0.3,
                upload_loss_prob: 0.3,
                corrupt_prob: 0.3,
                slowdown_prob: 0.3,
                crash_prob: 0.3,
                wire_drop_prob: 0.3,
                wire_corrupt_prob: 0.3,
                wire_duplicate_prob: 0.3,
                wire_reorder_prob: 0.3,
                wire_delay_prob: 0.3,
                seed,
            };
            let mut hash = 0xcbf2_9ce4_8422_2325;
            for c in 0..8 {
                for r in 0..64 {
                    fold(&mut hash, u64::from(p.dropout(c, r)));
                    fold(&mut hash, p.slowdown(c, r).to_bits());
                    fold(&mut hash, u64::from(p.crashed(c, r)));
                    fold(&mut hash, p.upload_attempts(c, r, 3).map_or(0, u64::from));
                    let mut values: Vec<f32> = (0..130).map(|i| i as f32 * 0.25).collect();
                    fold(&mut hash, u64::from(p.corrupt_upload(c, r, &mut values)));
                    values.iter().for_each(|v| fold(&mut hash, u64::from(v.to_bits())));
                }
            }
            for link in 0..6 {
                for epoch in 0..4 {
                    for seq in 0..16 {
                        for attempt in 0..3 {
                            let f = frame(link, epoch, seq, attempt);
                            fold(&mut hash, u64::from(p.wire_drops(&f)));
                            fold(&mut hash, u64::from(p.wire_duplicates(&f)));
                            fold(&mut hash, u64::from(p.wire_reorders(&f)));
                            fold(&mut hash, p.wire_delay(&f) as u64);
                            let mut bytes: Vec<u8> = (0..200u8).collect();
                            fold(&mut hash, u64::from(p.corrupt_frame(&f, &mut bytes)));
                            bytes.iter().for_each(|&b| fold(&mut hash, u64::from(b)));
                        }
                    }
                }
            }
            hash
        };
        assert_eq!([digest(0xFA17), digest(48)], [0xea2b_dd9c_142e_8b40, 0x307b_c09d_6f9a_bc96]);
    }
}
