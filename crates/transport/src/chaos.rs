//! Deterministic wire-fault injection: a decorator over any byte link.
//!
//! [`Chaos`] wraps a [`Link`] — a client's ([`Chaos::client`]) or the
//! server's ([`Chaos::server`]) — and applies a [`FaultConfig`]'s wire knobs
//! to every frame the wrapped link *sends*: drop, bit corruption,
//! duplication, one-slot reordering, and multi-slot delay, with independent
//! state per destination peer. Receiving passes through untouched (each
//! direction of a link is chaos'd by its sender, so no frame is faulted
//! twice).
//!
//! Every decision is a [`FaultConfig`] method over the one keyed hash the
//! emulation's client dropouts and corruption read, keyed `(seed, link,
//! epoch, seq, attempt)` from the envelope header of the frame being sent.
//! Two consequences:
//!
//! * runs are exactly reproducible: same seed, same traffic, same faults,
//!   regardless of thread interleaving;
//! * a *retransmission* carries a fresh attempt number and therefore rolls
//!   a fresh decision, so the session layer's retries genuinely make
//!   progress instead of replaying the identical fate.
//!
//! Delay and reorder are modelled with a tick-based holdback queue: the
//! link's logical clock advances once per send, and a held frame is
//! released after the frame that advances the clock past its release tick
//! — i.e. a reordered frame is delivered right *after* its successor.
//! Because every release needs a later send, liveness comes from the
//! session layer's retransmissions (each retry ticks the clock); a final
//! [`Chaos::flush`] drains anything still held at shutdown.
//!
//! The decorator owns the link it wraps and, like every [`Link`], is driven
//! through `&mut self`: one send decides the frame's fate and hands the
//! wrapped link every frame now due, in delivery order.

use crate::bus::Link;
use crate::session::{Envelope, FrameKind};
use crate::BusError;
use fedsu_netsim::{FaultConfig, WireFrame};
use std::time::Duration;

/// Counters of what the chaos decorator did, kept per peer and read
/// summed over all peers ([`Chaos::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosStats {
    /// Frames offered to the decorator.
    pub frames: u64,
    /// Frames silently dropped.
    pub drops: u64,
    /// Bytes of the dropped frames (these never reach the inner link's
    /// counters).
    pub dropped_bytes: u64,
    /// Frames delivered with deterministically flipped bits.
    pub corruptions: u64,
    /// Extra copies injected by duplication.
    pub duplicates: u64,
    /// Frames held back one slot (delivered after their successor).
    pub reorders: u64,
    /// Frames held back [`fedsu_netsim::WIRE_DELAY_DEPTH`] slots.
    pub delays: u64,
}

impl ChaosStats {
    /// Element-wise saturating sum of two stats blocks.
    pub fn merged(&self, other: &ChaosStats) -> ChaosStats {
        ChaosStats {
            frames: self.frames.saturating_add(other.frames),
            drops: self.drops.saturating_add(other.drops),
            dropped_bytes: self.dropped_bytes.saturating_add(other.dropped_bytes),
            corruptions: self.corruptions.saturating_add(other.corruptions),
            duplicates: self.duplicates.saturating_add(other.duplicates),
            reorders: self.reorders.saturating_add(other.reorders),
            delays: self.delays.saturating_add(other.delays),
        }
    }
}

/// A frame awaiting release from the holdback queue.
#[derive(Debug)]
struct Pending {
    release: u64,
    order: u64,
    bytes: Vec<u8>,
}

/// Per-direction chaos state: a logical clock (one tick per send), the
/// holdback queue, and a counter that keys fault decisions for frames
/// without a readable envelope header.
#[derive(Debug, Default)]
struct LinkState {
    tick: u64,
    order: u64,
    fallback_seq: u64,
    pending: Vec<Pending>,
    stats: ChaosStats,
}

const DIR_TO_SERVER: u64 = 0;
const DIR_TO_CLIENT: u64 = 1;

/// Folds destination client, direction, and frame kind into one link id so
/// e.g. a data frame and the ack it provokes never share a fault decision.
fn link_id(client: u64, dir: u64, kind: Option<FrameKind>) -> u64 {
    let kind_bit = match kind {
        Some(FrameKind::Ack) => 1,
        _ => 0,
    };
    client.wrapping_mul(4).wrapping_add(dir.wrapping_mul(2)).wrapping_add(kind_bit)
}

/// Derives the deterministic fault key for `bytes` on the (client, dir)
/// link: the envelope header when one is readable, else a per-link counter
/// (still deterministic for a fixed traffic order).
fn frame_key(client: u64, dir: u64, bytes: &[u8], state: &mut LinkState) -> WireFrame {
    if let Some((kind, _, epoch, seq, attempt)) = Envelope::peek_header(bytes) {
        WireFrame {
            link: link_id(client, dir, Some(kind)),
            epoch: u64::from(epoch),
            seq: u64::from(seq),
            attempt: u64::from(attempt),
        }
    } else {
        state.fallback_seq = state.fallback_seq.wrapping_add(1);
        WireFrame { link: link_id(client, dir, None), epoch: u64::MAX, seq: state.fallback_seq, attempt: 0 }
    }
}

/// Puts every frame held for `peer` whose release tick is at most `upto` on
/// `inner`, oldest first. The holdback queue is re-sorted in place; order
/// among still-held frames is irrelevant because every release sorts by
/// `(release, order)` again.
fn release_due<L: Link>(
    state: &mut LinkState,
    upto: u64,
    inner: &mut L,
    peer: usize,
) -> Result<(), BusError> {
    if !state.pending.iter().any(|p| p.release <= upto) {
        return Ok(());
    }
    state.pending.sort_by_key(|p| (p.release, p.order));
    let split = state.pending.partition_point(|p| p.release <= upto);
    state.pending.drain(..split).try_for_each(|p| inner.send_bytes_to(peer, p.bytes))
}

/// A [`Link`] decorator injecting a plan's deterministic wire faults into
/// everything the wrapped endpoint sends, with independent chaos state per
/// destination peer.
#[derive(Debug)]
pub struct Chaos<L: Link> {
    inner: L,
    faults: FaultConfig,
    /// `Some(id)` on client `id`'s link, whose fates are keyed `(id,
    /// DIR_TO_SERVER)`; `None` on the server's, keyed `(destination peer,
    /// DIR_TO_CLIENT)`.
    client: Option<u64>,
    peers: Vec<LinkState>,
}

impl<L: Link> Chaos<L> {
    /// Wraps client `client`'s link with `faults`' wire knobs.
    pub fn client(inner: L, faults: FaultConfig, client: usize) -> Self {
        Self::new(inner, faults, Some(u64::try_from(client).unwrap_or(u64::MAX)))
    }

    /// Wraps the server link with `faults`' wire knobs.
    pub fn server(inner: L, faults: FaultConfig) -> Self {
        Self::new(inner, faults, None)
    }

    fn new(inner: L, faults: FaultConfig, client: Option<u64>) -> Self {
        let peers = (0..inner.peer_count()).map(|_| LinkState::default()).collect();
        Chaos { inner, faults, client, peers }
    }

    /// Decorator counters summed over every destination peer.
    pub fn stats(&self) -> ChaosStats {
        self.peers.iter().fold(ChaosStats::default(), |acc, s| acc.merged(&s.stats))
    }

    /// The wrapped link.
    pub fn inner(&self) -> &L {
        &self.inner
    }

    /// Delivers every frame still held in any peer's delay queue.
    ///
    /// # Errors
    ///
    /// Propagates the first send failure.
    pub fn flush(&mut self) -> Result<(), BusError> {
        let Chaos { inner, peers, .. } = self;
        (0..).zip(peers).try_for_each(|(peer, state)| release_due(state, u64::MAX, inner, peer))
    }
}

impl<L: Link> Link for Chaos<L> {
    /// Applies the plan's wire faults to one outgoing frame and puts on the
    /// wrapped link, in delivery order, every frame now due for `peer`: the
    /// frame itself (after corruption, with its duplicate first) when
    /// delivered immediately, followed by any held frames whose tick has
    /// matured.
    fn send_bytes_to(&mut self, peer: usize, mut bytes: Vec<u8>) -> Result<(), BusError> {
        if self.faults.wire_is_zero() {
            return self.inner.send_bytes_to(peer, bytes);
        }
        let (client, dir) = match self.client {
            Some(id) => (id, DIR_TO_SERVER),
            None => (u64::try_from(peer).unwrap_or(u64::MAX), DIR_TO_CLIENT),
        };
        let faults = &self.faults;
        let state = self.peers.get_mut(peer).ok_or(BusError::Disconnected)?;
        state.tick = state.tick.wrapping_add(1);
        state.stats.frames = state.stats.frames.saturating_add(1);
        let key = frame_key(client, dir, &bytes, state);
        if faults.wire_drops(&key) {
            state.stats.drops = state.stats.drops.saturating_add(1);
            state.stats.dropped_bytes = state
                .stats
                .dropped_bytes
                .saturating_add(u64::try_from(bytes.len()).unwrap_or(u64::MAX));
        } else {
            if faults.corrupt_frame(&key, &mut bytes) {
                state.stats.corruptions = state.stats.corruptions.saturating_add(1);
            }
            let duplicate = faults.wire_duplicates(&key);
            if duplicate {
                state.stats.duplicates = state.stats.duplicates.saturating_add(1);
            }
            let hold = {
                let d = faults.wire_delay(&key);
                if d > 0 {
                    state.stats.delays = state.stats.delays.saturating_add(1);
                    d
                } else if faults.wire_reorders(&key) {
                    state.stats.reorders = state.stats.reorders.saturating_add(1);
                    1
                } else {
                    0
                }
            };
            if hold == 0 {
                if duplicate {
                    self.inner.send_bytes_to(peer, bytes.clone())?;
                }
                self.inner.send_bytes_to(peer, bytes)?;
            } else {
                let release = state.tick.wrapping_add(u64::try_from(hold).unwrap_or(u64::MAX));
                let copies = if duplicate { 2 } else { 1 };
                state.pending.reserve(copies);
                for left in (0..copies).rev() {
                    state.order = state.order.wrapping_add(1);
                    let payload = if left > 0 { bytes.clone() } else { std::mem::take(&mut bytes) };
                    state.pending.push(Pending { release, order: state.order, bytes: payload });
                }
            }
        }
        release_due(state, state.tick, &mut self.inner, peer)
    }

    fn recv_bytes(&mut self, timeout: Duration) -> Result<Vec<u8>, BusError> {
        self.inner.recv_bytes(timeout)
    }

    fn peer_count(&self) -> usize {
        self.inner.peer_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LocalBus, Message, SparseValues};

    const T: Duration = Duration::from_millis(500);

    fn frame(seq: u32) -> Vec<u8> {
        Envelope::data(0, 0, seq, 0, Message::Shutdown.encode()).encode()
    }

    #[test]
    fn zero_plan_is_fully_transparent() {
        let (mut server, mut clients) = LocalBus::star(1);
        let mut chaos = Chaos::client(clients.remove(0), FaultConfig::default(), 0);
        for seq in 0..8 {
            chaos.send_bytes_to(0, frame(seq)).unwrap();
        }
        for seq in 0..8 {
            let got = server.recv_bytes(T).unwrap();
            assert_eq!(got, frame(seq), "zero plan must not drop, mutate, or reorder");
        }
        assert_eq!(chaos.stats(), ChaosStats::default());
    }

    #[test]
    fn chaos_is_deterministic_across_runs() {
        let config = FaultConfig {
            wire_drop_prob: 0.2,
            wire_corrupt_prob: 0.2,
            wire_duplicate_prob: 0.2,
            wire_reorder_prob: 0.2,
            wire_delay_prob: 0.1,
            seed: 7,
            ..FaultConfig::default()
        };
        let run = || {
            let (mut server, mut clients) = LocalBus::star(1);
            let mut chaos = Chaos::client(clients.remove(0), config, 0);
            for seq in 0..64 {
                chaos.send_bytes_to(0, frame(seq)).unwrap();
            }
            chaos.flush().unwrap();
            let mut out = Vec::new();
            while let Ok(bytes) = server.recv_bytes(Duration::from_millis(10)) {
                out.push(bytes);
            }
            (out, chaos.stats())
        };
        let (a, sa) = run();
        let (b, sb) = run();
        assert_eq!(a, b, "same plan + traffic must give byte-identical wire output");
        assert_eq!(sa, sb);
        assert!(sa.drops > 0 || sa.corruptions > 0 || sa.duplicates > 0, "plan should act at these rates");
    }

    #[test]
    fn drops_never_reach_the_inner_link() {
        let config =
            FaultConfig { wire_drop_prob: 1.0, seed: 3, ..FaultConfig::default() };
        let (mut server, mut clients) = LocalBus::star(1);
        let mut chaos = Chaos::client(clients.remove(0), config, 0);
        for seq in 0..4 {
            chaos.send_bytes_to(0, frame(seq)).unwrap();
        }
        assert!(server.recv_bytes(Duration::from_millis(10)).is_err());
        let stats = chaos.stats();
        assert_eq!(stats.drops, 4);
        assert!(stats.dropped_bytes > 0);
        assert_eq!(chaos.inner().stats().messages_sent, 0, "dropped frames never hit the wire");
    }

    #[test]
    fn duplicates_arrive_twice_and_delays_release_on_later_sends() {
        let config =
            FaultConfig { wire_duplicate_prob: 1.0, seed: 11, ..FaultConfig::default() };
        let (mut server, mut clients) = LocalBus::star(1);
        let mut chaos = Chaos::client(clients.remove(0), config, 0);
        chaos.send_bytes_to(0, frame(0)).unwrap();
        let a = server.recv_bytes(T).unwrap();
        let b = server.recv_bytes(T).unwrap();
        assert_eq!(a, frame(0));
        assert_eq!(b, frame(0));

        let config = FaultConfig { wire_delay_prob: 1.0, seed: 11, ..FaultConfig::default() };
        let (mut server, mut clients) = LocalBus::star(1);
        let mut chaos = Chaos::client(clients.remove(0), config, 0);
        // Every frame is held `WIRE_DELAY_DEPTH` = 3 ticks: frame 0 (sent at
        // tick 1, release 4) must come out only after the tick-4 send.
        for seq in 0..3 {
            chaos.send_bytes_to(0, frame(seq)).unwrap();
        }
        assert!(
            server.recv_bytes(Duration::from_millis(10)).is_err(),
            "nothing released before its tick"
        );
        chaos.send_bytes_to(0, frame(3)).unwrap();
        let got = server.recv_bytes(T).unwrap();
        assert_eq!(got, frame(0), "held frame released once the clock passes its tick");
        chaos.flush().unwrap();
        for seq in 1..4 {
            assert_eq!(server.recv_bytes(T).unwrap(), frame(seq));
        }
        assert_eq!(chaos.stats().delays, 4);
    }

    #[test]
    fn server_side_chaos_is_per_destination() {
        let config = FaultConfig { wire_drop_prob: 0.5, seed: 5, ..FaultConfig::default() };
        let (server, mut clients) = LocalBus::star(4);
        let mut chaos = Chaos::server(server, config);
        let payload = Message::Shutdown.encode();
        for round in 0..16u32 {
            for c in 0..4 {
                let env = Envelope::data(u32::try_from(c).unwrap_or(0), 0, round, 0, payload.clone());
                chaos.send_bytes_to(c, env.encode()).unwrap();
            }
        }
        let total = chaos.stats();
        assert_eq!(total.frames, 64);
        assert!(total.drops > 0 && total.drops < 64, "p=0.5 must land strictly between");
        let mut per_client_drops = Vec::new();
        for c in 0..4 {
            per_client_drops.push(chaos.peers[c].stats.drops);
        }
        assert!(
            per_client_drops.iter().any(|&d| d != per_client_drops[0])
                || per_client_drops.iter().all(|&d| d > 0),
            "destinations draw independent fates: {per_client_drops:?}"
        );
        let mut received = 0;
        for c in &mut clients {
            while c.recv_bytes(Duration::from_millis(5)).is_ok() {
                received += 1;
            }
        }
        assert_eq!(received, 64 - total.drops, "every non-dropped frame arrives exactly once");
    }

    #[test]
    fn direction_is_part_of_the_fault_key() {
        // The same frames toward and from client 2 under one plan: were the
        // direction not keyed, both links would drop the same ones.
        let config = FaultConfig { wire_drop_prob: 0.5, seed: 5, ..FaultConfig::default() };
        let (server, mut clients) = LocalBus::star(3);
        let mut up = Chaos::client(clients.remove(2), config, 2);
        let mut down = Chaos::server(server, config);
        fn dropped<L: Link>(chaos: &mut Chaos<L>, peer: usize) -> Vec<bool> {
            (0..64)
                .map(|seq| {
                    let before = chaos.stats().drops;
                    let frame = Envelope::data(2, 0, seq, 0, Vec::new()).encode();
                    chaos.send_bytes_to(peer, frame).unwrap();
                    chaos.stats().drops > before
                })
                .collect()
        }
        let (up_pattern, down_pattern) = (dropped(&mut up, 0), dropped(&mut down, 2));
        assert!(up_pattern.contains(&true) && down_pattern.contains(&true));
        assert_ne!(up_pattern, down_pattern);
    }

    #[test]
    fn corruption_flips_bits_but_keeps_length() {
        let config = FaultConfig { wire_corrupt_prob: 1.0, seed: 2, ..FaultConfig::default() };
        let (mut server, mut clients) = LocalBus::star(1);
        let mut chaos = Chaos::client(clients.remove(0), config, 0);
        chaos.send_bytes_to(0, frame(0)).unwrap();
        let got = server.recv_bytes(T).unwrap();
        assert_eq!(got.len(), frame(0).len());
        assert_ne!(got, frame(0));
        assert!(Envelope::decode(&got).is_err(), "checksum catches the flip");
        assert_eq!(chaos.stats().corruptions, 1);
    }

    #[test]
    fn retransmissions_roll_fresh_fates() {
        // With p(drop)=0.6 some (seq, attempt=0) frame is dropped while the
        // same seq at attempt=1 passes — the property that makes bounded
        // retries converge under a deterministic plan.
        let config = FaultConfig { wire_drop_prob: 0.6, seed: 13, ..FaultConfig::default() };
        let (mut server, mut clients) = LocalBus::star(1);
        let mut chaos = Chaos::client(clients.remove(0), config, 0);
        let mut recovered = false;
        for seq in 0..32u32 {
            chaos.send_bytes_to(0, Envelope::data(0, 0, seq, 0, Vec::new()).encode()).unwrap();
            let first = server.recv_bytes(Duration::from_millis(5));
            if first.is_ok() {
                continue;
            }
            chaos.send_bytes_to(0, Envelope::data(0, 0, seq, 1, Vec::new()).encode()).unwrap();
            if server.recv_bytes(Duration::from_millis(5)).is_ok() {
                recovered = true;
                break;
            }
        }
        assert!(recovered, "some retransmission must survive where attempt 0 was dropped");
    }

    /// Sends `frames` data frames through `chaos`, frame `i` to peer `i %
    /// peer_count()` as that peer's seq `i / peer_count()`, each carrying an
    /// `Update`'s encoding, then flushes.
    fn feed<L: Link>(chaos: &mut Chaos<L>, frames: u32, client: Option<u32>) {
        let peers = u32::try_from(chaos.peer_count()).unwrap();
        for i in 0..frames {
            let (peer, seq) = (i % peers, i / peers);
            let stamp = client.unwrap_or(peer);
            let values =
                SparseValues::sparse(vec![i, i * 7 + 1], vec![i as f32 * 0.5, -(seq as f32)]);
            let update = Message::Update { round: 1, client: stamp, values }.encode();
            let frame = Envelope::data(stamp, 1, seq, 0, update).encode();
            chaos.send_bytes_to(peer as usize, frame).unwrap();
        }
        chaos.flush().unwrap();
    }

    /// Folds every frame waiting at `link` into the FNV-1a `hash`, in
    /// arrival order, each prefixed by `tag` (naming the far end) and its
    /// length; returns how many there were.
    fn drain_into(link: &mut impl Link, tag: u64, hash: &mut u64) -> u64 {
        let mut count = 0;
        while let Ok(frame) = link.recv_bytes(Duration::from_millis(10)) {
            let len = frame.len() as u64;
            for b in tag.to_le_bytes().iter().chain(&len.to_le_bytes()).chain(&frame) {
                *hash = (*hash ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3);
            }
            count += 1;
        }
        count
    }

    #[test]
    fn wire_output_is_pinned_across_versions() {
        // Every wire fault on. A frame reaches the inner
        // link only during a send to its own peer or the flush, and each
        // peer's channel keeps order, so the far ends' inboxes read peer by
        // peer are the order the inner link received the frames in.
        let config = FaultConfig {
            wire_drop_prob: 0.15,
            wire_corrupt_prob: 0.15,
            wire_duplicate_prob: 0.2,
            wire_reorder_prob: 0.2,
            wire_delay_prob: 0.15,
            seed: 47,
            ..FaultConfig::default()
        };
        let mut hash = 0xcbf2_9ce4_8422_2325;
        let (mut server, mut clients) = LocalBus::star(3);
        let mut up = Chaos::client(clients.remove(2), config, 2);
        feed(&mut up, 64, Some(2));
        let mut count = drain_into(&mut server, 0, &mut hash);
        let (server, mut clients) = LocalBus::star(3);
        let mut down = Chaos::server(server, config);
        feed(&mut down, 64, None);
        for (tag, client) in (1..).zip(&mut clients) {
            count += drain_into(client, tag, &mut hash);
        }
        assert_eq!((hash, count), (0x14c4_489f_037e_8e04, 134));
        let stats = |drops, corruptions, reorders, delays| ChaosStats {
            frames: 64,
            drops,
            dropped_bytes: drops * 63,
            corruptions,
            duplicates: 10,
            reorders,
            delays,
        };
        assert_eq!(up.stats(), stats(6, 10, 5, 11));
        assert_eq!(down.stats(), stats(8, 5, 8, 10));
    }
}
