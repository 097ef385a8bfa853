//! Reliable session protocol over an unreliable byte link.
//!
//! The [`crate::LocalBus`] (and any future socket transport) moves opaque
//! frames; the chaos bus ([`crate::Chaos`]) may lose, corrupt,
//! duplicate, reorder, or delay them. This module restores exactly-once,
//! integrity-checked delivery on top:
//!
//! * every [`Message`] travels inside a framed [`Envelope`] carrying a
//!   round **epoch**, a **sequence number**, a retransmission **attempt**
//!   counter, and a CRC-32C **checksum** over everything before it
//!   (envelope version 2; computed eight bytes per step, see `crc32c`);
//! * receivers acknowledge every accepted data frame (including duplicates
//!   and stale frames, so a retransmitting peer always converges);
//! * senders retransmit unacknowledged frames with a deterministic linear
//!   backoff schedule, up to a bounded retry budget — mirroring the
//!   emulation's fixed budget (2 retransmissions, 2 s of backoff each) in
//!   `fedsu-fl`;
//! * receivers deduplicate by `(epoch, seq)` and reject frames from past
//!   epochs, so a round's update can never be aggregated twice and a
//!   straggler's retransmission can never leak into a later round.
//!
//! Every endpoint keeps [`ReliabilityStats`]; `retransmitted_bytes` counts
//! payload (encoded [`Message`]) bytes re-sent after the first attempt,
//! the same quantity the `fedsu-fl` runtime records per round in
//! `RoundRecord::retransmitted_bytes`.

use crate::bus::Link;
use crate::cursor::{take, take_len, take_u16, take_u32, take_u8, Truncated};
use crate::{BusError, Message};
use std::cmp::Ordering;
use std::collections::{BTreeSet, VecDeque};
use std::time::Duration;

const ENV_MAGIC: u16 = 0x5EF5;
const ENV_VERSION: u8 = 2;
const KIND_DATA: u8 = 1;
const KIND_ACK: u8 = 2;

/// Fixed envelope bytes around every payload: header (magic, version,
/// kind, client, epoch, seq, attempt, payload length) plus the trailing
/// checksum.
pub const ENVELOPE_OVERHEAD: usize = 2 + 1 + 1 + 4 + 4 + 4 + 2 + 4 + 4;

/// What an [`Envelope`] carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// An application payload that must be acknowledged.
    Data,
    /// An acknowledgement of one `(epoch, seq)` data frame.
    Ack,
}

/// A framed wire unit: the session protocol's header around the existing
/// versioned [`Message`] encoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope {
    /// Data or ack.
    pub kind: FrameKind,
    /// The client slot this session belongs to (same value in both
    /// directions of one client's session).
    pub client: u32,
    /// Round epoch the frame belongs to.
    pub epoch: u32,
    /// Sequence number within the epoch (per direction).
    pub seq: u32,
    /// Retransmission attempt, 0-based.
    pub attempt: u16,
    /// Encoded [`Message`] bytes (empty for acks).
    pub payload: Vec<u8>,
}

/// Envelope decoding errors. All are survivable: the session layer treats
/// an undecodable frame as lost and lets retransmission recover.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EnvelopeError {
    /// Frame shorter than its declared contents.
    Truncated,
    /// Magic header mismatch.
    BadMagic(u16),
    /// Unsupported envelope version.
    BadVersion(u8),
    /// Unknown frame kind.
    BadKind(u8),
    /// Checksum mismatch (bit corruption on the wire).
    BadChecksum {
        /// Checksum carried by the frame.
        carried: u32,
        /// Checksum recomputed over the received bytes.
        computed: u32,
    },
    /// Bytes left over after the declared payload (e.g. two spliced
    /// frames).
    TrailingBytes,
}

impl std::fmt::Display for EnvelopeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EnvelopeError::Truncated => write!(f, "envelope truncated"),
            EnvelopeError::BadMagic(m) => write!(f, "bad envelope magic {m:#x}"),
            EnvelopeError::BadVersion(v) => write!(f, "unsupported envelope version {v}"),
            EnvelopeError::BadKind(k) => write!(f, "unknown frame kind {k}"),
            EnvelopeError::BadChecksum { carried, computed } => {
                write!(f, "checksum mismatch: frame says {carried:#x}, computed {computed:#x}")
            }
            EnvelopeError::TrailingBytes => write!(f, "trailing bytes after envelope payload"),
        }
    }
}

impl std::error::Error for EnvelopeError {}

impl From<Truncated> for EnvelopeError {
    fn from(_: Truncated) -> Self {
        EnvelopeError::Truncated
    }
}

/// CRC-32C's (Castagnoli's) polynomial in reflected form.
const CRC32C_POLY: u32 = 0x82F6_3B78;

/// Slicing-by-8 tables: `CRC32C_TABLES[k][b]` is the register after
/// feeding byte `b` and then `k` zero bytes into a zero register, so eight
/// lookups advance the CRC by eight bytes at once. Built at compile time.
static CRC32C_TABLES: [[u32; 256]; 8] = crc32c_tables();

/// The register after feeding `byte` and then `zeros` zero bytes into a zero
/// register, one bit at a time.
const fn crc32c_shifted(byte: u32, zeros: u32) -> u32 {
    let mut c = byte;
    let mut bits = zeros.wrapping_add(1).wrapping_mul(8);
    while bits > 0 {
        c = if c & 1 == 1 { (c >> 1) ^ CRC32C_POLY } else { c >> 1 };
        bits = bits.wrapping_sub(1);
    }
    c
}

const fn crc32c_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut rows: &mut [[u32; 256]] = &mut tables;
    let mut zeros = 0;
    while let Some((row, later_rows)) = rows.split_first_mut() {
        let mut cells: &mut [u32] = row;
        let mut byte = 0;
        while let Some((cell, later_cells)) = cells.split_first_mut() {
            *cell = crc32c_shifted(byte, zeros);
            cells = later_cells;
            byte = byte.wrapping_add(1);
        }
        rows = later_rows;
        zeros = zeros.wrapping_add(1);
    }
    tables
}

/// One table lookup; a `u8` index is always in range, so the fallback is
/// dead code the optimizer removes.
#[inline(always)]
fn lookup(table: &[u32; 256], b: u8) -> u32 {
    table.get(usize::from(b)).copied().unwrap_or(0)
}

/// CRC-32C over `bytes` (Castagnoli polynomial, reflected, init and xorout
/// `0xFFFF_FFFF`: the iSCSI/ext4 CRC), computed eight bytes per step by
/// slicing-by-8. It catches every error of up to 3 bits in a frame shorter
/// than 2³¹ bits and every burst of up to 32 bits.
fn crc32c(bytes: &[u8]) -> u32 {
    let [t0, t1, t2, t3, t4, t5, t6, t7] = &CRC32C_TABLES;
    let (words, tail) = bytes.as_chunks::<8>();
    let mut crc = u32::MAX;
    for &[b0, b1, b2, b3, b4, b5, b6, b7] in words {
        let [x0, x1, x2, x3] = (crc ^ u32::from_le_bytes([b0, b1, b2, b3])).to_le_bytes();
        crc = lookup(t7, x0)
            ^ lookup(t6, x1)
            ^ lookup(t5, x2)
            ^ lookup(t4, x3)
            ^ lookup(t3, b4)
            ^ lookup(t2, b5)
            ^ lookup(t1, b6)
            ^ lookup(t0, b7);
    }
    for &b in tail {
        let [low, ..] = crc.to_le_bytes();
        crc = (crc >> 8) ^ lookup(t0, low ^ b);
    }
    !crc
}

impl FrameKind {
    fn byte(self) -> u8 {
        match self {
            FrameKind::Data => KIND_DATA,
            FrameKind::Ack => KIND_ACK,
        }
    }
}

/// One envelope seen in place: the header fields and the payload borrowed
/// from wherever it lives. [`Frame::write`] is the one frame writer and
/// [`Frame::parse`] the one frame parser; [`Envelope`] and the session
/// engine both go through them.
#[derive(Clone, Copy)]
struct Frame<'a> {
    kind: FrameKind,
    client: u32,
    epoch: u32,
    seq: u32,
    attempt: u16,
    payload: &'a [u8],
}

impl<'a> Frame<'a> {
    /// Serializes the frame into a fresh, exactly sized buffer: header,
    /// payload, and one CRC-32C over everything before the checksum.
    fn write(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(ENVELOPE_OVERHEAD.saturating_add(self.payload.len()));
        out.extend_from_slice(&ENV_MAGIC.to_le_bytes());
        out.push(ENV_VERSION);
        out.push(self.kind.byte());
        out.extend_from_slice(&self.client.to_le_bytes());
        out.extend_from_slice(&self.epoch.to_le_bytes());
        out.extend_from_slice(&self.seq.to_le_bytes());
        out.extend_from_slice(&self.attempt.to_le_bytes());
        let len = u32::try_from(self.payload.len()).unwrap_or(u32::MAX);
        out.extend_from_slice(&len.to_le_bytes());
        out.extend_from_slice(self.payload);
        let sum = crc32c(&out);
        out.extend_from_slice(&sum.to_le_bytes());
        out
    }

    /// Parses and verifies `bytes` without copying: the payload stays
    /// borrowed from the frame, and the checksum is computed once.
    fn parse(bytes: &'a [u8]) -> Result<Self, EnvelopeError> {
        let mut data = bytes;
        let (kind, client, epoch, seq, attempt) = parse_header(&mut data)?;
        let payload_len = take_len(&mut data)?;
        // `data` now holds payload + 4-byte checksum; reject splices.
        match data.len().checked_sub(4).map(|body| body.cmp(&payload_len)) {
            None | Some(Ordering::Less) => return Err(EnvelopeError::Truncated),
            Some(Ordering::Greater) => return Err(EnvelopeError::TrailingBytes),
            Some(Ordering::Equal) => {}
        }
        let payload = take(&mut data, payload_len)?;
        let carried = take_u32(&mut data)?;
        let computed = crc32c(bytes.get(..bytes.len().saturating_sub(4)).unwrap_or(&[]));
        if carried != computed {
            return Err(EnvelopeError::BadChecksum { carried, computed });
        }
        Ok(Frame { kind, client, epoch, seq, attempt, payload })
    }
}

/// Reads the fixed header `(kind, client, epoch, seq, attempt)` off the
/// front of `data`, checking magic, version and kind.
fn parse_header(data: &mut &[u8]) -> Result<(FrameKind, u32, u32, u32, u16), EnvelopeError> {
    let magic = take_u16(data)?;
    if magic != ENV_MAGIC {
        return Err(EnvelopeError::BadMagic(magic));
    }
    let version = take_u8(data)?;
    if version != ENV_VERSION {
        return Err(EnvelopeError::BadVersion(version));
    }
    let kind = match take_u8(data)? {
        KIND_DATA => FrameKind::Data,
        KIND_ACK => FrameKind::Ack,
        other => return Err(EnvelopeError::BadKind(other)),
    };
    Ok((kind, take_u32(data)?, take_u32(data)?, take_u32(data)?, take_u16(data)?))
}

impl Envelope {
    /// A data frame.
    pub fn data(client: u32, epoch: u32, seq: u32, attempt: u16, payload: Vec<u8>) -> Self {
        Envelope { kind: FrameKind::Data, client, epoch, seq, attempt, payload }
    }

    /// An acknowledgement of the `(epoch, seq)` data frame.
    ///
    /// The ack echoes the `attempt` of the data frame it acknowledges.
    /// Receivers match acks on `(epoch, seq)` alone, but a chaos bus keys
    /// wire fates on the attempt too — echoing it means the ack for a
    /// retransmission rolls a fresh fate instead of deterministically
    /// repeating the fate that lost the first ack.
    pub fn ack(client: u32, epoch: u32, seq: u32, attempt: u16) -> Self {
        Envelope { kind: FrameKind::Ack, client, epoch, seq, attempt, payload: Vec::new() }
    }

    /// Serializes the envelope: header, payload, and a trailing CRC-32C
    /// (Castagnoli, the iSCSI/ext4 CRC) over everything before it, stored
    /// little-endian.
    pub fn encode(&self) -> Vec<u8> {
        let Envelope { kind, client, epoch, seq, attempt, ref payload } = *self;
        Frame { kind, client, epoch, seq, attempt, payload }.write()
    }

    /// Parses an envelope produced by [`Envelope::encode`]. Never panics on
    /// arbitrary input.
    ///
    /// # Errors
    ///
    /// Returns [`EnvelopeError`] on truncation, bad magic/version/kind, a
    /// checksum mismatch, or trailing bytes after the declared payload.
    pub fn decode(bytes: &[u8]) -> Result<Self, EnvelopeError> {
        let Frame { kind, client, epoch, seq, attempt, payload } = Frame::parse(bytes)?;
        Ok(Envelope { kind, client, epoch, seq, attempt, payload: payload.to_vec() })
    }

    /// Parses just the fixed header `(kind, client, epoch, seq, attempt)`
    /// without verifying the checksum — the chaos bus uses this to key its
    /// per-(client, round, attempt) fault decisions on well-formed frames
    /// it is *about* to corrupt.
    pub fn peek_header(bytes: &[u8]) -> Option<(FrameKind, u32, u32, u32, u16)> {
        let mut data = bytes;
        parse_header(&mut data).ok()
    }
}

/// Knobs of the reliable session protocol. The defaults suit in-process
/// links; raise the timeout for real networks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionConfig {
    /// Retransmissions allowed after the first attempt before
    /// [`SessionError::RetriesExhausted`].
    pub max_retries: u32,
    /// How long to wait for an ack on the first attempt.
    pub ack_timeout: Duration,
    /// Deterministic linear backoff: attempt `k` waits
    /// `ack_timeout + k × backoff`.
    pub backoff: Duration,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            max_retries: 8,
            ack_timeout: Duration::from_millis(40),
            backoff: Duration::from_millis(20),
        }
    }
}

impl SessionConfig {
    fn wait_for(&self, attempt: u32) -> Duration {
        self.ack_timeout.saturating_add(self.backoff.saturating_mul(attempt))
    }
}

/// Per-endpoint counters of the reliability machinery. Additive across
/// endpoints via [`ReliabilityStats::merged`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReliabilityStats {
    /// Data frames sent, including retransmissions.
    pub data_frames_sent: u64,
    /// Data frames delivered to the application exactly once.
    pub data_frames_delivered: u64,
    /// Retransmission attempts after a frame's first send.
    pub retransmits: u64,
    /// Payload (encoded message) bytes re-sent after the first attempt —
    /// the wire-side analogue of `RoundRecord::retransmitted_bytes`.
    pub retransmitted_bytes: u64,
    /// Duplicate data frames dropped by `(epoch, seq)` dedup.
    pub dups_dropped: u64,
    /// Frames rejected as undecodable (truncation, bad checksum, garbage).
    pub corrupt_frames_rejected: u64,
    /// Data frames rejected because their epoch predates the current one.
    pub stale_epoch_rejected: u64,
    /// Acknowledgements sent.
    pub acks_sent: u64,
    /// Acknowledgements received.
    pub acks_received: u64,
}

impl ReliabilityStats {
    /// Element-wise saturating sum of two stats blocks.
    pub fn merged(&self, other: &ReliabilityStats) -> ReliabilityStats {
        ReliabilityStats {
            data_frames_sent: self.data_frames_sent.saturating_add(other.data_frames_sent),
            data_frames_delivered: self
                .data_frames_delivered
                .saturating_add(other.data_frames_delivered),
            retransmits: self.retransmits.saturating_add(other.retransmits),
            retransmitted_bytes: self.retransmitted_bytes.saturating_add(other.retransmitted_bytes),
            dups_dropped: self.dups_dropped.saturating_add(other.dups_dropped),
            corrupt_frames_rejected: self
                .corrupt_frames_rejected
                .saturating_add(other.corrupt_frames_rejected),
            stale_epoch_rejected: self.stale_epoch_rejected.saturating_add(other.stale_epoch_rejected),
            acks_sent: self.acks_sent.saturating_add(other.acks_sent),
            acks_received: self.acks_received.saturating_add(other.acks_received),
        }
    }
}

/// Session protocol errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionError {
    /// The underlying transport failed (timeout or disconnect).
    Bus(BusError),
    /// A reliable send exhausted its retry budget without an ack.
    RetriesExhausted {
        /// Client slot of the session.
        client: u32,
        /// Epoch of the unacknowledged frame.
        epoch: u32,
        /// Sequence number of the unacknowledged frame.
        seq: u32,
        /// Total transmission attempts made.
        attempts: u32,
    },
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::Bus(e) => write!(f, "transport failure: {e}"),
            SessionError::RetriesExhausted { client, epoch, seq, attempts } => write!(
                f,
                "no ack for client {client} epoch {epoch} seq {seq} after {attempts} attempts"
            ),
        }
    }
}

impl std::error::Error for SessionError {}

impl From<BusError> for SessionError {
    fn from(e: BusError) -> Self {
        SessionError::Bus(e)
    }
}

/// How the receive side classified an incoming data frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Admit {
    /// Epoch predates the receiver's current epoch.
    Stale,
    /// `(epoch, seq)` already delivered.
    Dup,
    /// First sighting: deliver.
    Fresh,
}

/// Receive-side dedup state for one peer: current epoch plus the set of
/// `(epoch, seq)` pairs already delivered. Entries from finished epochs are
/// pruned on every epoch advance, so memory stays bounded by one round's
/// traffic.
#[derive(Debug, Default)]
struct RxState {
    epoch: u32,
    seen: BTreeSet<(u32, u32)>,
}

impl RxState {
    fn begin_epoch(&mut self, epoch: u32) {
        self.epoch = epoch;
        self.seen.retain(|&(e, _)| e >= epoch);
    }

    fn admit(&mut self, epoch: u32, seq: u32) -> Admit {
        if epoch < self.epoch {
            return Admit::Stale;
        }
        if !self.seen.insert((epoch, seq)) {
            return Admit::Dup;
        }
        Admit::Fresh
    }
}

/// What a session keeps per peer: the next sequence number toward it and
/// the dedup state for what it sends.
#[derive(Debug, Default)]
struct PeerState {
    next_seq: u32,
    rx: RxState,
}

/// The reliable-session state machine, written once for both ends of the
/// star: a client's session is a server's with one peer. [`ClientSession`]
/// and [`ServerSession`] are its two faces.
#[derive(Debug)]
struct Engine<L: Link> {
    link: L,
    /// `Some(id)` for client `id`'s session: it stamps `id` on every data
    /// frame and attributes every frame it receives to its one peer, the
    /// server. `None` for the server's: it stamps the destination peer's
    /// index and attributes a frame to the client slot the frame names.
    client: Option<u32>,
    epoch: u32,
    peers: Vec<PeerState>,
    inbox: VecDeque<(usize, Message)>,
    /// The encoded [`Message`] of the send in flight, reused across sends:
    /// a message is encoded once, however many peers and attempts it takes.
    payload: Vec<u8>,
    config: SessionConfig,
    stats: ReliabilityStats,
}

impl<L: Link> Engine<L> {
    fn new(link: L, client: Option<u32>, config: SessionConfig) -> Self {
        let peers = (0..link.peer_count()).map(|_| PeerState::default()).collect();
        Engine {
            link,
            client,
            epoch: 0,
            peers,
            inbox: VecDeque::new(),
            payload: Vec::new(),
            config,
            stats: ReliabilityStats::default(),
        }
    }

    fn begin_epoch(&mut self, epoch: u32) {
        self.epoch = epoch;
        for p in &mut self.peers {
            p.next_seq = 0;
            p.rx.begin_epoch(epoch);
        }
    }

    fn send_reliable(&mut self, peer: usize, msg: &Message) -> Result<(), SessionError> {
        msg.encode_into(&mut self.payload);
        self.send_encoded(peer)
    }

    fn broadcast_reliable(&mut self, msg: &Message) -> Result<(), SessionError> {
        msg.encode_into(&mut self.payload);
        (0..self.peers.len()).try_for_each(|peer| self.send_encoded(peer))
    }

    /// Reliably sends the message already encoded in `self.payload`. Each
    /// attempt writes one frame around the borrowed payload and moves it
    /// into the link: one checksum per attempt, no copy kept behind.
    fn send_encoded(&mut self, peer: usize) -> Result<(), SessionError> {
        // Taken out for the duration: the ack wait below needs `&mut self`.
        let payload = std::mem::take(&mut self.payload);
        let sent = self.send_payload(peer, &payload);
        self.payload = payload;
        sent
    }

    fn send_payload(&mut self, peer: usize, payload: &[u8]) -> Result<(), SessionError> {
        let client = self.client.unwrap_or(u32::try_from(peer).unwrap_or(u32::MAX));
        let seq = {
            let slot = &mut self.peers.get_mut(peer).ok_or(BusError::Disconnected)?.next_seq;
            let seq = *slot;
            *slot = slot.wrapping_add(1);
            seq
        };
        let mut attempt: u32 = 0;
        loop {
            let frame = Frame {
                kind: FrameKind::Data,
                client,
                epoch: self.epoch,
                seq,
                attempt: u16::try_from(attempt).unwrap_or(u16::MAX),
                payload,
            };
            self.link.send_bytes_to(peer, frame.write())?;
            self.stats.data_frames_sent = self.stats.data_frames_sent.saturating_add(1);
            if attempt > 0 {
                self.stats.retransmits = self.stats.retransmits.saturating_add(1);
                self.stats.retransmitted_bytes = self
                    .stats
                    .retransmitted_bytes
                    .saturating_add(u64::try_from(payload.len()).unwrap_or(u64::MAX));
            }
            let wait = self.config.wait_for(attempt);
            loop {
                match self.read_one(wait) {
                    Err(SessionError::Bus(BusError::Timeout)) => break,
                    Err(e) => return Err(e),
                    Ok(Some((p, e, s))) if p == peer && e == self.epoch && s == seq => {
                        return Ok(())
                    }
                    Ok(_) => {}
                }
            }
            if attempt >= self.config.max_retries {
                return Err(SessionError::RetriesExhausted {
                    client,
                    epoch: self.epoch,
                    seq,
                    attempts: attempt.saturating_add(1),
                });
            }
            attempt = attempt.saturating_add(1);
        }
    }

    fn recv_reliable(&mut self, timeout: Duration) -> Result<(usize, Message), SessionError> {
        loop {
            if let Some(pair) = self.inbox.pop_front() {
                return Ok(pair);
            }
            self.read_one(timeout)?;
        }
    }

    fn linger(&mut self, grace: Duration) {
        while self.read_one(grace).is_ok() {}
    }

    /// Reads and processes one frame. Returns `Ok(Some((peer, epoch,
    /// seq)))` when the frame was an ack, `Ok(None)` otherwise (data frames
    /// are admitted into the inbox as a side effect). The frame is verified
    /// in place and its message decoded straight from the borrowed payload.
    fn read_one(&mut self, timeout: Duration) -> Result<Option<(usize, u32, u32)>, SessionError> {
        let bytes = self.link.recv_bytes(timeout)?;
        let Ok(frame) = Frame::parse(&bytes) else {
            self.stats.corrupt_frames_rejected =
                self.stats.corrupt_frames_rejected.saturating_add(1);
            return Ok(None);
        };
        let peer = match self.client {
            Some(_) => 0,
            None => usize::try_from(frame.client).unwrap_or(usize::MAX),
        };
        let Some(state) = self.peers.get_mut(peer) else {
            // A well-formed frame for a client slot we do not have is
            // indistinguishable from corruption that survived the checksum.
            self.stats.corrupt_frames_rejected =
                self.stats.corrupt_frames_rejected.saturating_add(1);
            return Ok(None);
        };
        match frame.kind {
            FrameKind::Ack => {
                self.stats.acks_received = self.stats.acks_received.saturating_add(1);
                Ok(Some((peer, frame.epoch, frame.seq)))
            }
            FrameKind::Data => {
                match state.rx.admit(frame.epoch, frame.seq) {
                    Admit::Stale => {
                        self.stats.stale_epoch_rejected =
                            self.stats.stale_epoch_rejected.saturating_add(1);
                        self.send_ack(peer, &frame);
                    }
                    Admit::Dup => {
                        self.stats.dups_dropped = self.stats.dups_dropped.saturating_add(1);
                        self.send_ack(peer, &frame);
                    }
                    Admit::Fresh => match Message::decode(frame.payload) {
                        Ok(msg) => {
                            self.send_ack(peer, &frame);
                            self.stats.data_frames_delivered =
                                self.stats.data_frames_delivered.saturating_add(1);
                            self.inbox.push_back((peer, msg));
                        }
                        Err(_) => {
                            // Checksummed frame with an undecodable payload:
                            // a sender-side framing bug. Un-admit so a good
                            // copy could still deliver, never ack garbage.
                            state.rx.seen.remove(&(frame.epoch, frame.seq));
                            self.stats.corrupt_frames_rejected =
                                self.stats.corrupt_frames_rejected.saturating_add(1);
                        }
                    },
                }
                Ok(None)
            }
        }
    }

    /// Acknowledges `data` to the peer it came from.
    fn send_ack(&mut self, peer: usize, data: &Frame<'_>) {
        // Ack loss is recovered by peer retransmission; a disconnect will
        // surface on the session's next send/recv.
        let ack = Frame { kind: FrameKind::Ack, payload: &[], ..*data };
        if self.link.send_bytes_to(peer, ack.write()).is_ok() {
            self.stats.acks_sent = self.stats.acks_sent.saturating_add(1);
        }
    }
}

/// One client's reliable session over any [`Link`] whose one peer is the
/// server.
#[derive(Debug)]
pub struct ClientSession<L: Link>(Engine<L>);

impl<L: Link> ClientSession<L> {
    /// Wraps `link` as the reliable session of client `client`.
    pub fn new(link: L, client: u32, config: SessionConfig) -> Self {
        ClientSession(Engine::new(link, Some(client), config))
    }

    /// Advances the session to round `epoch`: frames from earlier epochs
    /// are rejected as stale from now on, and dedup memory for them is
    /// released.
    pub fn begin_epoch(&mut self, epoch: u32) {
        self.0.begin_epoch(epoch);
    }

    /// Reliability counters of this endpoint.
    pub fn stats(&self) -> ReliabilityStats {
        self.0.stats
    }

    /// The wrapped link (e.g. to read its transport or chaos stats).
    pub fn link(&self) -> &L {
        &self.0.link
    }

    /// Sends `msg` with at-least-once retransmission and waits for the
    /// ack; combined with receiver dedup this yields exactly-once
    /// delivery. Data frames arriving while waiting are admitted, acked,
    /// and buffered for [`ClientSession::recv_reliable`].
    ///
    /// # Errors
    ///
    /// [`SessionError::RetriesExhausted`] when the retry budget runs out;
    /// [`SessionError::Bus`] on disconnect.
    pub fn send_reliable(&mut self, msg: &Message) -> Result<(), SessionError> {
        self.0.send_reliable(0, msg)
    }

    /// Receives the next exactly-once message from the server.
    ///
    /// # Errors
    ///
    /// [`SessionError::Bus`] with [`BusError::Timeout`] when nothing
    /// deliverable arrives within one quiet `timeout` window.
    pub fn recv_reliable(&mut self, timeout: Duration) -> Result<Message, SessionError> {
        self.0.recv_reliable(timeout).map(|(_, msg)| msg)
    }

    /// Services the link until `grace` elapses with no traffic, re-acking
    /// late retransmissions so the peer's in-flight [`send_reliable`]
    /// calls can complete after this side's last logical receive — the
    /// TIME_WAIT analog. Call before dropping the session at the end of a
    /// run; a disconnect also ends the linger (quietly: the peer is gone,
    /// so there is nothing left to service).
    ///
    /// [`send_reliable`]: ServerSession::send_reliable
    pub fn linger(&mut self, grace: Duration) {
        self.0.linger(grace);
    }
}

/// The server's reliable session over any [`Link`]: per-client sequence
/// numbers and dedup state, one shared inbox.
#[derive(Debug)]
pub struct ServerSession<L: Link>(Engine<L>);

impl<L: Link> ServerSession<L> {
    /// Wraps `link` (sizing per-client state from its peer count).
    pub fn new(link: L, config: SessionConfig) -> Self {
        ServerSession(Engine::new(link, None, config))
    }

    /// Advances every client session to round `epoch` (see
    /// [`ClientSession::begin_epoch`]).
    pub fn begin_epoch(&mut self, epoch: u32) {
        self.0.begin_epoch(epoch);
    }

    /// Aggregate reliability counters across all client sessions.
    pub fn stats(&self) -> ReliabilityStats {
        self.0.stats
    }

    /// The wrapped link (e.g. to read its transport or chaos stats).
    pub fn link(&self) -> &L {
        &self.0.link
    }

    /// Reliably sends `msg` to `client` (see
    /// [`ClientSession::send_reliable`]).
    ///
    /// # Errors
    ///
    /// [`SessionError::RetriesExhausted`] when the retry budget runs out;
    /// [`SessionError::Bus`] on disconnect or unknown client.
    pub fn send_reliable(&mut self, client: usize, msg: &Message) -> Result<(), SessionError> {
        self.0.send_reliable(client, msg)
    }

    /// Reliably sends `msg` to every client, in client order.
    ///
    /// # Errors
    ///
    /// Returns the first per-client failure.
    pub fn broadcast_reliable(&mut self, msg: &Message) -> Result<(), SessionError> {
        self.0.broadcast_reliable(msg)
    }

    /// Receives the next exactly-once `(client, message)` pair.
    ///
    /// # Errors
    ///
    /// [`SessionError::Bus`] with [`BusError::Timeout`] when nothing
    /// deliverable arrives within one quiet `timeout` window.
    pub fn recv_reliable(&mut self, timeout: Duration) -> Result<(usize, Message), SessionError> {
        self.0.recv_reliable(timeout)
    }

    /// Services the link until `grace` elapses with no traffic, re-acking
    /// late retransmissions so clients' in-flight
    /// [`ClientSession::send_reliable`] calls can complete after the
    /// server's last logical receive — the TIME_WAIT analog. Call in a
    /// loop until every client is done; a disconnect also ends the linger
    /// (quietly: the peers are gone, so there is nothing left to service).
    pub fn linger(&mut self, grace: Duration) {
        self.0.linger(grace);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LocalBus, SparseValues};

    const T: Duration = Duration::from_millis(500);

    /// Byte offset of the `attempt` field inside an encoded envelope: magic
    /// (2) + version (1) + kind (1) + client (4) + epoch (4) + seq (4).
    const ATTEMPT_OFFSET: usize = 2 + 1 + 1 + 4 + 4 + 4;

    /// Two attempts per send and nobody acks: every send gives up after
    /// its retransmission.
    fn unacked() -> SessionConfig {
        SessionConfig {
            max_retries: 1,
            ack_timeout: Duration::from_millis(5),
            backoff: Duration::from_millis(1),
        }
    }

    fn cfg() -> SessionConfig {
        SessionConfig {
            max_retries: 4,
            ack_timeout: Duration::from_millis(30),
            backoff: Duration::from_millis(10),
        }
    }

    #[test]
    fn envelope_roundtrips() {
        for env in [
            Envelope::data(3, 7, 11, 2, Message::Shutdown.encode()),
            Envelope::data(0, 0, 0, 0, Vec::new()),
            Envelope::ack(9, 1, 5, 2),
        ] {
            let bytes = env.encode();
            assert_eq!(bytes.len(), ENVELOPE_OVERHEAD + env.payload.len());
            assert_eq!(Envelope::decode(&bytes).unwrap(), env);
            let (kind, client, epoch, seq, attempt) = Envelope::peek_header(&bytes).unwrap();
            assert_eq!(
                (kind, client, epoch, seq, attempt),
                (env.kind, env.client, env.epoch, env.seq, env.attempt)
            );
        }
    }

    #[test]
    fn envelope_rejects_corruption_truncation_and_splices() {
        let env = Envelope::data(1, 2, 3, 0, Message::Shutdown.encode());
        let good = env.encode();
        // Every single-bit flip is caught (checksum or structure).
        for pos in 0..good.len() {
            for bit in 0..8 {
                let mut bad = good.clone();
                bad[pos] ^= 1 << bit;
                assert_ne!(Envelope::decode(&bad).ok(), Some(env.clone()), "flip at {pos}:{bit}");
            }
        }
        // Every truncation errors.
        for cut in 1..good.len() {
            assert!(Envelope::decode(&good[..good.len() - cut]).is_err(), "cut {cut}");
        }
        // A splice of two whole frames is rejected, not half-decoded.
        let mut spliced = good.clone();
        spliced.extend_from_slice(&Envelope::ack(1, 2, 3, 0).encode());
        assert_eq!(Envelope::decode(&spliced), Err(EnvelopeError::TrailingBytes));
        // Garbage never panics.
        assert!(Envelope::decode(&[]).is_err());
        assert!(Envelope::decode(&[0xF5, 0x5E, 1, 1]).is_err());
    }

    /// CRC-32C one bit at a time, straight from the definition: the
    /// reference the sliced tables must agree with.
    fn crc32c_bitwise(bytes: &[u8]) -> u32 {
        let mut crc = u32::MAX;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = if crc & 1 == 1 { (crc >> 1) ^ 0x82F6_3B78 } else { crc >> 1 };
            }
        }
        !crc
    }

    #[test]
    fn crc32c_matches_the_rfc_3720_known_answers() {
        let ascending: Vec<u8> = (0..32).collect();
        let descending: Vec<u8> = (0..32).rev().collect();
        for (bytes, want) in [
            (&[0x00; 32][..], 0x8A91_36AA),
            (&[0xFF; 32][..], 0x62A8_AB43),
            (&ascending[..], 0x46DD_794E),
            (&descending[..], 0x113F_DB5C),
            (&b"123456789"[..], 0xE306_9283),
        ] {
            assert_eq!(crc32c(bytes), want, "{bytes:?}");
            assert_eq!(crc32c_bitwise(bytes), want, "reference on {bytes:?}");
        }
    }

    #[test]
    fn sliced_crc32c_agrees_with_the_bitwise_reference() {
        use fedsu_cases::{Rng, SeedableRng, StdRng};
        let mut rng = StdRng::seed_from_u64(0xC32C);
        // Every length up to eight words covers every tail length at every
        // word count; the random lengths then reach past a kilobyte.
        let lens: Vec<usize> = (0..=64).chain((0..4096).map(|_| rng.gen_range(0..1100))).collect();
        for len in lens {
            let bytes: Vec<u8> = (0..len).map(|_| rng.gen_range(0..=255u8)).collect();
            assert_eq!(crc32c(&bytes), crc32c_bitwise(&bytes), "length {len}");
        }
    }

    #[test]
    fn every_one_and_two_bit_flip_of_a_64_byte_frame_is_rejected() {
        let payload: Vec<u8> =
            (0..=u8::MAX).map(|i| i.wrapping_mul(37) ^ 0xA5).take(64 - ENVELOPE_OVERHEAD).collect();
        let good = Envelope::data(2, 9, 4, 1, payload).encode();
        assert_eq!(good.len(), 64);
        let flip = |bytes: &mut [u8], bit: usize| bytes[bit / 8] ^= 1 << (bit % 8);
        let bits = good.len() * 8;
        let mut pairs = 0;
        let mut bad = good.clone();
        for i in 0..bits {
            flip(&mut bad, i);
            assert!(Envelope::decode(&bad).is_err(), "flip {i}");
            for j in i + 1..bits {
                flip(&mut bad, j);
                assert!(Envelope::decode(&bad).is_err(), "flips {i}, {j}");
                flip(&mut bad, j);
                pairs += 1;
            }
            flip(&mut bad, i);
        }
        assert_eq!(bad, good);
        assert_eq!(pairs, 130_816);
    }

    #[test]
    fn an_envelope_ends_in_the_crc32c_of_everything_before_it() {
        for env in [
            Envelope::data(3, 7, 11, 2, Message::Shutdown.encode()),
            Envelope::data(0, 0, 0, 0, Vec::new()),
            Envelope::ack(9, 1, 5, 2),
        ] {
            let mut bytes = env.encode();
            let (body, sum) = bytes.split_at(bytes.len() - 4);
            assert_eq!(u32::from_le_bytes(sum.try_into().unwrap()), crc32c_bitwise(body));
            // A frame of the FNV-1a format (version 1) is refused by its
            // version, before any checksum is looked at.
            bytes[2] = 1;
            assert_eq!(Envelope::decode(&bytes), Err(EnvelopeError::BadVersion(1)));
        }
    }

    #[test]
    fn reliable_roundtrip_over_clean_bus() {
        // send_reliable blocks until the peer acks, so (as with the raw
        // bus) each side of the session lives on its own thread.
        let (server, mut clients) = LocalBus::star(2);
        let mut srv = ServerSession::new(server, cfg());
        let c1 = clients.remove(1);
        let model = Message::Model { round: 0, values: SparseValues::dense(vec![1.0, 2.0]) };
        let update =
            Message::Update { round: 0, client: 1, values: SparseValues::dense(vec![3.0]) };
        let (expect, sent) = (model.clone(), update.clone());
        let handle = std::thread::spawn(move || {
            let mut cs = ClientSession::new(c1, 1, cfg());
            cs.send_reliable(&update).unwrap();
            assert_eq!(cs.recv_reliable(T).unwrap(), expect);
            cs.stats()
        });
        let (from, msg) = srv.recv_reliable(T).unwrap();
        assert_eq!((from, msg), (1, sent));
        srv.send_reliable(1, &model).unwrap();
        let client_stats = handle.join().unwrap();

        // Clean path: no retries, no dups, one data frame + ack each way.
        for s in [client_stats, srv.stats()] {
            assert_eq!(s.retransmits, 0);
            assert_eq!(s.retransmitted_bytes, 0);
            assert_eq!(s.dups_dropped, 0);
            assert_eq!(s.corrupt_frames_rejected, 0);
            assert_eq!(s.data_frames_sent, 1);
            assert_eq!(s.data_frames_delivered, 1);
            assert_eq!(s.acks_sent, 1);
            assert_eq!(s.acks_received, 1);
        }
    }

    #[test]
    fn duplicate_data_frames_are_delivered_once_and_reacked() {
        let (server, mut clients) = LocalBus::star(1);
        let mut srv = ServerSession::new(server, cfg());
        let mut client = clients.remove(0);
        // Hand-craft the same data frame twice (a wire duplicate).
        let payload = Message::Shutdown.encode();
        let frame = Envelope::data(0, 0, 0, 0, payload).encode();
        client.send_bytes_to(0, frame.clone()).unwrap();
        client.send_bytes_to(0, frame).unwrap();
        let (from, msg) = srv.recv_reliable(T).unwrap();
        assert_eq!((from, msg), (0, Message::Shutdown));
        // No second delivery; the dup was dropped but still acked.
        assert!(srv.recv_reliable(Duration::from_millis(20)).is_err());
        assert_eq!(srv.stats().data_frames_delivered, 1);
        assert_eq!(srv.stats().dups_dropped, 1);
        assert_eq!(srv.stats().acks_sent, 2);
        // Both acks arrived at the client endpoint.
        let a = client.recv_bytes(T).unwrap();
        let b = client.recv_bytes(T).unwrap();
        assert_eq!(Envelope::decode(&a).unwrap(), Envelope::ack(0, 0, 0, 0));
        assert_eq!(Envelope::decode(&b).unwrap(), Envelope::ack(0, 0, 0, 0));
    }

    #[test]
    fn stale_epoch_frames_are_rejected_but_acked() {
        let (server, mut clients) = LocalBus::star(1);
        let mut srv = ServerSession::new(server, cfg());
        srv.begin_epoch(3);
        let mut client = clients.remove(0);
        let frame = Envelope::data(0, 2, 0, 0, Message::Shutdown.encode()).encode();
        client.send_bytes_to(0, frame).unwrap();
        assert!(srv.recv_reliable(Duration::from_millis(20)).is_err());
        assert_eq!(srv.stats().stale_epoch_rejected, 1);
        assert_eq!(srv.stats().data_frames_delivered, 0);
        assert_eq!(srv.stats().acks_sent, 1, "stale frames still ack so the sender stops");
    }

    #[test]
    fn lost_ack_causes_retransmit_and_dedup_absorbs_it() {
        // Server endpoint that never sends acks: drop the server->client
        // direction by receiving raw and never replying, then check the
        // client gives up after its budget.
        let (mut server, mut clients) = LocalBus::star(1);
        let client = clients.remove(0);
        let mut cs = ClientSession::new(
            client,
            0,
            SessionConfig {
                max_retries: 2,
                ack_timeout: Duration::from_millis(10),
                backoff: Duration::from_millis(5),
            },
        );
        let err = cs.send_reliable(&Message::Shutdown).unwrap_err();
        assert_eq!(
            err,
            SessionError::RetriesExhausted { client: 0, epoch: 0, seq: 0, attempts: 3 }
        );
        assert_eq!(cs.stats().retransmits, 2);
        assert!(cs.stats().retransmitted_bytes > 0);
        // All three attempts are on the server inbox; attempts are marked.
        let mut attempts = Vec::new();
        for _ in 0..3 {
            let bytes = server.recv_bytes(T).unwrap();
            attempts.push(Envelope::decode(&bytes).unwrap().attempt);
        }
        assert_eq!(attempts, vec![0, 1, 2]);
    }

    #[test]
    fn corrupt_frames_are_counted_and_survived() {
        let (server, mut clients) = LocalBus::star(1);
        let mut srv = ServerSession::new(server, cfg());
        let mut client = clients.remove(0);
        client.send_bytes_to(0, vec![1, 2, 3, 4]).unwrap();
        let mut good = Envelope::data(0, 0, 0, 0, Message::Shutdown.encode()).encode();
        let last = good.len() - 1;
        good[last] ^= 0xFF; // break the checksum
        client.send_bytes_to(0, good).unwrap();
        assert!(srv.recv_reliable(Duration::from_millis(20)).is_err());
        assert_eq!(srv.stats().corrupt_frames_rejected, 2);
        assert_eq!(srv.stats().data_frames_delivered, 0);
    }

    /// Either facade, driven through the calls the two share.
    enum Facade {
        Client(ClientSession<crate::ClientEndpoint>),
        Server(ServerSession<crate::ServerEndpoint>, usize),
    }

    impl Facade {
        fn begin_epoch(&mut self, epoch: u32) {
            match self {
                Facade::Client(s) => s.begin_epoch(epoch),
                Facade::Server(s, _) => s.begin_epoch(epoch),
            }
        }
        fn send(&mut self, msg: &Message) -> Result<(), SessionError> {
            match self {
                Facade::Client(s) => s.send_reliable(msg),
                Facade::Server(s, peer) => s.send_reliable(*peer, msg),
            }
        }
        fn recv(&mut self, timeout: Duration) -> Result<(usize, Message), SessionError> {
            match self {
                Facade::Client(s) => s.recv_reliable(timeout).map(|m| (0, m)),
                Facade::Server(s, _) => s.recv_reliable(timeout),
            }
        }
        fn stats(&self) -> ReliabilityStats {
            match self {
                Facade::Client(s) => s.stats(),
                Facade::Server(s, _) => s.stats(),
            }
        }
    }

    #[test]
    fn undecodable_payload_is_rejected_unacked_and_unadmitted() {
        let (server, mut clients) = LocalBus::star(1);
        let mut srv = ServerSession::new(server, cfg());
        let mut client = clients.remove(0);
        // A sound envelope checksum around a payload that is not a Message.
        let garbage = Envelope::data(0, 0, 0, 0, vec![0xAB; 9]).encode();
        client.send_bytes_to(0, garbage).unwrap();
        let short = Duration::from_millis(20);
        assert_eq!(srv.recv_reliable(short), Err(SessionError::Bus(BusError::Timeout)));
        assert_eq!(client.recv_bytes(short), Err(BusError::Timeout), "garbage is never acked");
        assert_eq!(srv.stats().corrupt_frames_rejected, 1);
        assert_eq!(srv.stats().data_frames_delivered, 0);
        assert_eq!(srv.stats().acks_sent, 0);
        // Un-admitted: a good frame with the same (epoch, seq) still
        // delivers, exactly once, and is acked.
        let good = Envelope::data(0, 0, 0, 1, Message::Shutdown.encode()).encode();
        client.send_bytes_to(0, good).unwrap();
        assert_eq!(srv.recv_reliable(short), Ok((0, Message::Shutdown)));
        assert_eq!(srv.recv_reliable(short), Err(SessionError::Bus(BusError::Timeout)));
        assert_eq!(client.recv_bytes(short), Ok(Envelope::ack(0, 0, 0, 1).encode()));
        assert_eq!(client.recv_bytes(short), Err(BusError::Timeout));
        let stats = srv.stats();
        assert_eq!(stats.corrupt_frames_rejected, 1);
        assert_eq!(stats.data_frames_delivered, 1);
        assert_eq!(stats.dups_dropped, 0);
        assert_eq!(stats.acks_sent, 1);
    }

    #[test]
    fn broadcast_puts_the_same_frames_on_the_wire_for_every_client() {
        // Each client lets attempt 0 go unacked and acks attempt 1, so every
        // client sees both attempts of one encoding, and the long backoff
        // keeps the ack in time on a loaded host.
        let config = SessionConfig { backoff: Duration::from_secs(2), ..unacked() };
        let sends = [(5u32, 0u32), (5, 1), (6, 0)];
        let model = Message::Model { round: 5, values: SparseValues::dense(vec![0.5, -1.0, 2.0]) };
        let payload = model.encode();
        let (server, mut clients) = LocalBus::star(3);
        let mut srv = ServerSession::new(server, config);
        let expected = payload.clone();
        let far_end = std::thread::spawn(move || {
            for (epoch, seq) in sends {
                for c in 0..clients.len() {
                    let stamp = u32::try_from(c).unwrap();
                    for attempt in 0..2 {
                        let want = Envelope::data(stamp, epoch, seq, attempt, expected.clone());
                        let got = clients[c].recv_bytes(T);
                        assert_eq!(got, Ok(want.encode()), "client {c} {epoch}/{seq}");
                    }
                    // In client order: nobody else has been sent anything yet.
                    for other in &mut clients {
                        assert_eq!(other.recv_bytes(Duration::ZERO), Err(BusError::Timeout));
                    }
                    let ack = Envelope::ack(stamp, epoch, seq, 1).encode();
                    clients[c].send_bytes_to(0, ack).unwrap();
                }
            }
        });
        for (epoch, seq) in sends {
            if seq == 0 {
                srv.begin_epoch(epoch);
            }
            srv.broadcast_reliable(&model).unwrap();
        }
        far_end.join().unwrap();
        let stats = srv.stats();
        assert_eq!((stats.data_frames_sent, stats.retransmits, stats.acks_received), (18, 9, 9));
        assert_eq!(stats.retransmitted_bytes, 9 * payload.len() as u64);

        // With nobody acking, the first client's failure ends the broadcast.
        let (server, mut clients) = LocalBus::star(3);
        let mut srv = ServerSession::new(server, unacked());
        assert_eq!(
            srv.broadcast_reliable(&model),
            Err(SessionError::RetriesExhausted { client: 0, epoch: 0, seq: 0, attempts: 2 })
        );
        assert_eq!(clients[0].recv_bytes(T).map(|f| f.len()), Ok(ENVELOPE_OVERHEAD + payload.len()));
        assert_eq!(clients[1].recv_bytes(Duration::ZERO), Err(BusError::Timeout));
    }

    #[test]
    fn both_facades_put_the_same_frames_on_the_wire() {
        let quick = unacked();
        let short = Duration::from_millis(20);
        let msg = Message::Shutdown;
        let payload = msg.encode();
        let (server_a, mut clients_a) = LocalBus::star(3);
        let (server_b, mut clients_b) = LocalBus::star(3);
        // (facade, raw far end and the facade's index on it, client field
        // the facade stamps, index it reports the far end as, whether a
        // frame for slot `peer_count()` is delivered)
        let cases = [
            (
                Facade::Client(ClientSession::new(clients_a.remove(2), 2, quick)),
                Box::new(server_a) as Box<dyn Link>,
                2,
                2,
                0,
                true,
            ),
            (
                Facade::Server(ServerSession::new(server_b, quick), 1),
                Box::new(clients_b.remove(1)),
                0,
                1,
                1,
                false,
            ),
        ];
        for (mut facade, mut raw, to, stamp, from, unknown_slot_delivered) in cases {
            // Data frames: `client` is the stamp, `seq` restarts per epoch,
            // a retransmission changes the attempt field and checksum only.
            for (epoch, sends) in [(5u32, 2u32), (6, 1)] {
                facade.begin_epoch(epoch);
                for seq in 0..sends {
                    assert_eq!(
                        facade.send(&msg),
                        Err(SessionError::RetriesExhausted { client: stamp, epoch, seq, attempts: 2 })
                    );
                    let first = raw.recv_bytes(T).unwrap();
                    let again = raw.recv_bytes(T).unwrap();
                    assert_eq!(first, Envelope::data(stamp, epoch, seq, 0, payload.clone()).encode());
                    assert_eq!(again, Envelope::data(stamp, epoch, seq, 1, payload.clone()).encode());
                    let body = ATTEMPT_OFFSET + 2..first.len() - 4;
                    assert_eq!(first[..ATTEMPT_OFFSET], again[..ATTEMPT_OFFSET]);
                    assert_eq!(first[body.clone()], again[body]);
                }
            }
            // Acks echo the data frame's (client, epoch, seq, attempt), for
            // fresh, duplicate and stale frames alike.
            let slot = 3; // == peer_count() of the server
            for (client, epoch, seq, attempt, delivered, acked) in [
                (stamp, 6, 0, 3, true, true),
                (stamp, 6, 0, 4, false, true),
                (stamp, 5, 0, 0, false, true),
                (slot, 6, 1, 2, unknown_slot_delivered, unknown_slot_delivered),
            ] {
                let data = Envelope::data(client, epoch, seq, attempt, payload.clone());
                raw.send_bytes_to(to, data.encode()).unwrap();
                let got = facade.recv(short);
                if delivered {
                    assert_eq!(got, Ok((from, msg.clone())));
                } else {
                    assert_eq!(got, Err(SessionError::Bus(BusError::Timeout)));
                }
                let ack = raw.recv_bytes(short);
                if acked {
                    assert_eq!(ack, Ok(Envelope::ack(client, epoch, seq, attempt).encode()));
                } else {
                    assert_eq!(ack, Err(BusError::Timeout));
                }
            }
            let rejected = u64::from(!unknown_slot_delivered);
            assert_eq!(facade.stats().corrupt_frames_rejected, rejected);
            assert_eq!(facade.stats().data_frames_delivered, 2 - rejected);
        }
    }

    #[test]
    fn stats_merge_saturates() {
        let a = ReliabilityStats { retransmitted_bytes: u64::MAX - 1, ..Default::default() };
        let b = ReliabilityStats { retransmitted_bytes: 100, acks_sent: 3, ..Default::default() };
        let m = a.merged(&b);
        assert_eq!(m.retransmitted_bytes, u64::MAX);
        assert_eq!(m.acks_sent, 3);
    }
}
