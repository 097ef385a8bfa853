//! Channel-based endpoints connecting one server and N clients across
//! threads, moving opaque frames (so byte counters measure the real wire
//! volume). A [`crate::Message`] travels only inside a session's envelope.
//! An endpoint has one owner and counts its own traffic in a plain
//! [`TransportStats`]: [`Link`]'s send and receive take `&mut self`.

use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::time::Duration;

/// Cumulative traffic counters of one endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TransportStats {
    /// Bytes sent by this endpoint.
    pub bytes_sent: u64,
    /// Bytes received by this endpoint.
    pub bytes_received: u64,
    /// Messages sent.
    pub messages_sent: u64,
    /// Messages received.
    pub messages_received: u64,
}

/// Transport errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BusError {
    /// The peer endpoint hung up.
    Disconnected,
    /// No message arrived within the timeout.
    Timeout,
}

impl std::fmt::Display for BusError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BusError::Disconnected => write!(f, "peer disconnected"),
            BusError::Timeout => write!(f, "receive timed out"),
        }
    }
}

impl std::error::Error for BusError {}

/// A byte-moving endpoint addressed by peer index: the primitive the session
/// and chaos layers stack on. In a star a client is a server with one peer:
/// [`ServerEndpoint`]'s peers are its clients, [`ClientEndpoint`] has exactly
/// one, the server, at index 0. [`crate::Chaos`] decorates any
/// implementation with deterministic wire faults.
///
/// An endpoint has one owner, as a socket does: sending and receiving take
/// `&mut self`, so the borrow checker, not a lock, keeps a second caller off.
pub trait Link {
    /// Sends one opaque frame to `peer`.
    ///
    /// # Errors
    ///
    /// Returns [`BusError::Disconnected`] when the peer is gone or unknown.
    fn send_bytes_to(&mut self, peer: usize, bytes: Vec<u8>) -> Result<(), BusError>;

    /// Receives the next frame from any peer (blocking with timeout).
    ///
    /// # Errors
    ///
    /// Returns [`BusError::Timeout`] / [`BusError::Disconnected`].
    fn recv_bytes(&mut self, timeout: Duration) -> Result<Vec<u8>, BusError>;

    /// Number of connected peers.
    fn peer_count(&self) -> usize;
}

/// A frame's length as a byte count. usize -> u64 is infallible on every
/// supported target; the conversion saturates, as every counter's sum does,
/// so accounting can never abort a transfer (a bare `+=` still aborts debug
/// builds on overflow).
fn byte_count(bytes: &[u8]) -> u64 {
    u64::try_from(bytes.len()).unwrap_or(u64::MAX)
}

/// Sends `bytes` on `to`, counting the frame once the channel accepted it.
fn send_counted(
    to: Option<&Sender<Vec<u8>>>,
    stats: &mut TransportStats,
    bytes: Vec<u8>,
) -> Result<(), BusError> {
    let len = byte_count(&bytes);
    to.ok_or(BusError::Disconnected)?.send(bytes).map_err(|_| BusError::Disconnected)?;
    stats.bytes_sent = stats.bytes_sent.saturating_add(len);
    stats.messages_sent = stats.messages_sent.saturating_add(1);
    Ok(())
}

/// Takes the next frame off `inbox`, counting it.
fn recv_counted(
    inbox: &Receiver<Vec<u8>>,
    stats: &mut TransportStats,
    timeout: Duration,
) -> Result<Vec<u8>, BusError> {
    let bytes = inbox.recv_timeout(timeout).map_err(|e| match e {
        RecvTimeoutError::Timeout => BusError::Timeout,
        RecvTimeoutError::Disconnected => BusError::Disconnected,
    })?;
    stats.bytes_received = stats.bytes_received.saturating_add(byte_count(&bytes));
    stats.messages_received = stats.messages_received.saturating_add(1);
    Ok(bytes)
}

/// The server's side of the bus: receives from all clients on one queue,
/// sends to each client individually.
pub struct ServerEndpoint {
    inbox: Receiver<Vec<u8>>,
    to_clients: Vec<Sender<Vec<u8>>>,
    stats: TransportStats,
}

impl std::fmt::Debug for ServerEndpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerEndpoint").field("clients", &self.to_clients.len()).finish()
    }
}

impl ServerEndpoint {
    /// Traffic counters for this endpoint.
    pub fn stats(&self) -> TransportStats {
        self.stats
    }
}

impl Link for ServerEndpoint {
    fn send_bytes_to(&mut self, peer: usize, bytes: Vec<u8>) -> Result<(), BusError> {
        send_counted(self.to_clients.get(peer), &mut self.stats, bytes)
    }

    fn recv_bytes(&mut self, timeout: Duration) -> Result<Vec<u8>, BusError> {
        recv_counted(&self.inbox, &mut self.stats, timeout)
    }

    fn peer_count(&self) -> usize {
        self.to_clients.len()
    }
}

/// One client's side of the bus.
pub struct ClientEndpoint {
    id: usize,
    to_server: Sender<Vec<u8>>,
    inbox: Receiver<Vec<u8>>,
    stats: TransportStats,
}

impl std::fmt::Debug for ClientEndpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClientEndpoint").field("id", &self.id).finish()
    }
}

impl ClientEndpoint {
    /// This endpoint's client id.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Traffic counters for this endpoint.
    pub fn stats(&self) -> TransportStats {
        self.stats
    }
}

impl Link for ClientEndpoint {
    fn send_bytes_to(&mut self, peer: usize, bytes: Vec<u8>) -> Result<(), BusError> {
        let to = (peer == 0).then_some(&self.to_server);
        send_counted(to, &mut self.stats, bytes)
    }

    fn recv_bytes(&mut self, timeout: Duration) -> Result<Vec<u8>, BusError> {
        recv_counted(&self.inbox, &mut self.stats, timeout)
    }

    fn peer_count(&self) -> usize {
        1
    }
}

/// Factory for a star topology: one server, `n` clients.
#[derive(Debug)]
pub struct LocalBus;

impl LocalBus {
    /// Creates connected endpoints for one server and `n` clients. With
    /// `n == 0` the server has no peers: every send to it and every receive
    /// on it is [`BusError::Disconnected`].
    pub fn star(n: usize) -> (ServerEndpoint, Vec<ClientEndpoint>) {
        let (client_tx, server_inbox) = channel::<Vec<u8>>();
        let mut to_clients = Vec::with_capacity(n);
        let mut clients = Vec::with_capacity(n);
        for id in 0..n {
            let (tx, rx) = channel::<Vec<u8>>();
            to_clients.push(tx);
            clients.push(ClientEndpoint {
                id,
                to_server: client_tx.clone(),
                inbox: rx,
                stats: TransportStats::default(),
            });
        }
        let server =
            ServerEndpoint { inbox: server_inbox, to_clients, stats: TransportStats::default() };
        (server, clients)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T: Duration = Duration::from_millis(500);

    /// The send side of an endpoint's counters: `(bytes_sent, messages_sent)`.
    fn sent(stats: TransportStats) -> (u64, u64) {
        (stats.bytes_sent, stats.messages_sent)
    }

    #[test]
    fn client_to_server_roundtrip() {
        let (mut server, mut clients) = LocalBus::star(2);
        clients[1].send_bytes_to(0, vec![1, 2, 3]).unwrap();
        assert_eq!(server.recv_bytes(T).unwrap(), vec![1, 2, 3]);
        assert_eq!(server.stats().messages_received, 1);
        assert_eq!(clients[1].stats().messages_sent, 1);
        assert_eq!(server.stats().bytes_received, 3);
        assert_eq!(server.stats().bytes_received, clients[1].stats().bytes_sent);
    }

    #[test]
    fn broadcast_reaches_every_client() {
        let (mut server, mut clients) = LocalBus::star(3);
        for peer in 0..server.peer_count() {
            server.send_bytes_to(peer, vec![7; 5]).unwrap();
        }
        for c in &mut clients {
            assert_eq!(c.recv_bytes(T).unwrap(), vec![7; 5]);
            assert_eq!(c.stats().bytes_received, 5);
        }
        assert_eq!(server.stats().messages_sent, 3);
        assert_eq!(server.stats().bytes_sent, 15);
        // A peer index past the star is not a peer, and a frame sent to
        // none is not counted.
        assert_eq!(server.send_bytes_to(3, vec![0]), Err(BusError::Disconnected));
        assert_eq!(clients[0].send_bytes_to(1, vec![0]), Err(BusError::Disconnected));
        assert_eq!(sent(server.stats()), (15, 3));
        assert_eq!(sent(clients[0].stats()), (0, 0));
    }

    #[test]
    fn timeout_when_no_message() {
        let (mut server, mut clients) = LocalBus::star(1);
        assert_eq!(server.recv_bytes(Duration::from_millis(10)).unwrap_err(), BusError::Timeout);
        assert_eq!(clients[0].recv_bytes(Duration::from_millis(10)).unwrap_err(), BusError::Timeout);
        assert_eq!(server.stats().messages_received, 0, "a timeout counts nothing");
    }

    #[test]
    fn disconnect_is_detected() {
        let (mut server, mut clients) = LocalBus::star(2);
        drop(clients.pop());
        assert_eq!(server.send_bytes_to(1, vec![0]).unwrap_err(), BusError::Disconnected);
        assert_eq!(sent(server.stats()), (0, 0), "a frame to a hung-up client is not counted");
        drop(server);
        assert_eq!(clients[0].send_bytes_to(0, vec![0]).unwrap_err(), BusError::Disconnected);
        assert_eq!(clients[0].recv_bytes(T).unwrap_err(), BusError::Disconnected);
        assert_eq!(sent(clients[0].stats()), (0, 0), "a frame to a hung-up server is not counted");
    }

    #[test]
    fn cross_thread_exchange() {
        let (mut server, mut clients) = LocalBus::star(2);
        let handles: Vec<_> = clients
            .drain(..)
            .map(|mut c| {
                std::thread::spawn(move || {
                    c.send_bytes_to(0, vec![u8::try_from(c.id()).unwrap()]).unwrap();
                    c.recv_bytes(T).unwrap() == [0xFF]
                })
            })
            .collect();
        let mut seen = Vec::new();
        for _ in 0..2 {
            seen.extend(server.recv_bytes(T).unwrap());
        }
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1]);
        for peer in 0..2 {
            server.send_bytes_to(peer, vec![0xFF]).unwrap();
        }
        for h in handles {
            assert!(h.join().unwrap());
        }
    }

    #[test]
    fn empty_star_is_a_server_with_no_peers() {
        let (mut server, clients) = LocalBus::star(0);
        assert!(clients.is_empty());
        assert_eq!(server.peer_count(), 0);
        assert_eq!(server.send_bytes_to(0, vec![0]), Err(BusError::Disconnected));
        assert_eq!(server.recv_bytes(T), Err(BusError::Disconnected));
        assert_eq!(server.stats(), TransportStats::default(), "nothing went anywhere");
    }
}
