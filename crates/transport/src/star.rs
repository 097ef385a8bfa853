//! The lockstep FL round loop over the whole stack, written once: every end
//! of a [`LocalBus::star`] under [`Chaos`] and a reliable session, the server
//! on the calling thread, each client on a thread of its own. Replies are
//! folded in client-index order, so a fold is bit-reproducible whatever
//! order they arrived in.

use crate::bus::{BusError, ClientEndpoint, LocalBus, ServerEndpoint};
use crate::chaos::{Chaos, ChaosStats};
use crate::session::{ClientSession, ReliabilityStats, ServerSession, SessionConfig, SessionError};
use crate::Message;
use fedsu_netsim::FaultConfig;
use std::thread::ScopedJoinHandle;
use std::time::Duration;

/// How long either side waits through one quiet window for the message it
/// needs next before the run fails.
const RECV_TIMEOUT: Duration = Duration::from_secs(20);

/// The server's half of a star run.
pub trait StarServer {
    /// The message every client receives at the start of `round`.
    fn broadcast(&mut self, round: u32) -> Message;

    /// Folds `round`'s uploads: one per client, in client-index order.
    fn fold(&mut self, round: u32, uploads: Vec<Message>);
}

/// A star run's shape.
#[derive(Debug, Clone, Copy)]
pub struct Star {
    /// Client threads, one session each.
    pub clients: usize,
    /// Lockstep rounds; round `r` runs in session epoch `r`.
    pub rounds: u32,
    /// The wire faults every end's [`Chaos`] applies.
    pub faults: FaultConfig,
    /// Every end's retry budget.
    pub session: SessionConfig,
}

/// The counters of a finished run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StarRun {
    /// The server session's.
    pub server: ReliabilityStats,
    /// Every client session's, merged.
    pub clients: ReliabilityStats,
    /// The server end's chaos counters.
    pub server_chaos: ChaosStats,
    /// Every client end's chaos counters, merged.
    pub clients_chaos: ChaosStats,
}

/// Why a star run stopped. Client ids and rounds are the ones the steps see.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StarError {
    /// A star needs at least one client.
    NoClients,
    /// A session call failed on the server's end (`None`) or on a client's.
    Session(Option<u32>, SessionError),
    /// A client's step failed: the client, the round, the step's reason.
    Step(u32, u32, String),
    /// A client delivered a second upload in one round: the client, the round.
    DuplicateUpload(u32, u32),
    /// A client's thread panicked.
    ClientLost(u32),
}

impl std::fmt::Display for StarError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StarError::NoClients => write!(f, "a star needs at least one client"),
            StarError::Session(None, e) => write!(f, "server: {e}"),
            StarError::Session(Some(c), e) => write!(f, "client {c}: {e}"),
            StarError::Step(c, r, reason) => write!(f, "client {c} round {r}: {reason}"),
            StarError::DuplicateUpload(c, r) => write!(f, "client {c} uploaded twice in round {r}"),
            StarError::ClientLost(c) => write!(f, "client {c}'s thread panicked"),
        }
    }
}

impl std::error::Error for StarError {}

type ClientOutcome = Result<(ReliabilityStats, ChaosStats), StarError>;

fn client_id(index: usize) -> u32 {
    u32::try_from(index).unwrap_or(u32::MAX)
}

/// Joins client `index`'s thread.
fn join(index: usize, handle: ScopedJoinHandle<'_, ClientOutcome>) -> ClientOutcome {
    handle.join().unwrap_or(Err(StarError::ClientLost(client_id(index))))
}

impl Star {
    /// `clients` × `rounds` under `faults`, with 16 retries after a 15 ms
    /// first wait and 5 ms more per retry: even a plan losing 30 % of the
    /// frames each way converges (plans are deterministic, so a seed that
    /// passes passes forever).
    pub fn new(clients: usize, rounds: u32, faults: FaultConfig) -> Self {
        let session = SessionConfig {
            max_retries: 16,
            ack_timeout: Duration::from_millis(15),
            backoff: Duration::from_millis(5),
        };
        Star { clients, rounds, faults, session }
    }

    /// Runs every round: `server` broadcasts, the step `step_for(id)` makes
    /// turns what client `id` receives into its one reply, `server` folds.
    /// Both sides linger at the end (the TIME_WAIT analog).
    ///
    /// # Errors
    ///
    /// The first [`StarError`], after the server hung up (so a waiting
    /// client sees a disconnect at once) and every thread was joined.
    pub fn run<V, F, S>(&self, server: &mut V, mut step_for: F) -> Result<StarRun, StarError>
    where
        V: StarServer,
        F: FnMut(u32) -> S,
        S: FnMut(u32, Message) -> Result<Message, String> + Send,
    {
        if self.clients == 0 {
            return Err(StarError::NoClients);
        }
        let (endpoint, endpoints) = LocalBus::star(self.clients);
        std::thread::scope(|scope| {
            // Client `i`'s thread sits at index `i`.
            let mut threads: Vec<_> = endpoints
                .into_iter()
                .map(|endpoint| {
                    let (index, id) = (endpoint.id(), client_id(endpoint.id()));
                    let session = ClientSession::new(Chaos::client(endpoint, self.faults, index), id, self.session);
                    let step = step_for(id);
                    scope.spawn(move || self.client_rounds(session, id, step))
                })
                .collect();
            let mut srv = ServerSession::new(Chaos::server(endpoint, self.faults), self.session);
            let served = self.serve(&mut srv, server, &mut threads);
            if served.is_ok() {
                // TIME_WAIT: re-ack the clients' late retransmissions until
                // every client has finished its own linger.
                while threads.iter().any(|h| !h.is_finished()) {
                    srv.linger(self.poll());
                }
            }
            let mut run = StarRun { server: srv.stats(), server_chaos: srv.link().stats(), ..StarRun::default() };
            drop(srv);
            let outcomes: Vec<ClientOutcome> =
                threads.into_iter().enumerate().map(|(index, h)| join(index, h)).collect();
            served?;
            for outcome in outcomes {
                let (rel, chaos) = outcome?;
                run.clients = run.clients.merged(&rel);
                run.clients_chaos = run.clients_chaos.merged(&chaos);
            }
            Ok(run)
        })
    }

    /// The server's rounds. A client thread that ends while it still owes
    /// this round's upload can never send it: its own error is returned at
    /// the next quiet poll, not after the receive timeout.
    fn serve<V: StarServer>(
        &self,
        srv: &mut ServerSession<Chaos<ServerEndpoint>>,
        server: &mut V,
        threads: &mut Vec<ScopedJoinHandle<'_, ClientOutcome>>,
    ) -> Result<(), StarError> {
        for round in 0..self.rounds {
            srv.begin_epoch(round);
            srv.broadcast_reliable(&server.broadcast(round)).map_err(|e| StarError::Session(None, e))?;
            let mut uploads: Vec<Option<Message>> = threads.iter().map(|_| None).collect();
            let mut quiet = Duration::ZERO;
            while uploads.iter().any(Option::is_none) {
                match srv.recv_reliable(self.poll()) {
                    Ok((from, msg)) => {
                        quiet = Duration::ZERO;
                        let slot = uploads
                            .get_mut(from)
                            .filter(|slot| slot.is_none())
                            .ok_or(StarError::DuplicateUpload(client_id(from), round))?;
                        *slot = Some(msg);
                    }
                    Err(SessionError::Bus(BusError::Timeout)) if quiet < RECV_TIMEOUT => {
                        quiet = quiet.saturating_add(self.poll());
                        let gone = uploads
                            .iter()
                            .zip(threads.iter())
                            .position(|(upload, h)| upload.is_none() && h.is_finished());
                        if let Some(index) = gone {
                            let lost = StarError::ClientLost(client_id(index));
                            return Err(join(index, threads.swap_remove(index)).err().unwrap_or(lost));
                        }
                    }
                    Err(e) => return Err(StarError::Session(None, e)),
                }
            }
            // Every slot is full; unlike `flatten`, `map_while` lets the
            // collect reuse the slots' allocation.
            server.fold(round, uploads.into_iter().map_while(|upload| upload).collect());
        }
        Ok(())
    }

    /// One client's rounds, then its linger.
    fn client_rounds<S>(&self, mut session: ClientSession<Chaos<ClientEndpoint>>, id: u32, mut step: S) -> ClientOutcome
    where
        S: FnMut(u32, Message) -> Result<Message, String>,
    {
        let failed = |e| StarError::Session(Some(id), e);
        for round in 0..self.rounds {
            session.begin_epoch(round);
            let msg = session.recv_reliable(RECV_TIMEOUT).map_err(failed)?;
            let reply = step(round, msg).map_err(|reason| StarError::Step(id, round, reason))?;
            session.send_reliable(&reply).map_err(failed)?;
        }
        // TIME_WAIT: service the server's late retransmissions (its last ack
        // to this client may have been lost on the wire).
        session.linger(self.linger());
        Ok((session.stats(), session.link().stats()))
    }

    /// A client's end-of-run grace: three times the longest gap a peer
    /// leaves between two retransmissions (`ack_timeout + backoff ×
    /// max_retries`), so a lingering end outlives every late retransmission
    /// aimed at it even when the scheduler delays one.
    fn linger(&self) -> Duration {
        let cfg = self.session;
        cfg.ack_timeout.saturating_add(cfg.backoff.saturating_mul(cfg.max_retries)).saturating_mul(3)
    }

    /// How often the waiting server looks at its clients: the first ack
    /// wait, never zero, so a quiet window always ends.
    fn poll(&self) -> Duration {
        self.session.ack_timeout.max(Duration::from_millis(1))
    }
}
