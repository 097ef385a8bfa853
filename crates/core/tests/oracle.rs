//! The FedSU manager against a deliberately naive reference written from the
//! paper (Sec. IV–V), at every decision granularity.
//!
//! `FedSu` keeps the replicated state once and walks all clients' rows in
//! one loop. The reference does what the paper describes instead: every
//! client holds a full replica, the server sees only what was uploaded and
//! broadcasts the means, and every present replica applies the broadcast.
//! It shares nothing with `manager.rs` but `FedSuConfig` (the manager's fixed
//! constants are written down again below, as the reference's own spec):
//! fresh `Vec`s every round, ascending-index sums, no scratch reuse. Each round the two must
//! agree bit for bit, and the present replicas must agree with each other —
//! which is the claim that one shared copy is faithful to the protocol.

use fedsu_cases::{check, vec_of, Rng, SeedableRng, StdRng};
use fedsu_core::{FedSu, FedSuConfig, RoundStats};
use fedsu_fl::{AggregateOutcome, SyncStrategy};
use std::cell::Cell;
use std::ops::Range;

/// EMA decay `θ` of the second differences.
const THETA: f32 = 0.9;
/// First no-checking period, in rounds.
const INITIAL_NO_CHECK: usize = 1;
/// Longest no-checking period, in rounds.
const MAX_NO_CHECK: usize = 1024;
/// Updates a chunk is observed for before it may enter speculation.
const WARMUP_UPDATES: usize = 4;
/// Seed of v2's coin.
const V2_SEED: u64 = 0xFED5;

/// How speculation starts and ends (standard FedSU and Sec. VI-D's variants).
#[derive(Clone, Copy, Debug)]
enum Mode {
    /// Eq. 2 entry, Eq. 3 error-feedback exit.
    Standard,
    /// Eq. 2 entry, exit after a fixed number of rounds.
    V1 { period: usize },
    /// Entry by coin flip, exit after a fixed number of rounds.
    V2 { probability: f64, period: usize },
}

/// The state every client holds a copy of.
#[derive(Clone, Debug, PartialEq)]
struct Replicated {
    model: Vec<f32>,
    mask: Vec<bool>,
    slope: Vec<f32>,
    last_update: Vec<f32>,
    // One entry per chunk.
    period: Vec<usize>,
    remaining: Vec<usize>,
    ema_signed: Vec<f32>,
    ema_abs: Vec<f32>,
    observed: Vec<usize>,
    coin: StdRng,
}

/// One client's FedSU manager.
#[derive(Clone, Debug)]
struct Replica {
    shared: Replicated,
    /// This client's own accumulated prediction error, per scalar.
    error: Vec<f32>,
}

/// What one selected client sends: its values at the unmasked positions in
/// ascending order, then one accumulated-error scalar per chunk whose check
/// is due, in ascending order.
struct Upload {
    values: Vec<f32>,
    checks: Vec<f32>,
}

/// What one replica did with a broadcast.
#[derive(Debug, PartialEq)]
struct Applied {
    synced: usize,
    checks: usize,
    enters: usize,
    exits: usize,
}

fn mean(xs: &[f32]) -> f32 {
    let mut sum = 0.0f32;
    for x in xs {
        sum += x;
    }
    sum / xs.len() as f32
}

/// The mean of each position over equally long rows, rows added in order.
fn column_means(rows: &[&[f32]]) -> Vec<f32> {
    let inv = 1.0 / rows.len() as f32;
    (0..rows[0].len())
        .map(|p| {
            let mut sum = 0.0f32;
            for row in rows {
                assert_eq!(row.len(), rows[0].len(), "clients disagree on what is due");
                sum += row[p];
            }
            sum * inv
        })
        .collect()
}

struct Rules {
    cfg: FedSuConfig,
    mode: Mode,
    chunk: usize,
}

impl Rules {
    fn chunks(&self, n: usize) -> Vec<Range<usize>> {
        (0..n).step_by(self.chunk).map(|start| start..(start + self.chunk).min(n)).collect()
    }

    fn feedback(&self) -> bool {
        matches!(self.mode, Mode::Standard)
    }

    fn fresh(&self, model: &[f32]) -> Replica {
        let n = model.len();
        let chunks = self.chunks(n).len();
        Replica {
            shared: Replicated {
                model: model.to_vec(),
                mask: vec![false; n],
                slope: vec![0.0; n],
                last_update: vec![0.0; n],
                period: vec![0; chunks],
                remaining: vec![0; chunks],
                ema_signed: vec![0.0; chunks],
                ema_abs: vec![0.0; chunks],
                observed: vec![0; chunks],
                coin: StdRng::seed_from_u64(V2_SEED),
            },
            error: vec![0.0; n],
        }
    }

    /// Whether chunk `c`'s check falls in this round.
    fn due(&self, r: &Replica, c: usize) -> bool {
        self.feedback() && r.shared.remaining[c] == 1
    }

    /// After local training: the client measures how far its own result is
    /// from the speculated value and adds that to its accumulator.
    fn accumulate(&self, r: &mut Replica, local: &[f32]) {
        if !self.feedback() {
            return;
        }
        for (j, &trained) in local.iter().enumerate() {
            if r.shared.mask[j] {
                let predicted = r.shared.model[j] + r.shared.slope[j];
                r.error[j] += trained - predicted;
            }
        }
    }

    fn upload(&self, r: &Replica, local: &[f32]) -> Upload {
        let values = (0..local.len()).filter(|&j| !r.shared.mask[j]).map(|j| local[j]).collect();
        let checks = self
            .chunks(local.len())
            .into_iter()
            .enumerate()
            .filter(|(c, _)| self.due(r, *c))
            .map(|(_, range)| mean(&r.error[range]))
            .collect();
        Upload { values, checks }
    }

    /// The server: position-wise means over the uploads, in arrival
    /// (ascending client) order.
    fn server(&self, uploads: &[Upload]) -> Upload {
        let values: Vec<&[f32]> = uploads.iter().map(|u| &u.values[..]).collect();
        let checks: Vec<&[f32]> = uploads.iter().map(|u| &u.checks[..]).collect();
        Upload { values: column_means(&values), checks: column_means(&checks) }
    }

    /// Every present client, selected or not, applies the broadcast.
    fn apply(&self, r: &mut Replica, broadcast: &Upload) -> Applied {
        let mut values = broadcast.values.iter();
        let mut checks = broadcast.checks.iter();
        let mut done = Applied { synced: 0, checks: 0, enters: 0, exits: 0 };
        let s = &mut r.shared;
        for (c, range) in self.chunks(s.model.len()).into_iter().enumerate() {
            if s.mask[range.start] {
                // Masked replacement: the speculated value, whatever training said.
                for j in range.clone() {
                    s.model[j] += s.slope[j];
                }
                s.remaining[c] -= 1;
                if s.remaining[c] > 0 {
                    continue;
                }
                let mut keep = false;
                if self.feedback() {
                    // Eq. 3 on the aggregated error.
                    done.checks += 1;
                    let e = *checks.next().expect("one broadcast error per due check");
                    let slopes: Vec<f32> = s.slope[range.clone()].iter().map(|x| x.abs()).collect();
                    let signal = f64::from(e.abs()) / f64::from(mean(&slopes).max(f32::EPSILON));
                    keep = signal < self.cfg.t_s;
                    if keep {
                        s.period[c] = (s.period[c] + 1).min(MAX_NO_CHECK);
                        s.remaining[c] = s.period[c];
                    } else if self.cfg.correct_on_exit {
                        for j in range.clone() {
                            s.model[j] += e;
                        }
                    }
                }
                if !keep {
                    done.exits += 1;
                    for j in range.clone() {
                        s.mask[j] = false;
                        r.error[j] = 0.0;
                    }
                    s.period[c] = 0;
                    s.ema_signed[c] = 0.0;
                    s.ema_abs[c] = 0.0;
                    s.observed[c] = 0;
                }
            } else {
                done.synced += range.len();
                let mut seconds = Vec::new();
                let mut updates = Vec::new();
                for j in range.clone() {
                    let new = *values.next().expect("one broadcast value per unmasked scalar");
                    let update = new - s.model[j];
                    s.model[j] = new;
                    seconds.push(update - s.last_update[j]);
                    updates.push(update.abs());
                    s.last_update[j] = update;
                }
                s.observed[c] += 1;
                if s.observed[c] == 1 {
                    continue; // the first update has no second difference yet
                }
                let second = mean(&seconds);
                s.ema_signed[c] = THETA * s.ema_signed[c] + (1.0 - THETA) * second;
                s.ema_abs[c] = THETA * s.ema_abs[c] + (1.0 - THETA) * second.abs();
                if s.observed[c] < WARMUP_UPDATES {
                    continue;
                }
                let enter = match self.mode {
                    Mode::Standard | Mode::V1 { .. } => {
                        // Eq. 2; second differences far below the update
                        // itself are float noise on a straight line.
                        let negligible = s.ema_abs[c] <= 1e-3 * mean(&updates);
                        let ratio = if s.ema_abs[c] <= f32::EPSILON {
                            0.0
                        } else {
                            (f64::from(s.ema_signed[c].abs()) / f64::from(s.ema_abs[c])).min(1.0)
                        };
                        negligible || ratio < self.cfg.t_r
                    }
                    Mode::V2 { probability, .. } => s.coin.gen_bool(probability),
                };
                if enter {
                    done.enters += 1;
                    s.period[c] = match self.mode {
                        Mode::Standard => INITIAL_NO_CHECK,
                        Mode::V1 { period } | Mode::V2 { period, .. } => period.max(1),
                    };
                    s.remaining[c] = s.period[c];
                    for j in range.clone() {
                        s.mask[j] = true;
                        s.slope[j] = s.last_update[j];
                        r.error[j] = 0.0;
                    }
                }
            }
        }
        assert!(values.next().is_none() && checks.next().is_none(), "broadcast longer than the mask");
        done
    }
}

/// The reference system: the rules plus one replica per client.
struct Oracle {
    rules: Rules,
    replicas: Vec<Replica>,
    was_present: Vec<bool>,
    /// A client that was present in the last round: where a joiner downloads
    /// the replicated state from.
    donor: Option<usize>,
}

impl Oracle {
    fn new(rules: Rules, model: &[f32], clients: usize) -> Self {
        let replicas = vec![rules.fresh(model); clients];
        Oracle { rules, replicas, was_present: vec![false; clients], donor: None }
    }

    /// What each present client would upload, in scalars.
    fn upload_volumes(&self, locals: &[Vec<f32>], active: &[bool]) -> Vec<Option<u64>> {
        (0..locals.len())
            .map(|i| {
                // A client that is about to rejoin uploads by the state it is
                // about to download.
                let from = if self.was_present[i] { i } else { self.donor.unwrap_or(i) };
                active[i].then(|| {
                    let u = self.rules.upload(&self.replicas[from], &locals[i]);
                    (u.values.len() + u.checks.len()) as u64
                })
            })
            .collect()
    }

    fn round(
        &mut self,
        round: usize,
        locals: &[Vec<f32>],
        selected: &[usize],
        active: &[bool],
    ) -> (AggregateOutcome, RoundStats) {
        let n = locals[0].len();
        // Sec. V: a client that was away downloads the replicated state and
        // starts from a clean accumulator.
        for (i, &present) in active.iter().enumerate() {
            if present && !self.was_present[i] {
                if let Some(d) = self.donor {
                    self.replicas[i].shared = self.replicas[d].shared.clone();
                }
                self.replicas[i].error = vec![0.0; n];
            }
        }
        self.was_present = active.to_vec();
        let present: Vec<usize> = (0..active.len()).filter(|&i| active[i]).collect();
        self.donor = present.first().copied().or(self.donor);

        let masked = self.replicas[present[0]].shared.mask.iter().filter(|&&m| m).count();
        if selected.is_empty() {
            // Nothing arrived, nothing is broadcast: everyone holds.
            let stats = RoundStats { round, predictable: masked, checks: 0, enters: 0, exits: 0 };
            return (AggregateOutcome { broadcast_scalars: 0, synced_scalars: 0 }, stats);
        }
        for &i in &present {
            self.rules.accumulate(&mut self.replicas[i], &locals[i]);
        }
        let uploads: Vec<Upload> =
            selected.iter().map(|&k| self.rules.upload(&self.replicas[k], &locals[k])).collect();
        let broadcast = self.rules.server(&uploads);
        let applied: Vec<Applied> =
            present.iter().map(|&i| self.rules.apply(&mut self.replicas[i], &broadcast)).collect();
        for a in &applied {
            assert_eq!(a, &applied[0], "round {round}: replicas took different decisions");
        }
        let a = &applied[0];
        let sent = broadcast.values.len() + broadcast.checks.len();
        assert_eq!(sent, a.synced + a.checks);
        (
            AggregateOutcome { broadcast_scalars: sent, synced_scalars: sent },
            RoundStats { round, predictable: n - a.synced, checks: a.checks, enters: a.enters, exits: a.exits },
        )
    }

    /// The present replicas, after checking that they are one state.
    fn agreed(&self, round: usize, active: &[bool]) -> &Replicated {
        let mut present = self.replicas.iter().zip(active).filter(|(_, &a)| a).map(|(r, _)| &r.shared);
        let first = present.next().expect("someone is present");
        for other in present {
            assert_eq!(first, other, "round {round}: present replicas diverged");
        }
        first
    }
}

/// Who is present this round (clients leave and rejoin; at least one stays)
/// and which of those the server waits for (rotating; one round in eight
/// nothing usable arrives).
fn participation(rng: &mut StdRng, round: usize, active: &mut [bool]) -> Vec<usize> {
    for a in active.iter_mut() {
        if rng.gen_bool(0.15) {
            *a = !*a;
        }
    }
    if !active.contains(&true) {
        active[round % active.len()] = true;
    }
    if round % 8 == 7 {
        return Vec::new();
    }
    let present: Vec<usize> = (0..active.len()).filter(|&i| active[i]).collect();
    let skip = present[round % present.len()];
    present.iter().copied().filter(|&i| present.len() == 1 || i != skip).collect()
}

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// What a run exercised, so the property can say it was not vacuous.
#[derive(Default)]
struct Coverage {
    enters: Cell<usize>,
    exits: Cell<usize>,
    checks: Cell<usize>,
    rejoins: Cell<usize>,
}

/// One seeded history under one configuration: the manager and the oracle
/// side by side on the same locals.
fn manager_matches_oracle(rng: &mut StdRng, chunk_of: ChunkOf, mode: Mode, seen: &Coverage) {
    let n = rng.gen_range(1usize..=40);
    let clients = rng.gen_range(1usize..=5);
    let chunk = chunk_of(n);
    let cfg = FedSuConfig {
        t_r: 0.1,
        t_s: [0.5, 1.0, 10.0][rng.gen_range(0usize..3)],
        correct_on_exit: rng.gen_bool(0.5),
    };
    let mut manager = match mode {
        Mode::Standard => FedSu::chunked(cfg, chunk),
        Mode::V1 { period } => FedSu::variant_v1(cfg, period as u16).with_chunk(chunk),
        Mode::V2 { probability, period } => {
            FedSu::variant_v2(cfg, probability, period as u16).with_chunk(chunk)
        }
    };
    let mut global = vec_of(rng, n..=n, |r| r.gen_range(-1.0f32..1.0));
    let mut oracle = Oracle::new(Rules { cfg, mode, chunk }, &global, clients);

    let mut slopes = vec_of(rng, n..=n, |r| r.gen_range(-0.05f32..0.05));
    // Every third scalar is genuinely noisy; the rest are linear up to float
    // noise, which only the negligible clause admits.
    let noise = |j: usize| if j.is_multiple_of(3) { 0.02f32 } else { 1e-6 };
    let mut active = vec![true; clients];
    for round in 0..48 {
        if round % 16 == 15 {
            // A regime change: speculation on the old slopes must be caught.
            for s in slopes.iter_mut().step_by(2) {
                *s *= -3.0;
            }
        }
        let before = active.clone();
        let selected = participation(rng, round, &mut active);
        let rejoined = before.iter().zip(&active).filter(|(&b, &a)| a && !b).count();
        seen.rejoins.set(seen.rejoins.get() + rejoined);
        let locals: Vec<Vec<f32>> = (0..clients)
            .map(|_| (0..n).map(|j| global[j] + slopes[j] + noise(j) * rng.gen_range(-1.0f32..1.0)).collect())
            .collect();

        let mut volumes = Vec::new();
        manager.prepare_uploads_into(round, &locals, &global, &mut volumes);
        for (i, expected) in oracle.upload_volumes(&locals, &active).into_iter().enumerate() {
            if let Some(expected) = expected {
                assert_eq!(volumes[i], expected, "round {round}: client {i}'s upload volume");
            }
        }
        let out = manager.aggregate(round, &locals, &selected, &active, &mut global);
        let (oracle_out, oracle_stats) = oracle.round(round, &locals, &selected, &active);
        assert_eq!(out, oracle_out, "round {round}");
        assert_eq!(manager.history().last(), Some(&oracle_stats), "round {round}");
        let replica = oracle.agreed(round, &active);
        assert_eq!(manager.predictable_mask(), replica.mask, "round {round}: masks");
        assert_eq!(bits(&global), bits(&replica.model), "round {round}: globals");

        seen.enters.set(seen.enters.get() + oracle_stats.enters);
        seen.exits.set(seen.exits.get() + oracle_stats.exits);
        seen.checks.set(seen.checks.get() + oracle_stats.checks);
    }
}

const CASES: u64 = 24;

/// A chunk size for an `n`-scalar model.
type ChunkOf = fn(usize) -> usize;

/// Per scalar, even, ragged last chunks, and one chunk longer than the model.
const CHUNKS: [(&str, ChunkOf); 5] =
    [("1", |_| 1), ("2", |_| 2), ("3", |_| 3), ("7", |_| 7), ("n+5", |n| n + 5)];

fn oracle_property(name: &str, mode: Mode) {
    for (chunk, chunk_of) in CHUNKS {
        let seen = Coverage::default();
        check(&format!("{name}/chunk={chunk}"), CASES, |rng| manager_matches_oracle(rng, chunk_of, mode, &seen));
        assert!(seen.enters.get() > 0 && seen.exits.get() > 0, "chunk {chunk}: nothing entered and left");
        assert!(seen.rejoins.get() > 0, "chunk {chunk}: nobody rejoined");
        if matches!(mode, Mode::Standard) {
            assert!(seen.checks.get() > 0, "chunk {chunk}: no check ever came due");
        }
    }
}

#[test]
fn manager_matches_the_per_client_replica_oracle() {
    oracle_property("manager_matches_the_per_client_replica_oracle", Mode::Standard);
}

#[test]
fn fixed_period_variant_matches_the_oracle() {
    oracle_property("fixed_period_variant_matches_the_oracle", Mode::V1 { period: 3 });
}

#[test]
fn random_entry_variant_matches_the_oracle() {
    oracle_property("random_entry_variant_matches_the_oracle", Mode::V2 { probability: 0.3, period: 2 });
}

/// The sign-of-zero paths of the row-wise passes, scripted: scalar 0 is a
/// clean line that enters speculation and stays; scalar 1 starts at `-0.0`,
/// is pushed out of speculation whenever it gets in, and between two stays
/// sits unmasked at `-0.0` beside a masked neighbour. Its profiled slope —
/// and one round later its value — then carries the sign the speculative
/// pass left on the unmasked `-0.0`, and the first sync carries the sign of
/// a sum of `-0.0`s.
#[test]
fn signed_zeros_travel_like_the_oracle() {
    // Halves to `-0.0` (ties to even): with a `+0.0` beside it the mean of
    // two clients is `-0.0`, which no sum started at `+0.0` reaches otherwise.
    let tiny = -f32::from_bits(1);
    let cfg = FedSuConfig { t_r: 0.1, ..FedSuConfig::default() };
    let mut manager = FedSu::new(cfg);
    let mut global = vec![0.0f32, -0.0];
    let mut oracle = Oracle::new(Rules { cfg, mode: Mode::Standard, chunk: 1 }, &global, 2);
    let (selected, active) = ([0, 1], [true, true]);
    let (mut exits, mut held_beside_a_masked_neighbour) = (0, 0);
    for round in 0..32 {
        let mask = manager.predictable_mask();
        let masked = |j: usize| mask.get(j).copied().unwrap_or(false);
        if masked(0) && !masked(1) && global[1].to_bits() == (-0.0f32).to_bits() {
            held_beside_a_masked_neighbour += 1;
        }
        let zeros = match (masked(1), exits) {
            (true, _) => [1.0, 1.0], // far off the prediction: the due check throws it out
            (false, 0) => [-0.0, -0.0],
            (false, _) => [tiny, 0.0],
        };
        let locals: Vec<Vec<f32>> = zeros.iter().map(|&z| vec![global[0] - 0.01, z]).collect();

        let mut volumes = Vec::new();
        manager.prepare_uploads_into(round, &locals, &global, &mut volumes);
        let expected: Vec<Option<u64>> = volumes.iter().map(|&v| Some(v)).collect();
        assert_eq!(oracle.upload_volumes(&locals, &active), expected, "round {round}: upload volumes");
        let out = manager.aggregate(round, &locals, &selected, &active, &mut global);
        let (oracle_out, oracle_stats) = oracle.round(round, &locals, &selected, &active);
        assert_eq!(out, oracle_out, "round {round}");
        assert_eq!(manager.history().last(), Some(&oracle_stats), "round {round}");
        let replica = oracle.agreed(round, &active);
        assert_eq!(manager.predictable_mask(), replica.mask, "round {round}: masks");
        assert_eq!(bits(&global), bits(&replica.model), "round {round}: globals");
        exits += oracle_stats.exits;
    }
    assert!(exits >= 2, "scalar 1 must re-enter on the slope profiled at -0.0 and leave again: {exits}");
    assert!(held_beside_a_masked_neighbour >= 2, "no round held an unmasked -0.0 through the speculative pass");
}
