//! Round-time model with the paper's earliest-K participation rule.

use crate::{Cluster, Link};

/// Timing outcome of one emulated round.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundOutcomeTiming {
    /// Wall-clock duration of the round in emulated seconds (when the K-th
    /// earliest client returned).
    pub duration_secs: f64,
    /// Ids of the clients whose updates the server aggregates this round,
    /// in ascending id order.
    pub selected: Vec<usize>,
    /// Every client's individual finish time (seconds since round start).
    pub finish_secs: Vec<f64>,
}

/// Per-client fault penalties applied to one round's finish times by
/// [`RoundTimer::round_faulty`].
#[derive(Debug, Clone, Copy)]
pub struct FaultPenalties<'a> {
    /// Multiplies client `i`'s whole finish time (transient slowdown).
    pub time_factor: &'a [f64],
    /// Seconds added after the factor (retry backoff).
    pub extra_secs: &'a [f64],
}

/// Computes per-round timings for a cluster under the paper's
/// "aggregate the earliest fraction" rule (Sec. VI-A uses 70%).
#[derive(Debug, Clone)]
pub struct RoundTimer {
    cluster: Cluster,
    select_fraction: f64,
}

/// The earliest-K count for `n` candidates: `n × fraction`, rounded, at
/// least one and at most `n`.
#[allow(clippy::cast_possible_truncation, reason = "rounds a fraction of a client count")]
fn select_k(n: usize, fraction: f64) -> usize {
    ((n as f64 * fraction).round() as usize).clamp(1, n)
}

impl RoundTimer {
    /// Creates a timer selecting the earliest `select_fraction` of clients
    /// each round.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < select_fraction <= 1`.
    pub fn new(cluster: &Cluster, select_fraction: f64) -> Self {
        assert!(
            select_fraction > 0.0 && select_fraction <= 1.0,
            "select fraction must be in (0, 1]"
        );
        RoundTimer { cluster: cluster.clone(), select_fraction }
    }

    /// Computes one round's timing. Every client transfers over
    /// [`Link::fedscale_client`], the same link in every round, so `_round`
    /// is unused; it stays for the callers that pass it.
    ///
    /// `compute_secs[i]` is client `i`'s nominal local-training time this
    /// round (before the heterogeneity factor), and `upload_bytes` /
    /// `download_bytes` its communication volumes. Only clients flagged in
    /// `active` participate; the earliest fraction is taken of the *active*
    /// set (participant dynamicity — clients that left are never selected).
    /// Each finish time is then scaled and shifted by the client's
    /// [`FaultPenalties`]; factors of `1.0` and extras of `0.0` leave it
    /// bit-for-bit unchanged (`x * 1.0 + 0.0 == x` exactly for the
    /// non-negative finish times produced here).
    ///
    /// # Panics
    ///
    /// Panics if the slices don't cover every client or no client is active.
    pub fn round_faulty(
        &self,
        _round: usize,
        compute_secs: &[f64],
        upload_bytes: &[u64],
        download_bytes: &[u64],
        active: &[bool],
        penalties: FaultPenalties<'_>,
    ) -> RoundOutcomeTiming {
        let FaultPenalties { time_factor, extra_secs } = penalties;
        let n = self.cluster.n_clients();
        assert_eq!(compute_secs.len(), n, "compute_secs must cover all clients");
        assert_eq!(upload_bytes.len(), n, "upload_bytes must cover all clients");
        assert_eq!(download_bytes.len(), n, "download_bytes must cover all clients");
        assert_eq!(active.len(), n, "active mask must cover all clients");
        assert_eq!(time_factor.len(), n, "time_factor must cover all clients");
        assert_eq!(extra_secs.len(), n, "extra_secs must cover all clients");

        let link = Link::fedscale_client();
        let transfer = |bytes: u64| if bytes == 0 { 0.0 } else { link.transfer_secs(bytes) };
        let finish: Vec<f64> = active
            .iter()
            .zip(download_bytes)
            .zip(upload_bytes)
            .zip(compute_secs)
            .zip(time_factor)
            .zip(extra_secs)
            .enumerate()
            .map(|(i, (((((&is_active, &down_bytes), &up_bytes), &compute), &factor), &extra))| {
                if !is_active {
                    return f64::INFINITY;
                }
                let (down, up) = (transfer(down_bytes), transfer(up_bytes));
                (down + compute * self.cluster.speed_factor(i) + up) * factor + extra
            })
            .collect();

        let n_active = active.iter().filter(|&&a| a).count();
        assert!(n_active > 0, "at least one client must be active");
        let k = select_k(n_active, self.select_fraction);
        let mut order: Vec<usize> =
            active.iter().enumerate().filter_map(|(i, &a)| a.then_some(i)).collect();
        // Inactive clients never enter `order`, so every lookup below is in
        // range; the INFINITY fallbacks keep the sort total regardless.
        let at = |i: usize| finish.get(i).copied().unwrap_or(f64::INFINITY);
        order.sort_by(|&a, &b| at(a).total_cmp(&at(b)));
        let mut selected: Vec<usize> = order.iter().copied().take(k).collect();
        selected.sort_unstable();
        let slowest = k.checked_sub(1).and_then(|i| order.get(i)).copied();
        let duration = slowest.map_or(f64::INFINITY, at);
        RoundOutcomeTiming { duration_secs: duration, selected, finish_secs: finish }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ClusterConfig;

    fn homogeneous(n: usize) -> Cluster {
        Cluster::build(&ClusterConfig { n_clients: n, compute_sigma: 0.0 }, 0)
    }

    /// A round at index 0 with no fault penalties.
    pub(super) fn clean_round(
        t: &RoundTimer,
        compute_secs: &[f64],
        upload_bytes: &[u64],
        download_bytes: &[u64],
        active: &[bool],
    ) -> RoundOutcomeTiming {
        let n = active.len();
        let penalties = FaultPenalties { time_factor: &vec![1.0; n], extra_secs: &vec![0.0; n] };
        t.round_faulty(0, compute_secs, upload_bytes, download_bytes, active, penalties)
    }

    #[test]
    fn selects_fraction_of_clients() {
        let c = homogeneous(10);
        let t = RoundTimer::new(&c, 0.7);
        let o = clean_round(&t, &[1.0; 10], &[0; 10], &[0; 10], &[true; 10]);
        assert_eq!(o.selected.len(), 7);
    }

    #[test]
    fn duration_is_kth_finish_time() {
        let c = homogeneous(4);
        let t = RoundTimer::new(&c, 0.5);
        // Finish times 1, 2, 3, 4 via compute.
        let o = clean_round(&t, &[1.0, 2.0, 3.0, 4.0], &[0; 4], &[0; 4], &[true; 4]);
        assert_eq!(o.selected, vec![0, 1]);
        assert!((o.duration_secs - 2.0).abs() < 1e-9);
    }

    #[test]
    fn communication_adds_time() {
        let c = homogeneous(2);
        let t = RoundTimer::new(&c, 1.0);
        // 1 MB up adds its transfer time on the client link.
        let with = clean_round(&t, &[1.0, 1.0], &[1_000_000, 0], &[0, 0], &[true; 2]);
        let up = Link::fedscale_client().transfer_secs(1_000_000);
        assert!(up > 0.5);
        assert!((with.finish_secs[0] - (1.0 + up)).abs() < 1e-9);
        assert!((with.finish_secs[1] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zero_byte_transfers_cost_nothing() {
        // A fully-sparsified client pays no latency either: nothing is sent.
        let c = homogeneous(1);
        let t = RoundTimer::new(&c, 1.0);
        let o = clean_round(&t, &[1.0], &[0], &[0], &[true]);
        assert!((o.finish_secs[0] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn slow_clients_are_excluded() {
        let c = homogeneous(3);
        let t = RoundTimer::new(&c, 0.67);
        let o = clean_round(&t, &[1.0, 100.0, 2.0], &[0; 3], &[0; 3], &[true; 3]);
        assert_eq!(o.selected, vec![0, 2]);
        assert!((o.duration_secs - 2.0).abs() < 1e-9);
    }

    #[test]
    fn full_participation_waits_for_stragglers() {
        let c = homogeneous(3);
        let t = RoundTimer::new(&c, 1.0);
        let o = clean_round(&t, &[1.0, 100.0, 2.0], &[0; 3], &[0; 3], &[true; 3]);
        assert_eq!(o.selected.len(), 3);
        assert!((o.duration_secs - 100.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "select fraction")]
    fn bad_fraction_panics() {
        RoundTimer::new(&homogeneous(2), 0.0);
    }

    #[test]
    fn at_least_one_client_selected() {
        let c = homogeneous(2);
        let t = RoundTimer::new(&c, 0.01);
        let o = clean_round(&t, &[1.0; 2], &[0; 2], &[0; 2], &[true; 2]);
        assert_eq!(o.selected.len(), 1);
    }
}

#[cfg(test)]
mod active_tests {
    use super::tests::clean_round;
    use super::*;
    use crate::ClusterConfig;

    fn homogeneous(n: usize) -> Cluster {
        Cluster::build(&ClusterConfig { n_clients: n, compute_sigma: 0.0 }, 0)
    }

    #[test]
    fn inactive_clients_are_never_selected() {
        let c = homogeneous(4);
        let t = RoundTimer::new(&c, 1.0);
        let o = clean_round(&t, &[1.0; 4], &[0; 4], &[0; 4], &[true, false, true, false]);
        assert_eq!(o.selected, vec![0, 2]);
        assert!(o.finish_secs[1].is_infinite());
    }

    #[test]
    fn fraction_applies_to_active_count() {
        let c = homogeneous(10);
        let t = RoundTimer::new(&c, 0.5);
        let mut active = vec![true; 10];
        for a in active.iter_mut().take(6) {
            *a = false;
        }
        // 4 active, 50% -> 2 selected.
        let o = clean_round(&t, &[1.0; 10], &[0; 10], &[0; 10], &active);
        assert_eq!(o.selected.len(), 2);
    }

    #[test]
    #[should_panic(expected = "at least one client must be active")]
    fn all_inactive_panics() {
        let c = homogeneous(2);
        let t = RoundTimer::new(&c, 1.0);
        clean_round(&t, &[1.0; 2], &[0; 2], &[0; 2], &[false, false]);
    }
}

#[cfg(test)]
mod faulty_tests {
    use super::*;
    use crate::ClusterConfig;

    fn homogeneous(n: usize) -> Cluster {
        Cluster::build(&ClusterConfig { n_clients: n, compute_sigma: 0.0 }, 0)
    }

    /// Unit penalties cost nothing, bit for bit: every active finish time is
    /// the penalty-free `download + compute·speed + upload` (what the former
    /// `round_at` entry point computed), in every round.
    #[test]
    fn unit_penalties_match_round_at_exactly() {
        let c = Cluster::build(&ClusterConfig::paper_like(6), 7);
        let t = RoundTimer::new(&c, 0.7);
        let compute = [1.0, 2.5, 0.3, 4.0, 1.1, 0.9];
        let up = [10_000u64, 0, 5_000, 20_000, 1, 999];
        let down = [7_000u64; 6];
        let active = [true, true, false, true, true, true];
        let link = Link::fedscale_client();
        let transfer = |bytes: u64| if bytes == 0 { 0.0 } else { link.transfer_secs(bytes) };
        for round in [0usize, 3, 17] {
            let faulty = t.round_faulty(
                round,
                &compute,
                &up,
                &down,
                &active,
                FaultPenalties { time_factor: &[1.0; 6], extra_secs: &[0.0; 6] },
            );
            for i in (0..6).filter(|&i| active[i]) {
                let clean = transfer(down[i]) + compute[i] * c.speed_factor(i) + transfer(up[i]);
                assert_eq!(faulty.finish_secs[i].to_bits(), clean.to_bits(), "round {round} client {i}");
            }
        }
    }

    #[test]
    fn time_factor_multiplies_finish_time() {
        let c = homogeneous(2);
        let t = RoundTimer::new(&c, 1.0);
        let o = t.round_faulty(
            0,
            &[1.0, 1.0],
            &[0; 2],
            &[0; 2],
            &[true; 2],
            FaultPenalties { time_factor: &[4.0, 1.0], extra_secs: &[0.0; 2] },
        );
        assert!((o.finish_secs[0] - 4.0).abs() < 1e-9);
        assert!((o.finish_secs[1] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn extra_seconds_are_added_after_the_factor() {
        let c = homogeneous(2);
        let t = RoundTimer::new(&c, 0.5);
        // Client 0: 1 s * 2 + 5 s backoff = 7 s; client 1: 1 s. Earliest-1 picks 1.
        let o = t.round_faulty(
            0,
            &[1.0, 1.0],
            &[0; 2],
            &[0; 2],
            &[true; 2],
            FaultPenalties { time_factor: &[2.0, 1.0], extra_secs: &[5.0, 0.0] },
        );
        assert!((o.finish_secs[0] - 7.0).abs() < 1e-9);
        assert_eq!(o.selected, vec![1]);
        assert!((o.duration_secs - 1.0).abs() < 1e-9);
    }

    #[test]
    fn inactive_clients_stay_infinite_under_penalties() {
        let c = homogeneous(2);
        let t = RoundTimer::new(&c, 1.0);
        let o = t.round_faulty(
            0,
            &[1.0; 2],
            &[0; 2],
            &[0; 2],
            &[true, false],
            FaultPenalties { time_factor: &[3.0, 3.0], extra_secs: &[1.0, 1.0] },
        );
        assert!(o.finish_secs[1].is_infinite());
        assert_eq!(o.selected, vec![0]);
    }
}
