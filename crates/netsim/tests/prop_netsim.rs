//! Property tests for the network/time emulator.

use fedsu_cases::{check, ends_then_draw, Rng};
use fedsu_netsim::{Cluster, ClusterConfig, FaultPenalties, Link, RoundOutcomeTiming, RoundTimer};

const CASES: u64 = 48;

/// Round 0 with every client present and no fault penalties.
fn clean_round(timer: &RoundTimer, compute: &[f64], up: &[u64], down: &[u64]) -> RoundOutcomeTiming {
    let n = compute.len();
    let penalties = FaultPenalties { time_factor: &vec![1.0; n], extra_secs: &vec![0.0; n] };
    timer.round_faulty(0, compute, up, down, &vec![true; n], penalties)
}

#[test]
fn transfer_time_is_monotone_in_bytes() {
    check("transfer_time_is_monotone_in_bytes", CASES, |rng| {
        let link = Link {
            bandwidth_mbps: rng.gen_range(1.0f64..1000.0),
            latency_ms: rng.gen_range(0.0f64..100.0),
        };
        let (x, y) = (rng.gen_range(0u64..10_000_000), rng.gen_range(0u64..10_000_000));
        let (a, b) = (x.min(y), x.max(y));
        assert!(link.transfer_secs(a) <= link.transfer_secs(b));
        assert!(link.transfer_secs(a) >= link.latency_ms / 1e3);
    });
}

#[test]
fn round_duration_covers_selected_and_only_selected() {
    check("round_duration_covers_selected_and_only_selected", CASES, |rng| {
        let seed = rng.gen_range(0u64..500);
        let frac = rng.gen_range(0.05f64..1.0);
        for n in ends_then_draw(rng, 1..16) {
            let cfg = ClusterConfig::paper_like(n);
            let cluster = Cluster::build(&cfg, seed);
            let timer = RoundTimer::new(&cluster, frac);
            let compute: Vec<f64> = (0..n).map(|i| 1.0 + (i as f64) * 0.3).collect();
            let bytes = vec![100_000u64; n];
            let outcome = clean_round(&timer, &compute, &bytes, &bytes);

            // Selected count within [1, n] and matches the configured fraction.
            let k = outcome.selected.len();
            assert!(k >= 1 && k <= n);
            assert_eq!(k, ((n as f64 * frac).round() as usize).clamp(1, n));
            // Every selected client finished no later than the round duration;
            // every unselected client finished no earlier.
            for i in 0..n {
                if outcome.selected.contains(&i) {
                    assert!(outcome.finish_secs[i] <= outcome.duration_secs + 1e-9);
                } else {
                    assert!(outcome.finish_secs[i] >= outcome.duration_secs - 1e-9);
                }
            }
            // Selected ids are sorted and unique.
            assert!(outcome.selected.windows(2).all(|w| w[0] < w[1]));
        }
    });
}

#[test]
fn more_bytes_never_shorten_the_round() {
    check("more_bytes_never_shorten_the_round", CASES, |rng| {
        let (seed, n) = (rng.gen_range(0u64..500), rng.gen_range(2usize..10));
        let cfg = ClusterConfig::paper_like(n);
        let cluster = Cluster::build(&cfg, seed);
        let timer = RoundTimer::new(&cluster, 0.7);
        let compute = vec![2.0; n];
        let small = clean_round(&timer, &compute, &vec![1_000; n], &vec![1_000; n]);
        let large = clean_round(&timer, &compute, &vec![10_000_000; n], &vec![10_000_000; n]);
        assert!(large.duration_secs >= small.duration_secs);
    });
}

#[test]
fn cluster_factors_are_deterministic_and_positive() {
    check("cluster_factors_are_deterministic_and_positive", CASES, |rng| {
        let (seed, n) = (rng.gen_range(0u64..1000), rng.gen_range(1usize..32));
        let cfg = ClusterConfig::paper_like(n);
        let a = Cluster::build(&cfg, seed);
        let b = Cluster::build(&cfg, seed);
        for i in 0..n {
            assert!(a.speed_factor(i) > 0.0);
            assert_eq!(a.speed_factor(i), b.speed_factor(i));
        }
    });
}
