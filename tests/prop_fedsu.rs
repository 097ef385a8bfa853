//! Property tests of the FedSU manager's invariants under random
//! client dynamics.

// Tests and benches may unwrap: a panic here IS the failure report
// (mirrors allow-unwrap-in-tests in clippy.toml for non-#[test] helpers).
#![allow(clippy::unwrap_used)]

use fedsu_cases::{check, ends_then_draw, Rng};
use fedsu_repro::core::{FedSu, FedSuConfig, JoinState};
use fedsu_repro::fl::SyncStrategy;

/// Drives `rounds` of random-ish dynamics over `n` scalars and `clients`
/// clients and returns the manager plus the final global vector.
fn drive(
    n: usize,
    clients: usize,
    rounds: usize,
    mut f: FedSu,
    update_of: impl Fn(usize, usize, usize) -> f32, // (round, client, param) -> local update
) -> (FedSu, Vec<f32>) {
    let mut global = vec![0.0f32; n];
    let selected: Vec<usize> = (0..clients).collect();
    let active = vec![true; clients];
    for round in 0..rounds {
        let locals: Vec<Vec<f32>> = (0..clients)
            .map(|c| (0..n).map(|j| global[j] + update_of(round, c, j)).collect())
            .collect();
        f.prepare_uploads_into(round, &locals, &global, &mut Vec::new());
        let out = f.aggregate(round, &locals, &selected, &active, &mut global);
        // Conservation: synced + skipped-but-unchecked scalars == total.
        assert!(out.synced_scalars <= n);
    }
    (f, global)
}

const CASES: u64 = 32;

fn global_stays_finite(seed: u64, n: usize, clients: usize) {
    let cfg = FedSuConfig { t_r: 0.3, t_s: 5.0, ..FedSuConfig::default() };
    let (f, global) = drive(n, clients, 30, FedSu::new(cfg), |r, c, j| {
        // Pseudo-random but deterministic updates.
        let x = (seed as f32 + r as f32 * 1.3 + c as f32 * 0.7 + j as f32 * 2.1).sin();
        x * 0.05
    });
    assert!(global.iter().all(|v| v.is_finite()));
    // Skip fractions are valid probabilities.
    if let Some(sf) = f.skip_fractions() {
        assert!(sf.iter().all(|&p| (0.0..=1.0).contains(&p)));
    }
}

#[test]
fn global_stays_finite_under_random_dynamics() {
    // Both ends of `n in 1..8` and `clients in 1..4` by name.
    global_stays_finite(0, 1, 1);
    global_stays_finite(499, 7, 3);
    check("global_stays_finite_under_random_dynamics", CASES, |rng| {
        global_stays_finite(
            rng.gen_range(0u64..500),
            rng.gen_range(1usize..8),
            rng.gen_range(1usize..4),
        );
    });
}

#[test]
fn uploads_equal_unpredictable_plus_checks() {
    check("uploads_equal_unpredictable_plus_checks", CASES, |rng| {
        let seed = rng.gen_range(0u64..500);
        for n in ends_then_draw(rng, 1..10) {
            let cfg = FedSuConfig { t_r: 0.3, t_s: 10.0, ..FedSuConfig::default() };
            let mut f = FedSu::new(cfg);
            let mut global = vec![0.0f32; n];
            for round in 0..25 {
                let slope = 0.01 + (seed % 7) as f32 * 0.001;
                let locals: Vec<Vec<f32>> = (0..2)
                    .map(|_| (0..n).map(|j| global[j] - slope * (1.0 + j as f32 * 0.1)).collect())
                    .collect();
                let mut ups = Vec::new();
                f.prepare_uploads_into(round, &locals, &global, &mut ups);
                // Replicated state: all clients upload the same volume.
                assert!(ups.windows(2).all(|w| w[0] == w[1]));
                let unpredictable = f.predictable_mask().iter().filter(|&&p| !p).count() as u64;
                assert!(
                    ups[0] >= unpredictable,
                    "uploads {} < unpredictable {}",
                    ups[0],
                    unpredictable
                );
                assert!(ups[0] <= n as u64);
                f.aggregate(round, &locals, &[0, 1], &[true, true], &mut global);
            }
        }
    });
}

#[test]
fn speculative_value_follows_slope_exactly() {
    check("speculative_value_follows_slope_exactly", CASES, |rng| {
        let slope = rng.gen_range(-0.1f32..0.1);
        if slope.abs() <= 1e-4 {
            return;
        }
        let cfg = FedSuConfig { t_r: 0.3, t_s: 1e9, ..FedSuConfig::default() };
        let mut f = FedSu::new(cfg);
        let mut global = vec![0.0f32];
        let mut round = 0;
        // Promote with a constant slope.
        while !f.predictable_mask().first().copied().unwrap_or(false) {
            let locals = vec![vec![global[0] + slope]];
            f.prepare_uploads_into(round, &locals, &global, &mut Vec::new());
            f.aggregate(round, &locals, &[0], &[true], &mut global);
            round += 1;
            assert!(round < 12);
        }
        // While speculative, the global value moves by exactly `slope` each
        // round regardless of what the clients report.
        for k in 0..8 {
            let before = global[0];
            let locals = vec![vec![before + slope * 3.0]]; // hostile local
            f.prepare_uploads_into(round + k, &locals, &global, &mut Vec::new());
            f.aggregate(round + k, &locals, &[0], &[true], &mut global);
            if f.predictable_mask()[0] {
                assert!((global[0] - (before + slope)).abs() < 1e-6);
            }
        }
    });
}

#[test]
fn join_state_roundtrips_after_random_history() {
    check("join_state_roundtrips_after_random_history", CASES, |rng| {
        let seed = rng.gen_range(0u64..500);
        for n in ends_then_draw(rng, 1..12) {
            // One decision per scalar, per pair, and per model-and-a-bit.
            let chunk = [1, 2, n + 1][rng.gen_range(0usize..3)];
            let cfg = FedSuConfig { t_r: 0.25, ..FedSuConfig::default() };
            let (mut f, global) = drive(n, 2, 20, FedSu::chunked(cfg, chunk), |r, c, j| {
                ((seed + r as u64 * 31 + c as u64 * 17 + j as u64 * 7) % 100) as f32 / 1000.0 - 0.05
            });
            let bytes = f.join_state().expect("a round has run");
            let state = JoinState::from_bytes(&bytes).unwrap();
            assert_eq!(state.len(), n);
            assert_eq!(state.to_bytes(), bytes);
            // A fresh manager of the same granularity that applies the image
            // decides as the donor does.
            let mut joiner = FedSu::chunked(cfg, chunk);
            joiner.apply_join_state(&state);
            assert_eq!(joiner.predictable_mask(), f.predictable_mask());
            assert_eq!(joiner.join_state(), Some(bytes));
            let locals = vec![global.clone(); 2];
            let (mut joined, mut donor) = (Vec::new(), Vec::new());
            joiner.prepare_uploads_into(20, &locals, &global, &mut joined);
            f.prepare_uploads_into(20, &locals, &global, &mut donor);
            assert_eq!(joined, donor);
        }
    });
}

#[test]
fn enters_and_exits_balance_with_mask() {
    check("enters_and_exits_balance_with_mask", CASES, |rng| {
        let seed = rng.gen_range(0u64..500);
        let cfg = FedSuConfig { t_r: 0.3, t_s: 2.0, ..FedSuConfig::default() };
        let (f, _) = drive(4, 2, 40, FedSu::new(cfg), |r, _c, j| {
            // Mix of linear phases and regime switches.
            if (r / 10 + j) % 2 == 0 {
                -0.02
            } else {
                ((seed as f32 + r as f32) * 0.9).sin() * 0.05
            }
        });
        let active = f.predictable_mask().iter().filter(|&&p| p).count() as u64;
        assert_eq!(f.total_enters() - f.total_exits(), active);
    });
}

#[test]
fn oscillation_ratio_reported_in_unit_interval() {
    let cfg = FedSuConfig { t_r: 0.3, ..FedSuConfig::default() };
    let (f, _) = drive(5, 2, 30, FedSu::new(cfg), |r, c, j| ((r * 7 + c * 3 + j) % 11) as f32 * 0.01 - 0.05);
    for j in 0..5 {
        let r = f.oscillation_ratio(j).unwrap();
        assert!((0.0..=1.0).contains(&r), "ratio {r}");
    }
}
