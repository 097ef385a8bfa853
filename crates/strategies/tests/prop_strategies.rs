//! Cross-strategy property tests: every baseline must satisfy the runtime
//! contract under arbitrary dynamics.

use fedsu_cases::{check, ends_then_draw, Rng};
use fedsu_core::{FedSu, FedSuConfig};
use fedsu_fl::{AggregateOutcome, SyncStrategy};
use fedsu_strategies::{Apf, Cmfl, FedAvg, Qsgd, TopK};

fn strategies() -> Vec<Box<dyn SyncStrategy>> {
    vec![
        Box::new(FedAvg::new()),
        Box::new(Cmfl::new()),
        Box::new(Apf::default()),
        Box::new(Qsgd::new()),
        Box::new(TopK::new()),
    ]
}

/// Deterministic pseudo-random local update.
fn update(seed: u64, round: usize, client: usize, j: usize) -> f32 {
    let x = seed
        .wrapping_mul(0x9E37_79B9)
        .wrapping_add((round * 31 + client * 7 + j) as u64)
        .wrapping_mul(0xBF58_476D_1CE4_E5B9);
    ((x >> 40) as f32 / (1u64 << 24) as f32 - 0.5) * 0.1
}

const CASES: u64 = 24;

/// Runs every strategy `rounds` rounds over `n` scalars and `clients` always-selected clients.
fn contract_holds(seed: u64, n: usize, clients: usize, rounds: usize) {
    for mut strategy in strategies() {
        let mut global = vec![0.0f32; n];
        let selected: Vec<usize> = (0..clients).collect();
        let active = vec![true; clients];
        for round in 0..rounds {
            let locals: Vec<Vec<f32>> = (0..clients)
                .map(|c| (0..n).map(|j| global[j] + update(seed, round, c, j)).collect())
                .collect();
            let mut ups = Vec::new();
            strategy.prepare_uploads_into(round, &locals, &global, &mut ups);
            // One volume entry per client; never more than 2x the model
            // (index+value pairs are the worst case).
            assert_eq!(ups.len(), clients, "{}", strategy.name());
            for &u in &ups {
                assert!(u <= 2 * n as u64, "{} uploads {} of {}", strategy.name(), u, n);
            }
            let out = strategy.aggregate(round, &locals, &selected, &active, &mut global);
            assert!(out.synced_scalars <= n, "{}", strategy.name());
            assert!(out.broadcast_scalars <= n, "{}", strategy.name());
            assert!(global.iter().all(|v| v.is_finite()), "{}", strategy.name());
        }
        // Skip fractions, when reported, are probabilities.
        if let Some(sf) = strategy.skip_fractions() {
            assert!(sf.iter().all(|&p| (0.0..=1.0).contains(&p)));
        }
    }
}

#[test]
fn contract_holds_for_all_strategies() {
    // The smallest and the largest shape by name, then drawn ones.
    contract_holds(0, 1, 1, 1);
    contract_holds(499, 11, 4, 14);
    check("contract_holds_for_all_strategies", CASES, |rng| {
        contract_holds(
            rng.gen_range(0u64..500),
            rng.gen_range(1usize..12),
            rng.gen_range(1usize..5),
            rng.gen_range(1usize..15),
        );
    });
}

#[test]
fn identical_locals_fixpoint() {
    check("identical_locals_fixpoint", CASES, |rng| {
        let seed = rng.gen_range(0u64..500);
        // If every client reports exactly the current global, no strategy
        // may move it (QSGD rounds a zero update to zero exactly).
        for n in ends_then_draw(rng, 1..8) {
            for mut strategy in strategies() {
                let global_init: Vec<f32> = (0..n).map(|j| update(seed, 0, 0, j)).collect();
                let mut global = global_init.clone();
                let locals = vec![global.clone(); 3];
                strategy.prepare_uploads_into(0, &locals, &global, &mut Vec::new());
                strategy.aggregate(0, &locals, &[0, 1, 2], &[true; 3], &mut global);
                for (a, b) in global.iter().zip(&global_init) {
                    assert!((a - b).abs() < 1e-6, "{} moved a fixpoint", strategy.name());
                }
            }
        }
    });
}

#[test]
fn unanimous_shift_is_applied_by_all() {
    check("unanimous_shift_is_applied_by_all", CASES, |rng| {
        let n = rng.gen_range(2usize..8);
        let shift = rng.gen_range(0.05f32..0.5);
        // All clients agree on the same shift for every scalar: every
        // strategy should move the global toward it (fully or partially).
        for mut strategy in strategies() {
            let mut global = vec![0.0f32; n];
            for round in 0..6 {
                let locals: Vec<Vec<f32>> =
                    (0..3).map(|_| global.iter().map(|g| g + shift).collect()).collect();
                strategy.prepare_uploads_into(round, &locals, &global, &mut Vec::new());
                strategy.aggregate(round, &locals, &[0, 1, 2], &[true; 3], &mut global);
            }
            // After several unanimous rounds, all strategies have moved
            // significantly in the right direction.
            let mean: f32 = global.iter().sum::<f32>() / n as f32;
            assert!(mean > shift, "{} only moved to {mean} (shift {shift})", strategy.name());
        }
    });
}

/// `aggregate` with nobody selected holds the global and every piece of
/// strategy state: it is the same as not being asked to aggregate at all,
/// which is what the runtime does with a barren round.
#[test]
fn empty_selection_holds_the_global_and_all_state() {
    let all = || {
        let mut all = strategies();
        // A loose `T_R`, so that masks exist by the time the empty round comes.
        all.push(Box::new(FedSu::new(FedSuConfig { t_r: 0.5, ..FedSuConfig::default() })));
        all
    };
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
    check("empty_selection_holds_the_global_and_all_state", CASES, |rng| {
        let seed = rng.gen_range(0u64..500);
        let (n, clients, warmup) =
            (rng.gen_range(1usize..12), rng.gen_range(1usize..6), rng.gen_range(0usize..9));
        // Some clients are present in the empty round; none is selected.
        let present: Vec<bool> = (0..clients).map(|_| rng.gen_range(0u8..3) > 0).collect();
        let locals_at = |round: usize, global: &[f32]| -> Vec<Vec<f32>> {
            (0..clients)
                .map(|c| (0..n).map(|j| global[j] + update(seed, round, c, j)).collect())
                .collect()
        };
        let everyone: Vec<usize> = (0..clients).collect();
        for (mut seen, mut twin) in all().into_iter().zip(all()) {
            let name = seen.name().to_string();
            let (mut global, mut twin_global) = (vec![0.0f32; n], vec![0.0f32; n]);
            for round in 0..warmup {
                let locals = locals_at(round, &global);
                for (s, g) in [(&mut seen, &mut global), (&mut twin, &mut twin_global)] {
                    s.prepare_uploads_into(round, &locals, g, &mut Vec::new());
                    s.aggregate(round, &locals, &everyone, &vec![true; clients], g);
                }
            }
            assert_eq!(bits(&global), bits(&twin_global), "{name}: twins diverged in warm-up");

            // Both plan the round; only `seen` is asked to aggregate it.
            let locals = locals_at(warmup, &global);
            seen.prepare_uploads_into(warmup, &locals, &global, &mut Vec::new());
            twin.prepare_uploads_into(warmup, &locals, &twin_global, &mut Vec::new());
            let out = seen.aggregate(warmup, &locals, &[], &present, &mut global);
            assert_eq!(bits(&global), bits(&twin_global), "{name}: an empty selection moved the global");
            let held = AggregateOutcome { broadcast_scalars: 0, synced_scalars: 0 };
            assert_eq!(out, held, "{name}");

            let locals = locals_at(warmup + 1, &global);
            let outcomes = [(&mut seen, &mut global), (&mut twin, &mut twin_global)].map(|(s, g)| {
                let mut uploads = Vec::new();
                s.prepare_uploads_into(warmup + 1, &locals, g, &mut uploads);
                (uploads, s.aggregate(warmup + 1, &locals, &everyone, &vec![true; clients], g))
            });
            assert_eq!(outcomes[0], outcomes[1], "{name}: the empty round left a trace in the state");
            assert_eq!(bits(&global), bits(&twin_global), "{name}: the empty round left a trace");
        }
    });
}
