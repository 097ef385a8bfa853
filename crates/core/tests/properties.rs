//! Property tests of the oscillation-ratio diagnosis (Eq. 2), and the
//! standalone diagnostic against the manager's embedded copy (the manager
//! against an independent reference is `oracle.rs`).

use fedsu_cases::{check, ends_then_draw, vec_of, Rng};
use fedsu_core::{EmaPair, FedSu, FedSuConfig, OscillationDiagnostic};
use fedsu_fl::SyncStrategy;

const CASES: u64 = 64;

fn ratio_stays_in_unit_interval(values: &[f32], theta: f32) {
    let mut e = EmaPair::default();
    for &v in values {
        e.observe(v, theta);
        let r = e.ratio();
        assert!((0.0..=1.0).contains(&r), "ratio {r}");
    }
}

#[test]
fn ratio_always_in_unit_interval() {
    // Both ends of the length range by name: no observation, and a full window.
    ratio_stays_in_unit_interval(&[], 0.9);
    ratio_stays_in_unit_interval(&[100.0; 63], 0.5);
    check("ratio_always_in_unit_interval", CASES, |rng| {
        let values = vec_of(rng, 0..64, |r| r.gen_range(-100.0f32..100.0));
        ratio_stays_in_unit_interval(&values, rng.gen_range(0.5f32..0.99));
    });
}

#[test]
fn constant_sign_signal_has_ratio_one() {
    check("constant_sign_signal_has_ratio_one", CASES, |rng| {
        let magnitudes = vec_of(rng, 3..32, |r| r.gen_range(0.01f32..10.0));
        let theta = rng.gen_range(0.5f32..0.99);
        // All-positive observations: |EMA| equals EMA of magnitudes.
        let mut e = EmaPair::default();
        for m in &magnitudes {
            e.observe(*m, theta);
        }
        assert!((e.ratio() - 1.0).abs() < 1e-5, "ratio {}", e.ratio());
    });
}

#[test]
fn scaling_a_signal_leaves_the_ratio_invariant() {
    check("scaling_a_signal_leaves_the_ratio_invariant", CASES, |rng| {
        let values = vec_of(rng, 3..32, |r| r.gen_range(-10.0f32..10.0));
        let scale = rng.gen_range(0.01f32..100.0);
        let mut a = EmaPair::default();
        let mut b = EmaPair::default();
        for v in &values {
            a.observe(*v, 0.9);
            b.observe(*v * scale, 0.9);
        }
        assert!((a.ratio() - b.ratio()).abs() < 1e-3, "{} vs {}", a.ratio(), b.ratio());
    });
}

fn affine_trajectory_diagnoses_linear(slope: f32, intercept: f32, horizon: usize) {
    let mut d = OscillationDiagnostic::new(1, 0.9);
    for k in 0..horizon {
        d.observe_params(&[intercept + slope * k as f32]);
    }
    assert!(d.is_linear(0, 0.01), "ratio {:?}", d.ratio(0));
}

#[test]
fn affine_trajectories_always_diagnose_linear() {
    check("affine_trajectories_always_diagnose_linear", CASES, |rng| {
        let (slope, intercept) = (rng.gen_range(-5.0f32..5.0), rng.gen_range(-5.0f32..5.0));
        for horizon in ends_then_draw(rng, 5..40) {
            affine_trajectory_diagnoses_linear(slope, intercept, horizon);
        }
    });
}

/// The one failure the property ever recorded (float rounding on an exactly
/// linear trajectory gave an arbitrary raw ratio before the relative guard).
#[test]
fn affine_trajectory_with_rounding_noise_diagnoses_linear() {
    affine_trajectory_diagnoses_linear(1.607_409_5, 0.0, 13);
}

#[test]
fn diagnosis_is_per_scalar_independent() {
    check("diagnosis_is_per_scalar_independent", CASES, |rng| {
        let (slope, horizon) = (rng.gen_range(0.01f32..1.0), rng.gen_range(8usize..32));
        // Scalar 0 linear, scalar 1 with alternating curvature; adding the
        // second must not change the first's ratio.
        let mut solo = OscillationDiagnostic::new(1, 0.9);
        let mut pair = OscillationDiagnostic::new(2, 0.9);
        for k in 0..horizon {
            let lin = -slope * k as f32;
            let curved = if k % 2 == 0 { 1.0 } else { -1.0 };
            solo.observe_params(&[lin]);
            pair.observe_params(&[lin, curved]);
        }
        assert!((solo.ratio(0).unwrap() - pair.ratio(0).unwrap()).abs() < 1e-9);
    });
}

/// `diagnosis.rs` says the manager "embeds the same arithmetic in its round
/// loop": on one trajectory the two must report the same bits.
///
/// Alignment: the manager seeds its first difference from the initial global
/// in round 0, so the diagnostic is shown the initial vector first and each
/// post-aggregation vector after. The one deliberate difference is kept out
/// of reach: `OscillationDiagnostic::ratio` folds the negligible-second-
/// difference guard into the ratio (→ 0), the manager applies the same guard
/// at its entry decision and reports the raw `EmaPair::ratio`. Every second
/// difference here is at least 0.01 against updates below 0.4, so the guard
/// never fires, and `t_r` is small enough that nothing enters speculation.
#[test]
fn manager_and_standalone_diagnostic_agree_on_eq2() {
    check("manager_and_standalone_diagnostic_agree_on_eq2", CASES, |rng| {
        let n = rng.gen_range(1usize..12);
        let slopes = vec_of(rng, n..=n, |r| r.gen_range(-0.05f32..0.05));
        let curvature = vec_of(rng, n..=n, |r| r.gen_range(0.0f32..0.01));
        let mut manager = FedSu::new(FedSuConfig { t_r: 1e-12, ..FedSuConfig::default() });
        let mut diagnostic = OscillationDiagnostic::new(n, 0.9); // the manager's fixed θ
        let mut global = vec_of(rng, n..=n, |r| r.gen_range(-1.0f32..1.0));
        diagnostic.observe_params(&global);
        let mut curved = false;
        for round in 0..30 {
            let sign = if round % 2 == 0 { 1.0 } else { -1.0 };
            let local: Vec<f32> = (0..n)
                .map(|j| {
                    global[j]
                        + slopes[j]
                        + curvature[j] * round as f32
                        + sign * rng.gen_range(0.01f32..0.02)
                })
                .collect();
            let locals = [local];
            manager.prepare_uploads_into(round, &locals, &global, &mut Vec::new());
            manager.aggregate(round, &locals, &[0], &[true], &mut global);
            diagnostic.observe_params(&global);
            assert_eq!(
                manager.predictable_count(),
                0,
                "round {round}: a scalar entered speculation"
            );
            for j in 0..n {
                let (m, d) = (manager.oscillation_ratio(j).unwrap(), diagnostic.ratio(j).unwrap());
                assert_eq!(
                    m.to_bits(),
                    d.to_bits(),
                    "round {round} scalar {j}: manager {m} vs diagnostic {d}"
                );
                curved |= m > 0.0;
            }
        }
        assert!(curved, "the trajectory never produced a non-zero ratio");
    });
}
