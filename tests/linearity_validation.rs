//! Cross-validation of the paper's central claim (Sec. IV-A): the cheap
//! second-order oscillation ratio agrees with the expensive least-squares
//! linearity test it replaces, both on constructed trajectories and on real
//! FL parameter trajectories.

// Tests and benches may unwrap: a panic here IS the failure report
// (mirrors allow-unwrap-in-tests in clippy.toml for non-#[test] helpers).
#![allow(clippy::unwrap_used)]

use fedsu_repro::core::diagnosis::OscillationDiagnostic;
use fedsu_repro::metrics::{linear_fit, TrajectoryRecorder};
use fedsu_repro::scenario::{ModelKind, Scenario, StrategyKind};

#[test]
fn oscillation_ratio_ranks_like_r_squared_on_constructed_series() {
    // Build trajectories with graded curvature; the two diagnostics must
    // rank them the same way (more curvature = less linear).
    let horizon = 40;
    let curvatures = [0.0f32, 1e-4, 5e-4, 2e-3];
    let mut ratios = Vec::new();
    let mut r2s = Vec::new();
    for &c in &curvatures {
        let series: Vec<f32> = (0..horizon).map(|k| {
            let k = k as f32;
            -0.01 * k + c * k * k
        }).collect();
        let mut diag = OscillationDiagnostic::new(1, 0.9);
        for v in &series {
            diag.observe_params(&[*v]);
        }
        ratios.push(diag.ratio(0).unwrap());
        r2s.push(linear_fit(&series).unwrap().r_squared);
    }
    // Oscillation ratio increases with curvature. (R² is *not* monotone in
    // curvature — a steep parabola is still monotone, so a line fits it
    // decently — which is exactly why the second-order test is the better
    // linearity detector.)
    for w in ratios.windows(2) {
        assert!(w[1] >= w[0], "ratios not monotone: {ratios:?}");
    }
    // Both diagnostics agree on the clear-cut cases: the straight line is
    // the most linear under either metric.
    assert!(ratios[0] < 0.01, "line should diagnose linear: {ratios:?}");
    assert!(r2s[0] >= r2s.iter().fold(0.0, |m, &v| f64::max(m, v)) - 1e-9);
    assert!(ratios.last().unwrap() > &0.9, "strong curvature should diagnose non-linear");
}

#[test]
fn speculative_parameters_have_more_linear_trajectories() {
    // Run FedSU on the MLP task while recording every parameter's
    // trajectory under the hood; parameters FedSU kept speculative longest
    // must have (on average) straighter trajectories than the ones it never
    // trusted.
    let mut experiment = Scenario::new(ModelKind::Mlp)
        .clients(6)
        .rounds(40)
        .samples_per_class(40)
        .seed(21)
        .build(StrategyKind::FedSuCalibrated)
        .unwrap();
    let n = experiment.param_count();
    let mut recorder = TrajectoryRecorder::new(&(0..n).collect::<Vec<_>>());
    let mut hook =
        |_r: &fedsu_repro::fl::RoundRecord, g: &[f32]| recorder.observe(g);
    experiment.run(Some(&mut hook)).unwrap();
    let skips = experiment.strategy().skip_fractions().unwrap();

    // Split parameters into most- and least-speculative quartiles.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| skips[b].total_cmp(&skips[a]));
    let q = (n / 4).max(1);
    let mean_r2 = |idx: &[usize]| -> f64 {
        let mut sum = 0.0;
        let mut count = 0usize;
        for &j in idx {
            if let Some(fit) = linear_fit(recorder.trajectory(j)) {
                sum += fit.r_squared;
                count += 1;
            }
        }
        sum / count.max(1) as f64
    };
    let speculative = mean_r2(&order[..q]);
    let regular = mean_r2(&order[n - q..]);
    assert!(
        speculative >= regular,
        "speculative params should be more linear: {speculative:.3} vs {regular:.3}"
    );
}
