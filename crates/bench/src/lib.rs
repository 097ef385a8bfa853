//! # fedsu-bench
//!
//! Shared infrastructure for the per-table/figure benchmark targets in
//! `benches/`. Each bench regenerates one piece of the paper's evaluation
//! (Sec. VI): it runs the corresponding emulated experiment(s) and prints
//! the same rows/series the paper reports.
//!
//! ## Scale profiles
//!
//! Set `FEDSU_SCALE` to choose the workload size:
//!
//! * `smoke` — seconds-long sanity runs (CI);
//! * `quick` — the default; laptop-scale runs whose *shape* (who wins, by
//!   roughly what factor, where crossovers fall) mirrors the paper;
//! * `full` — larger clusters and horizons, closer to the paper's setup
//!   (hours of CPU time).

#![warn(missing_docs)]

use fedsu_core::FedSu;
use fedsu_fl::{Experiment, ExperimentResult, FaultConfig};
use fedsu_nn::models::ModelPreset;
use fedsu_repro::scenario::{ModelKind, Scenario};

/// Workload size profile, selected via the `FEDSU_SCALE` env var.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Seconds-long sanity runs.
    Smoke,
    /// Default laptop-scale profile.
    Quick,
    /// Larger, slower profile closer to the paper's setup.
    Full,
}

impl Scale {
    /// Reads `FEDSU_SCALE` (`smoke` / `quick` / `full`), defaulting to
    /// `quick`. Unknown values fall back to `quick` with a warning.
    pub fn from_env() -> Scale {
        match std::env::var("FEDSU_SCALE").unwrap_or_default().to_lowercase().as_str() {
            "smoke" => Scale::Smoke,
            "full" => Scale::Full,
            "" | "quick" => Scale::Quick,
            other => {
                eprintln!("warning: unknown FEDSU_SCALE `{other}`, using quick");
                Scale::Quick
            }
        }
    }
}

/// A sized workload: model plus the experiment dimensions for the active
/// scale.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Architecture/dataset pair.
    pub model: ModelKind,
    /// Rounds to run.
    pub rounds: usize,
    /// Cluster size.
    pub clients: usize,
    /// Architecture width preset.
    pub preset: ModelPreset,
    /// Training samples per class.
    pub samples_per_class: usize,
}

impl Workload {
    /// The paper-calibrated workload for `model` at `scale`.
    pub fn for_model(model: ModelKind, scale: Scale) -> Workload {
        let (rounds, clients, preset, samples) = match scale {
            Scale::Smoke => (6, 3, ModelPreset::Tiny, 12),
            Scale::Quick => match model {
                ModelKind::Cnn => (50, 8, ModelPreset::Small, 40),
                ModelKind::ResNet18 => (24, 8, ModelPreset::Small, 40),
                ModelKind::DenseNet => (40, 8, ModelPreset::Tiny, 40),
                ModelKind::Mlp => (40, 8, ModelPreset::Small, 40),
            },
            Scale::Full => match model {
                ModelKind::Cnn => (200, 16, ModelPreset::Small, 80),
                ModelKind::ResNet18 => (120, 16, ModelPreset::Small, 80),
                ModelKind::DenseNet => (120, 16, ModelPreset::Small, 80),
                ModelKind::Mlp => (120, 16, ModelPreset::Small, 80),
            },
        };
        Workload { model, rounds, clients, preset, samples_per_class: samples }
    }

    /// Builds the scenario for this workload.
    pub fn scenario(&self) -> Scenario {
        Scenario::new(self.model)
            .preset(self.preset)
            .clients(self.clients)
            .rounds(self.rounds)
            .samples_per_class(self.samples_per_class)
    }

    /// Builds the scenario with a fault plan injected (defenses are
    /// auto-enabled by the scenario when the plan is non-zero).
    pub fn faulty_scenario(&self, faults: FaultConfig) -> Scenario {
        self.scenario().faults(faults)
    }
}

/// The two models the paper's ablation/sensitivity sections focus on
/// (footnote 5: CNN and DenseNet).
pub fn ablation_models(scale: Scale) -> Vec<Workload> {
    vec![
        Workload::for_model(ModelKind::Cnn, scale),
        Workload::for_model(ModelKind::DenseNet, scale),
    ]
}

/// The three models of the end-to-end evaluation.
pub fn e2e_models(scale: Scale) -> Vec<Workload> {
    vec![
        Workload::for_model(ModelKind::Cnn, scale),
        Workload::for_model(ModelKind::DenseNet, scale),
        Workload::for_model(ModelKind::ResNet18, scale),
    ]
}

/// Downcasts a finished experiment's strategy to FedSU (for event logs,
/// masks and skip statistics beyond the trait surface).
pub fn fedsu_of(experiment: &Experiment) -> Option<&FedSu> {
    experiment.strategy().as_any()?.downcast_ref::<FedSu>()
}

/// Prints a time-to-accuracy series the way the paper's figures report it:
/// one row per evaluation round with emulated time, accuracy and the
/// sparsification ratio.
pub fn print_series(result: &ExperimentResult, every: usize) {
    println!("# {} / {}", result.model, result.strategy);
    println!("round,sim_time_s,accuracy,sparsification,train_loss");
    for r in result.rounds.iter().filter(|r| r.round % every == 0 || r.accuracy.is_some()) {
        if let Some(acc) = r.accuracy {
            println!(
                "{},{:.1},{:.4},{:.3},{:.4}",
                r.round, r.sim_time_secs, acc, r.sparsification_ratio, r.train_loss
            );
        }
    }
}

/// A one-line summary of a run (used by several benches).
pub fn summary_line(result: &ExperimentResult) -> String {
    format!(
        "{:10} best_acc={:.3} mean_sparsification={:5.1}% total_MB={:.2} sim_time={:.0}s",
        result.strategy,
        result.best_accuracy(),
        result.mean_sparsification() * 100.0,
        result.total_bytes() as f64 / 1e6,
        result.rounds.last().map_or(0.0, |r| r.sim_time_secs),
    )
}

/// A one-line fault-accounting summary of a run (all zeros on clean runs).
pub fn fault_summary_line(result: &ExperimentResult) -> String {
    format!(
        "dropped={} quarantined={} retransmitted_KB={:.1} rollbacks={}",
        result.total_dropped(),
        result.total_quarantined(),
        result.total_retransmitted_bytes() as f64 / 1e3,
        result.total_rollbacks(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_from_env_defaults_to_quick() {
        // Note: don't mutate the env in tests (they run in parallel);
        // just exercise the default path.
        assert!(matches!(Scale::from_env(), Scale::Quick | Scale::Smoke | Scale::Full));
    }

    #[test]
    fn workloads_cover_all_models() {
        for m in [ModelKind::Cnn, ModelKind::ResNet18, ModelKind::DenseNet, ModelKind::Mlp] {
            let w = Workload::for_model(m, Scale::Smoke);
            assert!(w.rounds > 0 && w.clients > 0);
        }
        assert_eq!(e2e_models(Scale::Quick).len(), 3);
        assert_eq!(ablation_models(Scale::Quick).len(), 2);
    }

    #[test]
    fn smoke_workload_runs_and_downcasts() {
        use fedsu_repro::scenario::StrategyKind;
        let w = Workload::for_model(ModelKind::Mlp, Scale::Smoke);
        let mut e = w.scenario().build(StrategyKind::FedSuCalibrated).unwrap();
        let r = e.run(None).unwrap();
        assert_eq!(r.rounds.len(), w.rounds);
        assert!(fedsu_of(&e).is_some());
        assert!(summary_line(&r).contains("fedsu"));
    }

    #[test]
    fn faulty_smoke_workload_reports_fault_accounting() {
        use fedsu_repro::scenario::StrategyKind;
        let w = Workload::for_model(ModelKind::Mlp, Scale::Smoke);
        let mut e = w
            .faulty_scenario(FaultConfig { dropout_prob: 0.3, ..FaultConfig::default() })
            .build(StrategyKind::FedAvg)
            .unwrap();
        let r = e.run(None).unwrap();
        assert_eq!(r.rounds.len(), w.rounds);
        assert!(fault_summary_line(&r).contains("dropped="));
    }
}
