//! Granularity ablation (extension): FedSU's per-scalar masking vs the
//! same machinery at chunk granularity (per-block / per-layer style
//! decisions). Quantifies Sec. III-A's argument that sparsification
//! decisions must be made independently per parameter.

use fedsu_bench::{summary_line, Scale, Workload};
use fedsu_core::{FedSu, FedSuConfig};
use fedsu_repro::scenario::ModelKind;

fn main() {
    let scale = Scale::from_env();
    println!("== Ablation (extension): decision granularity ==\n");

    let workload = Workload::for_model(ModelKind::Cnn, scale);
    for chunk in [1usize, 16, 256, 4096] {
        // The quick-profile operating point (`StrategyKind::FedSuCalibrated`).
        let config = FedSuConfig { t_r: 0.1, t_s: 10.0, ..FedSuConfig::default() };
        let strategy = FedSu::chunked(config, chunk);
        let mut experiment = workload.scenario().build_with(Box::new(strategy)).expect("build");
        let result = experiment.run(None).expect("run");
        println!("  chunk={chunk:<5} {}", summary_line(&result));
    }
    println!();
    println!("Reading: chunk=1 is per-scalar FedSU. Coarser chunks either stop");
    println!("finding linear blocks (lower sparsification) or admit mixed blocks");
    println!("and corrupt their non-linear members (lower accuracy) — the paper's");
    println!("case for fine-grained masks.");
}
