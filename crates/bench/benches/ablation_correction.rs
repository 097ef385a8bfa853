//! Design-choice ablation beyond the paper: when a parameter fails its
//! error check and exits speculation, the aggregated error `ē` is already
//! on the server — applying it as a correction (`x += ē`) costs no extra
//! communication. Algorithm 1 does not apply it; this bench measures what
//! the correction buys (or doesn't) on CNN and DenseNet.

use fedsu_bench::{ablation_models, summary_line, Scale};
use fedsu_core::{FedSu, FedSuConfig};

fn main() {
    let scale = Scale::from_env();
    println!("== Ablation (extension): correct-on-exit error application ==\n");

    for workload in ablation_models(scale) {
        println!("---- model: {} ----", workload.model.name());
        for correct in [false, true] {
            let cfg = FedSuConfig { t_r: 0.1, t_s: 10.0, correct_on_exit: correct };
            let mut experiment =
                workload.scenario().build_with(Box::new(FedSu::new(cfg))).expect("build");
            let result = experiment.run(None).expect("run");
            println!(
                "  correct_on_exit={correct:<5} {}",
                summary_line(&result)
            );
        }
        println!();
    }
    println!("Reading: the correction is free communication-wise; any accuracy\ndelta quantifies how much residual speculation error the paper's\nvanilla exit path leaves in the model.");
}
