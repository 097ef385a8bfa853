//! `fedsu` — command-line driver for the FedSU reproduction.
//!
//! ```text
//! fedsu run     --model cnn --strategy fedsu --clients 8 --rounds 60 [--csv out.csv]
//! fedsu compare --model cnn --rounds 60
//! fedsu sweep   --model cnn --param t_s --values 1,10,100
//! fedsu info
//! ```

mod args;

use args::{parse, Command, RunArgs, SweepParam};
use fedsu_metrics::Table;
use fedsu_repro::fl::ExperimentResult;
use fedsu_repro::netsim::FaultConfig;
use fedsu_repro::scenario::{Scenario, StrategyKind};
use std::io::Write;

const USAGE: &str = "\
fedsu — communication-efficient federated learning with speculative updating

USAGE:
  fedsu run     [--model M] [--strategy S] [--clients N] [--rounds R]
                [--alpha A] [--seed K] [--csv PATH]
                [--fault-dropout P] [--fault-corrupt P] [--fault-seed K]
  fedsu compare [--model M] [--clients N] [--rounds R] [--alpha A] [--seed K]
  fedsu sweep   --param t_r|t_s --values a,b,c [--model M] [--rounds R] ...
  fedsu info
  fedsu help

MODELS:     cnn, resnet18, densenet, mlp
STRATEGIES: fedavg, cmfl, apf, apf-paper, qsgd, fedsu, fedsu-paper

FAULTS:     --fault-dropout/--fault-corrupt inject per-round client dropout
            and upload corruption with the given probability; a non-zero rate
            auto-enables the server-side defenses (retry, quarantine,
            rollback). --fault-seed picks the deterministic fault plan.

THREADS:    clients train concurrently, one thread per hardware thread, and
            the tensor kernels run serially inside each; the thread count
            never changes a result.
";

fn scenario_of(a: &RunArgs) -> Scenario {
    let faults = FaultConfig {
        dropout_prob: a.fault_dropout,
        corrupt_prob: a.fault_corrupt,
        seed: a.fault_seed,
        ..FaultConfig::default()
    };
    Scenario::new(a.model)
        .clients(a.clients)
        .rounds(a.rounds)
        .alpha(a.alpha)
        .seed(a.seed)
        .faults(faults)
}

fn write_csv(path: &str, result: &ExperimentResult) -> std::io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    writeln!(
        f,
        "round,sim_time_s,accuracy,test_loss,train_loss,sparsification,bytes,participants,\
         dropped,quarantined,retransmitted_bytes,rollbacks"
    )?;
    for r in &result.rounds {
        writeln!(
            f,
            "{},{:.3},{},{},{:.5},{:.5},{},{},{},{},{},{}",
            r.round,
            r.sim_time_secs,
            r.accuracy.map_or(String::new(), |a| format!("{a:.5}")),
            r.test_loss.map_or(String::new(), |l| format!("{l:.5}")),
            r.train_loss,
            r.sparsification_ratio,
            r.bytes,
            r.participants,
            r.dropped,
            r.quarantined,
            r.retransmitted_bytes,
            r.rollbacks
        )?;
    }
    Ok(())
}

fn summary_row(table: &mut Table, result: &ExperimentResult) {
    table.row(&[
        &result.strategy,
        &format!("{:.3}", result.best_accuracy()),
        &format!("{:.1}", result.rounds.last().map_or(0.0, |r| r.sim_time_secs)),
        &format!("{:.1}%", result.mean_sparsification() * 100.0),
        &format!("{:.2}", result.total_bytes() as f64 / 1e6),
    ]);
}

fn run(a: &RunArgs) -> Result<(), Box<dyn std::error::Error>> {
    eprintln!("running {} / {} ({} clients, {} rounds)...", a.model.name(), a.strategy.name(), a.clients, a.rounds);
    let mut experiment = scenario_of(a).build(a.strategy)?;
    let result = experiment.run(None)?;
    let mut table = Table::new(&["Scheme", "Best acc", "Sim time (s)", "Sparsification", "Total MB"]);
    summary_row(&mut table, &result);
    println!("{table}");
    if let Some(path) = &a.csv {
        write_csv(path, &result)?;
        println!("per-round records written to {path}");
    }
    Ok(())
}

fn compare(a: &RunArgs) -> Result<(), Box<dyn std::error::Error>> {
    let mut table = Table::new(&["Scheme", "Best acc", "Sim time (s)", "Sparsification", "Total MB"]);
    for strategy in [
        StrategyKind::FedAvg,
        StrategyKind::Cmfl,
        StrategyKind::ApfCalibrated,
        StrategyKind::Qsgd,
        StrategyKind::FedSuCalibrated,
    ] {
        eprintln!("running {}...", strategy.name());
        let mut experiment = scenario_of(a).build(strategy)?;
        let result = experiment.run(None)?;
        summary_row(&mut table, &result);
    }
    println!("{table}");
    Ok(())
}

fn sweep(base: &RunArgs, param: SweepParam, values: &[f64]) -> Result<(), Box<dyn std::error::Error>> {
    let mut table = Table::new(&["Value", "Best acc", "Sim time (s)", "Sparsification", "Total MB"]);
    for &v in values {
        let strategy = match param {
            SweepParam::TR => StrategyKind::FedSuWith { t_r: v, t_s: 10.0 },
            SweepParam::TS => StrategyKind::FedSuWith { t_r: 0.1, t_s: v },
        };
        eprintln!("running {param:?}={v}...");
        let mut experiment = scenario_of(base).build(strategy)?;
        let result = experiment.run(None)?;
        table.row(&[
            &format!("{v}"),
            &format!("{:.3}", result.best_accuracy()),
            &format!("{:.1}", result.rounds.last().map_or(0.0, |r| r.sim_time_secs)),
            &format!("{:.1}%", result.mean_sparsification() * 100.0),
            &format!("{:.2}", result.total_bytes() as f64 / 1e6),
        ]);
    }
    println!("{table}");
    Ok(())
}

fn info() {
    println!("models:");
    println!("  cnn       2-conv CNN on a 28x28 EMNIST stand-in (paper lr 0.01)");
    println!("  resnet18  residual network on a 28x28 FMNIST stand-in (paper lr 0.001)");
    println!("  densenet  densely-connected network on a 32x32 CIFAR stand-in (paper lr 0.01)");
    println!("  mlp       small MLP for fast experiments");
    println!();
    println!("strategies:");
    println!("  fedavg        full synchronization");
    println!("  cmfl          relevance-gated client updates (threshold 0.8)");
    println!("  apf           adaptive parameter freezing, laptop-calibrated (0.15)");
    println!("  apf-paper     adaptive parameter freezing, paper threshold (0.05)");
    println!("  qsgd          stochastic 5-bit quantization (extension baseline)");
    println!("  fedsu         speculative updating, laptop-calibrated (T_R 0.1, T_S 10)");
    println!("  fedsu-paper   speculative updating, paper thresholds (T_R 0.01, T_S 1)");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = match parse(args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            std::process::exit(2);
        }
    };
    let outcome = match &command {
        Command::Help => {
            println!("{USAGE}");
            Ok(())
        }
        Command::Info => {
            info();
            Ok(())
        }
        Command::Run(a) => run(a),
        Command::Compare(a) => compare(a),
        Command::Sweep { base, param, values } => sweep(base, *param, values),
    };
    if let Err(e) = outcome {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
