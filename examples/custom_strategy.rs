//! Implementing your own synchronization strategy against the public
//! [`SyncStrategy`] trait — here, "lazy sync": every scalar is synchronized
//! only every `k`-th round (a strawman that shows the API surface, and why
//! unguided skipping is worse than FedSU's diagnosed+checked skipping).
//!
//! ```text
//! cargo run --release --example custom_strategy
//! ```

use fedsu_repro::fl::strategy::average_into;
use fedsu_repro::fl::{AggregateOutcome, SyncStrategy};
use fedsu_repro::metrics::Table;
use fedsu_repro::scenario::{ModelKind, Scenario, StrategyKind};

/// Synchronizes scalar `j` only in rounds where `(round + j) % period == 0`;
/// unsynchronized scalars keep their previous global value (clients' local
/// drift on them is discarded at the next pull).
struct LazySync {
    period: usize,
}

impl SyncStrategy for LazySync {
    fn name(&self) -> &str {
        "lazy-sync"
    }

    fn prepare_uploads_into(
        &mut self,
        round: usize,
        locals: &[Vec<f32>],
        global: &[f32],
        out: &mut Vec<u64>,
    ) {
        let due = (0..global.len()).filter(|j| (round + j).is_multiple_of(self.period)).count() as u64;
        out.clear();
        out.resize(locals.len(), due);
    }

    fn aggregate(
        &mut self,
        round: usize,
        locals: &[Vec<f32>],
        selected: &[usize],
        _active: &[bool],
        global: &mut [f32],
    ) -> AggregateOutcome {
        let mut averaged = global.to_vec();
        average_into(locals, selected, &mut averaged);
        let mut synced = 0;
        for (j, g) in global.iter_mut().enumerate() {
            if (round + j).is_multiple_of(self.period) {
                *g = averaged[j];
                synced += 1;
            }
        }
        AggregateOutcome { broadcast_scalars: synced, synced_scalars: synced }
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("Custom strategy demo: unguided lazy sync vs FedSU\n");
    let scenario = Scenario::new(ModelKind::Mlp).clients(6).rounds(40).samples_per_class(40);

    let mut table = Table::new(&["Scheme", "Best acc", "Mean sparsification", "Total MB"]);

    // Both skip roughly the same volume; only one knows *what* to skip.
    let mut lazy = scenario.build_with(Box::new(LazySync { period: 2 }))?;
    let lazy_result = lazy.run(None)?;
    let mut fedsu = scenario.build(StrategyKind::FedSuCalibrated)?;
    let fedsu_result = fedsu.run(None)?;

    for r in [&lazy_result, &fedsu_result] {
        table.row(&[
            &r.strategy,
            &format!("{:.3}", r.best_accuracy()),
            &format!("{:.1}%", r.mean_sparsification() * 100.0),
            &format!("{:.2}", r.total_bytes() as f64 / 1e6),
        ]);
    }
    println!("{table}");
    println!("Lazy sync throws away whichever updates happen to fall in a skipped");
    println!("round; FedSU skips only parameters whose trajectories it can predict,");
    println!("and checks its predictions with error feedback.");
    Ok(())
}
