//! Table II — computation and memory overhead of FedSU.
//!
//! Times the per-round synchronization step (FedAvg's plain averaging vs
//! FedSU's diagnosis + speculative update + feedback) on model-sized
//! parameter vectors — warm-up, then the median of a fixed number of timed
//! steps — and prints the memory inflation of FedSU's per-client state
//! relative to the model itself.
//!
//! The paper reports ≤ 2.15% computation-time inflation and ≤ 10% memory
//! inflation; the relevant comparison here is the sync-step delta against
//! the emulated per-round compute time.

use fedsu_core::{FedSu, FedSuConfig};
use fedsu_fl::SyncStrategy;
use fedsu_metrics::Table;
use fedsu_repro::scenario::ModelKind;
use fedsu_strategies::FedAvg;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

const CLIENTS: usize = 8;

/// Untimed steps before measuring: FedSU's scratch reaches its final
/// capacity and its first masks form.
const WARMUP_STEPS: usize = 20;

/// Timed steps per strategy and model size; the median is reported.
const TIMED_STEPS: usize = 201;

struct SyncFixture {
    locals: Vec<Vec<f32>>,
    global: Vec<f32>,
    selected: Vec<usize>,
    active: Vec<bool>,
    round: usize,
}

impl SyncFixture {
    fn new(n_params: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let global: Vec<f32> = (0..n_params).map(|_| rng.gen_range(-0.5..0.5)).collect();
        let locals = (0..CLIENTS)
            .map(|_| global.iter().map(|g| g - 0.01 + rng.gen_range(-0.002f32..0.002)).collect())
            .collect();
        SyncFixture {
            locals,
            global,
            selected: (0..CLIENTS).collect(),
            active: vec![true; CLIENTS],
            round: 0,
        }
    }

    /// One full sync step; advances the fixture like a real round would.
    fn step(&mut self, strategy: &mut dyn SyncStrategy) {
        strategy.prepare_uploads_into(self.round, &self.locals, &self.global, &mut Vec::new());
        strategy.aggregate(self.round, &self.locals, &self.selected, &self.active, &mut self.global);
        self.round += 1;
        // Keep locals tracking the (moving) global so FedSU sees realistic
        // linear dynamics rather than divergence.
        for local in &mut self.locals {
            for (l, g) in local.iter_mut().zip(&self.global) {
                *l = *g - 0.01;
            }
        }
    }
}

/// Median wall time in microseconds of one sync step of `strategy` on
/// `n_params` parameters, after [`WARMUP_STEPS`] untimed steps.
// A bench measures the host clock by design.
#[allow(clippy::disallowed_methods)]
fn median_step_us(n_params: usize, strategy: &mut dyn SyncStrategy) -> f64 {
    let mut fixture = SyncFixture::new(n_params, 1);
    for _ in 0..WARMUP_STEPS {
        fixture.step(strategy);
    }
    let mut samples: Vec<f64> = (0..TIMED_STEPS)
        .map(|_| {
            let t0 = Instant::now();
            fixture.step(strategy);
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[TIMED_STEPS / 2]
}

fn print_sync_step_table() {
    println!("\n== Table II (computation): one sync step, FedAvg vs FedSU ==\n");
    let mut table = Table::new(&["Model", "Model params", "FedAvg us", "FedSU us", "FedSU / FedAvg"]);
    for (name, n_params) in [("cnn_40k", 40_314usize), ("resnet_45k", 44_850), ("densenet_6k", 5_767)] {
        let fedavg = median_step_us(n_params, &mut FedAvg::new());
        let fedsu = median_step_us(
            n_params,
            &mut FedSu::new(FedSuConfig { t_r: 0.1, t_s: 10.0, ..FedSuConfig::default() }),
        );
        table.row(&[
            name,
            &n_params.to_string(),
            &format!("{fedavg:.1}"),
            &format!("{fedsu:.1}"),
            &format!("{:.1}x", fedsu / fedavg),
        ]);
    }
    println!("{table}");
    println!(
        "Median of {TIMED_STEPS} steps after {WARMUP_STEPS} warm-up steps, {CLIENTS} clients. The paper's\n\
         figure is this delta against a round's training compute, not against FedAvg's step."
    );
}

fn print_memory_table() {
    println!("\n== Table II (memory): FedSU per-client state vs model size ==\n");
    let mut table = Table::new(&["Model", "Model params", "Model MB", "FedSU state MB", "Memory inflation"]);
    for (model, n_params) in [
        (ModelKind::Cnn, 40_314usize),
        (ModelKind::DenseNet, 5_767),
        (ModelKind::ResNet18, 44_850),
    ] {
        let mut fixture = SyncFixture::new(n_params, 2);
        let mut fedsu = FedSu::new(FedSuConfig::default());
        fixture.step(&mut fedsu);
        let state = fedsu.per_client_state_bytes();
        // Training-time footprint of the model on a client: parameters +
        // gradients + activations; the paper's denominator is total client
        // memory, dominated by data/activations — we report against a 4x
        // params footprint as a conservative stand-in.
        let model_bytes = n_params * 4 * 4;
        table.row(&[
            model.name(),
            &n_params.to_string(),
            &format!("{:.2}", model_bytes as f64 / 1e6),
            &format!("{:.2}", state as f64 / 1e6),
            &format!("{:.1}%", state as f64 / model_bytes as f64 * 100.0),
        ]);
    }
    println!("{table}");
    println!("Expectation (paper): memory inflation below ~10%, computation\ninflation (sync-step delta vs per-round compute) around 1-2%.");
}

fn main() {
    print_memory_table();
    print_sync_step_table();
}
