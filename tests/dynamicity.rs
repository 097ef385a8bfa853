//! Participant dynamicity end-to-end (Sec. V): clients joining and leaving
//! mid-run, join-state downloads, and mask consistency for joiners.

// Tests and benches may unwrap: a panic here IS the failure report
// (mirrors allow-unwrap-in-tests in clippy.toml for non-#[test] helpers).
#![allow(clippy::unwrap_used)]

use fedsu_repro::core::{FedSu, FedSuConfig, JoinState};
use fedsu_repro::data::SyntheticConfig;
use fedsu_repro::fl::experiment::{AvailabilityFn, ModelFactory};
use fedsu_repro::fl::{AggregateOutcome, Experiment, ExperimentConfig, SyncStrategy};
use fedsu_repro::nn::Sequential;
use fedsu_repro::scenario::{ModelKind, Scenario, StrategyKind};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn scenario() -> Scenario {
    Scenario::new(ModelKind::Mlp).clients(5).rounds(25).samples_per_class(30).seed(11)
}

#[test]
fn run_survives_clients_leaving_and_joining() {
    let availability: AvailabilityFn = Arc::new(|client, round| match client {
        4 => round >= 8,            // joins late
        0 => !(10..15).contains(&round), // leaves temporarily
        _ => true,
    });
    let mut e = scenario()
        .build_with_availability(StrategyKind::FedSuCalibrated, Some(availability))
        .unwrap();
    let r = e.run(None).unwrap();
    assert!(r.best_accuracy() > 0.7, "got {:.3}", r.best_accuracy());
    // Fewer participants before the late joiner arrives.
    assert!(r.rounds[0].participants < r.rounds[20].participants + 2);
}

#[test]
fn joining_round_pays_for_model_and_mask_state() {
    // All clients steady vs one client joining at round 12: the join round
    // must carry at least the full-model catch-up download.
    let steady = {
        let mut e = scenario().build(StrategyKind::FedSuCalibrated).unwrap();
        e.run(None).unwrap()
    };
    let availability: AvailabilityFn = Arc::new(|client, round| client != 4 || round >= 12);
    let dynamic = {
        let mut e = scenario()
            .build_with_availability(StrategyKind::FedSuCalibrated, Some(availability))
            .unwrap();
        e.run(None).unwrap()
    };
    // Compare the join round's download-heavy traffic against the same
    // round in the steady run: the joiner's full-model + mask download must
    // make it at least as heavy even though earlier rounds were lighter.
    assert!(
        dynamic.rounds[12].bytes + 1 >= steady.rounds[12].bytes,
        "join round bytes {} vs steady {}",
        dynamic.rounds[12].bytes,
        steady.rounds[12].bytes
    );
}

#[test]
fn join_state_transfers_the_replicated_manager_state() {
    // Drive a donor manager, snapshot, restore into a joiner, and verify
    // the two make identical masks and upload decisions from then on.
    let mut donor = FedSu::new(FedSuConfig { t_r: 0.2, t_s: 10.0, ..FedSuConfig::default() });
    let mut global = vec![0.0f32; 6];
    for round in 0..12 {
        let locals: Vec<Vec<f32>> = (0..3)
            .map(|c| {
                global
                    .iter()
                    .enumerate()
                    .map(|(j, g)| g - 0.01 * (j as f32 + 1.0) + 0.0001 * c as f32)
                    .collect()
            })
            .collect();
        donor.prepare_uploads_into(round, &locals, &global, &mut Vec::new());
        donor.aggregate(round, &locals, &[0, 1, 2], &[true; 3], &mut global);
    }
    let bytes = donor.join_state().expect("donor has state");
    let snapshot = JoinState::from_bytes(&bytes).unwrap();

    let mut joiner = FedSu::new(FedSuConfig { t_r: 0.2, t_s: 10.0, ..FedSuConfig::default() });
    joiner.apply_join_state(&snapshot);
    assert_eq!(joiner.predictable_mask(), donor.predictable_mask());

    // Same future input -> same upload decision.
    let locals = vec![global.clone(); 3];
    let mut d = Vec::new();
    donor.prepare_uploads_into(12, &locals, &global, &mut d);
    let mut j = Vec::new();
    joiner.prepare_uploads_into(12, &locals, &global, &mut j);
    assert_eq!(d, j);
}

#[test]
fn join_state_size_is_proportional_to_model() {
    let mut f = FedSu::new(FedSuConfig::default());
    let mut global = vec![0.0f32; 100];
    let locals = vec![global.clone(); 2];
    f.prepare_uploads_into(0, &locals, &global, &mut Vec::new());
    f.aggregate(0, &locals, &[0, 1], &[true, true], &mut global);
    let bytes = f.join_state().unwrap();
    // 16-byte header + 13 mask bytes + 100 * 22 payload bytes.
    assert_eq!(bytes.len(), 16 + 13 + 100 * 22);
}

/// A `FedSu` whose join state the runtime cannot see.
struct WithoutJoinState(FedSu);

impl SyncStrategy for WithoutJoinState {
    fn name(&self) -> &str {
        self.0.name()
    }
    fn prepare_uploads_into(&mut self, round: usize, locals: &[Vec<f32>], global: &[f32], out: &mut Vec<u64>) {
        self.0.prepare_uploads_into(round, locals, global, out);
    }
    fn aggregate(
        &mut self,
        round: usize,
        locals: &[Vec<f32>],
        selected: &[usize],
        active: &[bool],
        global: &mut [f32],
    ) -> AggregateOutcome {
        self.0.aggregate(round, locals, selected, active, global)
    }
    fn state_bytes(&self) -> usize {
        self.0.state_bytes()
    }
}

#[test]
fn a_joiner_under_chunked_fedsu_pays_for_the_manager_state() {
    // Client 3 joins at round 2. Under chunk-granular FedSU that round must
    // carry the encoded join state on top of what the same run costs when
    // the runtime is told there is none, and no other round may differ.
    let run = |strategy: Box<dyn SyncStrategy>| {
        let mut rng = StdRng::seed_from_u64(5);
        let (train, test) =
            SyntheticConfig::new(3, 1, 4, 4).samples_per_class(30).noise_std(0.4).build_split(10, &mut rng);
        let factory: ModelFactory = Arc::new(|seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut m = Sequential::new("probe");
            m.push(fedsu_repro::nn::flatten::Flatten::new());
            m.push_boxed(Box::new(fedsu_repro::nn::models::mlp(&[16, 12, 3], &mut rng)?));
            Ok(m)
        });
        let mut cfg = ExperimentConfig::quick(4, 5, "probe");
        cfg.availability = Some(Arc::new(|client, round| client != 3 || round >= 2));
        let mut e = Experiment::new(cfg, factory, Arc::new(train), Arc::new(test), strategy).unwrap();
        (e.run(None).unwrap(), e.param_count())
    };
    let chunked = || FedSu::chunked(FedSuConfig::default(), 16);
    let (charged, n) = run(Box::new(chunked()));
    let (plain, _) = run(Box::new(WithoutJoinState(chunked())));
    let extra: Vec<u64> = charged.rounds.iter().zip(&plain.rounds).map(|(c, p)| c.bytes - p.bytes).collect();
    // 16-byte header + bit-packed mask + 22 bytes per scalar.
    let image = (16 + n.div_ceil(8) + 22 * n) as u64;
    assert_eq!(extra, vec![0, 0, image, 0, 0]);
}
