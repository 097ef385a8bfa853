//! Property tests for the dataset substrate.

use fedsu_cases::{check, ends_then_draw, Rng};
use fedsu_data::{
    dirichlet_partition, label_distribution, Batcher, InMemoryDataset, SyntheticConfig,
};
use std::sync::Arc;

const CASES: u64 = 32;

#[test]
fn partition_is_a_partition() {
    check("partition_is_a_partition", CASES, |rng| {
        let (classes, per_class) = (rng.gen_range(1usize..6), rng.gen_range(2usize..20));
        let alpha = rng.gen_range(0.1f64..10.0);
        let labels: Vec<usize> = (0..classes * per_class).map(|i| i / per_class).collect();
        for clients in ends_then_draw(rng, 1..8) {
            let parts = dirichlet_partition(&labels, clients, alpha, rng);
            assert_eq!(parts.len(), clients);
            // Exhaustive and disjoint.
            let mut seen = vec![0u8; labels.len()];
            for p in &parts {
                for &i in p {
                    seen[i] += 1;
                }
            }
            assert!(seen.iter().all(|&c| c == 1));
            // No empty client (runtime invariant) as long as there are enough samples.
            if labels.len() >= clients {
                assert!(parts.iter().all(|p| !p.is_empty()));
            }
            // Histogram is consistent with the partition sizes.
            let hist = label_distribution(&labels, &parts, classes);
            for (p, h) in parts.iter().zip(&hist) {
                assert_eq!(p.len(), h.iter().sum::<usize>());
            }
        }
    });
}

#[test]
fn synthetic_dataset_shape_invariants() {
    check("synthetic_dataset_shape_invariants", CASES, |rng| {
        let (classes, c) = (rng.gen_range(1usize..5), rng.gen_range(1usize..3));
        let (h, w, n) =
            (rng.gen_range(2usize..8), rng.gen_range(2usize..8), rng.gen_range(1usize..10));
        let d = SyntheticConfig::new(classes, c, h, w).samples_per_class(n).build(rng);
        assert_eq!(d.len(), classes * n);
        assert_eq!(d.sample_shape(), &[c, h, w]);
        for i in 0..d.len() {
            let (f, l) = d.sample(i).unwrap();
            assert_eq!(f.len(), c * h * w);
            assert!(l < classes);
            assert!(f.iter().all(|v| v.is_finite()));
        }
    });
}

#[test]
fn batcher_eventually_yields_every_sample() {
    check("batcher_eventually_yields_every_sample", CASES, |rng| {
        let (seed, n, batch) =
            (rng.gen_range(0u64..1000), rng.gen_range(2usize..20), rng.gen_range(1usize..6));
        let features: Vec<f32> = (0..n).map(|v| v as f32).collect();
        let labels = vec![0usize; n];
        let d = Arc::new(InMemoryDataset::new(features, labels, &[1], 1));
        let mut b = Batcher::new(d, (0..n).collect(), seed);
        let mut seen = vec![false; n];
        // One epoch's worth of batches covers everything exactly once.
        let mut yielded = 0;
        while yielded < n {
            let (t, _) = b.next_batch(batch);
            for r in 0..t.shape()[0] {
                let v = t.data()[r] as usize;
                assert!(!seen[v], "sample {v} twice in one epoch");
                seen[v] = true;
                yielded += 1;
            }
        }
        assert!(seen.iter().all(|&s| s));
    });
}

#[test]
fn split_train_and_test_are_label_consistent() {
    check("split_train_and_test_are_label_consistent", CASES, |rng| {
        let (train, test) =
            SyntheticConfig::new(3, 1, 4, 4).samples_per_class(5).build_split(4, rng);
        assert_eq!(train.classes(), test.classes());
        assert_eq!(train.sample_shape(), test.sample_shape());
        assert_eq!(test.len(), 12);
    });
}
