//! Dirichlet non-IID partitioner (Hsu et al., 2019), as used in the paper's
//! training setup (Sec. VI-A, α = 1).

use rand::Rng;
use rand_distr::{Dirichlet, Distribution};

/// Splits sample indices across `n_clients` with per-class Dirichlet(α)
/// proportions.
///
/// For every class, a fresh proportion vector `p ~ Dir(α·1)` is drawn and
/// that class's samples are dealt out accordingly. `α → ∞` approaches IID;
/// small `α` concentrates each class on few clients. Any client left with no
/// samples steals one from the largest partition so every client can train.
///
/// # Panics
///
/// Panics if `n_clients == 0` or `alpha <= 0`.
pub fn dirichlet_partition<R: Rng + ?Sized>(
    labels: &[usize],
    n_clients: usize,
    alpha: f64,
    rng: &mut R,
) -> Vec<Vec<usize>> {
    assert!(n_clients > 0, "need at least one client");
    assert!(alpha > 0.0, "alpha must be positive");
    if n_clients == 1 {
        return vec![(0..labels.len()).collect()];
    }
    let classes = labels.iter().copied().max().map_or(0, |m| m + 1);
    let mut by_class: Vec<Vec<usize>> = vec![Vec::new(); classes];
    for (i, &l) in labels.iter().enumerate() {
        // `classes` is max(label) + 1, so every label has a bucket.
        if let Some(bucket) = by_class.get_mut(l) {
            bucket.push(i);
        }
    }

    // alpha > 0 and n_clients >= 2 make the distribution valid by
    // construction; a rejected alpha degrades to uniform shares.
    let dir = Dirichlet::new_with_size(alpha, n_clients).ok();
    let uniform = vec![1.0 / n_clients as f64; n_clients];
    let mut parts: Vec<Vec<usize>> = vec![Vec::new(); n_clients];
    for idxs in by_class.iter().filter(|v| !v.is_empty()) {
        let p: Vec<f64> = dir.as_ref().map_or_else(|| uniform.clone(), |d| d.sample(rng));
        // Cumulative shares -> integer boundaries over this class's samples.
        let n = idxs.len();
        let mut cum = 0.0f64;
        let mut start = 0usize;
        for (client, share) in p.iter().enumerate() {
            cum += share;
            let end = if client + 1 == n_clients { n } else { (cum * n as f64).round() as usize };
            let end = end.clamp(start, n);
            // `client < n_clients` and `start <= end <= n` hold by the clamp.
            if let (Some(part), Some(chunk)) = (parts.get_mut(client), idxs.get(start..end)) {
                part.extend_from_slice(chunk);
            }
            start = end;
        }
    }

    // Guarantee non-empty clients (the emulator requires every client to be
    // able to run at least one batch).
    for c in 0..n_clients {
        if parts.get(c).is_some_and(Vec::is_empty) {
            let donor =
                (0..n_clients).max_by_key(|&i| parts.get(i).map_or(0, Vec::len)).unwrap_or(c);
            // A donor with a single sample (or the empty client itself, when
            // everything is empty) donates nothing, exactly as before.
            let moved = parts.get_mut(donor).filter(|d| d.len() > 1).and_then(|d| d.pop());
            if let Some((moved, part)) = moved.zip(parts.get_mut(c)) {
                part.push(moved);
            }
        }
    }
    parts
}

/// Per-client class histogram: `result[client][class]` is the number of
/// samples of `class` held by `client`. Useful for inspecting skew.
pub fn label_distribution(labels: &[usize], parts: &[Vec<usize>], classes: usize) -> Vec<Vec<usize>> {
    let mut hist = vec![vec![0usize; classes]; parts.len()];
    for (row, part) in hist.iter_mut().zip(parts) {
        // An out-of-range index or label counts nowhere.
        for &l in part.iter().filter_map(|&i| labels.get(i)) {
            if let Some(slot) = row.get_mut(l) {
                *slot += 1;
            }
        }
    }
    hist
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn labels(classes: usize, per_class: usize) -> Vec<usize> {
        (0..classes * per_class).map(|i| i / per_class).collect()
    }

    #[test]
    fn partition_is_exhaustive_and_disjoint() {
        let mut rng = StdRng::seed_from_u64(0);
        let l = labels(5, 40);
        let parts = dirichlet_partition(&l, 8, 1.0, &mut rng);
        let mut seen = vec![false; l.len()];
        for part in &parts {
            for &i in part {
                assert!(!seen[i], "index {i} assigned twice");
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "all samples assigned");
    }

    #[test]
    fn no_client_is_empty() {
        let mut rng = StdRng::seed_from_u64(1);
        let l = labels(2, 10);
        // Highly concentrated alpha so emptiness would otherwise be likely.
        let parts = dirichlet_partition(&l, 10, 0.05, &mut rng);
        assert!(parts.iter().all(|p| !p.is_empty()));
    }

    #[test]
    fn high_alpha_is_nearly_uniform() {
        let mut rng = StdRng::seed_from_u64(2);
        let l = labels(4, 250);
        let parts = dirichlet_partition(&l, 4, 1000.0, &mut rng);
        for p in &parts {
            let frac = p.len() as f64 / l.len() as f64;
            assert!((frac - 0.25).abs() < 0.05, "near-IID split, got {frac}");
        }
    }

    #[test]
    fn low_alpha_is_skewed() {
        let mut rng = StdRng::seed_from_u64(3);
        let l = labels(4, 250);
        let parts = dirichlet_partition(&l, 4, 0.05, &mut rng);
        let hist = label_distribution(&l, &parts, 4);
        // At low alpha, some client should be strongly dominated by one class.
        let max_frac = hist
            .iter()
            .filter(|h| h.iter().sum::<usize>() > 0)
            .map(|h| {
                let total: usize = h.iter().sum();
                *h.iter().max().expect("classes > 0") as f64 / total as f64
            })
            .fold(0.0, f64::max);
        assert!(max_frac > 0.6, "expected skew, max class fraction {max_frac}");
    }

    #[test]
    fn single_client_gets_everything() {
        let mut rng = StdRng::seed_from_u64(4);
        let l = labels(3, 5);
        let parts = dirichlet_partition(&l, 1, 1.0, &mut rng);
        assert_eq!(parts.len(), 1);
        assert_eq!(parts[0].len(), 15);
    }

    #[test]
    fn label_distribution_counts() {
        let l = vec![0, 0, 1, 1];
        let parts = vec![vec![0, 2], vec![1, 3]];
        let hist = label_distribution(&l, &parts, 2);
        assert_eq!(hist, vec![vec![1, 1], vec![1, 1]]);
    }

    #[test]
    #[should_panic(expected = "at least one client")]
    fn zero_clients_panics() {
        let mut rng = StdRng::seed_from_u64(0);
        dirichlet_partition(&[0], 0, 1.0, &mut rng);
    }
}
