//! Top-K magnitude sparsification with client-side error accumulation
//! (Aji & Heafield, 2017; Lin et al., DGC) — the classic *magnitude-based*
//! sparsifier, included as an extra baseline to contrast with the paper's
//! *pattern-based* sparsifiers (APF's stagnation, FedSU's linearity).
//!
//! Each client uploads only the `k` largest-magnitude entries of its
//! residual-corrected update (`k` is a quarter of the model, rounded up);
//! the remainder accumulates locally and is uploaded once it grows large
//! enough (error feedback in the classical sparsification sense).

use fedsu_fl::{AggregateOutcome, SyncStrategy};
use fedsu_tensor::simd;

/// Fraction of scalars uploaded per client per round.
const FRACTION: f64 = 0.25;

/// The Top-K strategy.
#[derive(Debug, Clone)]
pub struct TopK {
    /// Per-client residuals (unsent update mass).
    residuals: Vec<Vec<f32>>,
    /// Round scratch: the averaged sparse update (reused across rounds).
    mean_scratch: Vec<f32>,
    /// Round scratch: magnitude sort order (reused across rounds).
    order_scratch: Vec<usize>,
    /// Round scratch: residual magnitudes used as sort keys.
    mag_scratch: Vec<f32>,
}

impl TopK {
    /// Creates Top-K.
    pub fn new() -> Self {
        TopK {
            residuals: Vec::new(),
            mean_scratch: Vec::new(),
            order_scratch: Vec::new(),
            mag_scratch: Vec::new(),
        }
    }

    fn k_of(n: usize) -> usize {
        ((n as f64 * FRACTION).ceil() as usize).clamp(1, n)
    }

    fn ensure_capacity(&mut self, n_clients: usize, n_params: usize) {
        if self.residuals.len() != n_clients
            || self.residuals.first().is_some_and(|r| r.len() != n_params)
        {
            self.residuals.resize_with(n_clients, Vec::new);
            for r in &mut self.residuals {
                r.clear();
                r.resize(n_params, 0.0);
            }
        }
    }
}

impl Default for TopK {
    fn default() -> Self {
        TopK::new()
    }
}

impl SyncStrategy for TopK {
    fn name(&self) -> &str {
        "topk"
    }

    fn prepare_uploads_into(
        &mut self,
        _round: usize,
        locals: &[Vec<f32>],
        global: &[f32],
        out: &mut Vec<u64>,
    ) {
        self.ensure_capacity(locals.len(), global.len());
        // Indices are not mask-derivable by the server, so each uploaded
        // scalar carries index + value (2 scalar-equivalents).
        out.clear();
        out.resize(locals.len(), (Self::k_of(global.len()) * 2) as u64);
    }

    fn aggregate(
        &mut self,
        _round: usize,
        locals: &[Vec<f32>],
        selected: &[usize],
        active: &[bool],
        global: &mut [f32],
    ) -> AggregateOutcome {
        self.ensure_capacity(locals.len(), global.len());
        let n = global.len();
        if selected.is_empty() {
            // Nothing usable arrived: hold the global and every residual.
            return AggregateOutcome { broadcast_scalars: 0, synced_scalars: 0 };
        }
        let k = Self::k_of(n);
        let inv = 1.0 / selected.len() as f32;

        let level = simd::simd_level();
        let mut mean_sparse = std::mem::take(&mut self.mean_scratch);
        mean_sparse.clear();
        mean_sparse.resize(n, 0.0);
        let mut order = std::mem::take(&mut self.order_scratch);
        order.reserve(n);
        let mut mags = std::mem::take(&mut self.mag_scratch);
        for ((c, local), residual) in locals.iter().enumerate().zip(self.residuals.iter_mut()) {
            if !active.get(c).copied().unwrap_or(false) {
                continue;
            }
            // Residual-corrected update.
            simd::add_diff_with(level, residual, local, global);
            if !selected.contains(&c) {
                continue;
            }
            // Pick the k largest-magnitude entries: one vectorized |·| scan
            // produces the sort keys, then the comparator reads plain f32s.
            mags.clear();
            mags.resize(n, 0.0);
            simd::abs_into_with(level, &mut mags, residual);
            order.clear();
            order.extend(0..n);
            order.sort_by(|&a, &b| {
                let ma = mags.get(a).copied().unwrap_or(0.0);
                let mb = mags.get(b).copied().unwrap_or(0.0);
                mb.total_cmp(&ma)
            });
            for &j in order.iter().take(k) {
                if let (Some(m), Some(r)) = (mean_sparse.get_mut(j), residual.get_mut(j)) {
                    *m += *r * inv;
                    *r = 0.0;
                }
            }
        }
        simd::add_assign_with(level, global, &mean_sparse);
        self.mean_scratch = mean_sparse;
        self.order_scratch = order;
        self.mag_scratch = mags;
        AggregateOutcome { broadcast_scalars: (2 * k).min(n), synced_scalars: (2 * k).min(n) }
    }

    fn state_bytes(&self) -> usize {
        self.residuals.first().map_or(0, |r| r.len() * std::mem::size_of::<f32>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_round(topk: &mut TopK, locals: &[Vec<f32>], global: &mut [f32], round: usize) -> AggregateOutcome {
        let sel: Vec<usize> = (0..locals.len()).collect();
        let active = vec![true; locals.len()];
        topk.prepare_uploads_into(round, locals, global, &mut Vec::new());
        topk.aggregate(round, locals, &sel, &active, global)
    }

    #[test]
    fn only_top_entries_move_immediately() {
        let mut t = TopK::new(); // k = 1 of 4
        let mut global = vec![0.0f32; 4];
        let locals = vec![vec![0.01, 1.0, 0.02, 0.03]];
        run_round(&mut t, &locals, &mut global, 0);
        assert_eq!(global[1], 1.0);
        assert_eq!(global[0], 0.0);
    }

    #[test]
    fn residual_feedback_eventually_delivers_small_updates() {
        // A small but persistent update accumulates and wins a later round.
        let mut t = TopK::new();
        let mut global = vec![0.0f32; 4];
        for round in 0..20 {
            // Scalar 0 drifts steadily by 0.1; others get one-off noise.
            let locals = vec![vec![
                global[0] + 0.1,
                global[1] + if round == 0 { 0.5 } else { 0.0 },
                global[2],
                global[3],
            ]];
            run_round(&mut t, &locals, &mut global, round);
        }
        assert!(global[0] > 1.0, "steady drift must be delivered, got {}", global[0]);
    }

    #[test]
    fn upload_volume_counts_index_value_pairs() {
        let mut t = TopK::new();
        let locals = vec![vec![0.0; 10]];
        let mut up = Vec::new();
        t.prepare_uploads_into(0, &locals, &[0.0; 10], &mut up);
        assert_eq!(up, vec![6]); // k = ⌈2.5⌉ = 3, 2 scalar-equivalents each
    }

    #[test]
    fn unselected_clients_keep_their_residuals() {
        let mut t = TopK::new(); // k = 1 of 1
        let mut global = vec![0.0f32];
        let locals = vec![vec![1.0], vec![5.0]];
        t.prepare_uploads_into(0, &locals, &global, &mut Vec::new());
        // Only client 0 selected; client 1 is active and accumulates.
        t.aggregate(0, &locals, &[0], &[true, true], &mut global);
        assert_eq!(global, vec![1.0]);
        assert_eq!(t.residuals[1][0], 5.0);
    }
}
