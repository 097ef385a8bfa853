//! CMFL (Communication-Mitigated Federated Learning, Luping et al.,
//! ICDCS'19): a client transmits its round update only when a sufficient
//! fraction of the update's element-wise signs (here 0.8, the paper's
//! default) agree with the previous round's *global* update.

use fedsu_fl::strategy::average_into;
use fedsu_fl::{AggregateOutcome, SyncStrategy};

/// Minimum fraction of sign-consistent entries required to transmit.
const RELEVANCE_THRESHOLD: f64 = 0.8;

/// The CMFL strategy.
#[derive(Debug, Clone)]
pub struct Cmfl {
    /// Previous round's global update (`None` before the first aggregation:
    /// every client transmits).
    prev_global_update: Option<Vec<f32>>,
    /// Phase-A relevance decisions, indexed by client id.
    transmits: Vec<bool>,
    /// Round scratch: one client's raw update (reused across rounds).
    update_scratch: Vec<f32>,
    /// Round scratch: the pre-aggregation global (reused across rounds).
    old_scratch: Vec<f32>,
    /// Round scratch: the transmitting subset of `selected`.
    transmitting_scratch: Vec<usize>,
}

impl Cmfl {
    /// Creates CMFL.
    pub fn new() -> Self {
        Cmfl {
            prev_global_update: None,
            transmits: Vec::new(),
            update_scratch: Vec::new(),
            old_scratch: Vec::new(),
            transmitting_scratch: Vec::new(),
        }
    }

    /// Fraction of entries of `update` whose sign matches `reference`.
    /// Zero entries count as agreeing (no direction to contradict).
    fn relevance(update: &[f32], reference: &[f32]) -> f64 {
        debug_assert_eq!(update.len(), reference.len());
        if update.is_empty() {
            return 1.0;
        }
        let agree = update
            .iter()
            .zip(reference)
            .filter(|(u, r)| u.signum() == r.signum() || **u == 0.0 || **r == 0.0)
            .count();
        agree as f64 / update.len() as f64
    }
}

impl Default for Cmfl {
    fn default() -> Self {
        Cmfl::new()
    }
}

impl SyncStrategy for Cmfl {
    fn name(&self) -> &str {
        "cmfl"
    }

    fn prepare_uploads_into(
        &mut self,
        _round: usize,
        locals: &[Vec<f32>],
        global: &[f32],
        out: &mut Vec<u64>,
    ) {
        self.transmits.clear();
        self.transmits.reserve(locals.len());
        match &self.prev_global_update {
            None => self.transmits.resize(locals.len(), true),
            Some(reference) => {
                let mut update = std::mem::take(&mut self.update_scratch);
                update.reserve(global.len());
                for local in locals {
                    update.clear();
                    update.extend(local.iter().zip(global).map(|(l, g)| l - g));
                    self.transmits.push(Self::relevance(&update, reference) >= RELEVANCE_THRESHOLD);
                }
                self.update_scratch = update;
            }
        }
        out.clear();
        out.extend(self.transmits.iter().map(|&t| if t { global.len() as u64 } else { 0 }));
    }

    fn aggregate(
        &mut self,
        _round: usize,
        locals: &[Vec<f32>],
        selected: &[usize],
        _active: &[bool],
        global: &mut [f32],
    ) -> AggregateOutcome {
        let n = global.len();
        if selected.is_empty() {
            // Nothing usable arrived: hold the global and the reference update.
            return AggregateOutcome { broadcast_scalars: 0, synced_scalars: 0 };
        }
        let mut old_global = std::mem::take(&mut self.old_scratch);
        old_global.clear();
        old_global.extend_from_slice(global);
        let mut transmitting = std::mem::take(&mut self.transmitting_scratch);
        transmitting.clear();
        transmitting.extend(
            selected
                .iter()
                .copied()
                .filter(|&c| self.transmits.get(c).copied().unwrap_or(true)),
        );
        if !transmitting.is_empty() {
            average_into(locals, &transmitting, global);
        }
        let mut prev = self.prev_global_update.take().unwrap_or_default();
        prev.clear();
        prev.extend(global.iter().zip(&old_global).map(|(n, o)| n - o));
        self.prev_global_update = Some(prev);

        // Sparsification accounting: the fraction of selected clients that
        // skipped transmission scales the effective synchronized volume.
        let frac = transmitting.len() as f64 / selected.len() as f64;
        self.old_scratch = old_global;
        self.transmitting_scratch = transmitting;
        AggregateOutcome { broadcast_scalars: n, synced_scalars: (n as f64 * frac).round() as usize }
    }

    fn state_bytes(&self) -> usize {
        self.prev_global_update.as_ref().map_or(0, |v| v.len() * std::mem::size_of::<f32>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_round_everyone_transmits() {
        let mut s = Cmfl::default();
        let locals = vec![vec![1.0, 2.0], vec![3.0, 4.0]];
        let mut up = Vec::new();
        s.prepare_uploads_into(0, &locals, &[0.0, 0.0], &mut up);
        assert_eq!(up, vec![2, 2]);
    }

    #[test]
    fn relevance_counts_sign_agreement() {
        assert_eq!(Cmfl::relevance(&[1.0, -1.0], &[2.0, -3.0]), 1.0);
        assert_eq!(Cmfl::relevance(&[1.0, -1.0], &[2.0, 3.0]), 0.5);
        assert_eq!(Cmfl::relevance(&[], &[]), 1.0);
        // Zeros never contradict.
        assert_eq!(Cmfl::relevance(&[0.0, 1.0], &[-5.0, 1.0]), 1.0);
    }

    #[test]
    fn irrelevant_client_is_withheld() {
        let mut s = Cmfl::new();
        // Seed the reference update: global moves by +1 on both coords.
        let locals0 = vec![vec![1.0, 1.0], vec![1.0, 1.0]];
        let mut global = vec![0.0, 0.0];
        s.prepare_uploads_into(0, &locals0, &global, &mut Vec::new());
        s.aggregate(0, &locals0, &[0, 1], &[true, true], &mut global);
        assert_eq!(global, vec![1.0, 1.0]);

        // Client 0 moves with the trend (+), client 1 against (-).
        let locals1 = vec![vec![2.0, 2.0], vec![0.0, 0.0]];
        let mut up = Vec::new();
        s.prepare_uploads_into(1, &locals1, &global, &mut up);
        assert_eq!(up[0], 2);
        assert_eq!(up[1], 0);

        let out = s.aggregate(1, &locals1, &[0, 1], &[true, true], &mut global);
        // Only client 0 aggregated.
        assert_eq!(global, vec![2.0, 2.0]);
        assert_eq!(out.synced_scalars, 1); // 50% of 2 scalars
    }

    #[test]
    fn all_withheld_leaves_global_unchanged() {
        let mut s = Cmfl::new();
        let locals0 = vec![vec![1.0, 1.0]];
        let mut global = vec![0.0, 0.0];
        s.prepare_uploads_into(0, &locals0, &global, &mut Vec::new());
        s.aggregate(0, &locals0, &[0], &[true], &mut global);
        // Now move against the trend.
        let locals1 = vec![vec![0.0, 0.0]];
        s.prepare_uploads_into(1, &locals1, &global, &mut Vec::new());
        let out = s.aggregate(1, &locals1, &[0], &[true], &mut global);
        assert_eq!(global, vec![1.0, 1.0]);
        assert_eq!(out.synced_scalars, 0);
    }

    #[test]
    fn state_bytes_reflect_reference_update() {
        let mut s = Cmfl::default();
        assert_eq!(s.state_bytes(), 0);
        let locals = vec![vec![1.0; 8]];
        let mut g = vec![0.0; 8];
        s.prepare_uploads_into(0, &locals, &g, &mut Vec::new());
        s.aggregate(0, &locals, &[0], &[true], &mut g);
        assert_eq!(s.state_bytes(), 32);
    }
}
