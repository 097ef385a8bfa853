//! Plain FedAvg: every client uploads its full model every round.

use fedsu_fl::strategy::average_into;
use fedsu_fl::{AggregateOutcome, SyncStrategy};

/// Full-model synchronization (the paper's FedAvg baseline).
#[derive(Debug, Clone, Copy, Default)]
pub struct FedAvg;

impl FedAvg {
    /// Creates the FedAvg strategy.
    pub fn new() -> Self {
        FedAvg
    }
}

impl SyncStrategy for FedAvg {
    fn name(&self) -> &str {
        "fedavg"
    }

    fn prepare_uploads_into(
        &mut self,
        _round: usize,
        locals: &[Vec<f32>],
        _global: &[f32],
        out: &mut Vec<u64>,
    ) {
        out.clear();
        out.extend(locals.iter().map(|l| l.len() as u64));
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
            // Nothing usable arrived: hold the global.
            return AggregateOutcome { broadcast_scalars: 0, synced_scalars: 0 };
        }
        average_into(locals, selected, global);
        AggregateOutcome { broadcast_scalars: n, synced_scalars: n }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uploads_full_model() {
        let mut s = FedAvg::new();
        let locals = vec![vec![0.0; 5], vec![0.0; 5]];
        let mut up = Vec::new();
        s.prepare_uploads_into(0, &locals, &[0.0; 5], &mut up);
        assert_eq!(up, vec![5, 5]);
    }

    #[test]
    fn aggregates_mean_of_selected() {
        let mut s = FedAvg::new();
        let locals = vec![vec![2.0, 4.0], vec![6.0, 8.0], vec![-100.0, -100.0]];
        let mut global = vec![0.0, 0.0];
        let out = s.aggregate(0, &locals, &[0, 1], &[true, true, true], &mut global);
        assert_eq!(global, vec![4.0, 6.0]);
        assert_eq!(out.synced_scalars, 2);
        assert_eq!(out.broadcast_scalars, 2);
    }

    #[test]
    fn has_no_resident_state() {
        assert_eq!(FedAvg::new().state_bytes(), 0);
        assert!(FedAvg::new().join_state().is_none());
    }
}
