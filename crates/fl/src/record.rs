//! Experiment output records.

/// Everything recorded about one communication round.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundRecord {
    /// Round index (0-based).
    pub round: usize,
    /// Emulated duration of this round in seconds.
    pub duration_secs: f64,
    /// Cumulative emulated time at round end.
    pub sim_time_secs: f64,
    /// Test accuracy, if this round was an evaluation round.
    pub accuracy: Option<f32>,
    /// Test loss, if this round was an evaluation round.
    pub test_loss: Option<f32>,
    /// Mean client training loss this round.
    pub train_loss: f32,
    /// Fraction of scalars that skipped synchronization (paper's
    /// sparsification ratio).
    pub sparsification_ratio: f64,
    /// Total bytes on the wire this round (both directions, all clients).
    pub bytes: u64,
    /// Clients whose updates were aggregated.
    pub participants: usize,
    /// Clients that dropped out this round (mid-round dropout, crash,
    /// exhausted upload retries, panic, or missed deadline).
    pub dropped: usize,
    /// Uploads rejected by validation (non-finite or norm-outlier).
    pub quarantined: usize,
    /// Extra upload bytes spent on retransmissions after lost uploads.
    pub retransmitted_bytes: u64,
    /// 1 if this round's aggregation was rolled back to the last checkpoint.
    pub rollbacks: usize,
}

/// A completed experiment: configuration echo plus per-round records.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentResult {
    /// Strategy display name.
    pub strategy: String,
    /// Model display name.
    pub model: String,
    /// Per-round records, in order.
    pub rounds: Vec<RoundRecord>,
    /// Total scalar parameters in the model.
    pub param_count: usize,
}

impl ExperimentResult {
    /// Emulated seconds until test accuracy first reaches `target`
    /// (`None` if never reached).
    pub fn time_to_accuracy(&self, target: f32) -> Option<f64> {
        self.rounds
            .iter()
            .find(|r| r.accuracy.is_some_and(|a| a >= target))
            .map(|r| r.sim_time_secs)
    }

    /// Rounds until test accuracy first reaches `target`.
    pub fn rounds_to_accuracy(&self, target: f32) -> Option<usize> {
        self.rounds
            .iter()
            .find(|r| r.accuracy.is_some_and(|a| a >= target))
            .map(|r| r.round.saturating_add(1))
    }

    /// Mean emulated per-round duration.
    pub fn mean_round_secs(&self) -> f64 {
        if self.rounds.is_empty() {
            0.0
        } else {
            self.rounds.iter().map(|r| r.duration_secs).sum::<f64>() / self.rounds.len() as f64
        }
    }

    /// Mean sparsification ratio across all rounds.
    pub fn mean_sparsification(&self) -> f64 {
        if self.rounds.is_empty() {
            0.0
        } else {
            self.rounds.iter().map(|r| r.sparsification_ratio).sum::<f64>() / self.rounds.len() as f64
        }
    }

    /// Highest test accuracy observed.
    pub fn best_accuracy(&self) -> f32 {
        self.rounds.iter().filter_map(|r| r.accuracy).fold(0.0, f32::max)
    }

    /// Total bytes moved over the whole run.
    pub fn total_bytes(&self) -> u64 {
        self.rounds.iter().map(|r| r.bytes).sum()
    }

    /// Total client-round dropouts over the whole run.
    pub fn total_dropped(&self) -> usize {
        self.rounds.iter().map(|r| r.dropped).sum()
    }

    /// Total quarantined uploads over the whole run.
    pub fn total_quarantined(&self) -> usize {
        self.rounds.iter().map(|r| r.quarantined).sum()
    }

    /// Total retransmitted upload bytes over the whole run.
    pub fn total_retransmitted_bytes(&self) -> u64 {
        self.rounds.iter().map(|r| r.retransmitted_bytes).sum()
    }

    /// Total checkpoint rollbacks over the whole run.
    pub fn total_rollbacks(&self) -> usize {
        self.rounds.iter().map(|r| r.rollbacks).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(round: usize, acc: Option<f32>, t: f64) -> RoundRecord {
        RoundRecord {
            round,
            duration_secs: 1.0,
            sim_time_secs: t,
            accuracy: acc,
            test_loss: None,
            train_loss: 1.0,
            sparsification_ratio: 0.5,
            bytes: 100,
            participants: 4,
            dropped: 1,
            quarantined: 0,
            retransmitted_bytes: 8,
            rollbacks: 0,
        }
    }

    fn result() -> ExperimentResult {
        ExperimentResult {
            strategy: "test".into(),
            model: "m".into(),
            rounds: vec![
                record(0, Some(0.3), 1.0),
                record(1, None, 2.0),
                record(2, Some(0.6), 3.0),
                record(3, Some(0.7), 4.0),
            ],
            param_count: 10,
        }
    }

    #[test]
    fn time_to_accuracy_finds_first_crossing() {
        let r = result();
        assert_eq!(r.time_to_accuracy(0.6), Some(3.0));
        assert_eq!(r.rounds_to_accuracy(0.6), Some(3));
        assert_eq!(r.time_to_accuracy(0.9), None);
    }

    #[test]
    fn aggregates() {
        let r = result();
        assert_eq!(r.mean_round_secs(), 1.0);
        assert_eq!(r.mean_sparsification(), 0.5);
        assert_eq!(r.best_accuracy(), 0.7);
        assert_eq!(r.total_bytes(), 400);
        assert_eq!(r.total_dropped(), 4);
        assert_eq!(r.total_quarantined(), 0);
        assert_eq!(r.total_retransmitted_bytes(), 32);
        assert_eq!(r.total_rollbacks(), 0);
    }

    #[test]
    fn empty_result_fault_totals_are_zero() {
        let r = ExperimentResult { strategy: "s".into(), model: "m".into(), rounds: vec![], param_count: 0 };
        assert_eq!(r.total_dropped(), 0);
        assert_eq!(r.total_quarantined(), 0);
        assert_eq!(r.total_retransmitted_bytes(), 0);
        assert_eq!(r.total_rollbacks(), 0);
    }

    #[test]
    fn empty_result_is_safe() {
        let r = ExperimentResult { strategy: "s".into(), model: "m".into(), rounds: vec![], param_count: 0 };
        assert_eq!(r.mean_round_secs(), 0.0);
        assert_eq!(r.best_accuracy(), 0.0);
        assert_eq!(r.time_to_accuracy(0.1), None);
    }
}
