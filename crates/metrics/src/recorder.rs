//! Per-round recorder for selected scalar parameters (Figs. 1 and 6).

/// Records the values of a fixed set of scalar parameters after every round.
#[derive(Debug, Clone, PartialEq)]
pub struct TrajectoryRecorder {
    indices: Vec<usize>,
    /// `trajectories[k]` holds the per-round values of `indices[k]`.
    trajectories: Vec<Vec<f32>>,
}

impl TrajectoryRecorder {
    /// Creates a recorder for the given scalar indices.
    pub fn new(indices: &[usize]) -> Self {
        TrajectoryRecorder {
            indices: indices.to_vec(),
            trajectories: vec![Vec::new(); indices.len()],
        }
    }

    /// The tracked indices.
    pub fn indices(&self) -> &[usize] {
        &self.indices
    }

    /// Appends this round's values from the global parameter vector.
    ///
    /// # Panics
    ///
    /// Panics if any tracked index is out of range.
    pub fn observe(&mut self, params: &[f32]) {
        assert!(self.indices.iter().all(|&idx| idx < params.len()), "tracked index out of range");
        for (trajectory, &idx) in self.trajectories.iter_mut().zip(&self.indices) {
            trajectory.extend(params.get(idx));
        }
    }

    /// Number of rounds observed.
    pub fn rounds(&self) -> usize {
        self.trajectories.first().map_or(0, Vec::len)
    }

    /// The trajectory of the `k`-th tracked parameter (empty if `k` is out
    /// of range).
    pub fn trajectory(&self, k: usize) -> &[f32] {
        self.trajectories.get(k).map_or(&[], Vec::as_slice)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_selected_indices_per_round() {
        let mut r = TrajectoryRecorder::new(&[0, 2]);
        r.observe(&[1.0, 9.0, 3.0]);
        r.observe(&[1.5, 9.0, 3.5]);
        assert_eq!(r.rounds(), 2);
        assert_eq!(r.trajectory(0), &[1.0, 1.5]);
        assert_eq!(r.trajectory(1), &[3.0, 3.5]);
        assert_eq!(r.indices(), &[0, 2]);
    }

    #[test]
    fn empty_recorder_has_zero_rounds() {
        let r = TrajectoryRecorder::new(&[]);
        assert_eq!(r.rounds(), 0);
    }

    #[test]
    #[should_panic]
    fn out_of_range_index_panics() {
        let mut r = TrajectoryRecorder::new(&[5]);
        r.observe(&[0.0]);
    }
}
