//! The [`SyncStrategy`] trait — the plug-point where FedAvg, CMFL, APF and
//! FedSU implement their synchronization rules.

/// Accounting returned by [`SyncStrategy::aggregate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AggregateOutcome {
    /// Scalars each client downloads after aggregation (broadcast volume).
    pub broadcast_scalars: usize,
    /// Scalars realistically synchronized on the upload path this round,
    /// summed over distinct scalar indices (error-feedback payloads count).
    pub synced_scalars: usize,
}

/// A federated synchronization strategy.
///
/// The runtime calls, once per round and in this order:
///
/// 1. [`prepare_uploads_into`](SyncStrategy::prepare_uploads_into) with
///    *every* client's locally-trained flat parameters — the strategy
///    decides what each client would put on the wire (the round timer needs
///    the volumes before participant selection);
/// 2. [`aggregate`](SyncStrategy::aggregate) with the ids of the earliest-
///    returning clients — the strategy mutates `global` into the new global
///    parameters that every client then loads.
///
/// State the paper replicates identically on each client (masks, EMAs,
/// no-checking periods) lives once inside the strategy object; genuinely
/// per-client state (e.g. FedSU's local error accumulators) must be indexed
/// by client id. See the crate docs for why this is faithful.
pub trait SyncStrategy: Send {
    /// Strategy display name (used in experiment records and tables).
    fn name(&self) -> &str;

    /// Phase A: decides per-client upload volumes for this round, writing
    /// one entry per client into `out` (cleared first).
    ///
    /// `locals[i]` is client `i`'s flat parameter vector after local
    /// training; `global` is the current global vector. Each entry is the
    /// number of *scalars* that client uploads (the runtime converts to
    /// bytes). The runtime passes a round-scratch buffer so steady rounds
    /// stay allocation-free. Implementations may cache per-client decisions
    /// for use in [`aggregate`](SyncStrategy::aggregate).
    fn prepare_uploads_into(
        &mut self,
        round: usize,
        locals: &[Vec<f32>],
        global: &[f32],
        out: &mut Vec<u64>,
    );

    /// Phase B: aggregates the selected clients and writes the new global
    /// parameters into `global` (which every client replica then loads).
    ///
    /// `active[i]` says whether client `i` participated this round at all
    /// (participant dynamicity); `selected ⊆ active`. Strategies with
    /// per-client state (e.g. FedSU's local error accumulators) must only
    /// touch state of active clients. An empty `selected` means nothing
    /// usable arrived: hold `global` and every piece of state, and report
    /// nothing synced and nothing to broadcast — the same as not being
    /// called, which is what the runtime does with such a round.
    fn aggregate(
        &mut self,
        round: usize,
        locals: &[Vec<f32>],
        selected: &[usize],
        active: &[bool],
        global: &mut [f32],
    ) -> AggregateOutcome;

    /// Resident bytes of strategy-internal state (Table II memory
    /// accounting). Defaults to zero for stateless strategies.
    fn state_bytes(&self) -> usize {
        0
    }

    /// Serialized state a newly-joining client must download in addition to
    /// the model (the paper's dynamicity protocol, Sec. V). `None` means the
    /// strategy needs no extra join state.
    fn join_state(&self) -> Option<Vec<u8>> {
        None
    }

    /// Per-scalar fraction of elapsed rounds in which the scalar skipped
    /// synchronization (drives the paper's Fig. 7 CDF). `None` if the
    /// strategy does not track it.
    fn skip_fractions(&self) -> Option<Vec<f64>> {
        None
    }

    /// Downcast hook so harnesses can inspect strategy-specific state after
    /// a run (e.g. FedSU's mask-transition events for Fig. 6). Strategies
    /// that expose such state override this to return `self`.
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        None
    }
}

/// Averages the selected clients' values for every scalar into `global`
/// (plain FedAvg aggregation — shared by several strategies). An empty
/// `selected` holds `global`, as the [`SyncStrategy::aggregate`] contract
/// says.
///
/// # Panics
///
/// Panics if any selected local vector is missing or its length differs
/// from `global`.
pub fn average_into(locals: &[Vec<f32>], selected: &[usize], global: &mut [f32]) {
    if selected.is_empty() {
        return;
    }
    let inv = 1.0 / selected.len() as f32;
    for g in global.iter_mut() {
        *g = 0.0;
    }
    for &c in selected {
        let local: &[f32] = locals.get(c).map_or(&[], Vec::as_slice);
        assert_eq!(local.len(), global.len(), "local/global length mismatch");
        for (g, &v) in global.iter_mut().zip(local) {
            *g += v * inv;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn average_into_means_selected_only() {
        let locals = vec![vec![1.0, 2.0], vec![3.0, 4.0], vec![100.0, 100.0]];
        let mut global = vec![0.0, 0.0];
        average_into(&locals, &[0, 1], &mut global);
        assert_eq!(global, vec![2.0, 3.0]);
    }

    #[test]
    fn empty_selection_holds_the_global() {
        let before = [1.5f32, -0.0, f32::MIN_POSITIVE];
        let mut g = before.to_vec();
        average_into(&[vec![9.0, 9.0, 9.0]], &[], &mut g);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&g), bits(&before));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        let mut g = vec![0.0, 0.0];
        average_into(&[vec![1.0]], &[0], &mut g);
    }

    #[test]
    fn aggregate_outcome_is_copy_and_serializable() {
        let o = AggregateOutcome { broadcast_scalars: 1, synced_scalars: 2 };
        let o2 = o;
        assert_eq!(o, o2);
    }
}
