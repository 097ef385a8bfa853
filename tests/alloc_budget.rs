//! Counting-allocator cross-validation of the allocation-flow lint rules.
//!
//! The static rules (`hot-alloc` and friends, ratcheted in
//! `crates/xtask/lint-baseline.toml`) say *where* the round loop allocates;
//! the two ceilings below say *how much* it is allowed to.
//! This test runs a small sweep with the counting `#[global_allocator]`
//! armed (`--features alloc-stats`) and asserts that every steady round —
//! all rounds after the first, which still pays one-time warm-up costs —
//! stays within the ceilings. A hot-path copy regression (say,
//! reintroducing the per-round global `.to_vec()` or the per-retransmission
//! frame re-encode) blows the allocs ceiling long before it shows up in a
//! wall-clock benchmark.
//!
//! Without the `alloc-stats` feature the allocator is the plain `System`
//! and the counters never move; the test then only checks the plumbing
//! (round log covers every round) and skips the ceiling assertions.

// Tests and benches may unwrap: a panic here IS the failure report
// (mirrors allow-unwrap-in-tests in clippy.toml for non-#[test] helpers).
#![allow(clippy::unwrap_used)]

use fedsu_repro::fl::DefenseConfig;
use fedsu_repro::scenario::{ModelKind, Scenario, StrategyKind};
use fedsu_repro::tensor::alloc_stats;
use std::sync::Arc;

const ROUNDS: usize = 6;

/// Per-round ceilings for a steady round (which measures ~370 allocations
/// and ~80 KiB in this sweep): tight enough that a reintroduced per-round
/// model copy trips this test, loose enough to absorb eval-round jitter.
/// Lower them by hand as the hot path sheds copies.
const MAX_ROUND_ALLOCS: u64 = 2000;
const MAX_ROUND_BYTES: u64 = 524288;

/// One test, not several: the alloc-stats switch and the process counters
/// are global, so phases must run in a fixed order, and kernel threads are
/// pinned to one so worker-pool bookkeeping never bleeds into round deltas.
#[test]
fn steady_rounds_stay_within_the_checked_in_budget() {
    fedsu_repro::tensor::set_kernel_threads(1);
    alloc_stats::set_enabled(true);

    let mut e = Scenario::new(ModelKind::Mlp)
        .clients(4)
        .rounds(ROUNDS)
        .samples_per_class(16)
        .seed(7)
        .build(StrategyKind::FedSuCalibrated)
        .unwrap();
    let result = e.run(None).unwrap();
    alloc_stats::set_enabled(false);

    // `run` installs no thread policy of its own, and the guard around its
    // training threads hands back the caller's: the pin above held.
    assert_eq!(fedsu_repro::tensor::kernel_threads_setting(), 1, "run must leave the pin alone");
    assert_eq!(result.rounds.len(), ROUNDS, "sweep must complete every round");
    let rounds = alloc_stats::rounds();
    assert_eq!(rounds.len(), ROUNDS, "round log must cover every round: {rounds:?}");
    for (i, r) in rounds.iter().enumerate() {
        assert_eq!(r.round, i, "round log must be in round order");
    }

    if !alloc_stats::counting_compiled() {
        // Plain System allocator: the deltas are all zero by construction;
        // the ceilings are meaningless without the counting feature.
        assert!(rounds.iter().all(|r| r.allocs == 0 && r.bytes == 0));
        eprintln!("alloc_budget: skipping ceiling assertions (alloc-stats feature off)");
        return;
    }

    // Round 0 pays one-time warm-up (lazy buffers reaching their final
    // capacity, checkpoint init); every later round is steady state and
    // must fit the budget.
    for r in rounds.iter().skip(1) {
        assert!(
            r.allocs <= MAX_ROUND_ALLOCS,
            "round {} made {} allocations, the ceiling is {MAX_ROUND_ALLOCS}; a hot-path \
             copy crept back in",
            r.round,
            r.allocs
        );
        assert!(
            r.bytes <= MAX_ROUND_BYTES,
            "round {} requested {} bytes, the ceiling is {MAX_ROUND_BYTES}",
            r.round,
            r.bytes
        );
    }

    // The scratch-buffer reuse in the round loop means steady-state traffic
    // must not trend upward: the last steady round may not allocate more
    // than double the first steady round (generous — catches only genuine
    // per-round leaks, not jitter from eval rounds).
    let first = &rounds[1];
    let last = &rounds[ROUNDS - 1];
    assert!(
        last.allocs <= first.allocs.saturating_mul(2),
        "per-round allocation count is trending upward: {first:?} -> {last:?}"
    );

    round_nobody_attends_is_marked();
}

/// A round that availability empties leaves through the same exit as every
/// other round, so the round log has an entry for it too. Runs from the one
/// test above: the log is process-global.
fn round_nobody_attends_is_marked() {
    alloc_stats::set_enabled(true);
    let result = Scenario::new(ModelKind::Mlp)
        .clients(4)
        .rounds(ROUNDS)
        .samples_per_class(16)
        .seed(7)
        .defense(DefenseConfig::on())
        .build_with_availability(StrategyKind::FedSuCalibrated, Some(Arc::new(|_, round| round != 2)))
        .unwrap()
        .run(None)
        .unwrap();
    alloc_stats::set_enabled(false);
    assert_eq!(result.rounds[2].participants, 0, "round 2 must be the empty one");
    let marked: Vec<usize> = alloc_stats::rounds().iter().map(|r| r.round).collect();
    assert_eq!(marked, (0..ROUNDS).collect::<Vec<_>>(), "every round is marked, the empty one too");
}
