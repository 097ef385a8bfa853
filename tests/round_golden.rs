//! Golden digests for the whole round loop, one test per exit, at the
//! process's SIMD level and guard switch (the rows and their literals live
//! in `golden/mod.rs`; `determinism.rs` runs the same rows under every
//! axis).
//!
//! One hostile scenario — dropouts, lossy uploads, on-the-wire corruption,
//! slowdowns, crashes, a leaving-and-rejoining client, a round deadline and
//! every server-side defense — is run under each of the six strategies.
//! Three further rows cover the exits the hostile scenario cannot reach:
//! the legacy clean path (defenses off), a round emptied by availability,
//! and a run in which every upload is lost.

// Tests and benches may unwrap: a panic here IS the failure report
// (mirrors allow-unwrap-in-tests in clippy.toml for non-#[test] helpers).
#![allow(clippy::unwrap_used)]

mod golden;

use fedsu_repro::fl::DefenseConfig;

#[test]
fn hostile_scenario_digests_match_the_pre_refactor_loop() {
    let rows = golden::hostile_rows();
    golden::check(&rows, None, "hostile scenario");
    // Without the deadline, seven of the 56 drops are not made.
    let no_deadline = golden::scenario().faults(golden::hostile_faults()).defense(DefenseConfig::on());
    for row in &rows {
        let (relaxed, _) = golden::run_digest(&no_deadline, row.strategy, Some(golden::churn()));
        assert_eq!(relaxed.total_dropped(), 49, "{}: seven drops are the deadline's", relaxed.strategy);
    }
}

#[test]
fn legacy_clean_path_digest_matches_the_pre_refactor_loop() {
    golden::check(&[golden::legacy_clean_row()], None, "legacy clean path");
}

#[test]
fn a_round_nobody_attends_is_recorded_through_the_one_exit() {
    golden::check(&[golden::empty_round_row()], None, "empty round");
}

#[test]
fn a_run_in_which_every_upload_is_lost_pays_for_downloads_only() {
    golden::check(&[golden::all_uploads_lost_row()], None, "every upload lost");
}
