//! The checks that guard the accounting and concurrency hazards, run on the
//! seeded fixtures in `crates/xtask/fixtures/` (each names its finding's
//! line): clippy, with the workspace's `clippy.toml`, and rustc.

// Tests may unwrap: a panic here IS the failure report.
#![allow(clippy::unwrap_used)]

use fedsu_xtask::benchcheck::{parse_json, Json};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};

const ARITH: &str = "clippy::arithmetic_side_effects";
const LIB: &[&str] = &["--crate-type", "lib"];

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn field<'a>(j: &'a Json, key: &str) -> Option<&'a Json> {
    match j {
        Json::Obj(m) => m.get(key),
        _ => None,
    }
}

/// Compiles fixture `name` with `clippy-driver` under the workspace's
/// `clippy.toml`; returns each coded diagnostic as `code@line` and its text.
fn compile(name: &str, args: &[&str]) -> Vec<(String, String)> {
    static RUN: AtomicUsize = AtomicUsize::new(0);
    let out = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("fixture{}.rmeta", RUN.fetch_add(1, Ordering::Relaxed)));
    let run = Command::new("clippy-driver")
        .args(["--edition", "2021", "--emit=metadata", "--error-format=json", "-o"])
        .arg(&out)
        .args(args)
        .arg(Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures").join(name))
        .env("CLIPPY_CONF_DIR", root())
        .output()
        .unwrap_or_else(|e| panic!("clippy-driver must run: {e}"));
    let text = String::from_utf8_lossy(&run.stderr);
    let found: Vec<(String, String)> = text
        .lines()
        .filter_map(|l| parse_json(l).ok())
        .filter_map(|d| {
            let Some(Json::Str(code)) = field(&d, "code").and_then(|c| field(c, "code")) else {
                return None;
            };
            let Some(Json::Arr(spans)) = field(&d, "spans") else { return None };
            let primary = spans.iter().find(|s| field(s, "is_primary") == Some(&Json::Bool(true)));
            let Some(Json::Num(line)) = primary.and_then(|s| field(s, "line_start")) else {
                return None;
            };
            let Some(Json::Str(rendered)) = field(&d, "rendered") else { return None };
            Some((format!("{code}@{line}"), rendered.clone()))
        })
        .collect();
    // A failed build must be explained by a coded error, not a crash.
    let errors = found.iter().any(|(_, r)| r.starts_with("error"));
    assert_eq!(run.status.success(), !errors, "{name}: {text}");
    found
}

fn sites(name: &str, args: &[&str]) -> Vec<String> {
    compile(name, args).into_iter().map(|(site, _)| site).collect()
}

#[test]
fn raw_strings_hide_hazard_text_from_every_rule() {
    assert_eq!(sites("lexer_raw_string.rs", LIB), [""; 0]);
}

#[test]
fn nested_block_comments_hide_hazard_text_from_every_rule() {
    assert_eq!(sites("lexer_nested_comment.rs", LIB), [""; 0]);
}

#[test]
fn doc_comments_hide_hazard_text_from_every_rule() {
    assert_eq!(sites("lexer_doc_comment.rs", LIB), [""; 0]);
}

#[test]
fn cfg_test_spans_are_exempt_in_library_files() {
    assert_eq!(sites("lexer_cfg_test.rs", &["--test"]), [""; 0]);
    // The arithmetic is there: only the gate's `not(test)` exempts it.
    let forced = sites("lexer_cfg_test.rs", &["--test", "-D", ARITH]);
    assert_eq!(forced, [format!("{ARITH}@8")]);
}

#[test]
fn unchecked_arith_fires_exactly_once_on_the_bare_accumulation() {
    assert_eq!(sites("unchecked_arith.rs", LIB), [format!("{ARITH}@5")]);
    // The gate the fixture proves is the one the accounting crates carry.
    let gate = "#![cfg_attr(not(test), deny(clippy::arithmetic_side_effects))]";
    let libs = ["fl/src/lib.rs", "netsim/src/lib.rs", "transport/src/lib.rs"];
    for file in libs.into_iter().chain(["xtask/fixtures/unchecked_arith.rs"]) {
        let text = std::fs::read_to_string(root().join("crates").join(file)).unwrap();
        assert!(text.lines().any(|l| l == gate), "{file} must carry `{gate}`");
    }
}

#[test]
fn use_alias_is_resolved_to_the_hazardous_type() {
    assert_eq!(sites("use_alias.rs", LIB), ["clippy::disallowed_methods@5"]);
}

#[test]
fn channel_discipline_fires_on_blocking_recv_reachable_from_a_worker() {
    let found = compile("channel_worker_recv.rs", LIB);
    assert_eq!(found.len(), 1, "{found:?}");
    assert_eq!(found[0].0, "clippy::disallowed_methods@10");
    assert!(found[0].1.contains("wedges dispatch"), "clippy.toml's reason: {found:?}");
}

#[test]
fn channel_discipline_fires_on_send_after_close() {
    assert_eq!(sites("channel_send_after_close.rs", LIB), ["E0382@6"]);
}

#[test]
fn channel_discipline_is_silent_on_disciplined_shapes() {
    assert_eq!(sites("channel_negative.rs", LIB), [""; 0]);
}

#[test]
fn every_registered_rule_explains_itself() {
    let config = std::fs::read_to_string(root().join("clippy.toml")).unwrap();
    let entries: Vec<&str> = config.lines().filter(|l| l.contains("{ path = ")).collect();
    assert!(entries.iter().any(|e| e.contains("std::sync::mpsc::Receiver::recv")));
    for entry in entries {
        assert!(entry.contains("reason = \"") && !entry.contains("reason = \"\""), "{entry}");
    }
}

#[test]
fn removed_ratchet_flags_are_unknown_arguments() {
    for (args, said) in [
        (["lint", "--baseline"], "unknown subcommand `lint`"),
        (["lint", "--fix-baseline"], "unknown subcommand `lint`"),
        (["bench-check", "--fix-baseline"], "unknown bench-check argument `--fix-baseline`"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_fedsu-xtask")).args(args).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(said), "{args:?}: {stderr}");
    }
}
