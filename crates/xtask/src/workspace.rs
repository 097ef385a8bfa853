//! Workspace discovery: finds the workspace root and enumerates every `.rs`
//! source the lint pass must cover, classifying each as library (examples
//! included) or test/bench code so rules can scope themselves correctly.

use std::path::{Path, PathBuf};

/// What kind of compilation target a source file belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SourceKind {
    /// `src/` of a crate, or `examples/` — full rule set applies.
    Library,
    /// `tests/` or `benches/` — exempt from the library-only rules.
    TestOrBench,
}

/// A source file scheduled for linting.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Absolute path on disk.
    pub abs: PathBuf,
    /// Workspace-relative path used in diagnostics and the allow file.
    pub rel: String,
    /// Target classification.
    pub kind: SourceKind,
}

/// Walks up from `start` to the directory whose `Cargo.toml` declares
/// `[workspace]`.
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start);
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.lines().any(|l| l.trim() == "[workspace]") {
                return Some(d.to_path_buf());
            }
        }
        dir = d.parent();
    }
    None
}

/// Collects every lintable `.rs` file under the workspace root: the root
/// crate's `src/`, `examples/`, `tests/`, and each member under `crates/`
/// (excluding the xtask crate itself — it lints the product, not the tool —
/// and any `target/` build output).
pub fn collect_sources(root: &Path) -> std::io::Result<Vec<SourceFile>> {
    let mut out = Vec::new();
    for top in ["src", "examples", "tests", "benches"] {
        walk(&root.join(top), root, &mut out)?;
    }
    let crates = root.join("crates");
    if crates.is_dir() {
        let mut members: Vec<PathBuf> =
            std::fs::read_dir(&crates)?.filter_map(|e| e.ok().map(|e| e.path())).collect();
        members.sort();
        for member in members {
            if !member.is_dir() || member.file_name().is_some_and(|n| n == "xtask") {
                continue;
            }
            for sub in ["src", "examples", "tests", "benches"] {
                walk(&member.join(sub), root, &mut out)?;
            }
        }
    }
    out.sort_by(|a, b| a.rel.cmp(&b.rel));
    Ok(out)
}

/// Recursively gathers `.rs` files under `dir` (no-op when absent).
fn walk(dir: &Path, root: &Path, out: &mut Vec<SourceFile>) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        if d.file_name().is_some_and(|n| n == "target") {
            continue;
        }
        for entry in std::fs::read_dir(&d)? {
            let path = entry?.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                let rel = path
                    .strip_prefix(root)
                    .unwrap_or(&path)
                    .components()
                    .map(|c| c.as_os_str().to_string_lossy())
                    .collect::<Vec<_>>()
                    .join("/");
                out.push(SourceFile { abs: path, kind: classify(&rel), rel });
            }
        }
    }
    Ok(())
}

/// Classifies a workspace-relative path into a [`SourceKind`].
fn classify(rel: &str) -> SourceKind {
    let parts: Vec<&str> = rel.split('/').collect();
    // Either `<dir>/...` at the root or `crates/<member>/<dir>/...`.
    let dir = if parts.first() == Some(&"crates") { parts.get(2) } else { parts.first() };
    match dir.copied() {
        Some("tests") | Some("benches") => SourceKind::TestOrBench,
        _ => SourceKind::Library,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_distinguishes_targets() {
        assert_eq!(classify("src/lib.rs"), SourceKind::Library);
        assert_eq!(classify("crates/fl/src/experiment.rs"), SourceKind::Library);
        assert_eq!(classify("examples/quickstart.rs"), SourceKind::Library);
        assert_eq!(classify("crates/nn/tests/conv_reference.rs"), SourceKind::TestOrBench);
        assert_eq!(classify("crates/bench/benches/tensor_ops.rs"), SourceKind::TestOrBench);
        assert_eq!(classify("tests/integration.rs"), SourceKind::TestOrBench);
    }
}
