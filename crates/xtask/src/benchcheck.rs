//! Kernel-bench perf ratchet: `cargo run -p fedsu-xtask -- bench-check`.
//!
//! Compares a freshly produced `BENCH_kernels.json` (see
//! `crates/bench/benches/kernels.rs`) against the checked-in copy and fails
//! when any configuration regressed by more than the tolerance.
//!
//! Raw GFLOP/s are machine-speed-dependent, so the comparison is on
//! **within-run normalized ratios**: each row's GFLOP/s divided by the same
//! size block's `serial_reference` GFLOP/s from the same run. The naive
//! reference kernel is untouched by optimization work, so the ratio isolates
//! "how much faster than naive is this configuration on this machine" — a
//! quantity that transfers between the laptop that produced the baseline and
//! the CI runner that checks it. A block is keyed by its kernel (`nn`, `ta`,
//! `tb`; a block without one is `nn`) and its `(m, k, n)`. Blocks present in
//! only one file are skipped (a quick-scale baseline deliberately includes
//! the smoke sizes so a smoke-scale CI run still has points to compare), but
//! sharing **no** block is an error.
//!
//! The gate only tightens: a run that fails here
//! either gets fixed or the baseline is consciously regenerated with
//! `--fix` and the diff reviewed.
//!
//! Std-only, like the rest of the crate: the JSON subset the bench emits is
//! parsed by the small recursive-descent reader in this module.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Default regression tolerance: a normalized ratio may fall at most this
/// fraction below the baseline before the gate fails.
pub const DEFAULT_TOLERANCE: f64 = 0.10;

/// Minimal JSON value for the bench schema.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (parsed as `f64`; the schema needs no more).
    Num(f64),
    /// String (escapes decoded).
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object; insertion order is irrelevant to the checker.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }
}

/// Parses a JSON document (the subset the bench emits: no exotic number
/// forms beyond `-`, digits, `.`, `e`; `\uXXXX` escapes decoded via
/// `char::from_u32` with the replacement char for unpaired surrogates).
///
/// # Errors
///
/// Returns a byte-offset-tagged message on malformed input or trailing
/// non-whitespace.
pub fn parse_json(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("byte {pos}: trailing content after JSON value"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while bytes.get(*pos).is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r')) {
        *pos += 1;
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{') => parse_obj(bytes, pos),
        Some(b'[') => parse_arr(bytes, pos),
        Some(b'"') => parse_str(bytes, pos).map(Json::Str),
        Some(b't') => parse_lit(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(bytes, pos, "null", Json::Null),
        Some(_) => parse_num(bytes, pos),
        None => Err("unexpected end of input".to_string()),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes.get(*pos..*pos + lit.len()) == Some(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("byte {}: expected `{lit}`", *pos))
    }
}

fn parse_num(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while bytes
        .get(*pos)
        .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(bytes.get(start..*pos).unwrap_or_default())
        .map_err(|_| format!("byte {start}: invalid number bytes"))?;
    text.parse::<f64>().map(Json::Num).map_err(|_| format!("byte {start}: invalid number `{text}`"))
}

fn parse_str(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    *pos += 1; // opening quote
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes.get(*pos + 1..*pos + 5).ok_or("truncated \\u escape")?;
                        let hex = std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?;
                        let code =
                            u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape digits")?;
                        out.push(char::from_u32(code).unwrap_or(char::REPLACEMENT_CHARACTER));
                        *pos += 4;
                    }
                    other => return Err(format!("byte {}: bad escape {other:?}", *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Advance over one UTF-8 scalar (the input is a &str, so
                // boundaries are valid).
                let rest = bytes.get(*pos..).unwrap_or_default();
                let step = std::str::from_utf8(rest)
                    .ok()
                    .and_then(|s| s.chars().next())
                    .map_or(1, char::len_utf8);
                let chunk = bytes.get(*pos..*pos + step).unwrap_or_default();
                out.push_str(std::str::from_utf8(chunk).unwrap_or("\u{fffd}"));
                *pos += step;
            }
            None => return Err("unterminated string".to_string()),
        }
    }
}

fn parse_arr(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    *pos += 1; // '['
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("byte {}: expected `,` or `]`", *pos)),
        }
    }
}

fn parse_obj(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    *pos += 1; // '{'
    let mut map = BTreeMap::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(map));
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(format!("byte {}: expected object key", *pos));
        }
        let key = parse_str(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(format!("byte {}: expected `:`", *pos));
        }
        *pos += 1;
        let value = parse_value(bytes, pos)?;
        map.insert(key, value);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(map));
            }
            _ => return Err(format!("byte {}: expected `,` or `}}`", *pos)),
        }
    }
}

/// One size block distilled from the bench JSON: normalized GFLOP/s ratios
/// per row label (`serial_reference` excluded — it is the denominator).
#[derive(Debug, PartialEq)]
pub struct SizeRatios {
    /// Which matmul the block times (`nn`, `ta` or `tb`).
    pub kernel: String,
    /// `(m, k, n)` of the block.
    pub dims: (u64, u64, u64),
    /// Row label → (`gflops(label) / gflops(serial_reference)` from the same
    /// run, the SIMD level the row ran at).
    pub ratios: BTreeMap<String, (f64, String)>,
}

/// Distilled bench report.
#[derive(Debug, PartialEq)]
pub struct BenchReport {
    /// Whether every configuration matched the reference bit-for-bit.
    pub all_bit_identical: bool,
    /// The SIMD level the run resolved (`scalar`/`avx2`).
    pub simd_level: String,
    /// Per-size normalized ratios, in file order.
    pub sizes: Vec<SizeRatios>,
}

/// Extracts the ratio table from a parsed bench document.
///
/// # Errors
///
/// Returns a message when the document is missing required fields, a size
/// block has no positive `serial_reference` GFLOP/s, or a row is malformed.
pub fn distill(doc: &Json) -> Result<BenchReport, String> {
    if doc.get("bench").and_then(Json::as_str) != Some("kernels") {
        return Err("not a kernels bench report (`bench` != \"kernels\")".to_string());
    }
    let all_bit_identical = match doc.get("all_bit_identical") {
        Some(Json::Bool(v)) => *v,
        _ => return Err("missing `all_bit_identical`".to_string()),
    };
    let simd_level =
        doc.get("simd_level").and_then(Json::as_str).unwrap_or("unknown").to_string();
    let blocks = doc.get("sizes").and_then(Json::as_arr).ok_or("missing `sizes` array")?;
    let mut sizes = Vec::new();
    for block in blocks {
        let dim = |key: &str| -> Result<u64, String> {
            block
                .get(key)
                .and_then(Json::as_f64)
                .map(|v| v as u64)
                .ok_or_else(|| format!("size block missing `{key}`"))
        };
        let dims = (dim("m")?, dim("k")?, dim("n")?);
        let kernel = block.get("kernel").and_then(Json::as_str).unwrap_or("nn").to_string();
        let rows = block.get("rows").and_then(Json::as_arr).ok_or("size block missing `rows`")?;
        let mut gflops = BTreeMap::new();
        for row in rows {
            let label = row
                .get("label")
                .and_then(Json::as_str)
                .ok_or("row missing `label`")?
                .to_string();
            let g = row.get("gflops").and_then(Json::as_f64).ok_or("row missing `gflops`")?;
            let simd = row.get("simd").and_then(Json::as_str).unwrap_or("unknown").to_string();
            gflops.insert(label, (g, simd));
        }
        let serial = gflops
            .get("serial_reference")
            .map(|&(g, _)| g)
            .filter(|&g| g > 0.0)
            .ok_or_else(|| format!("size {dims:?}: no positive serial_reference row"))?;
        let ratios = gflops
            .into_iter()
            .filter(|(label, _)| label != "serial_reference")
            .map(|(label, (g, simd))| (label, (g / serial, simd)))
            .collect();
        sizes.push(SizeRatios { kernel, dims, ratios });
    }
    Ok(BenchReport { all_bit_identical, simd_level, sizes })
}

/// Outcome of comparing a current report against the baseline.
#[derive(Debug)]
pub struct CheckOutcome {
    /// Human-readable per-configuration lines.
    pub report: String,
    /// Regression messages (gate fails when non-empty).
    pub regressions: Vec<String>,
    /// Number of (size, label) pairs compared.
    pub compared: usize,
    /// (size, label) pairs skipped because the row ran at a different SIMD
    /// level than the baseline (e.g. a `FEDSU_SIMD=off` fallback run checked
    /// against an AVX2 baseline: its scalar rows still gate, its `simd_*`
    /// rows are incomparable by construction).
    pub skipped_simd_mismatch: usize,
}

/// Compares `current` against `baseline` with the given tolerance.
///
/// # Errors
///
/// Returns a message when the current run is not bit-identical or the two
/// reports share no comparable (size, label) pair.
pub fn check(
    baseline: &BenchReport,
    current: &BenchReport,
    tolerance: f64,
) -> Result<CheckOutcome, String> {
    if !current.all_bit_identical {
        return Err("current run reports bit divergence (all_bit_identical=false)".to_string());
    }
    let mut report = String::new();
    let mut regressions = Vec::new();
    let mut compared = 0usize;
    let mut skipped_simd_mismatch = 0usize;
    for cur_size in &current.sizes {
        let Some(base_size) = baseline
            .sizes
            .iter()
            .find(|s| s.kernel == cur_size.kernel && s.dims == cur_size.dims)
        else {
            continue;
        };
        for (label, (cur_ratio, cur_simd)) in &cur_size.ratios {
            let Some((base_ratio, base_simd)) = base_size.ratios.get(label) else {
                continue;
            };
            let (cur_ratio, base_ratio) = (*cur_ratio, *base_ratio);
            if cur_simd != base_simd {
                skipped_simd_mismatch += 1;
                continue;
            }
            compared += 1;
            let floor = base_ratio * (1.0 - tolerance);
            let ok = cur_ratio >= floor;
            let (kernel, (m, k, n)) = (&cur_size.kernel, cur_size.dims);
            let _ = writeln!(
                report,
                "  {kernel} {m}x{k}x{n} {label:<18} ratio {cur_ratio:>6.3} vs baseline {base_ratio:>6.3} \
                 (floor {floor:>6.3}) {}",
                if ok { "ok" } else { "REGRESSED" }
            );
            if !ok {
                regressions.push(format!(
                    "{kernel} {m}x{k}x{n} {label}: normalized ratio {cur_ratio:.3} fell below \
                     {floor:.3} (baseline {base_ratio:.3}, tolerance {:.0}%)",
                    tolerance * 100.0
                ));
            }
        }
    }
    if compared == 0 {
        return Err(
            "baseline and current share no comparable (size, label) pair — wrong scale, \
             schema drift, or no common SIMD level"
                .to_string(),
        );
    }
    Ok(CheckOutcome { report, regressions, compared, skipped_simd_mismatch })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mini_doc_at(serial: f64, blocked: f64, simd: f64, level: &str) -> String {
        format!(
            "{{\"bench\":\"kernels\",\"scale\":\"Smoke\",\"hardware_threads\":1,\
             \"simd_level\":\"{level}\",\"all_bit_identical\":true,\"sizes\":[\
             {{\"m\":32,\"k\":32,\"n\":32,\"rows\":[\
             {{\"label\":\"serial_reference\",\"threads\":1,\"simd\":\"scalar\",\"gflops\":{serial}}},\
             {{\"label\":\"blocked_scalar\",\"threads\":1,\"simd\":\"scalar\",\"gflops\":{blocked}}},\
             {{\"label\":\"simd_serial\",\"threads\":1,\"simd\":\"{level}\",\"gflops\":{simd}}}]}}]}}"
        )
    }

    fn mini_doc(serial: f64, blocked: f64, simd: f64) -> String {
        mini_doc_at(serial, blocked, simd, "avx2")
    }

    #[test]
    fn parses_and_distills_the_bench_schema() {
        let doc = parse_json(&mini_doc(10.0, 12.0, 25.0)).expect("parse");
        let report = distill(&doc).expect("distill");
        assert!(report.all_bit_identical);
        assert_eq!(report.simd_level, "avx2");
        assert_eq!(report.sizes.len(), 1);
        let ratios = &report.sizes[0].ratios;
        assert_eq!(ratios.get("blocked_scalar"), Some(&(1.2, "scalar".to_string())));
        assert_eq!(ratios.get("simd_serial"), Some(&(2.5, "avx2".to_string())));
        assert!(!ratios.contains_key("serial_reference"));
    }

    #[test]
    fn json_reader_handles_escapes_nesting_and_rejects_trailing() {
        let v = parse_json("{\"a\\n\\u0041\": [1, -2.5e1, true, null, \"x\"]}").expect("parse");
        let arr = v.get("a\nA").and_then(Json::as_arr).expect("key decoded");
        assert_eq!(arr[0].as_f64(), Some(1.0));
        assert_eq!(arr[1].as_f64(), Some(-25.0));
        assert_eq!(arr[2], Json::Bool(true));
        assert_eq!(arr[3], Json::Null);
        assert!(parse_json("{} junk").is_err());
        assert!(parse_json("{\"open\":").is_err());
        assert!(parse_json("[1 2]").is_err());
    }

    #[test]
    fn identical_reports_pass_and_slower_machines_pass() {
        let base = distill(&parse_json(&mini_doc(10.0, 12.0, 25.0)).expect("p")).expect("d");
        // Same ratios at half the absolute speed: a slower CI machine.
        let cur = distill(&parse_json(&mini_doc(5.0, 6.0, 12.5)).expect("p")).expect("d");
        let out = check(&base, &cur, DEFAULT_TOLERANCE).expect("check");
        assert!(out.regressions.is_empty(), "{:?}", out.regressions);
        assert_eq!(out.compared, 2);
    }

    #[test]
    fn ratio_drop_beyond_tolerance_regresses() {
        let base = distill(&parse_json(&mini_doc(10.0, 12.0, 25.0)).expect("p")).expect("d");
        // simd_serial ratio 2.5 → 2.0: a 20% drop, outside 10%.
        let cur = distill(&parse_json(&mini_doc(10.0, 12.0, 20.0)).expect("p")).expect("d");
        let out = check(&base, &cur, DEFAULT_TOLERANCE).expect("check");
        assert_eq!(out.regressions.len(), 1);
        assert!(out.regressions[0].contains("simd_serial"), "{}", out.regressions[0]);
        // Within tolerance: 2.5 → 2.3 is an 8% drop.
        let cur = distill(&parse_json(&mini_doc(10.0, 12.0, 23.0)).expect("p")).expect("d");
        let out = check(&base, &cur, DEFAULT_TOLERANCE).expect("check");
        assert!(out.regressions.is_empty());
    }

    #[test]
    fn scalar_fallback_run_gates_only_its_comparable_rows() {
        let base = distill(&parse_json(&mini_doc(10.0, 12.0, 25.0)).expect("p")).expect("d");
        // FEDSU_SIMD=off run: simd_serial ran at scalar level and is much
        // slower — incomparable against the AVX2 baseline row, so skipped;
        // blocked_scalar still gates (and passes here).
        let cur =
            distill(&parse_json(&mini_doc_at(10.0, 11.5, 11.8, "scalar")).expect("p")).expect("d");
        let out = check(&base, &cur, DEFAULT_TOLERANCE).expect("check");
        assert!(out.regressions.is_empty(), "{:?}", out.regressions);
        assert_eq!(out.compared, 1);
        assert_eq!(out.skipped_simd_mismatch, 1);
    }

    #[test]
    fn bit_divergence_and_disjoint_sizes_are_errors() {
        let base = distill(&parse_json(&mini_doc(10.0, 12.0, 25.0)).expect("p")).expect("d");
        let diverged = mini_doc(10.0, 12.0, 25.0).replace(
            "\"all_bit_identical\":true",
            "\"all_bit_identical\":false",
        );
        let cur = distill(&parse_json(&diverged).expect("p")).expect("d");
        assert!(check(&base, &cur, DEFAULT_TOLERANCE).is_err());

        let other = mini_doc(10.0, 12.0, 25.0).replace("\"m\":32,\"k\":32,\"n\":32", "\"m\":64,\"k\":64,\"n\":64");
        let cur = distill(&parse_json(&other).expect("p")).expect("d");
        assert!(check(&base, &cur, DEFAULT_TOLERANCE).is_err());
    }

    #[test]
    fn blocks_compare_only_within_their_kernel() {
        // A block without a `kernel` key is `nn`, so old baselines still gate.
        let base = distill(&parse_json(&mini_doc(10.0, 12.0, 25.0)).expect("p")).expect("d");
        assert_eq!(base.sizes[0].kernel, "nn");
        let ta = |simd: f64| {
            mini_doc(10.0, 12.0, simd).replace("{\"m\":32", "{\"kernel\":\"ta\",\"m\":32")
        };
        // An `Aᵀ·B` block at the same dims, however slow, is not an `A·B` one.
        let cur = distill(&parse_json(&ta(1.0)).expect("p")).expect("d");
        assert_eq!(cur.sizes[0].kernel, "ta");
        assert!(check(&base, &cur, DEFAULT_TOLERANCE).is_err(), "no comparable pair");
        // Against its own kind it gates like any other block.
        let base = distill(&parse_json(&ta(25.0)).expect("p")).expect("d");
        let out = check(&base, &cur, DEFAULT_TOLERANCE).expect("check");
        assert_eq!(out.regressions.len(), 1);
        assert!(out.regressions[0].starts_with("ta 32x32x32 simd_serial"), "{}", out.regressions[0]);
    }
}
