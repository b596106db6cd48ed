//! Compare two `BENCH_<suite>.json` artifacts and flag regressions.
//!
//! The workspace records a perf trajectory per commit (see [`crate::harness`]
//! and EXPERIMENTS.md, "Performance benches"). This module is the reader
//! side: parse two bench documents — a *baseline* (usually the committed
//! artifact) and a *candidate* (a fresh run) — match their entries by name,
//! and report every measurement that got slower, every audit check whose
//! cost or residual blew up, and every verdict that flipped from `pass`.
//!
//! Comparison rules (all tunable through [`DiffOptions`]):
//!
//! * a timing quantile (`min/mean/median/p95/max_ns`) regresses when the
//!   candidate exceeds `base × (1 + threshold)` **and** grows by more than
//!   `floor_ns` absolute nanoseconds (the floor suppresses noise on
//!   sub-microsecond rows where ±40% is timer jitter);
//! * an `audit_timing` check regresses on the same rule applied to its
//!   `elapsed_ns`, keyed by `entry/check` name;
//! * a check's residual regresses when it grows past both
//!   `base × residual_factor` and the `residual_floor` — residuals live on
//!   a log scale, so the factor defaults to an order of magnitude;
//! * an audit verdict that was `pass` in the baseline and is anything else
//!   in the candidate is **always** a regression, no thresholds;
//! * a named `metrics` value (derived scalars like the fleet k-sweep's
//!   degradation ratio) regresses when it drifts
//!   relatively by more than `metric_rel_tol`, or when a baseline metric
//!   goes missing / non-finite — metrics are deterministic functions of the
//!   committed traces, so *any* real drift means the algorithm changed;
//! * entries present in the baseline but missing from the candidate are
//!   regressions (a silently dropped bench reads as "covered" when it
//!   isn't); new entries are reported but never fail the diff;
//! * rows where **both** documents carry the deterministic
//!   [`WORK_ITEMS_METRIC`] metric also get a normalised per-item
//!   throughput delta (`median_ns / work_items`) in
//!   [`DiffReport::throughput`] — informational only, since the quantile
//!   comparison already gates the timing; `work_items` itself is exempt
//!   from the metric gate (it is a workload size, and normalisation is
//!   how soaks of different lengths are compared);
//! * `attribution` blocks (where a separate timed pass spent its wall
//!   time) are checked on read — every term present and non-negative, and
//!   calls + timer + other equal to the wall time — but never diffed: they
//!   explain a quantile regression, and carry one pass's jitter.
//!
//! The JSON reader is a minimal recursive-descent parser scoped to what the
//! harness emits (objects, arrays, strings, numbers, `null`, booleans) —
//! the workspace is dependency-free by policy, so there is no serde.

use std::collections::BTreeMap;
use std::fmt;

// ---------------------------------------------------------------------------
// Minimal JSON value model + parser
// ---------------------------------------------------------------------------

/// A parsed JSON value. `Number` keeps `f64` — bench files only carry
/// nanosecond counts (exact in `f64` below 2^53) and residuals.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number.
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Json>),
    /// An object; `BTreeMap` keeps iteration deterministic.
    Object(BTreeMap<String, Json>),
}

impl Json {
    /// Parse a complete JSON document (trailing whitespace allowed).
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(value)
    }

    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(map) => map.get(key),
            _ => None,
        }
    }

    fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(v) => Some(*v),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(v) => Some(v),
            _ => None,
        }
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), String> {
    if *pos < bytes.len() && bytes[*pos] == b {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", b as char, *pos))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => parse_string(bytes, pos).map(Json::String),
        Some(b't') => parse_lit(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
        None => Err("unexpected end of input".into()),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("bad literal at byte {}", *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    text.parse::<f64>().map(Json::Number).map_err(|e| format!("bad number {text:?}: {e}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
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
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                            16,
                        )
                        .map_err(|e| e.to_string())?;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy a full UTF-8 scalar, not a byte.
                let rest = std::str::from_utf8(&bytes[*pos..]).map_err(|e| e.to_string())?;
                let c = rest.chars().next().ok_or("unterminated string")?;
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Array(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Array(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(bytes, pos, b'{')?;
    let mut map = BTreeMap::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Object(map));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        map.insert(key, parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Object(map));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

// ---------------------------------------------------------------------------
// Bench document model
// ---------------------------------------------------------------------------

/// One `audit_timing.checks[]` row.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckRow {
    /// Check name (e.g. `energy-recomputed`).
    pub name: String,
    /// Wall-clock nanoseconds the check took.
    pub elapsed_ns: u64,
    /// Worst residual; `None` when serialised as `null` (non-finite).
    pub residual: Option<f64>,
}

/// One `results[]` entry of a bench document.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchEntry {
    /// Benchmark id, e.g. `algorithm_c/100`.
    pub name: String,
    /// Audit verdict string (`pass` / `fail` / `skipped`).
    pub audit: String,
    /// Total audit nanoseconds.
    pub audit_total_ns: u64,
    /// Per-check audit rows.
    pub checks: Vec<CheckRow>,
    /// The five timing quantiles, in `QUANTILES` order.
    pub quantiles: [u64; 5],
    /// Named derived scalars (`metrics` object); `None` values were
    /// serialised as `null` (non-finite). Metric-free rows omit the object
    /// and parse with an empty map.
    pub metrics: BTreeMap<String, Option<f64>>,
}

/// The quantile keys of a bench entry, in document order.
pub const QUANTILES: [&str; 5] = ["min_ns", "mean_ns", "median_ns", "p95_ns", "max_ns"];

/// Schema tags this reader understands. A document with any other
/// `ncss-bench/N` tag is **schema drift**: written by a newer (or older)
/// harness whose rows this reader would misinterpret. The diff refuses it
/// with a named error (exit 2 in `bench-diff` — tool error, not a perf
/// regression) instead of guessing.
pub const KNOWN_SCHEMAS: [&str; 1] = [crate::harness::SCHEMA];

/// A parsed `BENCH_<suite>.json` document.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchDoc {
    /// Suite name (`algorithms`, `opt`, …).
    pub suite: String,
    /// Schema tag (one of [`KNOWN_SCHEMAS`]).
    pub schema: String,
    /// All measurements, in file order.
    pub entries: Vec<BenchEntry>,
}

fn req_u64(obj: &Json, key: &str, ctx: &str) -> Result<u64, String> {
    let v = obj
        .get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("{ctx}: missing numeric {key:?}"))?;
    if !(v >= 0.0 && v.is_finite()) {
        return Err(format!("{ctx}: {key:?} is not a non-negative finite number"));
    }
    Ok(v as u64)
}

fn req_str(obj: &Json, key: &str, ctx: &str) -> Result<String, String> {
    obj.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("{ctx}: missing string {key:?}"))
}

/// Check an `attribution` block: every term present and non-negative, and
/// the calls' net time plus the timer cost plus the rest equal to the wall
/// time, to the nanosecond.
fn check_attribution(block: &Json, ctx: &str) -> Result<(), String> {
    let ctx = format!("{ctx}: attribution");
    req_u64(block, "events", &ctx)?;
    let wall = req_u64(block, "wall_ns", &ctx)?;
    let timer = req_u64(block, "timer_ns", &ctx)?;
    let other = req_u64(block, "other_ns", &ctx)?;
    let Some(Json::Object(calls)) = block.get("calls") else {
        return Err(format!("{ctx}: missing \"calls\" object"));
    };
    let mut calls_ns = 0u128;
    for (name, call) in calls {
        let cctx = format!("{ctx} call {name:?}");
        req_u64(call, "count", &cctx)?;
        calls_ns += u128::from(req_u64(call, "ns", &cctx)?);
    }
    let sum = calls_ns + u128::from(timer) + u128::from(other);
    if sum != u128::from(wall) {
        return Err(format!(
            "{ctx} does not reconcile: calls {calls_ns} + timer {timer} + other {other} \
             = {sum} ns, but wall_ns is {wall}"
        ));
    }
    Ok(())
}

impl BenchDoc {
    /// Parse a bench JSON document, validating the schema tag.
    pub fn parse(text: &str) -> Result<Self, String> {
        let root = Json::parse(text)?;
        let suite = req_str(&root, "suite", "document")?;
        let schema = req_str(&root, "schema", "document")?;
        if !schema.starts_with("ncss-bench/") {
            return Err(format!("unrecognised schema {schema:?} (want ncss-bench/*)"));
        }
        if !KNOWN_SCHEMAS.contains(&schema.as_str()) {
            return Err(format!(
                "schema drift: document declares {schema:?} but this reader only \
                 understands {} — regenerate the artifact with the matching \
                 harness, or rebuild bench-diff",
                KNOWN_SCHEMAS.join(", ")
            ));
        }
        let mut entries = Vec::new();
        for (i, entry) in root
            .get("results")
            .and_then(Json::as_array)
            .ok_or("document: missing \"results\" array")?
            .iter()
            .enumerate()
        {
            let ctx = format!("results[{i}]");
            let name = req_str(entry, "name", &ctx)?;
            let audit = req_str(entry, "audit", &ctx)?;
            let timing = entry
                .get("audit_timing")
                .ok_or_else(|| format!("{ctx} ({name:?}): missing \"audit_timing\" block"))?;
            let audit_total_ns = req_u64(timing, "total_ns", &ctx)?;
            let mut checks = Vec::new();
            for (k, row) in timing
                .get("checks")
                .and_then(Json::as_array)
                .ok_or_else(|| format!("{ctx}: missing \"checks\" array"))?
                .iter()
                .enumerate()
            {
                let rctx = format!("{ctx}.checks[{k}]");
                checks.push(CheckRow {
                    name: req_str(row, "name", &rctx)?,
                    elapsed_ns: req_u64(row, "elapsed_ns", &rctx)?,
                    residual: match row.get("residual") {
                        Some(Json::Null) | None => None,
                        Some(v) => v.as_f64(),
                    },
                });
            }
            let mut quantiles = [0u64; 5];
            for (q, key) in QUANTILES.iter().enumerate() {
                quantiles[q] = req_u64(entry, key, &ctx)?;
            }
            // `metrics` is omitted entirely on metric-free rows, so absence
            // is not an error.
            let mut metrics = BTreeMap::new();
            match entry.get("metrics") {
                None => {}
                Some(Json::Object(map)) => {
                    for (k, v) in map {
                        let value = match v {
                            Json::Null => None,
                            Json::Number(x) => Some(*x),
                            _ => {
                                return Err(format!(
                                    "{ctx} ({name:?}): metric {k:?} is not a number or null"
                                ))
                            }
                        };
                        metrics.insert(k.clone(), value);
                    }
                }
                Some(_) => {
                    return Err(format!("{ctx} ({name:?}): \"metrics\" is not an object"))
                }
            }
            // `attribution` is omitted entirely on rows without an
            // attribution pass, so absence is not an error.
            if let Some(block) = entry.get("attribution") {
                check_attribution(block, &format!("{ctx} ({name:?})"))?;
            }
            entries.push(BenchEntry { name, audit, audit_total_ns, checks, quantiles, metrics });
        }
        Ok(Self { suite, schema, entries })
    }

    fn by_name(&self) -> BTreeMap<&str, &BenchEntry> {
        self.entries.iter().map(|e| (e.name.as_str(), e)).collect()
    }
}

// ---------------------------------------------------------------------------
// Diffing
// ---------------------------------------------------------------------------

/// Thresholds controlling what counts as a regression.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiffOptions {
    /// Relative slowdown needed to flag a timing (0.25 = 25% slower).
    pub threshold: f64,
    /// Absolute floor: a timing must also grow by this many nanoseconds.
    /// Suppresses jitter on sub-microsecond rows.
    pub floor_ns: u64,
    /// Multiplicative growth needed to flag a residual (residuals live on a
    /// log scale, so the default is one order of magnitude).
    pub residual_factor: f64,
    /// Residuals below this are noise regardless of growth.
    pub residual_floor: f64,
    /// Relative drift allowed on a named `metrics` value before it flags.
    /// Metrics are deterministic functions of committed traces, so the
    /// default is float-comparison slack, not a perf threshold.
    pub metric_rel_tol: f64,
}

impl Default for DiffOptions {
    fn default() -> Self {
        Self {
            threshold: 0.25,
            floor_ns: 50_000,
            residual_factor: 10.0,
            residual_floor: 1e-9,
            metric_rel_tol: 1e-6,
        }
    }
}

/// What kind of regression a [`Finding`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A timing quantile of the measurement itself got slower.
    Quantile,
    /// An audit check's `elapsed_ns` got slower.
    CheckTime,
    /// An audit check's residual grew.
    Residual,
    /// The audit verdict flipped away from `pass` (always fatal).
    Verdict,
    /// A named `metrics` value drifted past `metric_rel_tol`, went
    /// non-finite, or disappeared — a derived result (e.g. a degradation
    /// ratio) changed, not just a timing.
    Metric,
    /// A per-item throughput delta (informational, never a regression —
    /// see [`DiffReport::throughput`]).
    Throughput,
    /// A baseline entry or check is missing from the candidate.
    Missing,
}

/// One flagged difference between baseline and candidate.
#[derive(Debug, Clone, PartialEq)]
pub struct Finding {
    /// What regressed.
    pub kind: Kind,
    /// `entry` or `entry/check` or `entry/check@quantile` locator.
    pub what: String,
    /// Baseline value (ns or residual; 0 for verdict rows).
    pub base: f64,
    /// Candidate value.
    pub new: f64,
    /// Human-readable one-liner.
    pub detail: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:<52} {}", self.what, self.detail)
    }
}

/// The metric name under which benches record their deterministic item
/// count (events processed, jobs dispatched). When *both* rows of a diff
/// carry it, [`diff`] also reports the per-item throughput delta — the
/// normalised number a human wants when comparing soak rows.
pub const WORK_ITEMS_METRIC: &str = "work_items";

/// The outcome of comparing two bench documents.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DiffReport {
    /// Everything that regressed; non-empty means the diff fails.
    pub regressions: Vec<Finding>,
    /// Timings that improved past the same threshold (informational).
    pub improvements: Vec<Finding>,
    /// Per-item throughput deltas (`median_ns / work_items`) for rows
    /// where both documents carry the [`WORK_ITEMS_METRIC`] metric.
    /// Informational: the quantile comparison already gates the timing,
    /// and `work_items` itself is exempt from the metric gate (it is a
    /// workload size — a short soak against a long baseline is exactly
    /// the comparison this normalisation exists for).
    pub throughput: Vec<Finding>,
    /// Candidate entries with no baseline counterpart (informational).
    pub added: Vec<String>,
    /// Number of (entry, quantile) and (entry, check) pairs compared.
    pub compared: usize,
}

impl DiffReport {
    /// True when no regression was found.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.regressions.is_empty()
    }
}

fn slower(base: u64, new: u64, opts: &DiffOptions) -> bool {
    new.saturating_sub(base) > opts.floor_ns
        && (new as f64) > (base as f64) * (1.0 + opts.threshold)
}

fn faster(base: u64, new: u64, opts: &DiffOptions) -> bool {
    slower(new, base, opts)
}

/// Compare `new` against `base`, entry by entry.
#[must_use]
pub fn diff(base: &BenchDoc, new: &BenchDoc, opts: &DiffOptions) -> DiffReport {
    let mut report = DiffReport::default();
    let new_by_name = new.by_name();
    let base_names: std::collections::BTreeSet<&str> =
        base.entries.iter().map(|e| e.name.as_str()).collect();
    for entry in &new.entries {
        if !base_names.contains(entry.name.as_str()) {
            report.added.push(entry.name.clone());
        }
    }

    for b in &base.entries {
        let Some(n) = new_by_name.get(b.name.as_str()) else {
            report.regressions.push(Finding {
                kind: Kind::Missing,
                what: b.name.clone(),
                base: 0.0,
                new: 0.0,
                detail: "present in baseline, missing from candidate".into(),
            });
            continue;
        };

        // Verdict: pass must stay pass. (skipped→skipped etc. is fine;
        // fail→pass is an improvement, not a regression.)
        if b.audit == "pass" && n.audit != "pass" {
            report.regressions.push(Finding {
                kind: Kind::Verdict,
                what: b.name.clone(),
                base: 0.0,
                new: 0.0,
                detail: format!("audit verdict pass -> {}", n.audit),
            });
        }

        // Timing quantiles.
        for (q, key) in QUANTILES.iter().enumerate() {
            report.compared += 1;
            let (bv, nv) = (b.quantiles[q], n.quantiles[q]);
            let finding = |kind| Finding {
                kind,
                what: format!("{}@{}", b.name, key),
                base: bv as f64,
                new: nv as f64,
                detail: format!("{bv} ns -> {nv} ns ({:+.1}%)", rel_change(bv, nv)),
            };
            if slower(bv, nv, opts) {
                report.regressions.push(finding(Kind::Quantile));
            } else if faster(bv, nv, opts) {
                report.improvements.push(finding(Kind::Quantile));
            }
        }

        // Audit checks, keyed by name.
        let new_checks: BTreeMap<&str, &CheckRow> =
            n.checks.iter().map(|c| (c.name.as_str(), c)).collect();
        for bc in &b.checks {
            report.compared += 1;
            let Some(nc) = new_checks.get(bc.name.as_str()) else {
                report.regressions.push(Finding {
                    kind: Kind::Missing,
                    what: format!("{}/{}", b.name, bc.name),
                    base: 0.0,
                    new: 0.0,
                    detail: "audit check present in baseline, missing from candidate".into(),
                });
                continue;
            };
            let finding = |kind, detail| Finding {
                kind,
                what: format!("{}/{}", b.name, bc.name),
                base: bc.elapsed_ns as f64,
                new: nc.elapsed_ns as f64,
                detail,
            };
            if slower(bc.elapsed_ns, nc.elapsed_ns, opts) {
                report.regressions.push(finding(
                    Kind::CheckTime,
                    format!(
                        "{} ns -> {} ns ({:+.1}%)",
                        bc.elapsed_ns,
                        nc.elapsed_ns,
                        rel_change(bc.elapsed_ns, nc.elapsed_ns)
                    ),
                ));
            } else if faster(bc.elapsed_ns, nc.elapsed_ns, opts) {
                report.improvements.push(finding(
                    Kind::CheckTime,
                    format!(
                        "{} ns -> {} ns ({:+.1}%)",
                        bc.elapsed_ns,
                        nc.elapsed_ns,
                        rel_change(bc.elapsed_ns, nc.elapsed_ns)
                    ),
                ));
            }
            // Residuals: null (non-finite) in the candidate is always a
            // regression if the baseline had a finite one.
            match (bc.residual, nc.residual) {
                (Some(br), None) => report.regressions.push(Finding {
                    kind: Kind::Residual,
                    what: format!("{}/{}", b.name, bc.name),
                    base: br,
                    new: f64::INFINITY,
                    detail: format!("residual {br:.3e} -> non-finite"),
                }),
                (Some(br), Some(nr)) => {
                    if nr > opts.residual_floor && nr > br.max(opts.residual_floor) * opts.residual_factor
                    {
                        report.regressions.push(Finding {
                            kind: Kind::Residual,
                            what: format!("{}/{}", b.name, bc.name),
                            base: br,
                            new: nr,
                            detail: format!("residual {br:.3e} -> {nr:.3e}"),
                        });
                    }
                }
                (None, _) => {}
            }
        }

        // Named metrics: deterministic derived scalars, compared to float
        // slack. A metric the baseline has and the candidate lost (or that
        // went non-finite) is flagged; candidate-only metrics are new
        // coverage and pass silently, like added entries. `work_items` is
        // the one exception: it is a workload *size*, not a derived scalar,
        // and pinning it would forbid diffing a short verification soak
        // against the committed full-length baseline — the normalised
        // throughput report below is how differing counts are compared.
        for (key, bv) in &b.metrics {
            if key == WORK_ITEMS_METRIC {
                continue;
            }
            report.compared += 1;
            let what = format!("{}#{}", b.name, key);
            match (bv, n.metrics.get(key)) {
                (Some(bm), Some(Some(nm))) => {
                    let scale = bm.abs().max(1e-12);
                    if ((nm - bm) / scale).abs() > opts.metric_rel_tol {
                        report.regressions.push(Finding {
                            kind: Kind::Metric,
                            what,
                            base: *bm,
                            new: *nm,
                            detail: format!("metric {bm:.6e} -> {nm:.6e}"),
                        });
                    }
                }
                (Some(bm), Some(None)) => report.regressions.push(Finding {
                    kind: Kind::Metric,
                    what,
                    base: *bm,
                    new: f64::INFINITY,
                    detail: format!("metric {bm:.6e} -> non-finite"),
                }),
                (Some(bm), None) => report.regressions.push(Finding {
                    kind: Kind::Metric,
                    what,
                    base: *bm,
                    new: 0.0,
                    detail: "metric present in baseline, missing from candidate".into(),
                }),
                // A baseline null never comparable; skip.
                (None, _) => {}
            }
        }

        // Throughput: when both rows carry the deterministic work_items
        // metric, report the normalised ns/item delta on the median.
        if let (Some(Some(bw)), Some(Some(nw))) =
            (b.metrics.get(WORK_ITEMS_METRIC), n.metrics.get(WORK_ITEMS_METRIC))
        {
            if *bw > 0.0 && *nw > 0.0 {
                let bt = b.quantiles[2] as f64 / bw;
                let nt = n.quantiles[2] as f64 / nw;
                report.throughput.push(Finding {
                    kind: Kind::Throughput,
                    what: format!("{}@ns_per_item", b.name),
                    base: bt,
                    new: nt,
                    detail: format!(
                        "{bt:.1} ns/item -> {nt:.1} ns/item ({:+.1}%, {} items)",
                        (nt / bt - 1.0) * 100.0,
                        nw,
                    ),
                });
            }
        }
    }
    report
}

fn rel_change(base: u64, new: u64) -> f64 {
    if base == 0 {
        if new == 0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (new as f64 / base as f64 - 1.0) * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(entries: &str) -> String {
        format!("{{\"suite\":\"t\",\"schema\":\"ncss-bench/6\",\"results\":[{entries}]}}")
    }

    fn entry(name: &str, median: u64, check_ns: u64, residual: &str, audit: &str) -> String {
        format!(
            "{{\"name\":\"{name}\",\"audit\":\"{audit}\",\
             \"audit_timing\":{{\"total_ns\":{check_ns},\
             \"checks\":[{{\"name\":\"energy-recomputed\",\"elapsed_ns\":{check_ns},\"residual\":{residual}}}]}},\
             \"warmup\":3,\"iters\":30,\"min_ns\":{median},\"mean_ns\":{median},\"median_ns\":{median},\
             \"p95_ns\":{median},\"max_ns\":{median}}}"
        )
    }

    #[test]
    fn parser_round_trips_harness_output() {
        let text = doc(&entry("algorithm_c/100", 19228, 1917324, "5.2e-16", "pass"));
        let parsed = BenchDoc::parse(&text).unwrap();
        assert_eq!(parsed.suite, "t");
        assert_eq!(parsed.entries.len(), 1);
        let e = &parsed.entries[0];
        assert_eq!(e.name, "algorithm_c/100");
        assert_eq!(e.audit, "pass");
        assert_eq!(e.quantiles, [19228; 5]);
        assert_eq!(e.checks[0].elapsed_ns, 1917324);
        assert!((e.checks[0].residual.unwrap() - 5.2e-16).abs() < 1e-30);
    }

    #[test]
    fn parser_handles_null_residuals_escapes_and_rejects_garbage() {
        let text = doc(&entry("x/1", 10, 5, "null", "pass"));
        let parsed = BenchDoc::parse(&text).unwrap();
        assert_eq!(parsed.entries[0].checks[0].residual, None);

        assert_eq!(Json::parse("\"a\\nb\\u0041\"").unwrap(), Json::String("a\nbA".into()));
        assert!(Json::parse("{\"a\":1,}").is_err());
        assert!(Json::parse("[1 2]").is_err());
        assert!(BenchDoc::parse("{\"suite\":\"t\",\"schema\":\"other/1\",\"results\":[]}").is_err());
    }

    #[test]
    fn unknown_schema_version_is_named_drift_not_a_guess() {
        let err = BenchDoc::parse(
            "{\"suite\":\"t\",\"schema\":\"ncss-bench/9\",\"results\":[]}",
        )
        .unwrap_err();
        assert!(err.contains("schema drift"), "{err}");
        assert!(err.contains("ncss-bench/9"), "{err}");
        assert!(err.contains("ncss-bench/6"), "{err}");
        // Same for older tags: no committed artifact needs them.
        for old in ["ncss-bench/1", "ncss-bench/4", "ncss-bench/5"] {
            let text = format!("{{\"suite\":\"t\",\"schema\":\"{old}\",\"results\":[]}}");
            let err = BenchDoc::parse(&text).unwrap_err();
            assert!(err.contains("schema drift"), "{err}");
        }
    }

    #[test]
    fn missing_audit_timing_is_a_named_error_not_a_panic() {
        let text = doc("{\"name\":\"a/1\",\"audit\":\"pass\",\
                        \"min_ns\":1,\"mean_ns\":1,\"median_ns\":1,\"p95_ns\":1,\"max_ns\":1}");
        let err = BenchDoc::parse(&text).unwrap_err();
        assert!(err.contains("audit_timing"), "{err}");
        assert!(err.contains("a/1"), "{err}");
        // A non-object audit_timing is also an error, not a panic.
        let text = doc("{\"name\":\"a/1\",\"audit\":\"pass\",\
                        \"audit_timing\":7,\"min_ns\":1,\"mean_ns\":1,\"median_ns\":1,\
                        \"p95_ns\":1,\"max_ns\":1}");
        assert!(BenchDoc::parse(&text).is_err());
    }

    #[test]
    fn self_compare_reports_zero_regressions() {
        let text = doc(&format!(
            "{},{}",
            entry("a/1", 1000, 500, "1e-15", "pass"),
            entry("b/2", 2_000_000, 900_000, "3e-14", "skipped")
        ));
        let base = BenchDoc::parse(&text).unwrap();
        let report = diff(&base, &base, &DiffOptions::default());
        assert!(report.passed(), "{:?}", report.regressions);
        assert!(report.improvements.is_empty());
        assert!(report.compared > 0);
    }

    #[test]
    fn slowdowns_past_threshold_and_floor_are_flagged() {
        let base = BenchDoc::parse(&doc(&entry("a/1", 1_000_000, 800_000, "1e-15", "pass"))).unwrap();
        // 2x slower on every quantile and on the check: all flagged.
        let new = BenchDoc::parse(&doc(&entry("a/1", 2_000_000, 1_600_000, "1e-15", "pass"))).unwrap();
        let report = diff(&base, &new, &DiffOptions::default());
        assert_eq!(report.regressions.iter().filter(|f| f.kind == Kind::Quantile).count(), 5);
        assert_eq!(report.regressions.iter().filter(|f| f.kind == Kind::CheckTime).count(), 1);
        // Same slowdown below the absolute floor: suppressed as jitter.
        let base = BenchDoc::parse(&doc(&entry("a/1", 1_000, 800, "1e-15", "pass"))).unwrap();
        let new = BenchDoc::parse(&doc(&entry("a/1", 2_000, 1_600, "1e-15", "pass"))).unwrap();
        assert!(diff(&base, &new, &DiffOptions::default()).passed());
        // ...unless the floor is lowered.
        let tight = DiffOptions { floor_ns: 100, ..DiffOptions::default() };
        assert!(!diff(&base, &new, &tight).passed());
        // Improvements are informational, not failures.
        let report = diff(&new, &base, &tight);
        assert!(report.passed());
        assert!(!report.improvements.is_empty());
    }

    #[test]
    fn verdict_flip_and_residual_blowup_always_flagged() {
        let base = BenchDoc::parse(&doc(&entry("a/1", 1000, 500, "1e-15", "pass"))).unwrap();
        let flipped = BenchDoc::parse(&doc(&entry("a/1", 1000, 500, "1e-15", "fail"))).unwrap();
        let report = diff(&base, &flipped, &DiffOptions::default());
        assert_eq!(report.regressions.len(), 1);
        assert_eq!(report.regressions[0].kind, Kind::Verdict);

        // Residual 1e-15 -> 1e-6: past the floor and the factor.
        let blown = BenchDoc::parse(&doc(&entry("a/1", 1000, 500, "1e-6", "pass"))).unwrap();
        let report = diff(&base, &blown, &DiffOptions::default());
        assert_eq!(report.regressions.len(), 1);
        assert_eq!(report.regressions[0].kind, Kind::Residual);
        // Residual 1e-15 -> 1e-13: grew 100x but still under the noise
        // floor — not flagged.
        let tiny = BenchDoc::parse(&doc(&entry("a/1", 1000, 500, "1e-13", "pass"))).unwrap();
        assert!(diff(&base, &tiny, &DiffOptions::default()).passed());
        // Finite -> null is always a regression.
        let gone = BenchDoc::parse(&doc(&entry("a/1", 1000, 500, "null", "pass"))).unwrap();
        let report = diff(&base, &gone, &DiffOptions::default());
        assert_eq!(report.regressions[0].kind, Kind::Residual);
    }

    /// A passing row with `extra` fields (metrics, attribution) appended.
    fn entry_extra(name: &str, median: u64, extra: &str) -> String {
        format!(
            "{{\"name\":\"{name}\",\"audit\":\"pass\",\
             \"audit_timing\":{{\"total_ns\":500,\
             \"checks\":[{{\"name\":\"energy-recomputed\",\"elapsed_ns\":500,\"residual\":1e-15}}]}},\
             \"warmup\":3,\"iters\":30,\"min_ns\":{median},\"mean_ns\":{median},\"median_ns\":{median},\
             \"p95_ns\":{median},\"max_ns\":{median}{extra}}}"
        )
    }

    #[test]
    fn metrics_parse_and_default_empty() {
        // A row with metrics (including a null one) parses.
        let metrics = ",\"metrics\":{\"ratio\":4.5,\"bound\":null}";
        let text = doc(&entry_extra("fleet/k64", 1000, metrics));
        let parsed = BenchDoc::parse(&text).unwrap();
        let m = &parsed.entries[0].metrics;
        assert_eq!(m.get("ratio"), Some(&Some(4.5)));
        assert_eq!(m.get("bound"), Some(&None));
        // Metric-free rows parse to empty maps.
        let plain = BenchDoc::parse(&doc(&entry_extra("fleet/k64", 1000, ""))).unwrap();
        assert!(plain.entries[0].metrics.is_empty());
        // Malformed metrics are named errors.
        let bad = doc(&entry_extra("fleet/k64", 1000, ",\"metrics\":{\"ratio\":\"big\"}"));
        let err = BenchDoc::parse(&bad).unwrap_err();
        assert!(err.contains("ratio"), "{err}");
        let bad = doc(&entry_extra("fleet/k64", 1000, ",\"metrics\":[1,2]"));
        assert!(BenchDoc::parse(&bad).is_err());
    }

    #[test]
    fn metric_drift_loss_and_nullification_are_regressions() {
        let base = BenchDoc::parse(&doc(&entry_extra(
            "fleet/k64",
            1000,
            ",\"metrics\":{\"ratio\":4.5,\"bound\":8.0}",
        )))
        .unwrap();
        // Identical metrics: clean.
        assert!(diff(&base, &base, &DiffOptions::default()).passed());
        // Sub-tolerance float noise: clean.
        let noisy = BenchDoc::parse(&doc(&entry_extra(
            "fleet/k64",
            1000,
            ",\"metrics\":{\"ratio\":4.5000000001,\"bound\":8.0}",
        )))
        .unwrap();
        assert!(diff(&base, &noisy, &DiffOptions::default()).passed());
        // Real drift on one metric: exactly one Metric finding.
        let drifted = BenchDoc::parse(&doc(&entry_extra(
            "fleet/k64",
            1000,
            ",\"metrics\":{\"ratio\":4.6,\"bound\":8.0}",
        )))
        .unwrap();
        let report = diff(&base, &drifted, &DiffOptions::default());
        assert_eq!(report.regressions.len(), 1);
        assert_eq!(report.regressions[0].kind, Kind::Metric);
        assert_eq!(report.regressions[0].what, "fleet/k64#ratio");
        // A metric that disappears or goes null is flagged too.
        let lost = BenchDoc::parse(&doc(&entry_extra(
            "fleet/k64",
            1000,
            ",\"metrics\":{\"bound\":8.0}",
        )))
        .unwrap();
        let report = diff(&base, &lost, &DiffOptions::default());
        assert_eq!(report.regressions.len(), 1);
        assert_eq!(report.regressions[0].kind, Kind::Metric);
        let nulled = BenchDoc::parse(&doc(&entry_extra(
            "fleet/k64",
            1000,
            ",\"metrics\":{\"ratio\":null,\"bound\":8.0}",
        )))
        .unwrap();
        let report = diff(&base, &nulled, &DiffOptions::default());
        assert_eq!(report.regressions.len(), 1);
        // Candidate-only metrics are new coverage, not failures; and a
        // metric-free baseline never flags a metric-carrying candidate.
        let report = diff(&lost, &base, &DiffOptions::default());
        assert!(report.passed(), "{:?}", report.regressions);
    }

    /// An attribution block with the given terms; 100 + 60 + 30 + 10 = 200
    /// reconciles.
    fn attribution(wall: &str, timer: &str, other: &str) -> String {
        format!(
            ",\"attribution\":{{\"events\":10,\"wall_ns\":{wall},\"timer_ns\":{timer},\
             \"other_ns\":{other},\"calls\":{{\"core.offer\":{{\"count\":10,\"ns\":100}},\
             \"sim.spill_drain\":{{\"count\":10,\"ns\":60}}}}}}"
        )
    }

    #[test]
    fn attribution_blocks_parse_only_when_they_reconcile() {
        let text = doc(&entry_extra("stream_c/soak", 1000, &attribution("200", "30", "10")));
        let parsed = BenchDoc::parse(&text).unwrap();
        assert_eq!(parsed.schema, "ncss-bench/6");
        assert_eq!(parsed.entries[0].name, "stream_c/soak");
        // Rows without the block parse too.
        assert!(BenchDoc::parse(&doc(&entry_extra("stream_c/soak", 1000, ""))).is_ok());
        // Off by one nanosecond: a named error.
        let bad = doc(&entry_extra("stream_c/soak", 1000, &attribution("200", "30", "11")));
        let err = BenchDoc::parse(&bad).unwrap_err();
        assert!(err.contains("stream_c/soak") && err.contains("does not reconcile"), "{err}");
        // A negative term, even one that makes the sum come out right.
        let bad = doc(&entry_extra("s/1", 1000, &attribution("200", "50", "-10")));
        let err = BenchDoc::parse(&bad).unwrap_err();
        assert!(err.contains("attribution") && err.contains("other_ns"), "{err}");
        // A missing term.
        let bad = doc(&entry_extra("s/1", 1000, &attribution("200", "30", "10")))
            .replace("\"events\":10,", "");
        let err = BenchDoc::parse(&bad).unwrap_err();
        assert!(err.contains("attribution") && err.contains("events"), "{err}");
        let bad = doc(&entry_extra("s/1", 1000, &attribution("200", "30", "10")))
            .replace("\"count\":10,\"ns\":60", "\"count\":10");
        let err = BenchDoc::parse(&bad).unwrap_err();
        assert!(err.contains("sim.spill_drain") && err.contains("ns"), "{err}");
        let bad = doc(&entry_extra("s/1", 1000, ",\"attribution\":{\"events\":1,\"wall_ns\":0,\
                                                  \"timer_ns\":0,\"other_ns\":0}"));
        let err = BenchDoc::parse(&bad).unwrap_err();
        assert!(err.contains("calls"), "{err}");
    }

    #[test]
    fn work_items_rows_report_throughput_deltas() {
        let base = BenchDoc::parse(&doc(&entry_extra(
            "stream_c/soak",
            850_000,
            ",\"metrics\":{\"work_items\":1e3}",
        )))
        .unwrap();
        let new = BenchDoc::parse(&doc(&entry_extra(
            "stream_c/soak",
            261_000,
            ",\"metrics\":{\"work_items\":1e3}",
        )))
        .unwrap();
        let report = diff(&base, &new, &DiffOptions::default());
        assert!(report.passed(), "faster is never a regression");
        assert_eq!(report.throughput.len(), 1);
        let t = &report.throughput[0];
        assert_eq!(t.kind, Kind::Throughput);
        assert_eq!(t.what, "stream_c/soak@ns_per_item");
        assert!((t.base - 850.0).abs() < 1e-9 && (t.new - 261.0).abs() < 1e-9, "{t:?}");
        assert!(t.detail.contains("ns/item"), "{}", t.detail);
        // A row without the metric on either side reports no throughput.
        let plain = BenchDoc::parse(&doc(&entry_extra("stream_c/soak", 850_000, ""))).unwrap();
        assert!(diff(&plain, &new, &DiffOptions::default()).throughput.is_empty());
        assert!(diff(&base, &plain, &DiffOptions::default()).throughput.is_empty());
    }

    #[test]
    fn work_items_is_exempt_from_the_metric_gate() {
        // A short verification soak (1e3 items) diffed against the full
        // committed baseline (1e7 items): the count difference must not be
        // a metric regression — the throughput delta is the comparison —
        // while any *other* metric still gates at float slack.
        let base = BenchDoc::parse(&doc(&entry_extra(
            "stream_c/soak",
            850_000,
            ",\"metrics\":{\"work_items\":1e7,\"jobs\":5e1}",
        )))
        .unwrap();
        let new = BenchDoc::parse(&doc(&entry_extra(
            "stream_c/soak",
            261_000,
            ",\"metrics\":{\"work_items\":1e3,\"jobs\":5e1}",
        )))
        .unwrap();
        let report = diff(&base, &new, &DiffOptions::default());
        assert!(report.passed(), "work_items drift flagged: {:?}", report.regressions);
        assert_eq!(report.throughput.len(), 1);

        let drifted = BenchDoc::parse(&doc(&entry_extra(
            "stream_c/soak",
            261_000,
            ",\"metrics\":{\"work_items\":1e3,\"jobs\":6e1}",
        )))
        .unwrap();
        let report = diff(&base, &drifted, &DiffOptions::default());
        assert!(!report.passed(), "a drifted real metric must still fail");
        assert!(report.regressions.iter().any(|f| f.what == "stream_c/soak#jobs"));
    }

    #[test]
    fn missing_entries_and_checks_are_regressions_added_are_not() {
        let base = BenchDoc::parse(&doc(&format!(
            "{},{}",
            entry("a/1", 1000, 500, "1e-15", "pass"),
            entry("b/2", 1000, 500, "1e-15", "pass")
        )))
        .unwrap();
        let new = BenchDoc::parse(&doc(&format!(
            "{},{}",
            entry("a/1", 1000, 500, "1e-15", "pass"),
            entry("c/3", 1000, 500, "1e-15", "pass")
        )))
        .unwrap();
        let report = diff(&base, &new, &DiffOptions::default());
        assert_eq!(report.regressions.len(), 1);
        assert_eq!(report.regressions[0].kind, Kind::Missing);
        assert_eq!(report.regressions[0].what, "b/2");
        assert_eq!(report.added, vec!["c/3".to_string()]);
    }
}
