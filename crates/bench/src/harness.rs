//! Minimal in-repo benchmark harness — the offline replacement for
//! Criterion.
//!
//! Each measurement runs `warmup` unrecorded iterations, then `iters`
//! timed iterations, and reports min / mean / median / p95 / max
//! wall-clock nanoseconds per iteration. Results print as an aligned
//! table and are appended to a `BENCH_<suite>.json` file in the current
//! directory (override with `NCSS_BENCH_DIR`), so the perf trajectory of
//! the hot paths can be recorded per commit. See EXPERIMENTS.md
//! ("Performance benches") for the JSON schema and how to read it.
//!
//! A row can also carry an `attribution` block from one extra pass run
//! with a [`BoundaryTimer`] on: net nanoseconds per call name plus the
//! subtracted timer cost and the untimed remainder, which sum to the
//! pass's wall time exactly.
//!
//! Environment knobs:
//! * `NCSS_BENCH_ITERS` — override every measurement's iteration count,
//! * `NCSS_BENCH_WARMUP` — override every measurement's warmup count.

use std::io::Write as _;
use std::time::Instant;

use ncss_audit::AuditReport;

/// Re-export of [`std::hint::black_box`] so benches don't reach into
/// `std::hint` themselves (Criterion's `black_box` had the same role).
pub use std::hint::black_box;

/// Audit verdict attached to a measurement: was the timed algorithm's
/// output independently checked (`ncss-audit`) before measurement?
///
/// Every `BENCH_*.json` entry carries one of these, so a regression that
/// makes an algorithm faster *by making it wrong* cannot slip through a
/// perf run unnoticed. [`Suite::finish`] fails the whole bench binary when
/// any verdict is [`AuditVerdict::Fail`] — after writing the JSON, so the
/// failing entry is on disk for inspection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AuditVerdict {
    /// The run was audited and every invariant held.
    Pass,
    /// The run was audited and at least one invariant was violated.
    Fail,
    /// No audit was attempted (micro-benches of non-algorithm code, or
    /// outputs with no schedule to check).
    #[default]
    Skipped,
}

impl AuditVerdict {
    /// Map an audit's boolean outcome (e.g. `CheckedRun::audit_passed`).
    #[must_use]
    pub fn from_passed(passed: bool) -> Self {
        if passed {
            Self::Pass
        } else {
            Self::Fail
        }
    }

    /// The JSON string value.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Self::Pass => "pass",
            Self::Fail => "fail",
            Self::Skipped => "skipped",
        }
    }
}

/// The schema tag every `BENCH_*.json` document carries.
pub const SCHEMA: &str = "ncss-bench/6";

/// One named check's cost and worst residual, copied from the audit that
/// gated a measurement — the `audit_timing.checks[]` rows of
/// `BENCH_*.json` (schema in EXPERIMENTS.md, "Performance benches").
#[derive(Debug, Clone, PartialEq)]
pub struct CheckTiming {
    /// The invariant's stable kebab-case name (e.g. `energy-recomputed`).
    pub name: String,
    /// Wall-clock nanoseconds the check took inside the audit.
    pub elapsed_ns: u64,
    /// Worst residual the check observed (serialised as `null` when
    /// non-finite, since JSON has no `inf`/NaN).
    pub residual: f64,
}

/// The audit's own cost, attached to every measurement: per-check timing
/// and residual magnitude plus the audit's total wall-time. Present on
/// every `BENCH_*.json` row — empty (`total_ns: 0`, no checks) when the
/// measurement was not audit-gated — so the perf trajectory of the
/// auditor itself is recorded alongside the algorithms it guards.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AuditTiming {
    /// Total wall-clock nanoseconds across all checks.
    pub total_ns: u64,
    /// One row per check, in the order the audit ran them.
    pub checks: Vec<CheckTiming>,
}

impl AuditTiming {
    /// Copy the timing and residual columns out of an [`AuditReport`].
    #[must_use]
    pub fn from_report(report: &AuditReport) -> Self {
        Self {
            total_ns: report.total_ns(),
            checks: report
                .checks
                .iter()
                .map(|c| CheckTiming {
                    name: c.name.to_string(),
                    elapsed_ns: c.elapsed_ns,
                    residual: c.residual,
                })
                .collect(),
        }
    }

    fn json(&self) -> String {
        let checks: Vec<String> = self
            .checks
            .iter()
            .map(|c| {
                format!(
                    "{{\"name\":{},\"elapsed_ns\":{},\"residual\":{}}}",
                    json_string(&c.name),
                    c.elapsed_ns,
                    json_f64(c.residual),
                )
            })
            .collect();
        format!("{{\"total_ns\":{},\"checks\":[{}]}}", self.total_ns, checks.join(","))
    }
}

/// JSON-safe float: JSON has no `inf`/NaN, so non-finite residuals
/// serialise as `null` (readers treat `null` as "off the scale").
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:e}")
    } else {
        "null".to_string()
    }
}

/// Times calls at their boundary: an `Instant` pair around each call, with
/// the calibrated cost of an empty pair subtracted, folded into a count and
/// a net total per call name.
///
/// Off, [`BoundaryTimer::time`] only runs the call, so one soak loop gives
/// both the timed pass (off) and the attribution pass (on).
#[derive(Debug)]
pub struct BoundaryTimer {
    enabled: bool,
    /// Median duration of an empty timed call, subtracted from each call.
    pair_ns: u64,
    calls: Vec<CallTotal>,
    /// Sum of what was subtracted.
    timer_ns: u64,
}

/// Handle to a call name registered with a [`BoundaryTimer`].
#[derive(Debug, Clone, Copy)]
pub struct CallId(usize);

/// Count and net nanoseconds of one call name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallTotal {
    /// The call's name, e.g. `core.offer`.
    pub name: &'static str,
    /// Calls timed.
    pub count: u64,
    /// Their total duration with the timer cost subtracted.
    pub net_ns: u64,
}

impl BoundaryTimer {
    /// A timer that runs calls without timing them.
    #[must_use]
    pub fn off() -> Self {
        Self { enabled: false, pair_ns: 0, calls: Vec::new(), timer_ns: 0 }
    }

    /// A timer that times every call, calibrated as the median duration of
    /// 200,000 empty timed calls in this process.
    #[must_use]
    pub fn on() -> Self {
        let mut samples: Vec<u64> = (0..200_000)
            .map(|_| {
                let t0 = Instant::now();
                black_box(());
                elapsed_ns(t0)
            })
            .collect();
        samples.sort_unstable();
        Self { enabled: true, pair_ns: samples[samples.len() / 2], ..Self::off() }
    }

    /// Find or add the call name `name`.
    pub fn register(&mut self, name: &'static str) -> CallId {
        let i = self.calls.iter().position(|c| c.name == name).unwrap_or_else(|| {
            self.calls.push(CallTotal { name, count: 0, net_ns: 0 });
            self.calls.len() - 1
        });
        CallId(i)
    }

    /// Run `f` as one call of `id`, timing it when the timer is on.
    #[inline]
    pub fn time<R>(&mut self, id: CallId, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let t0 = Instant::now();
        let r = f();
        let raw = elapsed_ns(t0);
        let net = raw.saturating_sub(self.pair_ns);
        self.timer_ns += raw - net;
        let c = &mut self.calls[id.0];
        c.count += 1;
        c.net_ns += net;
        r
    }

    /// The attribution of a pass of `events` events that took `wall_ns`
    /// and made every timed call: the calls were timed one after another
    /// inside it, so their raw durations (net plus subtracted) fit in the
    /// wall time.
    fn attribution(self, events: u64, wall_ns: u64) -> Attribution {
        let raw_ns = self.calls.iter().map(|c| c.net_ns).sum::<u64>() + self.timer_ns;
        let other_ns = wall_ns
            .checked_sub(raw_ns)
            .expect("timed calls lie inside the pass they were made in");
        Attribution { events, wall_ns, timer_ns: self.timer_ns, other_ns, calls: self.calls }
    }
}

fn elapsed_ns(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Where the wall time of one attribution pass went (`attribution` in
/// `BENCH_*.json`): the calls' net time, the timer cost subtracted from
/// them, and everything outside the timed calls, which sum to `wall_ns`
/// exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attribution {
    /// Events the pass ran (releases offered).
    pub events: u64,
    /// Wall time of the pass.
    pub wall_ns: u64,
    /// Timer cost subtracted from the calls.
    pub timer_ns: u64,
    /// Wall time outside the timed calls.
    pub other_ns: u64,
    /// Net time per call name, in registration order.
    pub calls: Vec<CallTotal>,
}

impl Attribution {
    fn json(&self, row: &str) -> String {
        let calls_ns: u64 = self.calls.iter().map(|c| c.net_ns).sum();
        assert_eq!(
            calls_ns + self.timer_ns + self.other_ns,
            self.wall_ns,
            "{row}: attribution does not reconcile with its wall time"
        );
        let calls: Vec<String> = self
            .calls
            .iter()
            .map(|c| format!("{}:{{\"count\":{},\"ns\":{}}}", json_string(c.name), c.count, c.net_ns))
            .collect();
        format!(
            "{{\"events\":{},\"wall_ns\":{},\"timer_ns\":{},\"other_ns\":{},\"calls\":{{{}}}}}",
            self.events,
            self.wall_ns,
            self.timer_ns,
            self.other_ns,
            calls.join(",")
        )
    }
}

/// One benchmark measurement: per-iteration wall-clock statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct Measurement {
    /// Benchmark id, e.g. `algorithm_c/100`.
    pub name: String,
    /// Audit verdict for the benched algorithm's output.
    pub audit: AuditVerdict,
    /// Per-check audit cost (empty when the audit was skipped).
    pub audit_timing: AuditTiming,
    /// Unrecorded warmup iterations that preceded timing.
    pub warmup: u32,
    /// Timed iterations.
    pub iters: u32,
    /// Fastest iteration, nanoseconds.
    pub min_ns: u64,
    /// Arithmetic mean, nanoseconds.
    pub mean_ns: u64,
    /// Median iteration, nanoseconds.
    pub median_ns: u64,
    /// 95th-percentile iteration, nanoseconds.
    pub p95_ns: u64,
    /// Slowest iteration, nanoseconds.
    pub max_ns: u64,
    /// Named scalar results the bench derived alongside the timing — e.g.
    /// the fleet k-sweep's measured degradation ratio next to the paper's
    /// `k^{1−1/α}` bound. Serialised as a `"metrics":{...}` object (schema
    /// `ncss-bench/4`) only when non-empty, so rows without metrics are
    /// byte-identical to the `ncss-bench/3` layout. `bench-diff` compares
    /// metrics by relative drift the way it compares residuals.
    pub metrics: Vec<(String, f64)>,
    /// Where the time of a separate pass with a [`BoundaryTimer`] on went
    /// ([`Suite::attribute`]); never the timed iterations, whose quantiles
    /// must stay free of timer cost. Serialised only when present.
    pub attribution: Option<Attribution>,
}

impl Measurement {
    fn json(&self) -> String {
        let metrics = if self.metrics.is_empty() {
            String::new()
        } else {
            let rows: Vec<String> = self
                .metrics
                .iter()
                .map(|(k, v)| format!("{}:{}", json_string(k), json_f64(*v)))
                .collect();
            format!(",\"metrics\":{{{}}}", rows.join(","))
        };
        let attribution = self
            .attribution
            .as_ref()
            .map_or_else(String::new, |a| format!(",\"attribution\":{}", a.json(&self.name)));
        format!(
            "{{\"name\":{},\"audit\":{},\"audit_timing\":{},\"warmup\":{},\"iters\":{},\
             \"min_ns\":{},\"mean_ns\":{},\"median_ns\":{},\"p95_ns\":{},\"max_ns\":{}{}{}}}",
            json_string(&self.name),
            json_string(self.audit.as_str()),
            self.audit_timing.json(),
            self.warmup,
            self.iters,
            self.min_ns,
            self.mean_ns,
            self.median_ns,
            self.p95_ns,
            self.max_ns,
            metrics,
            attribution,
        )
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Percentile by the nearest-rank method on a sorted slice.
fn percentile(sorted: &[u64], p: f64) -> u64 {
    debug_assert!(!sorted.is_empty());
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// A named collection of measurements, written out as one JSON file.
#[derive(Debug)]
pub struct Suite {
    name: String,
    env_warmup: Option<u32>,
    env_iters: Option<u32>,
    results: Vec<Measurement>,
}

impl Suite {
    /// New suite with default warmup 3 / iters 30 (env-overridable).
    #[must_use]
    pub fn new(name: &str) -> Self {
        let env = |key: &str| std::env::var(key).ok().and_then(|s| s.parse::<u32>().ok());
        Self {
            name: name.to_string(),
            env_warmup: env("NCSS_BENCH_WARMUP"),
            env_iters: env("NCSS_BENCH_ITERS"),
            results: Vec::new(),
        }
    }

    /// Measure `f` with the suite defaults (warmup 3, iters 30) and no
    /// audit verdict ([`AuditVerdict::Skipped`]).
    pub fn bench<F: FnMut()>(&mut self, name: &str, f: F) {
        self.bench_with(name, 3, 30, f);
    }

    /// Measure `f` with explicit warmup/iteration counts and no audit
    /// verdict. The `NCSS_BENCH_WARMUP` / `NCSS_BENCH_ITERS` env knobs
    /// override both counts globally so smoke runs can cut every bench
    /// short.
    pub fn bench_with<F: FnMut()>(&mut self, name: &str, warmup: u32, iters: u32, f: F) {
        self.bench_audited_with(name, AuditVerdict::Skipped, warmup, iters, f);
    }

    /// Measure `f` with an explicit audit verdict and warmup/iter counts.
    pub fn bench_audited_with<F: FnMut()>(
        &mut self,
        name: &str,
        audit: AuditVerdict,
        warmup: u32,
        iters: u32,
        f: F,
    ) {
        self.measure(name, audit, AuditTiming::default(), Vec::new(), warmup, iters, f);
    }

    /// Measure `f` with the suite defaults, deriving the verdict *and* the
    /// per-check `audit_timing` block from the gating [`AuditReport`]
    /// (`None` records a skipped audit with empty timing).
    pub fn bench_report<F: FnMut()>(&mut self, name: &str, report: Option<&AuditReport>, f: F) {
        self.bench_report_with(name, report, 3, 30, f);
    }

    /// Measure `f` with an [`AuditReport`]-derived verdict and timing block
    /// plus explicit warmup/iter counts. Prefer this over
    /// [`Suite::bench_audited_with`] whenever the report is at hand — it
    /// puts the auditor's own perf trajectory into `BENCH_*.json`.
    pub fn bench_report_with<F: FnMut()>(
        &mut self,
        name: &str,
        report: Option<&AuditReport>,
        warmup: u32,
        iters: u32,
        f: F,
    ) {
        self.bench_report_metrics_with(name, report, Vec::new(), warmup, iters, f);
    }

    /// Like [`Suite::bench_report_with`], but attaching named scalar
    /// `metrics` to the row — derived quantities the bench wants baselined
    /// alongside its timing, such as the fleet k-sweep's measured
    /// dispatch-degradation ratio and the paper's `k^{1−1/α}` bound for
    /// that k.
    pub fn bench_report_metrics_with<F: FnMut()>(
        &mut self,
        name: &str,
        report: Option<&AuditReport>,
        metrics: Vec<(String, f64)>,
        warmup: u32,
        iters: u32,
        f: F,
    ) {
        let audit = report.map_or(AuditVerdict::Skipped, |r| AuditVerdict::from_passed(r.passed()));
        let timing = report.map(AuditTiming::from_report).unwrap_or_default();
        self.measure(name, audit, timing, metrics, warmup, iters, f);
    }

    #[allow(clippy::too_many_arguments)]
    fn measure<F: FnMut()>(
        &mut self,
        name: &str,
        audit: AuditVerdict,
        audit_timing: AuditTiming,
        metrics: Vec<(String, f64)>,
        warmup: u32,
        iters: u32,
        mut f: F,
    ) {
        let warmup = self.env_warmup.unwrap_or(warmup);
        let iters = self.env_iters.unwrap_or(iters).max(1);
        for _ in 0..warmup {
            f();
        }
        let mut samples: Vec<u64> = (0..iters)
            .map(|_| {
                let start = Instant::now();
                f();
                elapsed_ns(start)
            })
            .collect();
        samples.sort_unstable();
        let sum: u128 = samples.iter().map(|&x| u128::from(x)).sum();
        let m = Measurement {
            name: name.to_string(),
            audit,
            audit_timing,
            warmup,
            iters,
            min_ns: samples[0],
            mean_ns: u64::try_from(sum / u128::from(iters)).unwrap_or(u64::MAX),
            median_ns: percentile(&samples, 50.0),
            p95_ns: percentile(&samples, 95.0),
            max_ns: *samples.last().expect("at least one sample"),
            metrics,
            attribution: None,
        };
        eprintln!(
            "  {:<44} median {:>12} ns   p95 {:>12} ns   ({} iters, audit {})",
            m.name,
            m.median_ns,
            m.p95_ns,
            m.iters,
            m.audit.as_str()
        );
        self.results.push(m);
    }

    /// Run `pass` once with a [`BoundaryTimer`] on, as `events` events, and
    /// attach where its wall time went to the already recorded row `name`.
    /// Returns what `pass` returned, so the caller can check the pass
    /// computed what the timed iterations did. Panics if the row does not
    /// exist (a typo would otherwise drop the attribution silently).
    pub fn attribute<R>(
        &mut self,
        name: &str,
        events: u64,
        pass: impl FnOnce(&mut BoundaryTimer) -> R,
    ) -> R {
        let row = self
            .results
            .iter()
            .position(|m| m.name == name)
            .unwrap_or_else(|| panic!("attribute: no bench row named {name}"));
        let mut timer = BoundaryTimer::on();
        let start = Instant::now();
        let r = pass(&mut timer);
        let wall_ns = elapsed_ns(start);
        self.results[row].attribution = Some(timer.attribution(events, wall_ns));
        r
    }

    /// Serialise all measurements to the suite's JSON document.
    #[must_use]
    pub fn to_json(&self) -> String {
        let results: Vec<String> = self.results.iter().map(Measurement::json).collect();
        format!(
            "{{\"suite\":{},\"schema\":{},\"results\":[{}]}}\n",
            json_string(&self.name),
            json_string(SCHEMA),
            results.join(",")
        )
    }

    /// Write `BENCH_<suite>.json` (into `NCSS_BENCH_DIR` or the current
    /// directory) and return the path written.
    pub fn write_json(&self) -> std::io::Result<std::path::PathBuf> {
        let dir = std::env::var("NCSS_BENCH_DIR").unwrap_or_else(|_| ".".into());
        let path = std::path::Path::new(&dir).join(format!("BENCH_{}.json", self.name));
        let mut file = std::fs::File::create(&path)?;
        file.write_all(self.to_json().as_bytes())?;
        Ok(path)
    }

    /// Names of measurements whose audit verdict is [`AuditVerdict::Fail`].
    #[must_use]
    pub fn audit_failures(&self) -> Vec<&str> {
        self.results
            .iter()
            .filter(|m| m.audit == AuditVerdict::Fail)
            .map(|m| m.name.as_str())
            .collect()
    }

    /// Print the summary line, write the JSON, and panic on I/O failure or
    /// any failed audit verdict — the convenience tail call for bench
    /// `main`s. The JSON is written *before* the audit gate fires so the
    /// failing entries are on disk for inspection.
    pub fn finish(self) {
        let path = self.write_json().expect("write bench JSON");
        eprintln!("{}: {} measurements -> {}", self.name, self.results.len(), path.display());
        let failures = self.audit_failures();
        assert!(
            failures.is_empty(),
            "{}: audit FAILED for {} (see {})",
            self.name,
            failures.join(", "),
            path.display()
        );
    }

    /// Measurements recorded so far.
    #[must_use]
    pub fn results(&self) -> &[Measurement] {
        &self.results
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy_work() -> u64 {
        black_box((0..200u64).fold(0, |a, b| a.wrapping_add(b * b)))
    }

    #[test]
    fn measures_and_orders_statistics() {
        let mut suite = Suite::new("harness-selftest");
        suite.bench_with("busy", 1, 9, || {
            busy_work();
        });
        let m = &suite.results()[0];
        assert_eq!(m.iters.min(9), m.iters);
        assert!(m.min_ns <= m.median_ns);
        assert!(m.median_ns <= m.p95_ns);
        assert!(m.p95_ns <= m.max_ns);
        assert!(m.min_ns <= m.mean_ns && m.mean_ns <= m.max_ns);
    }

    #[test]
    fn json_document_is_well_formed() {
        let mut suite = Suite::new("json\"test");
        suite.bench_with("a/1", 1, 3, || {
            busy_work();
        });
        suite.bench_with("b/2", 1, 3, || {
            busy_work();
        });
        let json = suite.to_json();
        assert!(json.starts_with("{\"suite\":\"json\\\"test\""));
        assert!(json.contains("\"schema\":\"ncss-bench/6\""));
        // Rows without metrics or attribution serialise without those keys.
        assert!(!json.contains("\"metrics\""));
        assert!(!json.contains("\"attribution\""));
        assert_eq!(json.matches("\"median_ns\":").count(), 2);
        // Every entry carries an audit verdict; plain bench() records it
        // as "skipped".
        assert_eq!(json.matches("\"audit\":\"skipped\"").count(), 2);
        // ...and every entry carries an audit_timing block (empty when the
        // measurement was not audit-gated).
        assert_eq!(json.matches("\"audit_timing\":{\"total_ns\":0,\"checks\":[]}").count(), 2);
        assert!(json.trim_end().ends_with("]}"));
        // Balanced braces/brackets (cheap well-formedness proxy without a
        // JSON parser in the dependency-free workspace).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn audit_verdicts_are_recorded_and_gate_finish() {
        let mut suite = Suite::new("audit-verdicts");
        suite.bench_audited_with("good", AuditVerdict::Pass, 0, 2, || {
            busy_work();
        });
        suite.bench_audited_with("bad", AuditVerdict::from_passed(false), 0, 2, || {
            busy_work();
        });
        let json = suite.to_json();
        assert!(json.contains("\"name\":\"good\",\"audit\":\"pass\""));
        assert!(json.contains("\"name\":\"bad\",\"audit\":\"fail\""));
        assert_eq!(suite.audit_failures(), vec!["bad"]);
        // finish() would panic here; the gate itself is what we assert.
        assert!(!suite.audit_failures().is_empty());
    }

    #[test]
    fn report_backed_bench_serialises_per_check_timing() {
        let mut report = AuditReport::default();
        report.record_timed("energy-recomputed", 2.5e-9, 1e-6, "fine".into(), 1200);
        report.record_timed("volume-conservation", f64::INFINITY, 1e-6, "blown".into(), 800);
        let mut suite = Suite::new("timing");
        suite.bench_report_with("audited", Some(&report), 0, 2, || {
            busy_work();
        });
        suite.bench_report_with("unaudited", None, 0, 2, || {
            busy_work();
        });
        let json = suite.to_json();
        // The failing report yields a fail verdict and per-check rows with
        // nanosecond costs; the non-finite residual serialises as null.
        assert!(json.contains("\"name\":\"audited\",\"audit\":\"fail\""), "{json}");
        assert!(json.contains("\"total_ns\":2000"), "{json}");
        assert!(
            json.contains("{\"name\":\"energy-recomputed\",\"elapsed_ns\":1200,\"residual\":2.5e-9}"),
            "{json}"
        );
        assert!(
            json.contains("{\"name\":\"volume-conservation\",\"elapsed_ns\":800,\"residual\":null}"),
            "{json}"
        );
        assert!(json.contains("\"name\":\"unaudited\",\"audit\":\"skipped\""), "{json}");
        assert_eq!(suite.audit_failures(), vec!["audited"]);
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn metrics_rows_serialise_and_skip_when_empty() {
        let mut suite = Suite::new("metrics");
        suite.bench_report_metrics_with(
            "fleet_replay/k64",
            None,
            vec![("ratio".to_string(), 4.5), ("bound".to_string(), f64::NAN)],
            0,
            2,
            || {
                busy_work();
            },
        );
        suite.bench_with("plain", 0, 2, || {
            busy_work();
        });
        let json = suite.to_json();
        // Metrics land as a keyed object after the quantiles; non-finite
        // values serialise as null like residuals do.
        assert!(json.contains(",\"metrics\":{\"ratio\":4.5e0,\"bound\":null}}"), "{json}");
        // The metric-free row has no metrics key.
        let plain = json.split("\"name\":\"plain\"").nth(1).expect("plain row");
        assert!(!plain.contains("\"metrics\""), "{json}");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn a_disabled_timer_runs_calls_and_records_nothing() {
        let mut timer = BoundaryTimer::off();
        let id = timer.register("core.offer");
        assert_eq!(timer.time(id, || 6 * 7), 42);
        assert_eq!(timer.calls, vec![CallTotal { name: "core.offer", count: 0, net_ns: 0 }]);
        assert_eq!(timer.timer_ns, 0);
    }

    #[test]
    fn an_enabled_timer_counts_every_call_and_reconciles_exactly() {
        let mut suite = Suite::new("attribution");
        suite.bench_with("soak", 0, 1, || {
            busy_work();
        });
        suite.bench_with("plain", 0, 1, || {
            busy_work();
        });
        let sum = suite.attribute("soak", 100, |timer| {
            let work = timer.register("core.offer");
            let empty = timer.register("sim.spill_drain");
            // Registering a name twice gives the same call.
            assert_eq!(timer.register("core.offer").0, work.0);
            let mut sum = 0;
            for _ in 0..100 {
                sum += timer.time(work, busy_work);
                timer.time(empty, || ());
                busy_work();
            }
            sum
        });
        assert_eq!(sum, 100 * busy_work());
        let a = suite.results()[0].attribution.clone().expect("attributed row");
        assert_eq!(a.events, 100);
        let counts: Vec<(&str, u64)> = a.calls.iter().map(|c| (c.name, c.count)).collect();
        assert_eq!(counts, vec![("core.offer", 100), ("sim.spill_drain", 100)]);
        let calls_ns: u64 = a.calls.iter().map(|c| c.net_ns).sum();
        assert_eq!(calls_ns + a.timer_ns + a.other_ns, a.wall_ns);
        // The untimed busy_work between calls lands in `other`.
        assert!(a.other_ns > 0 && a.timer_ns > 0, "{a:?}");
        let json = suite.to_json();
        assert!(
            json.contains(&format!(
                ",\"attribution\":{{\"events\":100,\"wall_ns\":{},\"timer_ns\":{},\"other_ns\":{},\
                 \"calls\":{{\"core.offer\":{{\"count\":100,\"ns\":{}}},",
                a.wall_ns, a.timer_ns, a.other_ns, a.calls[0].net_ns
            )),
            "{json}"
        );
        // The row without an attribution pass carries no attribution key.
        let plain = json.split("\"name\":\"plain\"").nth(1).expect("plain row");
        assert!(!plain.contains("\"attribution\""), "{json}");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    #[should_panic(expected = "does not reconcile")]
    fn an_attribution_that_does_not_reconcile_is_not_written() {
        let mut suite = Suite::new("attribution-broken");
        suite.bench_with("soak", 0, 1, || {
            busy_work();
        });
        suite.attribute("soak", 1, |_| ());
        suite.results[0].attribution.as_mut().expect("attributed row").other_ns += 1;
        let _ = suite.to_json();
    }

    #[test]
    #[should_panic(expected = "no bench row named")]
    fn attribute_rejects_unknown_rows() {
        let mut suite = Suite::new("attribution-typo");
        suite.attribute("missing", 1, |_| ());
    }

    #[test]
    fn percentile_nearest_rank() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&sorted, 50.0), 50);
        assert_eq!(percentile(&sorted, 95.0), 95);
        assert_eq!(percentile(&sorted, 100.0), 100);
        assert_eq!(percentile(&[7], 95.0), 7);
    }
}
