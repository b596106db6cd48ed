//! One workload's measurement: the timed CLI runs that give the
//! end-to-end metrics, or the traced replica runs that give the per-layer
//! metrics.

use crate::json::Json;
use crate::proc::Cli;
use crate::replica::{self, Replica};
use crate::stats::Dist;
use crate::tracer::{Layer, Tracer};
use crate::workload::{self, Prepared, Sizes, Tally, Workload};
use std::time::Instant;

/// Fewest set-ups per run, and their least total time: a run keeps
/// setting up until both are reached, and `setup_s` is the median. The
/// fleet set-up takes about a millisecond, so one alone would be noise.
const SETUPS: usize = 5;
const SETUP_SECONDS: f64 = 1.0;
/// Fewest timed repetitions (end-to-end) or traced rounds per run, however
/// short `--seconds` is.
const MIN_REPS: usize = 3;

/// Every batch-audit check, in the order the audit runs them.
pub const BATCH_CHECKS: [&str; 11] = [
    "segments-wellformed",
    "release-before-service",
    "volume-conservation",
    "completion-consistency",
    "energy-recomputed",
    "frac-flow-recomputed",
    "int-flow-recomputed",
    "objective-finite",
    "completion-after-release",
    "frac-dominated-by-int",
    "reported-sums-consistent",
];

/// One reported metric: its value and the samples it was taken from.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    pub dist: Dist,
}

impl Metric {
    fn one(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
        Metric {
            name: name.into(),
            unit,
            value,
            dist: Dist::of(&[value]),
        }
    }
}

/// The outcome of one measured run.
#[derive(Debug)]
pub struct Measured {
    pub tally: Tally,
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
    /// `trace_<workload>.json` (traced runs only).
    pub trace: Option<Json>,
}

impl Measured {
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// The last line the benchmark prints.
    pub fn result_line(&self) -> Json {
        let mut metrics = Json::obj();
        for m in &self.metrics {
            metrics.push(
                &m.name,
                Json::obj().with("value", m.value).with("unit", m.unit),
            );
        }
        Json::obj()
            .with("correct", self.correct())
            .with("attempted", self.tally.attempted)
            .with("failed", self.tally.failed)
            .with("metrics", metrics)
    }
}

/// Measure `w` for about `seconds`, building its inputs under `dir` (which
/// is removed afterwards: the recorded traces are large).
pub fn run(
    w: Workload,
    sizes: Sizes,
    seed: u64,
    seconds: f64,
    traced: bool,
    cli: &mut Cli,
    dir: &std::path::Path,
) -> Result<Measured, String> {
    let result = if traced {
        per_layer(w, sizes, seed, seconds, cli, dir)
    } else {
        end_to_end(w, sizes, seed, seconds, cli, dir)
    };
    let _ = std::fs::remove_dir_all(dir);
    result
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Closed loop over the CLI: one command at a time, the next started only
/// after the previous exits. One untimed warm-up repetition, then timed
/// repetitions until `seconds` have passed.
///
/// `wall_s` is the lower quartile of the repetitions, not their median.
/// Other tenants of a shared host only ever make a repetition slower, in
/// bursts of seconds; on the 2-core VM this was built on, the lower
/// quartile halved the spread between runs that the median showed.
fn end_to_end(
    w: Workload,
    sizes: Sizes,
    seed: u64,
    seconds: f64,
    cli: &mut Cli,
    dir: &std::path::Path,
) -> Result<Measured, String> {
    let mut tally = Tally::default();
    let mut setup_s = Vec::new();
    let mut prepared = None;
    let started = Instant::now();
    while setup_s.len() < SETUPS || secs(started) < SETUP_SECONDS {
        let t0 = Instant::now();
        prepared = Some(workload::setup(w, sizes, seed, dir, cli, &mut tally)?);
        setup_s.push(secs(t0));
    }
    let p = prepared.expect("at least one set-up");
    let reference = replica::run(&p, &mut Tracer::new(false))?;

    let mut failures = workload::run_rep(cli, &p, &reference.expected, &mut tally).failures;
    let (mut wall, mut rss) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while wall.len() < MIN_REPS || secs(start) < seconds {
        let rep = workload::run_rep(cli, &p, &reference.expected, &mut tally);
        wall.push(rep.wall_s);
        rss.push(rep.maxrss_kib as f64 / 1024.0);
        failures.extend(rep.failures);
    }
    let jobs = p.jobs_per_rep as f64;
    let rates: Vec<f64> = wall.iter().map(|w| jobs / w).collect();
    let wall = Dist::of(&wall);
    let (rss, setup_s) = (Dist::of(&rss), Dist::of(&setup_s));
    let metrics = vec![
        Metric {
            name: "wall_s".into(),
            unit: "s",
            value: wall.q1,
            dist: wall,
        },
        Metric {
            name: "jobs_per_s".into(),
            unit: "jobs/s",
            value: jobs / wall.q1,
            dist: Dist::of(&rates),
        },
        Metric {
            name: "peak_rss_mb".into(),
            unit: "MiB",
            value: rss.median,
            dist: rss,
        },
        Metric {
            name: "setup_s".into(),
            unit: "s",
            value: setup_s.median,
            dist: setup_s,
        },
    ];
    Ok(Measured {
        tally,
        failures,
        metrics,
        trace: None,
    })
}

/// Rounds of: the CLI sequence, the replica with timers off, the replica
/// with timers on — until `seconds` have passed. Aggregates of the traced
/// passes are averaged per pass.
fn per_layer(
    w: Workload,
    sizes: Sizes,
    seed: u64,
    seconds: f64,
    cli: &mut Cli,
    dir: &std::path::Path,
) -> Result<Measured, String> {
    let mut tally = Tally::default();
    let p = workload::setup(w, sizes, seed, dir, cli, &mut tally)?;
    let mut tracer = Tracer::new(false);
    tracer.calibrate();
    let reference = replica::run(&p, &mut tracer)?;

    let mut failures = Vec::new();
    let (mut cli_s, mut untraced_s, mut traced_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut last: Option<Replica> = None;
    let start = Instant::now();
    while traced_s.len() < MIN_REPS || secs(start) < seconds {
        let rep = workload::run_rep(cli, &p, &reference.expected, &mut tally);
        cli_s.push(rep.wall_s);
        failures.extend(rep.failures);
        for on in [false, true] {
            tracer.enabled = on;
            tracer.start_pass();
            let t0 = Instant::now();
            let pass = replica::run(&p, &mut tracer)?;
            (if on { &mut traced_s } else { &mut untraced_s }).push(secs(t0));
            if pass.expected != reference.expected {
                failures.push(format!(
                    "replica pass (timers {}) disagrees with the first",
                    if on { "on" } else { "off" }
                ));
            }
            last = Some(pass);
        }
    }
    let last = last.expect("at least one round");
    let metrics = layer_metrics(&p.sizes, &tracer, &last, &cli_s, &untraced_s, &traced_s);
    let trace = trace_doc(&p, seed, &tracer, &metrics);
    Ok(Measured {
        tally,
        failures,
        metrics,
        trace: Some(trace),
    })
}

fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Every per-layer metric, in `BENCHMARK.json` order. A call the workload
/// does not make reads 0.
pub fn layer_metrics(
    sizes: &Sizes,
    t: &Tracer,
    last: &Replica,
    cli_s: &[f64],
    untraced_s: &[f64],
    traced_s: &[f64],
) -> Vec<Metric> {
    let passes = traced_s.len().max(1) as f64;
    let mean_ns = |call: &str| t.stats(call).map_or(0.0, |c| c.mean_ns());
    let p99_ns = |call: &str| t.stats(call).map_or(0.0, |c| c.hist.quantile(0.99));
    let pass_s = |call: &str| t.stats(call).map_or(0.0, |c| c.net_ns) / passes / 1e9;
    let counter = |name: &str| {
        last.counters
            .iter()
            .find(|(k, _)| k == name)
            .map_or(0.0, |(_, v)| *v)
    };

    let mut m = vec![
        Metric::one(
            "audit.on_release_ns_mean",
            "ns",
            mean_ns("audit.on_release"),
        ),
        Metric::one(
            "audit.on_segment_ns_mean",
            "ns",
            mean_ns("audit.on_segment"),
        ),
        Metric::one("audit.on_segment_ns_p99", "ns", p99_ns("audit.on_segment")),
        Metric::one(
            "audit.on_complete_ns_mean",
            "ns",
            mean_ns("audit.on_complete"),
        ),
        Metric::one(
            "audit.on_complete_ns_p99",
            "ns",
            p99_ns("audit.on_complete"),
        ),
        Metric::one("audit.finalize_ms", "ms", pass_s("audit.finalize") * 1e3),
        Metric::one("audit.trips", "count", counter("audit.trips")),
        Metric::one(
            "audit.batch_nonuniform_ms",
            "ms",
            pass_s("audit.batch_nonuniform") * 1e3,
        ),
        Metric::one("audit.batch_replay_s", "s", pass_s("audit.batch_replay")),
    ];
    for check in BATCH_CHECKS {
        let name = format!("audit.batch.{check}_ms");
        let v = counter(&name);
        m.push(Metric::one(name, "ms", v));
    }
    m.extend([
        Metric::one("core.offer_ns_mean", "ns", mean_ns("core.offer")),
        Metric::one("core.offer_ns_p99", "ns", p99_ns("core.offer")),
        Metric::one("core.finish_ms", "ms", pass_s("core.finish") * 1e3),
        Metric::one(
            "core.snapshot_us_mean",
            "us",
            mean_ns("core.snapshot") / 1e3,
        ),
        Metric::one("core.nc_nonuniform_s", "s", pass_s("core.nc_nonuniform")),
        Metric::one(
            "core.segments_per_event",
            "segments/event",
            counter("core.segments_per_event"),
        ),
        Metric::one("core.peak_active", "count", counter("core.peak_active")),
        Metric::one("sim.spill_drain_ns_mean", "ns", mean_ns("sim.spill_drain")),
        Metric::one(
            "sim.schedule_build_ms",
            "ms",
            pass_s("sim.schedule_build") * 1e3,
        ),
        Metric::one("trace.append_ns_mean", "ns", mean_ns("trace.append")),
        Metric::one(
            "trace.append_checkpoint_us_mean",
            "us",
            mean_ns("trace.append_checkpoint") / 1e3,
        ),
        Metric::one("trace.flush_us_mean", "us", mean_ns("trace.flush") / 1e3),
        Metric::one("trace.finalize_ms", "ms", pass_s("trace.finalize") * 1e3),
        Metric::one(
            "trace.bytes_per_event",
            "bytes/event",
            counter("trace.bytes_per_event"),
        ),
        Metric::one("trace.read_file_s", "s", pass_s("trace.read_file")),
        Metric::one("trace.replay_s", "s", pass_s("trace.replay")),
        Metric::one(
            "trace.checkpoints_verified",
            "count",
            counter("trace.checkpoints_verified"),
        ),
    ]);
    for (what, unit, scale) in [
        ("dispatch", "s", 1.0),
        ("replay", "ms", 1e3),
        ("serial_check", "s", 1.0),
        ("audit_fleet", "ms", 1e3),
    ] {
        for k in sizes.fleet_machines {
            let v = pass_s(&format!("multi.{what}.k{k}")) * scale;
            m.push(Metric::one(format!("multi.{what}_{unit}.k{k}"), unit, v));
        }
    }
    m.push(Metric::one(
        "workloads.csv_read_ms",
        "ms",
        pass_s("workloads.csv_read") * 1e3,
    ));
    for layer in Layer::ALL {
        m.push(Metric::one(
            format!("layer.{}_s", layer.name()),
            "s",
            t.layer_ns(layer) / passes / 1e9,
        ));
    }

    // Reconciliation: every traced pass's wall is its calls' net time
    // (the layers above), plus the timer cost subtracted from them, plus
    // the measured time outside any timed call.
    let net: f64 = t.calls.iter().map(|c| c.net_ns).sum();
    let raw = t.raw_ns() as f64;
    let traced = mean(traced_s);
    let untraced = mean(untraced_s);
    let timer_s = (raw - net) / passes / 1e9;
    let other_s = traced - raw / passes / 1e9;
    m.extend([
        Metric::one(
            "cli.overhead_s",
            "s",
            Dist::of(cli_s).median - Dist::of(untraced_s).median,
        ),
        Metric::one("bench.traced_wall_s", "s", traced),
        Metric::one("bench.untraced_wall_s", "s", untraced),
        Metric::one("bench.timer_pair_ns", "ns", t.pair_ns),
        Metric::one("bench.timer_s", "s", timer_s),
        Metric::one("bench.other_s", "s", other_s),
        Metric::one(
            "bench.trace_overhead_frac",
            "ratio",
            (traced - untraced) / untraced,
        ),
    ]);
    m
}

/// `trace_<workload>.json`: per-call aggregates, per-layer self times, the
/// reconciliation, and the spans of the last traced pass.
fn trace_doc(p: &Prepared, seed: u64, t: &Tracer, metrics: &[Metric]) -> Json {
    let (calls, spans) = t.to_json();
    let mut layers = Json::obj();
    let mut summary = Json::obj();
    for m in metrics {
        if let Some(layer) = m.name.strip_prefix("layer.") {
            layers.push(layer, m.value);
        } else if m.name.starts_with("bench.") || m.name.starts_with("cli.") {
            summary.push(&m.name, m.value);
        }
    }
    Json::obj()
        .with("workload", p.workload.name())
        .with("seed", seed)
        .with("summary", summary)
        .with("layer_self_s", layers)
        .with("calls", calls)
        .with("spans", spans)
}
