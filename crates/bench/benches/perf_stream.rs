//! Streaming-core benches (`BENCH_stream.json`): audited throughput rows
//! for the event-driven `CStream`/`NcStream` cores, plus a soak row that
//! pushes millions of Poisson releases through each core on one thread and
//! asserts the memory footprint stays flat.
//!
//! The soak is the load-bearing claim of DESIGN.md §9 — resident state is
//! O(active jobs), independent of how many releases have streamed past. It
//! is checked three ways after the run: the arena never held more slots
//! than the peak active set, the per-arrival-drained spill ring dropped
//! nothing, and (best effort, Linux) the process RSS grew by less than a
//! fixed ceiling across the whole run.
//!
//! Sizing: `NCSS_STREAM_SOAK_N` overrides the default 10 000 000 releases
//! per algorithm; `NCSS_BENCH_WARMUP`/`NCSS_BENCH_ITERS` override loop
//! counts as for every other bench.

use ncss_audit::{AuditConfig, AuditReport, IncrementalAudit, ScheduleAudit, Trip};
use ncss_bench::harness::{black_box, AuditMode, Suite};
use ncss_core::streaming::{CStream, NcStream, StreamConfig};
use ncss_rng::{dist, Pcg64};
use ncss_sim::{Evaluated, Instance, Job, PerJob, PowerLaw, ScheduleBuilder, Segment};
use ncss_trace::{read_file, replay, Algo, Completion, Event, Recorder, Stream, TraceHeader};

/// Poisson arrivals with exponential unit-mean volumes at density 1 — the
/// same synthetic source as `ncss-cli stream --synthetic`.
struct Poisson {
    rng: Pcg64,
    rate: f64,
    clock: f64,
}

impl Poisson {
    fn new(seed: u64, rate: f64) -> Self {
        Self { rng: Pcg64::seed_from_u64(seed), rate, clock: 0.0 }
    }

    fn next_job(&mut self) -> Job {
        self.clock += dist::poisson_gap(&mut self.rng, self.rate);
        Job::unit_density(self.clock, dist::exponential(&mut self.rng, 1.0))
    }

    fn take(&mut self, n: usize) -> Vec<Job> {
        (0..n).map(|_| self.next_job()).collect()
    }
}

/// Largest active set the soak tolerates before the "flat memory" claim is
/// considered broken. At rate 4 the observed peak is a few dozen; the
/// ceiling leaves stochastic headroom while still being O(1) in `n`.
const ACTIVE_CEILING: usize = 4096;

/// Spill-ring capacity for drained (streaming-mode) runs.
const SPILL_CAP: usize = 4096;

/// Best-effort resident-set size in bytes from `/proc/self/statm`.
/// Returns `None` off Linux so the RSS check degrades to a no-op.
fn rss_bytes() -> Option<u64> {
    let statm = std::fs::read_to_string("/proc/self/statm").ok()?;
    let pages: u64 = statm.split_whitespace().nth(1)?.parse().ok()?;
    Some(pages * 4096)
}

/// Run a retained (batch-config) streamed pass of `algo` over `jobs` and
/// audit the rebuilt schedule against the stream's own reported
/// objectives. The verdict gates the timed rows exactly as `run_checked`
/// gates the batch benches.
fn gate(algo: Algo, jobs: &[Job], law: PowerLaw) -> AuditReport {
    let run = || -> Result<AuditReport, String> {
        let mut stream = Stream::new(algo, law, StreamConfig::batch());
        let n = jobs.len();
        let mut per_job =
            PerJob { completion: vec![f64::NAN; n], frac_flow: vec![0.0; n], int_flow: vec![0.0; n] };
        let mut sink = |c: Completion| {
            let (id, completion, frac_flow, int_flow) = c.outcome();
            per_job.completion[id] = completion;
            per_job.frac_flow[id] = frac_flow;
            per_job.int_flow[id] = int_flow;
        };
        for job in jobs {
            stream.offer(*job, &mut sink).map_err(|e| e.to_string())?;
        }
        let summary = stream.finish(&mut sink).map_err(|e| e.to_string())?;
        let segments: Vec<Segment> = stream.spill_mut().drain().collect();
        audit_rebuilt(jobs, law, segments, Evaluated { objective: summary.objective, per_job })
    };
    run().unwrap_or_else(placeholder)
}

fn audit_rebuilt(
    jobs: &[Job],
    law: PowerLaw,
    segments: Vec<Segment>,
    reported: Evaluated,
) -> Result<AuditReport, String> {
    let inst = Instance::new(jobs.to_vec()).map_err(|e| e.to_string())?;
    let mut builder = ScheduleBuilder::new(law);
    for seg in segments {
        builder.push(seg);
    }
    let schedule = builder.build().map_err(|e| e.to_string())?;
    Ok(ScheduleAudit::new(AuditConfig::default()).audit(&inst, &schedule, &reported))
}

fn placeholder(why: String) -> AuditReport {
    let mut report = AuditReport::default();
    report.record("algorithm-ran", f64::INFINITY, 0.0, why);
    report
}

/// Streaming-mode C pass: spill drained after every offer, nothing retained.
/// Returns (objective sum, stats) so the caller can assert flatness.
fn soak_c(law: PowerLaw, n: usize, seed: u64, rate: f64) -> (f64, ncss_core::StreamStats) {
    let mut source = Poisson::new(seed, rate);
    let mut stream = CStream::new(law, StreamConfig::streaming(SPILL_CAP));
    let mut sink = |c: ncss_core::CCompletion| {
        black_box(c.completion);
    };
    for _ in 0..n {
        stream.offer(source.next_job(), &mut sink).expect("stream offer");
        stream.spill_mut().drain().for_each(drop);
    }
    let summary = stream.finish(&mut sink).expect("stream finish");
    stream.spill_mut().drain().for_each(drop);
    (summary.objective.fractional(), stream.stats())
}

/// Streaming-mode NC pass, same shape.
fn soak_nc(law: PowerLaw, n: usize, seed: u64, rate: f64) -> (f64, ncss_core::StreamStats) {
    let mut source = Poisson::new(seed, rate);
    let mut stream = NcStream::new(law, StreamConfig::streaming(SPILL_CAP));
    for _ in 0..n {
        stream
            .offer(source.next_job(), &mut |c: ncss_core::NcCompletion| {
                black_box(c.completion);
            })
            .expect("stream offer");
        stream.spill_mut().drain().for_each(drop);
    }
    let summary = stream.finish().expect("stream finish");
    stream.spill_mut().drain().for_each(drop);
    (summary.objective.fractional(), stream.stats())
}

/// Streaming-mode pass of `algo` with an [`IncrementalAudit`] riding the
/// stream: every release, retired segment, and completion feeds the
/// auditor as it happens (O(segments of the job) per completion, O(active)
/// state — the always-on audit must not reintroduce the O(n) memory the
/// streaming mode exists to avoid). Returns the finalized report, the
/// stream stats, and the auditor's peak active-job count.
fn soak_audited(
    algo: Algo,
    law: PowerLaw,
    n: usize,
    seed: u64,
    rate: f64,
    config: AuditConfig,
) -> (AuditReport, ncss_core::StreamStats, usize) {
    let mut source = Poisson::new(seed, rate);
    let mut stream = Stream::new(algo, law, StreamConfig::streaming(SPILL_CAP));
    let mut audit = IncrementalAudit::new(law, config);
    let mut buf: Vec<(usize, f64, f64, f64)> = Vec::new();
    let mut audit_peak_active = 0usize;
    let honest = |trip: Option<Trip>| {
        if let Some(t) = trip {
            panic!("honest soak tripped {}: {}", t.check, t.detail);
        }
    };
    for i in 0..n {
        let job = source.next_job();
        audit.on_release(i, job);
        stream.offer(job, &mut |c| buf.push(c.outcome())).expect("stream offer");
        honest(audit.on_offer(stream.spill_mut().drain(), buf.drain(..)));
        audit_peak_active = audit_peak_active.max(audit.active_jobs());
    }
    let summary = stream.finish(&mut |c| buf.push(c.outcome())).expect("stream finish");
    honest(audit.on_offer(stream.spill_mut().drain(), buf.drain(..)));
    let stats = stream.stats();
    (audit.finalize(&summary.objective), stats, audit_peak_active)
}

/// Panic unless the run's footprint was flat: bounded active set, arena
/// sized by the peak active set alone, and a spill ring that never dropped
/// a segment (every one was drained downstream).
fn assert_flat(name: &str, stats: &ncss_core::StreamStats, n: usize) {
    assert_eq!(stats.ingested, n, "{name}: ingested {} of {n}", stats.ingested);
    assert_eq!(stats.completed, n, "{name}: completed {} of {n}", stats.completed);
    assert!(
        stats.peak_active <= ACTIVE_CEILING,
        "{name}: peak active {} exceeds flat-memory ceiling {ACTIVE_CEILING}",
        stats.peak_active
    );
    assert_eq!(
        stats.arena_slots, stats.peak_active,
        "{name}: arena allocated {} slots for a peak active set of {}",
        stats.arena_slots, stats.peak_active
    );
    assert_eq!(stats.spill_dropped, 0, "{name}: spill ring dropped {} segments", stats.spill_dropped);
    assert!(
        stats.spill_peak_resident <= SPILL_CAP,
        "{name}: spill resident {} exceeds capacity {SPILL_CAP}",
        stats.spill_peak_resident
    );
}

/// How many arrivals of the soak process the record/replay gate captures.
/// Bounded so the WAL row costs milliseconds while still exercising the
/// full frame set (releases, completions, segments, checkpoints, summary).
const RECORD_PREFIX: usize = 5_000;

/// Record the first [`RECORD_PREFIX`] arrivals of the soak process to a
/// CRC-framed trace, checkpointing as `ncss-cli record` would. Returns the
/// trace path so the gate can replay it.
fn record_soak_prefix(law: PowerLaw, seed: u64, rate: f64) -> Result<std::path::PathBuf, String> {
    let path = std::env::temp_dir().join(format!("ncss_bench_soak_{seed}.nct"));
    let header = TraceHeader::new(
        Algo::C,
        law.alpha(),
        seed,
        format!("perf_stream soak prefix, rate {rate}"),
    );
    let err = |e: ncss_trace::TraceError| e.to_string();
    let mut rec = Recorder::create(&path, &header).map_err(err)?;
    let mut source = Poisson::new(seed, rate);
    let mut stream = Stream::new(Algo::C, law, StreamConfig::streaming(SPILL_CAP));
    for i in 0..RECORD_PREFIX {
        rec.record_offer(&mut stream, source.next_job()).map_err(err)?;
        if (i + 1) % 512 == 0 {
            rec.append(&Event::Checkpoint(Box::new(stream.checkpoint()))).map_err(err)?;
        }
    }
    let summary = rec.record_finish(&mut stream).map_err(err)?;
    rec.finalize(&summary).map_err(err)?;
    Ok(path)
}

/// Gate for the record/replay row: replay the recorded prefix and require
/// bitwise-identical completions, segments, checkpoints, and objectives —
/// the DESIGN.md §10 contract applied to the bench's own workload.
fn gate_record_replay(law: PowerLaw, seed: u64, rate: f64) -> AuditReport {
    let run = || -> Result<AuditReport, String> {
        let path = record_soak_prefix(law, seed, rate)?;
        let trace = read_file(&path).map_err(|e| format!("[{}] {e}", e.name()))?;
        let report = replay(&trace).map_err(|e| format!("[{}] {e}", e.name()))?;
        let mut out = AuditReport::default();
        out.record(
            "trace-replay-bitwise",
            0.0,
            0.0,
            format!(
                "{} jobs, {} segments, {} checkpoints verified, objectives bitwise-equal",
                report.jobs.len(),
                report.segments.len(),
                report.checkpoints_verified
            ),
        );
        let _ = std::fs::remove_file(&path);
        Ok(out)
    };
    run().unwrap_or_else(placeholder)
}

fn main() {
    let law = PowerLaw::cube();
    let mut suite = Suite::new("stream");

    let soak_n: usize = std::env::var("NCSS_STREAM_SOAK_N")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(10_000_000);
    let rate = 4.0;

    // Throughput rows: moderate-n streams, gated by an audited retained run
    // over the same arrivals.
    for n in [10_000usize, 100_000] {
        let jobs = Poisson::new(11, rate).take(n);
        let r = gate(Algo::C, &jobs[..n.min(2_000)], law);
        suite.bench_report_with(&format!("stream_c/{n}"), Some(&r), 1, 10, || {
            let (obj, stats) = soak_c(law, n, 11, rate);
            black_box(obj);
            assert_flat("stream_c", &stats, n);
        });

        let r = gate(Algo::Nc, &jobs[..n.min(2_000)], law);
        suite.bench_report_with(&format!("stream_nc_uniform/{n}"), Some(&r), 1, 10, || {
            let (obj, stats) = soak_nc(law, n, 11, rate);
            black_box(obj);
            assert_flat("stream_nc_uniform", &stats, n);
        });
    }

    // Record/replay row: the soak's own arrival process, recorded to a
    // CRC-framed WAL and replayed bitwise (the gate), with the recording
    // pass itself timed — the crash-safety tax on streaming throughput.
    let r = gate_record_replay(law, 97, rate);
    suite.bench_report_with("stream_c/record_prefix", Some(&r), 1, 5, || {
        let path = record_soak_prefix(law, 97, rate).expect("record soak prefix");
        black_box(&path);
        let _ = std::fs::remove_file(&path);
    });

    // Soak rows: ≥10M releases per core on a single thread, one timed pass,
    // flat-memory ceiling asserted inside the measured closure. The gate
    // audits a retained prefix of the same arrival process (auditing all
    // 10M would itself need O(n) memory, which is the point of the mode).
    let rss_before = rss_bytes();
    let prefix = Poisson::new(97, rate).take(2_000);

    // Every soak row carries the deterministic event count as the
    // `work_items` metric, so `bench-diff` can report normalised ns/event
    // throughput deltas between runs (and flag a baseline comparison whose
    // n silently changed).
    let work_items = vec![("work_items".to_string(), soak_n as f64)];

    let r = gate(Algo::C, &prefix, law);
    suite.bench_report_mode_metrics_with(
        "stream_c/soak",
        Some(&r),
        AuditMode::Batch,
        work_items.clone(),
        0,
        1,
        || {
            let (obj, stats) = soak_c(law, soak_n, 97, rate);
            assert!(obj.is_finite(), "soak objective overflowed");
            assert_flat("stream_c/soak", &stats, soak_n);
        },
    );

    let r = gate(Algo::Nc, &prefix, law);
    suite.bench_report_mode_metrics_with(
        "stream_nc_uniform/soak",
        Some(&r),
        AuditMode::Batch,
        work_items.clone(),
        0,
        1,
        || {
            let (obj, stats) = soak_nc(law, soak_n, 97, rate);
            assert!(obj.is_finite(), "soak objective overflowed");
            assert_flat("stream_nc_uniform/soak", &stats, soak_n);
        },
    );

    // Audited-throughput soak rows: the same release stream with an
    // incremental auditor attached to every event. The row's verdict is the
    // auditor's own finalized report over the *full* soak (not a prefix —
    // the O(delta) design is what makes auditing all of it affordable), and
    // the flat-memory claim now covers the auditor's state too. The
    // quadrature cross-check tier runs at a soak-appropriate stride: every
    // segment and completion still gets its closed-form re-derivation, and
    // at 10M releases stride 512 still pits tanh–sinh quadrature against
    // ~100k closed-form integrals. A 103-node quadrature costs ~7 µs vs
    // ~100 ns closed-form, so the default stride 8 would triple the audit
    // cost for no additional coverage kind (see EXPERIMENTS.md).
    let soak_cfg = AuditConfig { cross_check_stride: 512, ..AuditConfig::default() };
    let (r, _, _) = soak_audited(Algo::C, law, soak_n.min(50_000), 97, rate, soak_cfg);
    suite.bench_report_mode_metrics_with(
        "stream_c/soak_audited",
        Some(&r),
        AuditMode::Incremental,
        work_items.clone(),
        0,
        1,
        || {
            let (report, stats, audit_peak) =
                soak_audited(Algo::C, law, soak_n, 97, rate, soak_cfg);
            assert!(report.passed(), "audited soak failed:\n{}", report.render());
            assert_flat("stream_c/soak_audited", &stats, soak_n);
            assert!(
                audit_peak <= ACTIVE_CEILING,
                "auditor held {audit_peak} active jobs (> {ACTIVE_CEILING}): audit state is not O(active)"
            );
        },
    );

    let (r, _, _) = soak_audited(Algo::Nc, law, soak_n.min(50_000), 97, rate, soak_cfg);
    suite.bench_report_mode_metrics_with(
        "stream_nc_uniform/soak_audited",
        Some(&r),
        AuditMode::Incremental,
        work_items,
        0,
        1,
        || {
            let (report, stats, audit_peak) =
                soak_audited(Algo::Nc, law, soak_n, 97, rate, soak_cfg);
            assert!(report.passed(), "audited soak failed:\n{}", report.render());
            assert_flat("stream_nc_uniform/soak_audited", &stats, soak_n);
            assert!(
                audit_peak <= ACTIVE_CEILING,
                "auditor held {audit_peak} active jobs (> {ACTIVE_CEILING}): audit state is not O(active)"
            );
        },
    );

    // Phase attribution for the soak rows (schema ncss-bench/5 `phases`):
    // a *separate* profiled pass per row — never the timed one, whose
    // quantiles must stay free of timestamping overhead — capped at 1M
    // events, since attribution is about proportions, not totals. Runs
    // after every timed row above so the enabled profiler never overlaps
    // a measurement.
    {
        use ncss_sim::profile::{enable_phase_profiling, take_phase_report};
        let attr_n = soak_n.min(1_000_000);
        enable_phase_profiling();
        let _ = soak_c(law, attr_n, 97, rate);
        suite.attach_phases("stream_c/soak", &take_phase_report());
        enable_phase_profiling();
        let _ = soak_nc(law, attr_n, 97, rate);
        suite.attach_phases("stream_nc_uniform/soak", &take_phase_report());
        enable_phase_profiling();
        let _ = soak_audited(Algo::C, law, attr_n, 97, rate, soak_cfg);
        suite.attach_phases("stream_c/soak_audited", &take_phase_report());
        enable_phase_profiling();
        let _ = soak_audited(Algo::Nc, law, attr_n, 97, rate, soak_cfg);
        suite.attach_phases("stream_nc_uniform/soak_audited", &take_phase_report());
    }

    // RSS growth across all four soaks (the audited pair included), best
    // effort: a leak proportional to n would show up as hundreds of MB
    // here; flat cores stay in the noise.
    if let (Some(before), Some(after)) = (rss_before, rss_bytes()) {
        let grown = after.saturating_sub(before);
        assert!(
            grown < 64 * 1024 * 1024,
            "soak RSS grew by {grown} bytes (> 64 MiB): resident memory is not flat"
        );
    }

    // The always-on audit is a tax, not a cliff: the *extra* cost of the
    // audited soak over the plain one must stay within an absolute
    // per-event budget. (This used to be a ratio guard — audited ≤ 2×
    // plain — but a ratio punishes core speedups: once the fused serve()
    // path dropped the plain soak under ~300 ns/event, an unchanged audit
    // tax tripped it with no audit regression at all.) The 1.5 µs/event
    // budget is ~2× the measured tax and still catches the real cliffs —
    // an unamortised quadrature tier or an O(active)-per-event accrual
    // slip costs several µs/event. The absolute slack keeps tiny smoke
    // runs (NCSS_STREAM_SOAK_N=1000) from flaking on scheduler jitter.
    const AUDIT_TAX_BUDGET_NS_PER_EVENT: f64 = 1500.0;
    let mean_of = |name: &str| {
        suite
            .results()
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("missing bench row {name}"))
            .mean_ns
    };
    for core in ["stream_c", "stream_nc_uniform"] {
        let plain = mean_of(&format!("{core}/soak"));
        let audited = mean_of(&format!("{core}/soak_audited"));
        let tax = (audited as f64) - (plain as f64);
        let budget = AUDIT_TAX_BUDGET_NS_PER_EVENT * soak_n as f64 + 5e7;
        assert!(
            tax <= budget,
            "{core}: audited soak {audited} ns vs un-audited {plain} ns — \
             audit tax {:.0} ns/event exceeds the {AUDIT_TAX_BUDGET_NS_PER_EVENT} ns/event budget",
            tax / soak_n as f64
        );
    }

    suite.finish();
}
