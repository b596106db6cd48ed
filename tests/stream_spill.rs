//! Spill-ring lifecycle properties and tamper detection for the streaming
//! core (DESIGN.md §9).
//!
//! Two claims are load-bearing for the bounded-memory mode:
//!
//! 1. **Retirement is lossless under draining.** When the consumer drains
//!    the ring after every arrival, residency never exceeds the number of
//!    segments one event batch can retire, nothing is dropped, and the
//!    arena never holds more slots than the peak active set.
//! 2. **Loss is detectable.** A run whose ring *did* overflow (segments
//!    silently discarded) cannot masquerade as a complete schedule: the
//!    rebuilt schedule trips the independent audit on a *named* check, and
//!    so does a run whose reported objective was corrupted in flight.

use ncss::core::streaming::{CStream, StreamConfig};
use ncss::prelude::*;
use ncss::sim::{Evaluated, PerJob, ScheduleBuilder, Segment, SpillRing};
use ncss_rng::{dist, Pcg64};

fn poisson_jobs(n: usize, rate: f64, seed: u64) -> Vec<Job> {
    let mut rng = Pcg64::seed_from_u64(seed);
    let mut clock = 0.0;
    (0..n)
        .map(|_| {
            clock += dist::poisson_gap(&mut rng, rate);
            Job::unit_density(clock, dist::exponential(&mut rng, 1.0))
        })
        .collect()
}

/// Run jobs through a streaming-config `CStream`, draining after every
/// offer; return (summary, stats, drained segment count).
fn drained_run(jobs: &[Job], cap: usize) -> (ncss::core::StreamSummary, ncss::core::StreamStats, usize) {
    let mut stream = CStream::new(PowerLaw::cube(), StreamConfig::streaming(cap));
    let mut sink = |_c: ncss::core::CCompletion| {};
    let mut drained = 0usize;
    for job in jobs {
        stream.offer(*job, &mut sink).expect("offer");
        drained += stream.spill_mut().drain().count();
    }
    let summary = stream.finish(&mut sink).expect("finish");
    drained += stream.spill_mut().drain().count();
    (summary, stream.stats(), drained)
}

/// Retained run (batch config): returns everything needed to rebuild and
/// audit the schedule.
fn retained_run(jobs: &[Job]) -> (ncss::core::StreamSummary, PerJob, Vec<Segment>) {
    let n = jobs.len();
    let mut per_job =
        PerJob { completion: vec![f64::NAN; n], frac_flow: vec![0.0; n], int_flow: vec![0.0; n] };
    let mut stream = CStream::new(PowerLaw::cube(), StreamConfig::batch());
    let mut sink = |c: ncss::core::CCompletion| {
        per_job.completion[c.id] = c.completion;
        per_job.frac_flow[c.id] = c.frac_flow;
        per_job.int_flow[c.id] = c.int_flow;
    };
    for job in jobs {
        stream.offer(*job, &mut sink).expect("offer");
    }
    let summary = stream.finish(&mut sink).expect("finish");
    let segments: Vec<Segment> = stream.spill_mut().drain().collect();
    (summary, per_job, segments)
}

fn audit_of(jobs: &[Job], segments: &[Segment], reported: &Evaluated) -> AuditReport {
    let inst = Instance::new(jobs.to_vec()).expect("valid jobs");
    let mut builder = ScheduleBuilder::new(PowerLaw::cube());
    for seg in segments {
        builder.push(*seg);
    }
    let schedule = builder.build().expect("schedule");
    ScheduleAudit::new(AuditConfig::default()).audit(&inst, &schedule, reported)
}

/// Property: across a seed sweep, drain-per-offer keeps the ring's peak
/// residency bounded by what a single event batch retires — never by the
/// stream length — while dropping nothing, and the arena's slot count is
/// exactly the peak active set.
#[test]
fn drained_spill_ring_stays_bounded_and_lossless() {
    for seed in 0..8u64 {
        let jobs = poisson_jobs(600, 3.0, seed);
        let (summary, stats, drained) = drained_run(&jobs, 64);
        assert_eq!(summary.completed, jobs.len());
        assert_eq!(stats.spill_dropped, 0, "seed {seed}: ring dropped segments");
        assert_eq!(
            stats.spill_total, drained as u64,
            "seed {seed}: every retired segment must reach the consumer"
        );
        // One arrival closes at most one serving segment per completion
        // event plus the cut at the release itself; the active set bounds
        // the number of completions a single batch can contain.
        assert!(
            stats.spill_peak_resident <= stats.peak_active + 1,
            "seed {seed}: peak residency {} exceeds active-set bound {}",
            stats.spill_peak_resident,
            stats.peak_active + 1
        );
        assert_eq!(
            stats.arena_slots, stats.peak_active,
            "seed {seed}: arena over-allocated ({} slots, peak active {})",
            stats.arena_slots, stats.peak_active
        );
        assert!(
            stats.peak_active < jobs.len() / 4,
            "seed {seed}: active set {} not small relative to stream length",
            stats.peak_active
        );
    }
}

/// The ring's own drop accounting: an undersized, never-drained ring
/// reports exactly how many segments it discarded.
#[test]
fn overflowing_ring_counts_drops() {
    let jobs = poisson_jobs(200, 3.0, 42);
    let mut stream = CStream::new(PowerLaw::cube(), StreamConfig::streaming(4));
    let mut sink = |_c: ncss::core::CCompletion| {};
    for job in &jobs {
        stream.offer(*job, &mut sink).expect("offer");
    }
    stream.finish(&mut sink).expect("finish");
    let stats = stream.stats();
    assert!(stats.spill_dropped > 0, "a 4-slot ring must overflow on 200 jobs");
    assert_eq!(
        stats.spill_total,
        stats.spill_dropped + stats.spill_resident as u64,
        "drop accounting must balance"
    );
}

/// Tamper case 1: rebuild a schedule from a ring that silently lost
/// segments. The audit must fail, and fail on the named
/// `volume-conservation` check (the lost service shows up as unprocessed
/// volume).
#[test]
fn audit_catches_schedule_with_dropped_segments() {
    let jobs = poisson_jobs(60, 2.0, 7);
    let (summary, per_job, segments) = retained_run(&jobs);

    // Simulate the overflow: replay the retained segments through a tiny
    // ring so only the most recent survive, exactly what an undrained
    // streaming run would have kept.
    let mut ring = SpillRing::with_capacity(8);
    for seg in &segments {
        ring.push(*seg);
    }
    assert!(ring.dropped() > 0, "replay must overflow the 8-slot ring");
    let kept: Vec<Segment> = ring.drain().collect();

    let reported = Evaluated { objective: summary.objective, per_job };
    let report = audit_of(&jobs, &kept, &reported);
    assert!(!report.passed(), "audit must fail on a lossy schedule");
    assert!(
        report.failures().iter().any(|c| c.name == "volume-conservation"),
        "expected volume-conservation among failures, got {:?}",
        report.failures().iter().map(|c| c.name).collect::<Vec<_>>()
    );
}

/// Tamper case 2: the schedule is intact but the streamed objective was
/// corrupted in flight. The audit's independent re-derivation catches it
/// on the named `energy-recomputed` check.
#[test]
fn audit_catches_corrupted_streamed_objective() {
    let jobs = poisson_jobs(60, 2.0, 7);
    let (summary, per_job, segments) = retained_run(&jobs);

    let mut objective = summary.objective;
    objective.energy *= 1.05; // a 5% "improvement" no honest run reports
    let reported = Evaluated { objective, per_job };
    let report = audit_of(&jobs, &segments, &reported);
    assert!(!report.passed(), "audit must fail on a corrupted objective");
    assert!(
        report.failures().iter().any(|c| c.name == "energy-recomputed"),
        "expected energy-recomputed among failures, got {:?}",
        report.failures().iter().map(|c| c.name).collect::<Vec<_>>()
    );
}

/// An honest retained run passes the same audit — the two tamper tests
/// fail for the right reason, not because the gate is always-red.
#[test]
fn honest_streamed_run_passes_audit() {
    let jobs = poisson_jobs(60, 2.0, 7);
    let (summary, per_job, segments) = retained_run(&jobs);
    let reported = Evaluated { objective: summary.objective, per_job };
    let report = audit_of(&jobs, &segments, &reported);
    assert!(report.passed(), "honest run failed audit:\n{}", report.render());
}

/// Tamper case 1, incremental edition: the event-driven auditor sees only
/// the segments a lossy ring kept, and must trip the same named
/// `volume-conservation` check the post-hoc audit does — eagerly, at the
/// first completion whose service history has a hole.
#[test]
fn incremental_audit_catches_dropped_segments_like_batch() {
    use ncss::audit::IncrementalAudit;

    let jobs = poisson_jobs(60, 2.0, 7);
    let (summary, per_job, segments) = retained_run(&jobs);

    // Same forced overflow as the batch test: replay the retained history
    // through a tiny ring so only the most recent segments survive.
    let mut ring = SpillRing::with_capacity(8);
    for seg in &segments {
        ring.push(*seg);
    }
    assert!(ring.dropped() > 0, "replay must overflow the 8-slot ring");
    let kept: Vec<Segment> = ring.drain().collect();

    let mut audit = IncrementalAudit::new(PowerLaw::cube(), AuditConfig::default());
    for (id, job) in jobs.iter().enumerate() {
        audit.on_release(id, *job);
    }
    for seg in &kept {
        assert!(audit.on_segment(*seg).is_none(), "kept segments are individually honest");
    }
    let mut eager_trip = None;
    for j in 0..jobs.len() {
        if let Some(trip) =
            audit.on_complete(j, per_job.completion[j], per_job.frac_flow[j], per_job.int_flow[j])
        {
            eager_trip.get_or_insert(trip);
        }
    }
    let trip = eager_trip.expect("a lossy ring must trip an eager verdict");
    assert_eq!(
        trip.check, "volume-conservation",
        "expected volume-conservation, got {} ({})",
        trip.check, trip.detail
    );

    // The final report agrees with the post-hoc audit on the same evidence:
    // failed, with volume-conservation among the named failures.
    let report = audit.finalize(&summary.objective);
    assert!(!report.passed(), "incremental audit must fail on a lossy schedule");
    assert!(
        report.failures().iter().any(|c| c.name == "volume-conservation"),
        "expected volume-conservation among failures, got {:?}",
        report.failures().iter().map(|c| c.name).collect::<Vec<_>>()
    );
}
