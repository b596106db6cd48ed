//! Kill/resume oracle for the streaming cores (DESIGN.md §10).
//!
//! For every workload suite × α, run the stream to completion recording a
//! checkpoint after **every** offer, then for every kill index k: round-trip
//! the k-th checkpoint through the trace codec (the same bytes a `.nct`
//! file would carry), restore a fresh stream from it, offer the remaining
//! jobs, and require the resumed run to be **bitwise identical** to the
//! uninterrupted one — same completion times, flows, segments, and final
//! objectives down to `f64::to_bits`, and the same independent-audit
//! verdicts on the rebuilt schedule.
//!
//! The checkpoint is serialized and deserialized at every kill point, so a
//! codec bug that perturbs even one mantissa bit of scheduler state fails
//! here, not just a snapshot/restore bug. Both cores run through
//! `ncss::trace::Stream`.

use ncss::audit::{AuditConfig, ScheduleAudit};
use ncss::core::StreamConfig;
use ncss::sim::{
    Evaluated, Instance, Job, Objective, PerJob, PowerLaw, ScheduleBuilder, Segment,
};
use ncss::trace::format::{decode_event, encode_event};
use ncss::trace::{Algo, Checkpoint, Completion, Event, Stream};
use ncss::workloads::{DensityDist, VolumeDist, WorkloadSpec};

const ALPHAS: [f64; 2] = [2.0, 2.75];

/// (name, uniform-density?, jobs) — release-ordered workload suites.
fn suites() -> Vec<(&'static str, bool, Vec<Job>)> {
    let uniform = WorkloadSpec::uniform(18, 1.2, VolumeDist::Uniform { lo: 0.3, hi: 1.8 })
        .generate(41)
        .expect("uniform suite")
        .jobs()
        .to_vec();
    let mut spec = WorkloadSpec::uniform(16, 0.9, VolumeDist::Exponential { mean: 1.0 });
    spec.densities = DensityDist::LogUniform { lo: 0.25, hi: 4.0 };
    let nonuniform = spec.generate(43).expect("nonuniform suite").jobs().to_vec();
    let tiny = vec![
        Job::unit_density(0.0, 2.0),
        Job::unit_density(0.4, 1.0),
        Job::unit_density(1.1, 0.5),
    ];
    vec![("uniform", true, uniform), ("nonuniform", false, nonuniform), ("tiny", true, tiny)]
}

/// Serialize a checkpoint through the trace event codec and back — the
/// exact bytes a recorded `.nct` frame carries.
fn roundtrip(cp: Checkpoint) -> Checkpoint {
    let (kind, payload) = encode_event(0, &Event::Checkpoint(Box::new(cp)));
    match decode_event(kind, &payload).expect("checkpoint frame decodes") {
        (_, Event::Checkpoint(cp)) => *cp,
        other => panic!("round-trip produced {other:?}"),
    }
}

fn assert_bits(ctx: &str, what: &str, a: f64, b: f64) {
    assert!(
        a.to_bits() == b.to_bits(),
        "{ctx}: {what} diverged: {a:?} ({:#x}) vs {b:?} ({:#x})",
        a.to_bits(),
        b.to_bits()
    );
}

/// One algorithm run: completions as `(id, completion, frac, int)`,
/// retired segments, and the final objective.
struct RunTrace {
    completions: Vec<(usize, f64, f64, f64)>,
    segments: Vec<Segment>,
    objective: Objective,
    makespan: f64,
    /// Checkpoint after offer k (serialized round-trip deferred to resume
    /// time) and how many completions had been emitted by then.
    checkpoints: Vec<(Checkpoint, usize)>,
}

/// Offer `jobs` to `stream` and finish it, checkpointing after every offer.
fn run(mut stream: Stream, jobs: &[Job]) -> RunTrace {
    let mut completions = Vec::new();
    let mut checkpoints = Vec::new();
    for &job in jobs {
        stream.offer(job, &mut |c: Completion| completions.push(c.outcome())).expect("offer");
        checkpoints.push((stream.checkpoint(), completions.len()));
    }
    let summary =
        stream.finish(&mut |c: Completion| completions.push(c.outcome())).expect("finish");
    RunTrace {
        completions,
        segments: stream.spill_mut().drain().collect(),
        objective: summary.objective,
        makespan: summary.makespan,
        checkpoints,
    }
}

/// Restore the codec-round-tripped checkpoint and offer the jobs it has
/// not seen.
fn resume(cp: Checkpoint, jobs: &[Job]) -> RunTrace {
    let cp = roundtrip(cp);
    let skip = cp.ingested();
    let mut resumed = run(Stream::restore(cp).expect("restore"), &jobs[skip..]);
    resumed.checkpoints.clear();
    resumed
}

/// Audit a run's rebuilt schedule; returns `(name, passed)` per check.
fn audit_verdicts(jobs: &[Job], law: PowerLaw, run: &RunTrace) -> Vec<(&'static str, bool)> {
    let inst = Instance::new(jobs.to_vec()).expect("instance");
    let mut builder = ScheduleBuilder::new(law);
    for seg in &run.segments {
        builder.push(*seg);
    }
    let schedule = builder.build().expect("schedule");
    let n = jobs.len();
    let mut per_job = PerJob {
        completion: vec![f64::NAN; n],
        frac_flow: vec![0.0; n],
        int_flow: vec![0.0; n],
    };
    for &(id, c, f, i) in &run.completions {
        per_job.completion[id] = c;
        per_job.frac_flow[id] = f;
        per_job.int_flow[id] = i;
    }
    let reported = Evaluated { objective: run.objective, per_job };
    let report = ScheduleAudit::new(AuditConfig::default()).audit(&inst, &schedule, &reported);
    assert!(report.passed(), "audit failed:\n{}", report.render());
    report.checks.iter().map(|c| (c.name, c.passed)).collect()
}

/// The oracle: kill at every offer index, resume, demand bitwise equality
/// with the uninterrupted run — completions, segments, objectives, audit.
fn oracle(name: &str, jobs: &[Job], law: PowerLaw, full: RunTrace) {
    let full_audit = audit_verdicts(jobs, law, &full);
    for (k, (cp, emitted)) in full.checkpoints.iter().enumerate() {
        let ctx = format!("{name} α={} kill@{k}", law.alpha());
        assert_eq!(cp.ingested(), k + 1, "{ctx}: checkpoint ingest count");
        let resumed = resume(cp.clone(), jobs);

        // The resumed run regenerates exactly the completions the full run
        // emitted after the kill point.
        let tail = &full.completions[*emitted..];
        assert_eq!(resumed.completions.len(), tail.len(), "{ctx}: completion count");
        for (r, f) in resumed.completions.iter().zip(tail) {
            assert_eq!(r.0, f.0, "{ctx}: completion order");
            assert_bits(&ctx, "completion", r.1, f.1);
            assert_bits(&ctx, "frac_flow", r.2, f.2);
            assert_bits(&ctx, "int_flow", r.3, f.3);
        }

        // The snapshot carries the spill ring, so the resumed drain holds
        // the full retired-segment history, identical segment for segment.
        assert_eq!(resumed.segments.len(), full.segments.len(), "{ctx}: segment count");
        for (r, f) in resumed.segments.iter().zip(&full.segments) {
            let bits = |s: &Segment| encode_event(0, &Event::Segment(*s));
            assert_eq!(bits(r), bits(f), "{ctx}: segment diverged: {r:?} vs {f:?}");
        }

        assert_bits(&ctx, "energy", resumed.objective.energy, full.objective.energy);
        assert_bits(&ctx, "frac_flow", resumed.objective.frac_flow, full.objective.frac_flow);
        assert_bits(&ctx, "int_flow", resumed.objective.int_flow, full.objective.int_flow);
        assert_bits(&ctx, "makespan", resumed.makespan, full.makespan);

        // Audit verdict parity: the resumed run passes the same checks.
        // Pre-kill completions come from the recorded prefix, exactly as
        // `resume` copies them into the new trace before continuing.
        let merged = RunTrace {
            completions: full.completions[..*emitted]
                .iter()
                .chain(&resumed.completions)
                .copied()
                .collect(),
            segments: resumed.segments,
            objective: resumed.objective,
            makespan: resumed.makespan,
            checkpoints: Vec::new(),
        };
        let resumed_audit = audit_verdicts(jobs, law, &merged);
        assert_eq!(resumed_audit, full_audit, "{ctx}: audit verdicts diverged");
    }
}

#[test]
fn c_stream_kill_resume_is_bitwise_deterministic() {
    for alpha in ALPHAS {
        let law = PowerLaw::new(alpha).unwrap();
        for (name, _, jobs) in suites() {
            let full = run(Stream::new(Algo::C, law, StreamConfig::batch()), &jobs);
            assert_eq!(full.checkpoints.len(), jobs.len());
            oracle(&format!("C/{name}"), &jobs, law, full);
        }
    }
}

#[test]
fn nc_stream_kill_resume_is_bitwise_deterministic() {
    for alpha in ALPHAS {
        let law = PowerLaw::new(alpha).unwrap();
        for (name, uniform, jobs) in suites() {
            if !uniform {
                continue; // NC's streaming core is the uniform-density algorithm
            }
            let full = run(Stream::new(Algo::Nc, law, StreamConfig::batch()), &jobs);
            oracle(&format!("NC/{name}"), &jobs, law, full);
        }
    }
}
