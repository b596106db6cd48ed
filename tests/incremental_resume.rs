//! Kill/resume oracle for the **incremental auditor** (DESIGN.md §11).
//!
//! The streaming kill/resume oracle (`checkpoint_determinism.rs`) proves the
//! scheduler cores restore bitwise; this suite attaches an
//! [`IncrementalAudit`] to the stream and proves the *auditor* does too. For
//! every workload suite × α × core, run to completion with the auditor fed
//! after every offer, snapshotting both the stream and the auditor each
//! time. Then for every kill index k: round-trip the stream checkpoint
//! through the trace codec as an [`Event::Checkpoint`] frame and the auditor
//! snapshot as an [`Event::Audit`] frame — the same bytes a `.nct` file
//! carries — restore both, feed the remaining jobs, and require the resumed
//! final report to be **bitwise identical** to the uninterrupted one: same
//! check names in the same order, same verdicts, same residual bits, same
//! detail text.

mod common;

use common::{roundtrip_checkpoint, suites};
use ncss::audit::{AuditConfig, AuditReport, IncrementalAudit, IncrementalSnapshot};
use ncss::core::StreamConfig;
use ncss::sim::{Job, Objective, PowerLaw};
use ncss::trace::format::{decode_event, encode_event};
use ncss::trace::{Algo, Checkpoint, Completion, Event, Stream};

const ALPHAS: [f64; 2] = [2.0, 2.75];

/// Jobs in the uniform- and non-uniform-density suites: the
/// checkpoint-determinism oracle's shapes at a resume-friendly size.
const SUITE_JOBS: (usize, usize) = (14, 12);

/// Round-trip a stream checkpoint and an auditor snapshot through the trace
/// event codec — the exact frames a recorded `.nct` checkpoint carries.
fn roundtrip(cp: Checkpoint, snap: IncrementalSnapshot) -> (Checkpoint, IncrementalSnapshot) {
    let (kind, payload) = encode_event(1, &Event::Audit(Box::new(snap)));
    let snap = match decode_event(kind, &payload).expect("audit frame decodes") {
        (_, Event::Audit(snap)) => *snap,
        other => panic!("audit round-trip produced {other:?}"),
    };
    (roundtrip_checkpoint(cp), snap)
}

/// One audited run: the final report plus, for the full run, the paired
/// (stream checkpoint, auditor snapshot) taken after every offer.
struct AuditedRun {
    report: AuditReport,
    checkpoints: Vec<(Checkpoint, IncrementalSnapshot)>,
}

/// Feed `jobs` (arrival ids from `first`) through `stream` with `audit`
/// attached — the `stream` CLI's feeding order, `IncrementalAudit::on_offer`
/// — and finish. Verdicts are deferred to `finalize` here; the oracle
/// compares full reports, not eager trips. With `checkpoints`, snapshot
/// both after every offer.
fn run(
    stream: &mut Stream,
    audit: &mut IncrementalAudit,
    jobs: &[Job],
    first: usize,
    mut checkpoints: Option<&mut Vec<(Checkpoint, IncrementalSnapshot)>>,
) -> Objective {
    let mut buf = Vec::new();
    for (id, &job) in jobs.iter().enumerate() {
        audit.on_release(first + id, job);
        stream.offer(job, &mut |c: Completion| buf.push(c.outcome())).expect("offer");
        let _ = audit.on_offer(stream.spill_mut().drain(), buf.drain(..));
        if let Some(cps) = checkpoints.as_mut() {
            cps.push((stream.checkpoint(), audit.snapshot()));
        }
    }
    let summary = stream.finish(&mut |c: Completion| buf.push(c.outcome())).expect("finish");
    let _ = audit.on_offer(stream.spill_mut().drain(), buf.drain(..));
    summary.objective
}

fn full(algo: Algo, jobs: &[Job], law: PowerLaw) -> AuditedRun {
    let mut stream = Stream::new(algo, law, StreamConfig::batch());
    let mut audit = IncrementalAudit::new(law, AuditConfig::default());
    let mut checkpoints = Vec::new();
    let objective = run(&mut stream, &mut audit, jobs, 0, Some(&mut checkpoints));
    AuditedRun { report: audit.finalize(&objective), checkpoints }
}

fn resume(cp: Checkpoint, snap: IncrementalSnapshot, jobs: &[Job]) -> AuditReport {
    let (cp, snap) = roundtrip(cp, snap);
    let skip = cp.ingested();
    let mut stream = Stream::restore(cp).expect("restore stream");
    let mut audit = IncrementalAudit::from_snapshot(snap).expect("restore auditor");
    let objective = run(&mut stream, &mut audit, &jobs[skip..], skip, None);
    audit.finalize(&objective)
}

/// Bitwise report equality: names, order, verdicts, residual bits, detail.
fn assert_reports_bitwise(full: &AuditReport, resumed: &AuditReport, ctx: &str) {
    assert_eq!(full.checks.len(), resumed.checks.len(), "{ctx}: check count");
    for (f, r) in full.checks.iter().zip(&resumed.checks) {
        assert_eq!(f.name, r.name, "{ctx}: check order");
        assert_eq!(f.passed, r.passed, "{ctx}: {} verdict", f.name);
        assert_eq!(
            f.residual.to_bits(),
            r.residual.to_bits(),
            "{ctx}: {} residual {:e} vs {:e}",
            f.name,
            f.residual,
            r.residual
        );
        assert_eq!(f.detail, r.detail, "{ctx}: {} detail", f.name);
    }
}

/// The oracle: kill at every offer index, resume stream + auditor from the
/// codec-round-tripped frames, demand a bitwise-identical final report.
fn oracle(name: &str, jobs: &[Job], law: PowerLaw, full: AuditedRun) {
    assert!(
        full.report.passed(),
        "{name} α={}: honest audited run failed:\n{}",
        law.alpha(),
        full.report.render()
    );
    for (k, (cp, snap)) in full.checkpoints.iter().enumerate() {
        let ctx = format!("{name} α={} kill@{k}", law.alpha());
        assert_eq!(snap.released, (k + 1) as u64, "{ctx}: auditor release count");
        let resumed = resume(cp.clone(), snap.clone(), jobs);
        assert_reports_bitwise(&full.report, &resumed, &ctx);
    }
}

#[test]
fn c_stream_audit_survives_kill_at_every_offer() {
    for alpha in ALPHAS {
        let law = PowerLaw::new(alpha).expect("valid alpha");
        for (name, _, jobs) in suites(SUITE_JOBS.0, SUITE_JOBS.1) {
            oracle(name, &jobs, law, full(Algo::C, &jobs, law));
        }
    }
}

#[test]
fn nc_stream_audit_survives_kill_at_every_offer() {
    for alpha in ALPHAS {
        let law = PowerLaw::new(alpha).expect("valid alpha");
        for (name, uniform, jobs) in suites(SUITE_JOBS.0, SUITE_JOBS.1) {
            if !uniform {
                continue;
            }
            oracle(name, &jobs, law, full(Algo::Nc, &jobs, law));
        }
    }
}
