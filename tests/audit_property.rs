//! Property tests for the audit layer itself.
//!
//! Three contracts:
//!
//! * **Tamper sensitivity** — a seeded tamperer perturbs known-good runs
//!   (segment shifts, speed scalings, dropped segments, completion swaps,
//!   objective edits) and every tampering must trip at least one *named*
//!   check, across workload suites × α. Trials shard over `ncss-pool`.
//! * **One engine** — `ScheduleAudit` / `MultiAudit` are feeders over the
//!   incremental engines, so a post-hoc audit equals a hand-fed engine bit
//!   for bit.
//! * **Live == post hoc** — the only order dependence left: a run audited
//!   live (segments and completions interleaved per offer, as the `stream`
//!   CLI feeds them) and the same run audited post hoc give the same check
//!   names and verdicts, with residuals of the same order of magnitude.

use ncss::audit::{
    AuditConfig, AuditReport, IncrementalAudit, IncrementalMultiAudit, MultiAudit, ScheduleAudit,
};
use ncss::core::{run_c, CCompletion, CStream, NcCompletion, NcStream, StreamConfig};
use ncss::pool::Pool;
use ncss::sim::{
    Evaluated, Instance, Job, Objective, PerJob, PowerLaw, Schedule, ScheduleBuilder, SpillRing,
};
use ncss::workloads::{DensityDist, VolumeDist, WorkloadSpec};
use ncss_rng::Pcg64;

const TRIALS: usize = 40;

fn workload(seed: u64) -> Instance {
    WorkloadSpec::uniform(6, 1.0, VolumeDist::Uniform { lo: 0.4, hi: 1.6 })
        .generate(seed)
        .expect("valid spec")
}

/// The tamperings the auditor must catch. Each takes a valid
/// (schedule, reported) pair and corrupts exactly one aspect of it.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Tamper {
    /// Multiply one serving segment's speed scale: delivered volume and
    /// energy both change.
    ScaleSpeed,
    /// Shift the last segment later in time: the served job's re-derived
    /// completion moves while the reported one does not.
    ShiftLast,
    /// Remove one serving segment: its volume is never delivered.
    DropSegment,
    /// Swap two jobs' reported completion times.
    SwapCompletions,
    /// Under-report the objective's energy term.
    ScaleEnergy,
}

const TAMPERS: [Tamper; 5] = [
    Tamper::ScaleSpeed,
    Tamper::ShiftLast,
    Tamper::DropSegment,
    Tamper::SwapCompletions,
    Tamper::ScaleEnergy,
];

/// Apply `tamper` to a valid run; returns the corrupted pair, or `None`
/// when the run's shape cannot host this tampering (e.g. too few segments).
fn apply(
    tamper: Tamper,
    rng: &mut Pcg64,
    schedule: &Schedule,
    reported: &Evaluated,
) -> Option<(Schedule, Evaluated)> {
    let law = schedule.power_law();
    let mut segments = schedule.segments().to_vec();
    let mut reported = reported.clone();
    let serving: Vec<usize> =
        (0..segments.len()).filter(|&i| segments[i].job.is_some()).collect();
    match tamper {
        Tamper::ScaleSpeed => {
            let i = serving[(rng.next_u64() as usize) % serving.len()];
            segments[i].scale *= rng.range_f64(1.3, 2.0);
        }
        Tamper::ShiftLast => {
            let last = segments.last_mut()?;
            let shift = rng.range_f64(0.5, 1.5) * last.duration().max(0.5);
            last.start += shift;
            last.end += shift;
        }
        Tamper::DropSegment => {
            if serving.len() < 2 {
                return None;
            }
            segments.remove(serving[(rng.next_u64() as usize) % serving.len()]);
        }
        Tamper::SwapCompletions => {
            let n = reported.per_job.completion.len();
            if n < 2 {
                return None;
            }
            let (a, b) = (0, 1 + (rng.next_u64() as usize) % (n - 1));
            let (ca, cb) = (reported.per_job.completion[a], reported.per_job.completion[b]);
            // A swap of near-equal completions would be invisible at audit
            // tolerance — make sure the pair actually differs.
            if (ca - cb).abs() < 1e-3 * (ca.abs() + cb.abs()) {
                return None;
            }
            reported.per_job.completion.swap(a, b);
        }
        Tamper::ScaleEnergy => {
            reported.objective.energy *= rng.range_f64(0.4, 0.8);
        }
    }
    let schedule = Schedule::new(law, segments).ok()?;
    Some((schedule, reported))
}

#[test]
fn every_tampering_trips_a_named_check() {
    let auditor = ScheduleAudit::new(AuditConfig::default());
    let trials: Vec<u64> = (0..TRIALS as u64).collect();

    // One shard per trial over the shared pool; each returns either a
    // violation message or the names of the checks the tampering tripped.
    let outcomes: Vec<Result<(Tamper, Vec<&'static str>), String>> =
        Pool::auto().map(&trials, |&trial| {
            let mut rng = Pcg64::seed_from_u64(0xA0D17 + trial);
            let tamper = TAMPERS[(trial as usize) % TAMPERS.len()];
            let inst = workload(100 + trial);
            let law = PowerLaw::cube();
            let run = run_c(&inst, law).expect("clean run");
            let reported = Evaluated { objective: run.objective, per_job: run.per_job };

            // The untampered run must pass — otherwise the trial proves
            // nothing about the tampering.
            let clean = auditor.audit(&inst, &run.schedule, &reported);
            if !clean.passed() {
                return Err(format!("trial {trial}: clean run failed its audit:\n{clean}"));
            }
            let Some((schedule, reported)) = apply(tamper, &mut rng, &run.schedule, &reported)
            else {
                return Ok((tamper, Vec::new())); // shape couldn't host it
            };
            let report = auditor.audit(&inst, &schedule, &reported);
            let tripped: Vec<&'static str> =
                report.failures().iter().map(|c| c.name).collect();
            if tripped.is_empty() {
                return Err(format!(
                    "trial {trial}: tampering {tamper:?} slipped past the auditor:\n{report}"
                ));
            }
            Ok((tamper, tripped))
        });

    let mut violations = Vec::new();
    let mut caught: Vec<(Tamper, Vec<&'static str>)> = Vec::new();
    for outcome in outcomes {
        match outcome {
            Ok((tamper, tripped)) if !tripped.is_empty() => caught.push((tamper, tripped)),
            Ok(_) => {}
            Err(msg) => violations.push(msg),
        }
    }
    assert!(violations.is_empty(), "{}", violations.join("\n"));

    // Every tampering kind must have been exercised at least once, and the
    // suite as a whole must reach the three core re-derivation checks.
    for tamper in TAMPERS {
        assert!(
            caught.iter().any(|(t, _)| *t == tamper),
            "no trial exercised {tamper:?} — tampering coverage regressed"
        );
    }
    for check in ["volume-conservation", "completion-consistency", "energy-recomputed"] {
        assert!(
            caught.iter().any(|(_, tripped)| tripped.contains(&check)),
            "no tampering tripped {check}"
        );
    }
}

#[test]
fn duplicated_fleet_timelines_trip_the_cross_machine_auditor() {
    // Two machines both claiming the whole single-machine timeline: the
    // same job is served twice in parallel and twice the volume arrives.
    let inst = workload(7);
    let run = run_c(&inst, PowerLaw::cube()).expect("clean run");
    let reported = Evaluated { objective: run.objective, per_job: run.per_job };
    let fleet = vec![run.schedule.clone(), run.schedule];
    let report = MultiAudit::new(AuditConfig::default()).audit(&inst, &fleet, &reported);
    assert!(!report.passed());
    let tripped: Vec<&'static str> = report.failures().iter().map(|c| c.name).collect();
    assert!(
        tripped.contains(&"no-double-service"),
        "expected no-double-service among {tripped:?}"
    );
    assert!(
        tripped.contains(&"cross-machine-volume"),
        "expected cross-machine-volume among {tripped:?}"
    );
}

// ---------------------------------------------------------------------------
// One-engine tamper matrix and live == post-hoc order dependence
// ---------------------------------------------------------------------------

/// α grid for the matrix — sub-quadratic, quadratic, super-quadratic.
const MATRIX_ALPHAS: [f64; 3] = [1.5, 2.0, 2.75];

/// Release-ordered workload suites spanning uniform, skewed-density, and
/// bursty arrivals.
fn suites() -> Vec<(&'static str, Instance)> {
    let uniform = workload(21);
    let mut spec = WorkloadSpec::uniform(8, 0.9, VolumeDist::Exponential { mean: 1.0 });
    spec.densities = DensityDist::LogUniform { lo: 0.25, hi: 4.0 };
    let nonuniform = spec.generate(23).expect("nonuniform suite");
    let bursty = WorkloadSpec::uniform(10, 2.5, VolumeDist::Uniform { lo: 0.2, hi: 2.2 })
        .generate(29)
        .expect("bursty suite");
    vec![("uniform", uniform), ("nonuniform", nonuniform), ("bursty", bursty)]
}

/// Two residuals "agree" when they are bitwise equal, both non-finite,
/// within an order of magnitude of each other, or apart by rounding noise
/// only (residuals are scale-free, so a few dozen ulps of 1). Fold-order
/// differences may move the last ulps — an honest sum can land on 0 one
/// way and 2e-16 the other — never the magnitude of wrongness.
fn residuals_same_order(a: f64, b: f64) -> bool {
    if a.to_bits() == b.to_bits() {
        return true;
    }
    if !a.is_finite() || !b.is_finite() {
        return !a.is_finite() && !b.is_finite();
    }
    let (lo, hi) = if a.abs() <= b.abs() { (a.abs(), b.abs()) } else { (b.abs(), a.abs()) };
    (lo > 0.0 && hi / lo <= 10.0) || hi - lo <= 64.0 * f64::EPSILON
}

/// Name-by-name agreement: same checks in the same order, same verdicts,
/// residuals of the same order (bitwise when `strict_bits`).
fn assert_agree(a: &AuditReport, b: &AuditReport, context: &str, strict_bits: bool) {
    assert_eq!(a.checks.len(), b.checks.len(), "{context}: check count");
    for (x, y) in a.checks.iter().zip(&b.checks) {
        assert_eq!(x.name, y.name, "{context}: check order");
        assert_eq!(x.passed, y.passed, "{context}: {} verdict ({x:?} vs {y:?})", x.name);
        let same = if strict_bits {
            x.residual.to_bits() == y.residual.to_bits()
        } else {
            residuals_same_order(x.residual, y.residual)
        };
        assert!(same, "{context}: {} residual {:e} vs {:e}", x.name, x.residual, y.residual);
    }
}

#[test]
fn tamper_matrix_trips_named_checks_through_one_engine() {
    // One pool shard per (α, suite) cell; each cell audits the honest run
    // plus every tamper kind the run can host and returns violations.
    let suites = suites();
    let cells: Vec<(usize, usize)> = (0..MATRIX_ALPHAS.len())
        .flat_map(|a| (0..suites.len()).map(move |s| (a, s)))
        .collect();

    let outcomes: Vec<Result<Vec<Tamper>, String>> = Pool::auto().map(&cells, |&(ai, si)| {
        let alpha = MATRIX_ALPHAS[ai];
        let (suite, inst) = &suites[si];
        let ctx = |what: &str| format!("α={alpha} suite={suite} {what}");
        let law = PowerLaw::new(alpha).expect("valid alpha");
        let run = run_c(inst, law).map_err(|e| ctx(&format!("run failed: {e}")))?;
        let reported = Evaluated { objective: run.objective, per_job: run.per_job };
        let auditor = ScheduleAudit::new(AuditConfig::default());

        let honest = auditor.audit(inst, &run.schedule, &reported);
        if !honest.passed() {
            return Err(ctx(&format!("honest run failed its audit:\n{honest}")));
        }
        let mut exercised = Vec::new();
        let mut rng = Pcg64::seed_from_u64(0x1AC5 + (ai as u64) * 31 + si as u64);
        for tamper in TAMPERS {
            let Some((schedule, reported)) = apply(tamper, &mut rng, &run.schedule, &reported)
            else {
                continue;
            };
            let report = auditor.audit(inst, &schedule, &reported);
            if report.failures().is_empty() {
                return Err(ctx(&format!("{tamper:?} slipped past the auditor:\n{report}")));
            }
            exercised.push(tamper);
        }
        Ok(exercised)
    });

    let mut violations = Vec::new();
    let mut tripped: Vec<Tamper> = Vec::new();
    for outcome in outcomes {
        match outcome {
            Ok(mut kinds) => tripped.append(&mut kinds),
            Err(msg) => violations.push(msg),
        }
    }
    assert!(violations.is_empty(), "{}", violations.join("\n"));
    for tamper in TAMPERS {
        assert!(tripped.contains(&tamper), "no matrix cell exercised {tamper:?}");
    }
}

#[test]
fn incremental_multi_matches_batch_multi_on_duplicated_fleet() {
    // `MultiAudit` is a feeder: hand-feeding the fleet engine in its order
    // (releases, each machine's segments, completions by id) must give the
    // same report bit for bit — here on a duplicated fleet, a failing case
    // with every check exercised.
    let inst = workload(7);
    let law = PowerLaw::cube();
    let run = run_c(&inst, law).expect("clean run");
    let reported = Evaluated { objective: run.objective, per_job: run.per_job };
    let fleet = vec![run.schedule.clone(), run.schedule.clone()];

    let post_hoc = MultiAudit::new(AuditConfig::default()).audit(&inst, &fleet, &reported);
    let mut audit = IncrementalMultiAudit::new(vec![law; fleet.len()], AuditConfig::default());
    for (id, job) in inst.jobs().iter().enumerate() {
        audit.on_release(id, *job);
    }
    for (m, schedule) in fleet.iter().enumerate() {
        for seg in schedule.segments() {
            let _ = audit.on_segment(m, *seg);
        }
    }
    for j in 0..inst.len() {
        let _ = audit.on_complete(
            j,
            reported.per_job.completion[j],
            reported.per_job.frac_flow[j],
            reported.per_job.int_flow[j],
        );
    }
    let fed = audit.finalize(&reported.objective);

    assert!(!post_hoc.passed(), "duplication must trip the fleet audit");
    assert_agree(&post_hoc, &fed, "duplicated fleet", true);
    for (a, b) in post_hoc.checks.iter().zip(&fed.checks) {
        assert_eq!(a.detail, b.detail, "{}", a.name);
    }
}

/// A run audited live, fed as the `stream` CLI feeds it, plus what a
/// post-hoc audit of the same run needs.
struct Live {
    audit: IncrementalAudit,
    buf: Vec<(usize, f64, f64, f64)>,
    builder: ScheduleBuilder,
    per_job: PerJob,
}

impl Live {
    fn new(law: PowerLaw, n: usize) -> Self {
        Self {
            audit: IncrementalAudit::new(law, AuditConfig::default()),
            buf: Vec::new(),
            builder: ScheduleBuilder::new(law),
            per_job: PerJob {
                completion: vec![f64::NAN; n],
                frac_flow: vec![0.0; n],
                int_flow: vec![0.0; n],
            },
        }
    }

    /// After an offer: retired segments first, then the buffered
    /// completions.
    fn feed(&mut self, ring: &mut SpillRing) {
        for seg in ring.drain() {
            self.builder.push(seg);
            let _ = self.audit.on_segment(seg);
        }
        for (id, completion, frac, int) in self.buf.drain(..) {
            self.per_job.completion[id] = completion;
            self.per_job.frac_flow[id] = frac;
            self.per_job.int_flow[id] = int;
            let _ = self.audit.on_complete(id, completion, frac, int);
        }
    }

    /// The live engine (not yet finalized), the rebuilt schedule, and the
    /// reported evaluation.
    fn finish(self, objective: Objective) -> (IncrementalAudit, Schedule, Evaluated) {
        let schedule = self.builder.build().expect("retired segments form a schedule");
        (self.audit, schedule, Evaluated { objective, per_job: self.per_job })
    }
}

fn live_c(jobs: &[Job], law: PowerLaw) -> (IncrementalAudit, Schedule, Evaluated) {
    let mut stream = CStream::new(law, StreamConfig::batch());
    let mut live = Live::new(law, jobs.len());
    for (id, &job) in jobs.iter().enumerate() {
        live.audit.on_release(id, job);
        let buf = &mut live.buf;
        let mut sink = |c: CCompletion| buf.push((c.id, c.completion, c.frac_flow, c.int_flow));
        stream.offer(job, &mut sink).expect("offer");
        live.feed(stream.spill_mut());
    }
    let buf = &mut live.buf;
    let summary = stream
        .finish(&mut |c: CCompletion| buf.push((c.id, c.completion, c.frac_flow, c.int_flow)))
        .expect("finish");
    live.feed(stream.spill_mut());
    live.finish(summary.objective)
}

fn live_nc(jobs: &[Job], law: PowerLaw) -> (IncrementalAudit, Schedule, Evaluated) {
    let mut stream = NcStream::new(law, StreamConfig::batch());
    let mut live = Live::new(law, jobs.len());
    for (id, &job) in jobs.iter().enumerate() {
        live.audit.on_release(id, job);
        let buf = &mut live.buf;
        let mut sink = |c: NcCompletion| buf.push((c.id, c.completion, c.frac_flow, c.int_flow));
        stream.offer(job, &mut sink).expect("offer");
        live.feed(stream.spill_mut());
    }
    let summary = stream.finish().expect("finish");
    live.feed(stream.spill_mut());
    live.finish(summary.objective)
}

#[test]
fn live_and_post_hoc_audits_agree_on_c_and_nc_runs() {
    for alpha in MATRIX_ALPHAS {
        let law = PowerLaw::new(alpha).expect("valid alpha");
        for (suite, inst) in suites() {
            let mut cores: Vec<(&str, fn(&[Job], PowerLaw) -> _)> = vec![("C", live_c)];
            if inst.is_uniform_density() {
                cores.push(("NC", live_nc)); // NC is the uniform-density core
            }
            for (core, run) in cores {
                let ctx = format!("{core} α={alpha} suite={suite}");
                let (engine, schedule, reported) = run(inst.jobs(), law);
                let auditor = ScheduleAudit::new(AuditConfig::default());

                let live = engine.clone().finalize(&reported.objective);
                let post_hoc = auditor.audit(&inst, &schedule, &reported);
                assert!(live.passed(), "{ctx}: live audit failed\n{live}");
                assert_agree(&live, &post_hoc, &format!("{ctx} honest"), false);

                // A skewed energy claim must trip the same check both ways.
                let mut skewed = reported.clone();
                skewed.objective.energy *= 1.05;
                let live = engine.finalize(&skewed.objective);
                let post_hoc = auditor.audit(&inst, &schedule, &skewed);
                assert!(!live.passed(), "{ctx}: skewed energy passed live");
                assert_agree(&live, &post_hoc, &format!("{ctx} skewed energy"), false);
            }
        }
    }
}
