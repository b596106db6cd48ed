//! Serial == sharded bitwise identity for the fleet (DESIGN.md §12).
//!
//! The sharded executors in `ncss_multi::fleet` claim more than agreement
//! to tolerance: for every dispatch log, replaying per-machine event queues
//! as pool tasks must reproduce the serial runners **bit for bit** —
//! objectives, per-job completions and flows, per-machine timelines, and
//! the audit verdicts and residuals gating the run. This property is what
//! makes the k-sweep study (`BENCH_fleet.json`) trustworthy: a sharded
//! cell is the serial algorithm's cell, not an approximation of it.
//!
//! Matrix: k ∈ {1, 2, 7, 64} × two workload suites (a diverse
//! uniform-density suite and a bursty tie-heavy suite) × α ∈ {2, 2.75},
//! for C-PAR, NC-PAR, and the immediate-dispatch policies, across several
//! pool widths (1 worker, oversubscribed, auto).
//!
//! Since the serial runners are the dispatch log replayed on one worker,
//! serial == sharded pins pool-width independence; what pins the
//! dispatch itself is the independent oracle at the end of this file:
//! test-local copies of the loops that re-derived `W^{(C)}(r^-)` with a
//! fresh `run_c` over each machine's history, which the per-machine
//! shadows and NC streams of `ncss_multi` must reproduce bit for bit. The
//! same cells check Lemma 20: NC-PAR assigns every job where C-PAR does.

use ncss::audit::AuditConfig;
use ncss::core::run_c;
use ncss::multi::fleet::{
    audit_fleet, first_divergence, replay_nc, run_c_par_sharded, run_nc_par_sharded, DispatchLog,
};
use ncss::multi::{
    run_c_par, run_immediate_dispatch, run_nc_par, LeastCount, ParOutcome, RoundRobin,
    SeededRandom,
};
use ncss::pool::Pool;
use ncss::sim::kernel::GrowthKernel;
use ncss::sim::{
    Instance, Job, Objective, PerJob, PowerLaw, Schedule, ScheduleBuilder, Segment, SpeedLaw,
};
use ncss::workloads::suite::uniform_suite;
use ncss::workloads::{VolumeDist, WorkloadSpec};

const KS: [usize; 4] = [1, 2, 7, 64];
const ALPHAS: [f64; 2] = [2.0, 2.75];

/// Suite 1: a spread of the standard uniform-density workloads (sizes,
/// volume distributions, arrival rates), subsampled for wall-time.
fn diverse_suite() -> Vec<Instance> {
    uniform_suite(41).into_iter().step_by(7).collect()
}

/// Suite 2: bursty, tie-heavy arrivals — coincident releases and bimodal
/// volumes are where dispatch tie-breaks and availability-slack edge cases
/// live, so bitwise identity is hardest here.
fn bursty_suite() -> Vec<Instance> {
    let mut out = Vec::new();
    for (n, seed) in [(9usize, 3u64), (26, 5), (48, 8)] {
        let spec = WorkloadSpec::uniform(
            n,
            6.0,
            VolumeDist::Bimodal { small: 0.05, large: 4.0, p_large: 0.2 },
        );
        let inst = spec.generate(seed).expect("bursty spec");
        // Quantise releases onto a coarse grid to force exact ties.
        let jobs: Vec<Job> = inst
            .jobs()
            .iter()
            .map(|j| Job::unit_density((j.release * 2.0).floor() / 2.0, j.volume))
            .collect();
        out.push(Instance::new(jobs).expect("bursty instance"));
    }
    out
}

fn pools() -> Vec<Pool> {
    vec![Pool::with_threads(1), Pool::with_threads(13), Pool::auto()]
}

#[track_caller]
fn assert_bitwise(serial: &ParOutcome, sharded: &ParOutcome, ctx: &str) {
    if let Some(divergence) = first_divergence(serial, sharded) {
        panic!("{ctx}: {divergence}");
    }
}

/// The audit gate agrees too: the fleet audit passes the sharded outcome,
/// and — same events in, same residuals out — audits the serial outcome to
/// the same verdicts and residual bits.
#[track_caller]
fn assert_audit_bitwise(
    inst: &Instance,
    law: PowerLaw,
    serial: &ParOutcome,
    sharded: &ParOutcome,
    ctx: &str,
) {
    let on_sharded = audit_fleet(inst, law, sharded, AuditConfig::default());
    assert!(on_sharded.passed(), "{ctx}: sharded fleet audit failed\n{}", on_sharded.render());
    let on_serial = audit_fleet(inst, law, serial, AuditConfig::default());
    assert_eq!(on_serial.checks.len(), on_sharded.checks.len(), "{ctx}: check count");
    for (s, p) in on_serial.checks.iter().zip(&on_sharded.checks) {
        assert_eq!(s.name, p.name, "{ctx}: check order");
        assert_eq!(s.passed, p.passed, "{ctx}: {} verdict", s.name);
        assert_eq!(
            s.residual.to_bits(),
            p.residual.to_bits(),
            "{ctx}: {} residual serial-input {:?} vs sharded-input {:?}",
            s.name,
            s.residual,
            p.residual
        );
    }
}

#[test]
fn c_par_sharded_is_bitwise_serial_across_the_matrix() {
    let pools = pools();
    for (si, suite) in [diverse_suite(), bursty_suite()].iter().enumerate() {
        for (ii, inst) in suite.iter().enumerate() {
            for &alpha in &ALPHAS {
                let law = PowerLaw::new(alpha).unwrap();
                for &k in &KS {
                    let ctx = format!("c-par suite{si}/inst{ii} n={} k={k} a={alpha}", inst.len());
                    let serial = run_c_par(inst, law, k).expect("serial c-par");
                    let pool = &pools[(ii + k) % pools.len()];
                    let sharded =
                        run_c_par_sharded(inst, law, k, pool).expect("sharded c-par");
                    assert_bitwise(&serial, &sharded, &ctx);
                    assert_audit_bitwise(inst, law, &serial, &sharded, &ctx);
                }
            }
        }
    }
}

#[test]
fn nc_par_sharded_is_bitwise_serial_across_the_matrix() {
    let pools = pools();
    for (si, suite) in [diverse_suite(), bursty_suite()].iter().enumerate() {
        for (ii, inst) in suite.iter().enumerate() {
            for &alpha in &ALPHAS {
                let law = PowerLaw::new(alpha).unwrap();
                for &k in &KS {
                    let ctx = format!("nc-par suite{si}/inst{ii} n={} k={k} a={alpha}", inst.len());
                    let serial = run_nc_par(inst, law, k).expect("serial nc-par");
                    let pool = &pools[(ii + k) % pools.len()];
                    let sharded =
                        run_nc_par_sharded(inst, law, k, pool).expect("sharded nc-par");
                    assert_bitwise(&serial, &sharded, &ctx);
                    assert_audit_bitwise(inst, law, &serial, &sharded, &ctx);
                }
            }
        }
    }
}

#[test]
fn immediate_dispatch_policies_shard_bitwise() {
    // The volume-blind policies drive the lower-bound study; their sharded
    // replay must be the serial run bit for bit, including the seeded one
    // (same seed -> same decisions on both paths).
    let pool = Pool::auto();
    let inst = &bursty_suite()[1];
    let law = PowerLaw::new(2.75).unwrap();
    for k in [2usize, 7, 64] {
        let policies: Vec<(&str, Box<dyn Fn() -> Box<dyn ncss::multi::ImmediateDispatch>>)> = vec![
            ("round-robin", Box::new(|| Box::<RoundRobin>::default())),
            ("least-count", Box::new(|| Box::<LeastCount>::default())),
            ("seeded-random", Box::new(|| Box::new(SeededRandom::new(97)))),
        ];
        for (name, mk) in policies {
            let ctx = format!("dispatch {name} k={k}");
            let serial = {
                let mut p = mk();
                run_immediate_dispatch(inst, law, k, p.as_mut()).expect("serial dispatch")
            };
            let sharded = {
                let mut p = mk();
                let log = DispatchLog::from_policy(inst, k, p.as_mut()).expect("log");
                replay_nc(inst, law, &log, &pool).expect("sharded dispatch")
            };
            assert_bitwise(&serial, &sharded, &ctx);
            assert_audit_bitwise(inst, law, &serial, &sharded, &ctx);
        }
    }
}

#[test]
fn dispatch_log_is_replayable_and_self_consistent() {
    // The log is the contract between the serial dispatcher and the pool
    // tasks: replaying the same log twice (any pool) gives the same bits,
    // and the log's assignment is exactly the serial runner's.
    let inst = &diverse_suite()[2];
    let law = PowerLaw::new(2.0).unwrap();
    for &k in &KS {
        let log = DispatchLog::nc_par(inst, law, k).expect("nc-par log");
        let serial = run_nc_par(inst, law, k).expect("serial");
        assert_eq!(log.assignment(), serial.assignment, "k={k}");
        let a = replay_nc(inst, law, &log, &Pool::with_threads(2)).expect("replay A");
        let b = replay_nc(inst, law, &log, &Pool::with_threads(9)).expect("replay B");
        assert_bitwise(&a, &b, &format!("replay-twice k={k}"));
    }
}

// ---------------------------------------------------------------------------
// Independent oracle: the dispatch loops that re-ran Algorithm C
// ---------------------------------------------------------------------------

/// `K = W^{(C)}(r^-)` for a job released at `release` on a machine whose
/// earlier jobs are `history` (release-sorted): a fresh `run_c` over the
/// strictly-earlier ones, read at the left limit, plus the full weight of
/// the ones tied at `release`.
fn rerun_base_power(history: &[Job], release: f64, law: PowerLaw) -> f64 {
    let cut = history.partition_point(|i| i.release < release);
    let strictly_before = if cut == 0 {
        0.0
    } else {
        let prefix = Instance::new(history[..cut].to_vec()).expect("prefix");
        run_c(&prefix, law).expect("prefix run").remaining_weight_before(release)
    };
    let ties: f64 =
        history[cut..].iter().filter(|i| i.release == release).map(Job::weight).sum();
    strictly_before + ties
}

/// Serial NC-PAR with `K_j` re-derived from the machine's strictly-earlier
/// history on every dispatch — quadratic, kept only as the oracle. A job
/// goes to the lowest-indexed machine available within `1e-12` of
/// `max(release, earliest availability)` and starts there at
/// `max(release, that machine's availability)`; each machine's energy and
/// flows are summed in dispatch order, and the machine totals in machine
/// order.
fn reference_nc_par(inst: &Instance, law: PowerLaw, machines: usize) -> ParOutcome {
    let n = inst.len();
    let mut assignment = vec![0usize; n];
    let mut avail = vec![0.0f64; machines];
    let mut history: Vec<Vec<Job>> = vec![Vec::new(); machines];
    let mut builders: Vec<ScheduleBuilder> =
        (0..machines).map(|_| ScheduleBuilder::new(law)).collect();
    let mut totals = vec![Objective::default(); machines];
    let mut completion = vec![f64::NAN; n];
    let mut frac_flow = vec![0.0; n];
    let mut int_flow = vec![0.0; n];
    for (j, job) in inst.jobs().iter().enumerate() {
        let earliest = avail.iter().copied().fold(f64::INFINITY, f64::min);
        let t = job.release.max(earliest);
        let m = (0..machines).find(|&m| avail[m] <= t + 1e-12).expect("available machine");
        assignment[j] = m;
        let start = job.release.max(avail[m]);
        let k_j = rerun_base_power(&history[m], job.release, law);
        let rho = job.density;
        let sv = GrowthKernel { law, u0: k_j, rho }.serve_volume(job.volume);
        frac_flow[j] = rho * job.volume * (start - job.release)
            + rho * (job.volume * sv.tau - sv.step.volume_integral);
        completion[j] = start + sv.tau;
        int_flow[j] = job.weight() * (completion[j] - job.release);
        totals[m].energy += sv.step.energy;
        totals[m].frac_flow += frac_flow[j];
        totals[m].int_flow += int_flow[j];
        let law_j = SpeedLaw::Growth { u0: k_j, rho };
        builders[m].push(Segment::new(start, completion[j], Some(j), law_j));
        avail[m] = completion[j];
        history[m].push(*job);
    }
    let mut objective = Objective::default();
    for t in &totals {
        objective.energy += t.energy;
        objective.frac_flow += t.frac_flow;
        objective.int_flow += t.int_flow;
    }
    ParOutcome {
        assignment,
        objective,
        per_job: PerJob { completion, frac_flow, int_flow },
        schedules: builders.into_iter().map(|b| b.build().expect("timeline")).collect(),
    }
}

/// Serial C-PAR whose greedy scan runs a fresh `run_c` for every probe of
/// every machine, then runs Algorithm C per machine and merges in machine
/// order.
fn reference_c_par(inst: &Instance, law: PowerLaw, machines: usize) -> ParOutcome {
    let n = inst.len();
    let mut jobs_on: Vec<Vec<Job>> = vec![Vec::new(); machines];
    let mut ids_on: Vec<Vec<usize>> = vec![Vec::new(); machines];
    let mut assignment = Vec::with_capacity(n);
    for (j, job) in inst.jobs().iter().enumerate() {
        let mut best = 0usize;
        let mut best_w = f64::INFINITY;
        for (m, jobs) in jobs_on.iter().enumerate() {
            let strictly_before = if jobs.is_empty() {
                0.0
            } else {
                let run = run_c(&Instance::new(jobs.clone()).expect("machine"), law);
                run.expect("probe run").remaining_weight_before(job.release)
            };
            let ties: f64 =
                jobs.iter().filter(|i| i.release == job.release).map(Job::weight).sum();
            let w = strictly_before + ties;
            if w < best_w - 1e-12 {
                best_w = w;
                best = m;
            }
        }
        assignment.push(best);
        jobs_on[best].push(*job);
        ids_on[best].push(j);
    }
    let mut objective = Objective::default();
    let mut per_job =
        PerJob { completion: vec![f64::NAN; n], frac_flow: vec![0.0; n], int_flow: vec![0.0; n] };
    let mut schedules = Vec::with_capacity(machines);
    for (jobs, ids) in jobs_on.iter().zip(&ids_on) {
        let run = run_c(&Instance::new(jobs.clone()).expect("machine"), law).expect("machine run");
        objective.energy += run.objective.energy;
        objective.frac_flow += run.objective.frac_flow;
        objective.int_flow += run.objective.int_flow;
        for (local, &id) in ids.iter().enumerate() {
            per_job.completion[id] = run.per_job.completion[local];
            per_job.frac_flow[id] = run.per_job.frac_flow[local];
            per_job.int_flow[id] = run.per_job.int_flow[local];
        }
        let segments = run
            .schedule
            .segments()
            .iter()
            .map(|s| Segment { job: s.job.map(|local| ids[local]), ..*s })
            .collect();
        schedules.push(Schedule::new(law, segments).expect("timeline"));
    }
    ParOutcome { assignment, objective, per_job, schedules }
}

#[test]
fn shadow_dispatch_is_bitwise_the_history_rerun() {
    for (si, suite) in [diverse_suite(), bursty_suite()].iter().enumerate() {
        for (ii, inst) in suite.iter().enumerate() {
            for alpha in [2.0, 2.75, 3.0] {
                let law = PowerLaw::new(alpha).unwrap();
                for &k in &KS {
                    let ctx = format!("suite{si}/inst{ii} n={} k={k} a={alpha}", inst.len());
                    let c_par = run_c_par(inst, law, k).expect("c-par");
                    assert_bitwise(&reference_c_par(inst, law, k), &c_par, &format!("c-par {ctx}"));
                    let nc_par = run_nc_par(inst, law, k).expect("nc-par");
                    let want = reference_nc_par(inst, law, k);
                    assert_bitwise(&want, &nc_par, &format!("nc-par {ctx}"));
                    // Lemma 20: NC-PAR assigns every job where C-PAR does.
                    assert_eq!(nc_par.assignment, c_par.assignment, "lemma 20 {ctx}");
                }
            }
        }
    }
}

#[test]
fn shadow_read_order_holds_past_the_weight_resync() {
    // 2,500 Poisson(4)/Exp(1) jobs on one machine make about 5,000 shadow
    // events, past the 4,096-event exact resync of the shadow's total
    // weight. A shadow that read W(r^-) before offering the job would count
    // one extra zero-length event per release, resync on different events
    // than the prefix re-run, and move the energy by a few ulps here.
    let spec = WorkloadSpec::uniform(2_500, 4.0, VolumeDist::Exponential { mean: 1.0 });
    let inst = spec.generate(14).expect("poisson instance");
    let law = PowerLaw::new(3.0).unwrap();
    let nc_par = run_nc_par(&inst, law, 1).expect("nc-par");
    assert_bitwise(&reference_nc_par(&inst, law, 1), &nc_par, "nc-par n=2500 k=1 a=3");
}
