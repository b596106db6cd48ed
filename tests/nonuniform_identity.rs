//! Bitwise oracle for non-uniform Algorithm NC.
//!
//! `run_nc_nonuniform` reads Algorithm C's speed on the current instance
//! `I(t)` from one checkpointed C stream per service stint, and keeps its
//! active jobs on a release cursor and a heap. The loop below is the
//! definition it replaced, kept here as the oracle: every step re-runs
//! `run_c` on the whole `I(t)` twice, reads the speed through the built
//! `Schedule`, and scans all jobs to pick the served one, find the next
//! release and accrue flow. Both must agree to the bit on the objective,
//! the per-job vectors, the step count and every segment, and on the error
//! when a run fails.
//!
//! The one intended difference is the order of rounded-density buckets:
//! the oracle's `pick` compares them with an absolute 1e-15 slack, so
//! buckets closer than that (densities below ~1e-15) tie. Instances with
//! such buckets are exempt; the unit test `rounded_buckets_order_exactly`
//! covers them.

use ncss::core::nc_nonuniform::NonUniformRun;
use ncss::core::{run_c, run_nc_nonuniform, NonUniformParams};
use ncss::pool::Pool;
use ncss::sim::numeric::KahanSum;
use ncss::sim::{Instance, Job, Objective, PerJob, PowerLaw, ScheduleBuilder, Segment, SimError, SimResult, SpeedLaw};
use ncss::workloads::adversarial::geometric_density_chain;
use ncss::workloads::{fault_suite, DensityDist, VolumeDist, WorkloadSpec};

/// What the oracle loop produces.
struct Reference {
    objective: Objective,
    per_job: PerJob,
    steps: usize,
    segments: Vec<Segment>,
}

/// `η · s^{(C)}_{I(t)}(t) + ε` by a fresh C run on the whole `I(t)`.
fn nested_speed(
    law: PowerLaw,
    params: &NonUniformParams,
    releases: &[f64],
    rounded: &[f64],
    t: f64,
    processed: &[f64],
) -> SimResult<f64> {
    let mut jobs = Vec::with_capacity(processed.len());
    for (j, &v) in processed.iter().enumerate() {
        if v > 0.0 {
            jobs.push(Job { release: releases[j], volume: v, density: rounded[j] });
        }
    }
    let s_c = if jobs.is_empty() {
        0.0
    } else {
        let inst = Instance::new(jobs)?;
        run_c(&inst, law)?.schedule.speed_at(t)
    };
    Ok(params.eta * s_c + params.epsilon)
}

/// The nested-re-run integrator, step for step (for valid parameters).
fn reference_run(instance: &Instance, law: PowerLaw, params: NonUniformParams) -> SimResult<Reference> {
    let rounded_inst = instance.with_rounded_densities(params.rounding_base)?;
    let jobs = instance.jobs();
    let n = jobs.len();
    let releases: Vec<f64> = jobs.iter().map(|j| j.release).collect();
    let rounded: Vec<f64> = rounded_inst.jobs().iter().map(|j| j.density).collect();
    let speed = |t: f64, processed: &[f64]| nested_speed(law, &params, &releases, &rounded, t, processed);

    let mut processed = vec![0.0f64; n];
    let mut completion = vec![f64::NAN; n];
    let mut frac_flow = vec![KahanSum::new(); n];
    let mut energy = KahanSum::new();
    let mut builder = ScheduleBuilder::new(law);
    let mut t = jobs.first().map_or(0.0, |j| j.release);
    let mut done = 0usize;
    let mut steps = 0usize;
    let mut stint_job: Option<usize> = None;
    let mut stint_start = t;

    let pick = |t: f64, completion: &[f64]| -> Option<usize> {
        let mut best: Option<usize> = None;
        for j in 0..n {
            if releases[j] > t + 1e-15 || !completion[j].is_nan() {
                continue;
            }
            match best {
                None => best = Some(j),
                Some(b) => {
                    let better = rounded[j] > rounded[b] + 1e-15
                        || ((rounded[j] - rounded[b]).abs() <= 1e-15 && (releases[j], j) < (releases[b], b));
                    if better {
                        best = Some(j);
                    }
                }
            }
        }
        best
    };

    while done < n {
        steps += 1;
        if steps > params.max_steps {
            return Err(SimError::NonConvergence { what: "non-uniform NC integration" });
        }
        let Some(cur) = pick(t, &completion) else {
            let next = releases
                .iter()
                .zip(&completion)
                .filter(|(r, c)| **r > t && c.is_nan())
                .map(|(r, _)| *r)
                .fold(f64::INFINITY, f64::min);
            if !next.is_finite() {
                return Err(SimError::Numeric { what: "run_nc_nonuniform: idle jump", value: next });
            }
            t = next;
            continue;
        };
        if stint_job != Some(cur) {
            stint_job = Some(cur);
            stint_start = t;
        }
        let rem = jobs[cur].volume - processed[cur];
        let s0 = speed(t, &processed)?;
        let dt_rel = releases.iter().filter(|&&r| r > t + 1e-15).fold(f64::INFINITY, |a, &r| a.min(r - t));
        let dv_grid = jobs[cur].volume / params.steps_per_job as f64;
        let dv_target = dv_grid.min(rem);
        let beta = law.beta();
        let rho_r = rounded[cur];
        let t_boot = (params.epsilon.powf(beta) / (rho_r.powf(1.0 - beta) * beta)).powf(1.0 / (1.0 - beta));
        let dt_cap = ((t - stint_start) * 0.02).max(t_boot * 1e-2);
        let dt_guess = (dv_target / s0).min(dt_cap).min(dt_rel);
        let mut half = processed.clone();
        half[cur] += s0 * dt_guess * 0.5;
        let s_mid = speed(t + dt_guess * 0.5, &half)?;
        if !s_mid.is_finite() {
            return Err(SimError::Numeric { what: "run_nc_nonuniform: speed", value: s_mid });
        }
        let mut dt = (dv_target / s_mid).min(dt_cap).min(dt_rel);
        let mut dv = s_mid * dt;
        let mut completes = dv >= rem * (1.0 - 1e-12);
        if completes {
            dv = rem;
            dt = rem / s_mid;
            if dt > dt_rel {
                completes = false;
                dt = dt_rel;
                dv = s_mid * dt;
            }
        }
        if !(dt.is_finite() && dt >= 0.0) {
            return Err(SimError::Numeric { what: "run_nc_nonuniform: step size", value: dt });
        }
        builder.push(Segment::new(t, t + dt, Some(cur), SpeedLaw::Constant { speed: s_mid }));
        energy.add(law.power(s_mid) * dt);
        for j in 0..n {
            if releases[j] > t + 1e-15 || !completion[j].is_nan() {
                continue;
            }
            let rem_j = jobs[j].volume - processed[j];
            if j == cur {
                frac_flow[j].add(jobs[j].density * (rem_j * dt - 0.5 * s_mid * dt * dt));
            } else {
                frac_flow[j].add(jobs[j].density * rem_j * dt);
            }
        }
        processed[cur] += dv;
        t += dt;
        if completes {
            processed[cur] = jobs[cur].volume;
            completion[cur] = t;
            done += 1;
        }
    }

    let frac: Vec<f64> = frac_flow.iter().map(KahanSum::value).collect();
    let int_flow: Vec<f64> =
        jobs.iter().enumerate().map(|(j, job)| job.weight() * (completion[j] - job.release)).collect();
    let objective = Objective { energy: energy.value(), frac_flow: frac.iter().sum(), int_flow: int_flow.iter().sum() }
        .validated("run_nc_nonuniform: objective")?;
    Ok(Reference {
        objective,
        per_job: PerJob { completion, frac_flow: frac, int_flow },
        steps,
        segments: builder.build()?.segments().to_vec(),
    })
}

fn same_floats(what: &str, a: &[f64], b: &[f64]) -> Result<(), String> {
    if a.len() != b.len() {
        return Err(format!("{what}: {} vs {} entries", a.len(), b.len()));
    }
    match a.iter().zip(b).position(|(x, y)| x.to_bits() != y.to_bits()) {
        Some(j) => Err(format!("{what}[{j}]: {:e} vs {:e}", a[j], b[j])),
        None => Ok(()),
    }
}

fn speed_of(seg: &Segment) -> f64 {
    match seg.law {
        SpeedLaw::Constant { speed } => speed,
        other => panic!("non-uniform NC emits constant-speed steps, got {other:?}"),
    }
}

/// Compare one run with its oracle; `Err` names the first difference.
fn compare(run: SimResult<NonUniformRun>, reference: SimResult<Reference>) -> Result<(), String> {
    let (run, reference) = match (run, reference) {
        (Ok(run), Ok(reference)) => (run, reference),
        (Err(a), Err(b)) if a.to_string() == b.to_string() => return Ok(()),
        (a, b) => return Err(format!("outcome: {:?} vs oracle {:?}", a.map(|r| r.objective), b.map(|r| r.objective))),
    };
    let o = (run.objective, reference.objective);
    same_floats("objective", &[o.0.energy, o.0.frac_flow, o.0.int_flow], &[o.1.energy, o.1.frac_flow, o.1.int_flow])?;
    same_floats("completion", &run.per_job.completion, &reference.per_job.completion)?;
    same_floats("frac_flow", &run.per_job.frac_flow, &reference.per_job.frac_flow)?;
    same_floats("int_flow", &run.per_job.int_flow, &reference.per_job.int_flow)?;
    if run.steps != reference.steps {
        return Err(format!("steps: {} vs {}", run.steps, reference.steps));
    }
    let segs = run.schedule.segments();
    if segs.len() != reference.segments.len() {
        return Err(format!("segments: {} vs {}", segs.len(), reference.segments.len()));
    }
    for (i, (a, b)) in segs.iter().zip(&reference.segments).enumerate() {
        let bits = |s: &Segment| (s.start.to_bits(), s.end.to_bits(), s.job, speed_of(s).to_bits());
        if bits(a) != bits(b) {
            return Err(format!("segment {i}: {a:?} vs {b:?}"));
        }
    }
    Ok(())
}

/// True when every two distinct rounded-density buckets lie more than
/// 1e-15 apart, so the oracle's slack compare orders them exactly.
fn buckets_separated(instance: &Instance, params: &NonUniformParams) -> bool {
    let Ok(rounded) = instance.with_rounded_densities(params.rounding_base) else { return true };
    let mut buckets: Vec<f64> = rounded.jobs().iter().map(|j| j.density).collect();
    buckets.sort_by(f64::total_cmp);
    buckets.dedup();
    buckets.windows(2).all(|w| w[1] - w[0] > 1e-15)
}

struct Case {
    label: String,
    instance: Instance,
    alpha: f64,
    params: NonUniformParams,
}

/// Run every case against the oracle on the worker pool; fail with every
/// difference found.
fn check_all(cases: &[Case]) {
    let failures: Vec<String> = Pool::auto()
        .map(cases, |case| {
            let law = PowerLaw::new(case.alpha).expect("valid alpha");
            let run = run_nc_nonuniform(&case.instance, law, case.params);
            compare(run, reference_run(&case.instance, law, case.params))
                .err()
                .map(|e| format!("{} (alpha {}): {e}", case.label, case.alpha))
        })
        .into_iter()
        .flatten()
        .collect();
    assert!(failures.is_empty(), "{} runs differ from the oracle:\n{}", failures.len(), failures.join("\n"));
}

fn params(steps_per_job: usize, alpha: f64) -> NonUniformParams {
    NonUniformParams { steps_per_job, ..NonUniformParams::recommended(alpha) }
}

#[test]
fn seeded_suites_are_bitwise_the_nested_rerun() {
    let mut cases = Vec::new();
    for (k, &alpha) in [1.5, 2.0, 2.5, 3.0, 4.7].iter().enumerate() {
        for (n, seed) in [(4usize, 11u64), (7, 12), (10, 13)] {
            let seed = seed + 10 * k as u64;
            let instance = WorkloadSpec {
                n_jobs: n,
                arrival_rate: 1.5,
                volumes: VolumeDist::Exponential { mean: 1.0 },
                densities: DensityDist::LogUniform { lo: 0.5, hi: 10.0 },
            }
            .generate(seed)
            .expect("valid spec");
            cases.push(Case {
                label: format!("loguniform n={n} seed={seed}"),
                instance,
                alpha,
                params: params(40, alpha),
            });
        }
    }
    let instance = WorkloadSpec {
        n_jobs: 16,
        arrival_rate: 2.0,
        volumes: VolumeDist::Exponential { mean: 0.5 },
        densities: DensityDist::LogUniform { lo: 0.2, hi: 20.0 },
    }
    .generate(7)
    .expect("valid spec");
    cases.push(Case { label: "loguniform n=16 seed=7".into(), instance, alpha: 3.0, params: params(150, 3.0) });
    check_all(&cases);
}

#[test]
fn coincident_releases_idle_gaps_and_preemption_chains_are_bitwise_the_nested_rerun() {
    let coincident = Instance::new(vec![
        Job::new(0.0, 0.7, 1.0),
        Job::new(0.5, 0.4, 6.0),
        Job::new(0.5, 0.9, 30.0),
        Job::new(0.5, 0.3, 1.3),
        Job::new(0.5, 0.5, 6.0),
        Job::new(1.2, 0.2, 0.6),
    ])
    .expect("valid instance");
    let gaps = Instance::new(vec![
        Job::new(0.0, 0.3, 2.0),
        Job::new(0.1, 0.2, 11.0),
        Job::new(40.0, 0.5, 1.0),
        Job::new(40.0, 0.1, 90.0),
        Job::new(300.0, 0.4, 0.3),
    ])
    .expect("valid instance");
    // Inside the 1e-15 admission slack: NC serves jobs 1 and 2 in steps of
    // ~1e-34, then job 3, admitted at t = 0 ahead of its release 9e-16,
    // until job 4 (released 1e-15 + 4e-31) is admitted and preempts it.
    // The nested C run is then read at t ~ 4e-31, before job 3's release,
    // while C still serves job 1 and would finish jobs 1 and 2 before it.
    let slack = Instance::new(vec![
        Job::new(0.0, 1.0, 1.0),
        Job::new(0.0, 4e-35, 625.0),
        Job::new(0.0, 4e-35, 125.0),
        Job::new(9e-16, 4e-33, 5.0),
        Job::new(1e-15 + 4e-31, 0.2, 25.0),
    ])
    .expect("valid instance");
    let mut cases = Vec::new();
    for alpha in [2.0, 3.0] {
        let chain =
            geometric_density_chain(PowerLaw::new(alpha).expect("valid alpha"), 5, 6.0, 1.0).expect("valid chain");
        // Staggered copy of the chain: each denser job preempts the last.
        let staggered = Instance::new(
            chain.jobs().iter().enumerate().map(|(i, j)| Job { release: 0.05 * i as f64, ..*j }).collect(),
        )
        .expect("valid instance");
        for (label, instance) in [
            ("coincident", &coincident),
            ("idle gaps", &gaps),
            ("admission slack", &slack),
            ("density chain", &chain),
            ("staggered chain", &staggered),
        ] {
            cases.push(Case { label: label.into(), instance: instance.clone(), alpha, params: params(60, alpha) });
        }
    }
    check_all(&cases);
}

/// Fault-suite cases checked per seed: every one in release builds, which
/// verify.sh runs; every 7th in debug builds, where the oracle's nested
/// re-runs would take minutes. 7 is prime to the suite's cycle of 4 base
/// shapes x 5 fault kinds, so the debug subset still meets every pairing.
const FAULT_STRIDE: usize = if cfg!(debug_assertions) { 7 } else { 1 };

#[test]
fn fault_suite_seeds_one_to_four_are_bitwise_the_nested_rerun() {
    // fault_contract's settings for the non-uniform integrator.
    let quick = NonUniformParams { steps_per_job: 60, max_steps: 60_000, ..NonUniformParams::default() };
    let mut cases = Vec::new();
    for seed in 1..=4u64 {
        for case in fault_suite(seed, 220).into_iter().step_by(FAULT_STRIDE) {
            let Ok(instance) = case.instance else { continue };
            if !buckets_separated(&instance, &quick) {
                continue;
            }
            for alpha in [2.0, 3.0] {
                cases.push(Case {
                    label: format!("seed {seed} {}", case.label),
                    instance: instance.clone(),
                    alpha,
                    params: quick,
                });
            }
        }
    }
    assert!(cases.len() >= 800 / FAULT_STRIDE, "only {} runnable fault cases", cases.len());
    check_all(&cases);
}
