//! In-process replicas of each workload's CLI commands.
//!
//! A replica makes the calls the CLI command makes, through the layers'
//! public functions, with a [`Tracer`] timer around each call. Its results
//! are the reference the CLI's printed output is checked against, and with
//! the tracer on it gives the per-layer attribution. The replica gets its
//! jobs from memory where the CLI parses rows, so the CLI's row parsing,
//! process start and printing show as `cli.overhead_s`.

use crate::tracer::{CallId, Kind, Layer, Tracer};
use crate::workload::{
    Expected, Prepared, Want, Workload, ALPHA, CHECKPOINT_EVERY, SPILL, THREADS,
};
use ncss_analysis::fmt_f;
use ncss_audit::{AuditConfig, AuditReport, IncrementalAudit, ScheduleAudit};
use ncss_core::streaming::{CCompletion, CStream, NcCompletion, NcStream, StreamConfig};
use ncss_core::{run_nc_nonuniform, NonUniformParams};
use ncss_multi::fleet::{audit_fleet, replay_c, replay_nc, DispatchLog};
use ncss_multi::{run_c_par, run_nc_par, ParOutcome};
use ncss_pool::Pool;
use ncss_sim::{
    Evaluated, Instance, Objective, PerJob, PowerLaw, ScheduleBuilder, Segment, SpillRing,
};
use ncss_trace::{reader, replay, Algo, Checkpoint, Event, Recorder, TraceHeader, TraceSummary};
use ncss_workloads::instance_from_csv;

/// What a replica pass produced.
#[derive(Debug, Clone)]
pub struct Replica {
    /// One entry per CLI command of the workload, in order.
    pub expected: Vec<Expected>,
    /// Counts the pass observed (`core.peak_active`, `audit.trips`, …) and
    /// the batch audit's own per-check times.
    pub counters: Vec<(String, f64)>,
}

/// Run the replica of `p` once.
pub fn run(p: &Prepared, t: &mut Tracer) -> Result<Replica, String> {
    let law = PowerLaw::new(ALPHA).map_err(|e| e.to_string())?;
    match p.workload {
        Workload::StreamAudited => stream_audited(p, law, t),
        Workload::TraceRecord => trace_record(p, law, t),
        Workload::TraceReplay => {
            t.begin("replay");
            let (report, want) = replay_leg(&p.replay_trace, t)?;
            t.end();
            let counters = vec![(
                "trace.checkpoints_verified".into(),
                report.checkpoints_verified as f64,
            )];
            Ok(Replica {
                expected: vec![want],
                counters,
            })
        }
        Workload::FleetCPar | Workload::FleetNcPar => fleet(p, law, t),
        Workload::OfflineBatch => offline_batch(p, law, t),
    }
}

fn objective_rows(o: &Objective) -> Vec<Want> {
    vec![
        Want::equals("energy", fmt_f(o.energy)),
        Want::equals("frac flow", fmt_f(o.frac_flow)),
        Want::equals("int flow", fmt_f(o.int_flow)),
    ]
}

struct Feed {
    drain: CallId,
    on_segment: CallId,
    on_complete: CallId,
}

/// The CLI's incremental feeding order: retired segments, then the
/// completions the offer emitted. Returns the number of tripped checks.
fn feed(
    t: &mut Tracer,
    ids: &Feed,
    ring: &mut SpillRing,
    audit: &mut IncrementalAudit,
    segs: &mut Vec<Segment>,
    done: &mut Vec<CCompletion>,
) -> u64 {
    let mut trips = 0;
    segs.clear();
    t.time(ids.drain, || segs.extend(ring.drain()));
    for &seg in segs.iter() {
        trips += u64::from(t.time(ids.on_segment, || audit.on_segment(seg)).is_some());
    }
    for c in done.drain(..) {
        let trip = t.time(ids.on_complete, || {
            audit.on_complete(c.id, c.completion, c.frac_flow, c.int_flow)
        });
        trips += u64::from(trip.is_some());
    }
    trips
}

/// `stream --algorithm c --audit incremental`.
fn stream_audited(p: &Prepared, law: PowerLaw, t: &mut Tracer) -> Result<Replica, String> {
    let offer = t.register("core.offer", Layer::Core, Kind::PerEvent);
    let on_release = t.register("audit.on_release", Layer::Audit, Kind::PerEvent);
    let ids = Feed {
        drain: t.register("sim.spill_drain", Layer::Sim, Kind::PerEvent),
        on_segment: t.register("audit.on_segment", Layer::Audit, Kind::PerEvent),
        on_complete: t.register("audit.on_complete", Layer::Audit, Kind::PerEvent),
    };
    let finish = t.register("core.finish", Layer::Core, Kind::Coarse);
    let finalize = t.register("audit.finalize", Layer::Audit, Kind::Coarse);

    t.begin("stream");
    let mut stream = CStream::new(law, StreamConfig::streaming(SPILL));
    let mut audit = IncrementalAudit::new(law, AuditConfig::default());
    let mut done: Vec<CCompletion> = Vec::new();
    let mut segs: Vec<Segment> = Vec::new();
    let mut trips = 0;
    for (id, &job) in p.jobs.iter().enumerate() {
        t.time(on_release, || audit.on_release(id, job));
        t.time(offer, || stream.offer(job, &mut |c| done.push(c)))
            .map_err(|e| e.to_string())?;
        trips += feed(
            t,
            &ids,
            stream.spill_mut(),
            &mut audit,
            &mut segs,
            &mut done,
        );
    }
    let summary = t
        .time(finish, || stream.finish(&mut |c| done.push(c)))
        .map_err(|e| e.to_string())?;
    trips += feed(
        t,
        &ids,
        stream.spill_mut(),
        &mut audit,
        &mut segs,
        &mut done,
    );
    let objective = summary.objective;
    let report = t.time(finalize, || audit.finalize(&objective));
    t.end();

    let stats = stream.stats();
    let verdict = if report.passed() { "PASS" } else { "FAIL" };
    let mut wants = objective_rows(&objective);
    wants.push(Want::equals(
        "jobs completed",
        summary.completed.to_string(),
    ));
    wants.push(Want::equals(
        "spill dropped",
        stats.spill_dropped.to_string(),
    ));
    wants.push(Want::prefix("incremental audit", verdict));
    let n = p.jobs.len().max(1) as f64;
    Ok(Replica {
        expected: vec![Expected { wants, file: None }],
        counters: vec![
            ("audit.trips".into(), trips as f64),
            ("core.peak_active".into(), stats.peak_active as f64),
            (
                "core.segments_per_event".into(),
                stats.spill_total as f64 / n,
            ),
        ],
    })
}

fn nc_event(c: &NcCompletion) -> Event {
    Event::CompleteNc {
        id: c.id as u64,
        base_power: c.base_power,
        start: c.start,
        completion: c.completion,
        frac_flow: c.frac_flow,
        int_flow: c.int_flow,
    }
}

/// `record --algorithm nc` over the rows CSV.
fn trace_record(p: &Prepared, law: PowerLaw, t: &mut Tracer) -> Result<Replica, String> {
    let create = t.register("trace.create", Layer::Trace, Kind::Coarse);
    let append = t.register("trace.append", Layer::Trace, Kind::PerEvent);
    let offer = t.register("core.offer", Layer::Core, Kind::PerEvent);
    let drain = t.register("sim.spill_drain", Layer::Sim, Kind::PerEvent);
    let snapshot = t.register("core.snapshot", Layer::Core, Kind::PerEvent);
    let append_cp = t.register("trace.append_checkpoint", Layer::Trace, Kind::PerEvent);
    let flush = t.register("trace.flush", Layer::Trace, Kind::PerEvent);
    let finish = t.register("core.finish", Layer::Core, Kind::Coarse);
    let finalize = t.register("trace.finalize", Layer::Trace, Kind::Coarse);
    let err = |e: ncss_trace::TraceError| e.to_string();

    t.begin("record");
    // A CSV input records seed 0, as the CLI does.
    let header = TraceHeader::new(Algo::Nc, ALPHA, 0, "");
    let mut rec = t
        .time(create, || Recorder::create(&p.replica_trace, &header))
        .map_err(err)?;
    let mut stream = NcStream::new(law, StreamConfig::streaming(SPILL));
    let mut pending: Vec<NcCompletion> = Vec::new();
    let mut segs: Vec<Segment> = Vec::new();
    for (id, &job) in p.jobs.iter().enumerate() {
        t.time(append, || {
            rec.append(&Event::Release { id: id as u64, job })
        })
        .map_err(err)?;
        t.time(offer, || stream.offer(job, &mut |c| pending.push(c)))
            .map_err(|e| e.to_string())?;
        for c in pending.drain(..) {
            t.time(append, || rec.append(&nc_event(&c))).map_err(err)?;
        }
        segs.clear();
        t.time(drain, || segs.extend(stream.spill_mut().drain()));
        for &seg in &segs {
            t.time(append, || rec.append(&Event::Segment(seg)))
                .map_err(err)?;
        }
        if (id + 1) % CHECKPOINT_EVERY == 0 {
            let cp = t.time(snapshot, || Checkpoint::Nc(stream.snapshot()));
            t.time(append_cp, || rec.append(&Event::Checkpoint(Box::new(cp))))
                .map_err(err)?;
            t.time(flush, || rec.flush()).map_err(err)?;
        }
    }
    let summary = t
        .time(finish, || stream.finish())
        .map_err(|e| e.to_string())?;
    segs.clear();
    t.time(drain, || segs.extend(stream.spill_mut().drain()));
    for &seg in &segs {
        t.time(append, || rec.append(&Event::Segment(seg)))
            .map_err(err)?;
    }
    let o = summary.objective;
    let tally = TraceSummary {
        ingested: p.jobs.len() as u64,
        completed: summary.completed as u64,
        makespan: summary.makespan,
        energy: o.energy,
        frac_flow: o.frac_flow,
        int_flow: o.int_flow,
    };
    // `Recorder::finalize` is this append plus a flush; spelling it out
    // keeps the recorder, whose `bytes_written` is the size check.
    t.time(finalize, || {
        rec.append(&Event::Summary(tally)).and_then(|_| rec.flush())
    })
    .map_err(err)?;
    t.end();
    let bytes = rec.bytes_written();
    drop(rec);
    let _ = std::fs::remove_file(&p.replica_trace);

    let mut wants = objective_rows(&o);
    wants.push(Want::equals("finalized", "yes"));
    wants.push(Want::equals("jobs offered", p.jobs.len().to_string()));
    let stats = stream.stats();
    let n = p.jobs.len().max(1) as f64;
    Ok(Replica {
        expected: vec![Expected {
            wants,
            file: Some((p.record_trace.clone(), bytes)),
        }],
        counters: vec![
            ("trace.bytes_per_event".into(), bytes as f64 / n),
            ("core.peak_active".into(), stats.peak_active as f64),
            (
                "core.segments_per_event".into(),
                stats.spill_total as f64 / n,
            ),
        ],
    })
}

/// `replay --trace`: strict read, then verified re-execution.
fn replay_leg(
    path: &std::path::Path,
    t: &mut Tracer,
) -> Result<(replay::ReplayReport, Expected), String> {
    let read = t.register("trace.read_file", Layer::Trace, Kind::Coarse);
    let run = t.register("trace.replay", Layer::Trace, Kind::Coarse);
    let err = |e: ncss_trace::TraceError| e.to_string();
    let trace = t.time(read, || reader::read_file(path)).map_err(err)?;
    let report = t.time(run, || replay(&trace)).map_err(err)?;
    let r = &report.recorded;
    let objective = Objective {
        energy: r.energy,
        frac_flow: r.frac_flow,
        int_flow: r.int_flow,
    };
    let mut wants = objective_rows(&objective);
    wants.push(Want::equals("recorded == replayed", "bitwise"));
    wants.push(Want::equals("jobs", report.jobs.len().to_string()));
    wants.push(Want::equals(
        "checkpoints verified",
        report.checkpoints_verified.to_string(),
    ));
    Ok((report, Expected { wants, file: None }))
}

/// The bitwise serial-versus-sharded contract the `fleet` command checks.
fn same_bits(serial: &ParOutcome, sharded: &ParOutcome) -> bool {
    let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let o = |x: &ParOutcome| {
        bits(&[
            x.objective.energy,
            x.objective.frac_flow,
            x.objective.int_flow,
        ])
    };
    serial.assignment == sharded.assignment
        && o(serial) == o(sharded)
        && bits(&serial.per_job.completion) == bits(&sharded.per_job.completion)
        && serial.schedules.len() == sharded.schedules.len()
        && serial
            .schedules
            .iter()
            .zip(&sharded.schedules)
            .all(|(a, b)| a.segments() == b.segments())
}

/// `fleet --algorithm c-par|nc-par` on each instance at each machine count.
fn fleet(p: &Prepared, law: PowerLaw, t: &mut Tracer) -> Result<Replica, String> {
    let csv_read = t.register("workloads.csv_read", Layer::Workloads, Kind::Coarse);
    let nc = p.workload == Workload::FleetNcPar;
    let sim = |e: ncss_sim::SimError| e.to_string();
    let mut expected = Vec::new();
    for csv in &p.csvs {
        for k in p.sizes.fleet_machines {
            let dispatch = t.register(&format!("multi.dispatch.k{k}"), Layer::Multi, Kind::Coarse);
            let replay_id = t.register(&format!("multi.replay.k{k}"), Layer::Multi, Kind::Coarse);
            let serial_id = t.register(
                &format!("multi.serial_check.k{k}"),
                Layer::Multi,
                Kind::Coarse,
            );
            let audit_id = t.register(
                &format!("multi.audit_fleet.k{k}"),
                Layer::Multi,
                Kind::Coarse,
            );
            t.begin(&format!("fleet --machines {k}"));
            let text = std::fs::read_to_string(csv).map_err(|e| e.to_string())?;
            let inst = t.time(csv_read, || instance_from_csv(&text)).map_err(sim)?;
            let pool = Pool::with_threads(THREADS);
            let (sharded, serial) = if nc {
                let log = t
                    .time(dispatch, || DispatchLog::nc_par(&inst, law, k))
                    .map_err(sim)?;
                let sharded = t
                    .time(replay_id, || replay_nc(&inst, law, &log, &pool))
                    .map_err(sim)?;
                (
                    sharded,
                    t.time(serial_id, || run_nc_par(&inst, law, k))
                        .map_err(sim)?,
                )
            } else {
                let log = t
                    .time(dispatch, || DispatchLog::c_par(&inst, law, k))
                    .map_err(sim)?;
                let sharded = t
                    .time(replay_id, || replay_c(&inst, law, &log, &pool))
                    .map_err(sim)?;
                (
                    sharded,
                    t.time(serial_id, || run_c_par(&inst, law, k))
                        .map_err(sim)?,
                )
            };
            if !same_bits(&serial, &sharded) {
                return Err(format!("replica: serial != sharded at {k} machines"));
            }
            let report = t.time(audit_id, || {
                audit_fleet(&inst, law, &sharded, AuditConfig::default())
            });
            t.end();
            let o = sharded.objective;
            let verdict = if report.passed() {
                "audit: PASS"
            } else {
                "audit: FAIL"
            };
            let line = format!(
                "{}   int objective {}   serial==sharded: bitwise-verified",
                fmt_f(o.fractional()),
                fmt_f(o.integral())
            );
            let wants = vec![
                Want::equals("frac objective", line),
                Want::prefix(verdict, ""),
            ];
            expected.push(Expected { wants, file: None });
        }
    }
    Ok(Replica {
        expected,
        counters: Vec::new(),
    })
}

/// `audit --algorithm nc-nonuniform` on each instance, then `replay --audit 1`.
fn offline_batch(p: &Prepared, law: PowerLaw, t: &mut Tracer) -> Result<Replica, String> {
    let csv_read = t.register("workloads.csv_read", Layer::Workloads, Kind::Coarse);
    let nonuniform = t.register("core.nc_nonuniform", Layer::Core, Kind::Coarse);
    let batch_nonuniform = t.register("audit.batch_nonuniform", Layer::Audit, Kind::Coarse);
    let build = t.register("sim.schedule_build", Layer::Sim, Kind::Coarse);
    let batch_replay = t.register("audit.batch_replay", Layer::Audit, Kind::Coarse);
    let sim = |e: ncss_sim::SimError| e.to_string();

    let mut expected = Vec::new();
    for csv in &p.csvs {
        t.begin("audit --algorithm nc-nonuniform");
        let text = std::fs::read_to_string(csv).map_err(|e| e.to_string())?;
        let inst = t.time(csv_read, || instance_from_csv(&text)).map_err(sim)?;
        let params = NonUniformParams::recommended(law.alpha());
        let run = t
            .time(nonuniform, || run_nc_nonuniform(&inst, law, params))
            .map_err(sim)?;
        let reported = Evaluated {
            objective: run.objective,
            per_job: run.per_job,
        };
        let config = AuditConfig {
            rel_tol: 1e-2,
            threads: Some(THREADS),
            ..AuditConfig::default()
        };
        let report = t.time(batch_nonuniform, || {
            ScheduleAudit::new(config).audit(&inst, &run.schedule, &reported)
        });
        t.end();
        let o = reported.objective;
        let wants = vec![
            Want::prefix(
                if report.passed() {
                    "audit: PASS"
                } else {
                    "audit: FAIL"
                },
                "",
            ),
            Want::contains(
                "PASS energy-recomputed",
                format!("vs reported {:.9e}", o.energy),
            ),
            Want::contains(
                "PASS frac-flow-recomputed",
                format!("vs reported {:.9e}", o.frac_flow),
            ),
            Want::contains(
                "PASS int-flow-recomputed",
                format!("vs reported {:.9e}", o.int_flow),
            ),
        ];
        expected.push(Expected { wants, file: None });
    }

    t.begin("replay --audit 1");
    let (replayed, mut replay_expected) = replay_leg(&p.replay_trace, t)?;
    let (schedule, inst) = t
        .time(build, || {
            let mut builder = ScheduleBuilder::new(law);
            for seg in &replayed.segments {
                builder.push(*seg);
            }
            Ok::<_, ncss_sim::SimError>((builder.build()?, Instance::new(replayed.jobs.clone())?))
        })
        .map_err(sim)?;
    let n = replayed.jobs.len();
    let mut per_job = PerJob {
        completion: vec![f64::NAN; n],
        frac_flow: vec![0.0; n],
        int_flow: vec![0.0; n],
    };
    for c in &replayed.completions_c {
        per_job.completion[c.id] = c.completion;
        per_job.frac_flow[c.id] = c.frac_flow;
        per_job.int_flow[c.id] = c.int_flow;
    }
    let r = &replayed.recorded;
    let objective = Objective {
        energy: r.energy,
        frac_flow: r.frac_flow,
        int_flow: r.int_flow,
    };
    let reported = Evaluated { objective, per_job };
    let audit: AuditReport = t.time(batch_replay, || {
        ScheduleAudit::new(AuditConfig::default()).audit(&inst, &schedule, &reported)
    });
    t.end();
    replay_expected.wants.push(Want::prefix(
        "audit",
        if audit.passed() { "PASS" } else { "FAIL" },
    ));

    let mut counters = vec![(
        "trace.checkpoints_verified".to_string(),
        replayed.checkpoints_verified as f64,
    )];
    for check in &audit.checks {
        counters.push((
            format!("audit.batch.{}_ms", check.name),
            check.elapsed_ns as f64 / 1e6,
        ));
    }
    expected.push(replay_expected);
    Ok(Replica { expected, counters })
}
