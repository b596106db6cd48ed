//! Fixtures shared by the kill/resume oracles (`checkpoint_determinism.rs`,
//! `incremental_resume.rs`).

use ncss::sim::Job;
use ncss::trace::format::{decode_event, encode_event};
use ncss::trace::{Checkpoint, Event};
use ncss::workloads::{DensityDist, VolumeDist, WorkloadSpec};

/// (name, uniform-density?, jobs) — release-ordered workload suites: a
/// uniform-density suite of `uniform_jobs`, a log-uniform-density suite of
/// `nonuniform_jobs`, and a three-job hand instance. The NC core only
/// accepts the uniform-density ones.
pub fn suites(uniform_jobs: usize, nonuniform_jobs: usize) -> Vec<(&'static str, bool, Vec<Job>)> {
    let uniform = WorkloadSpec::uniform(uniform_jobs, 1.2, VolumeDist::Uniform { lo: 0.3, hi: 1.8 })
        .generate(41)
        .expect("uniform suite")
        .jobs()
        .to_vec();
    let mut spec = WorkloadSpec::uniform(nonuniform_jobs, 0.9, VolumeDist::Exponential { mean: 1.0 });
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
pub fn roundtrip_checkpoint(cp: Checkpoint) -> Checkpoint {
    let (kind, payload) = encode_event(0, &Event::Checkpoint(Box::new(cp)));
    match decode_event(kind, &payload).expect("checkpoint frame decodes") {
        (_, Event::Checkpoint(cp)) => *cp,
        other => panic!("checkpoint round-trip produced {other:?}"),
    }
}
