//! The six workloads: their seeded inputs, the `ncss-cli` commands they
//! run, and the checks each command's output must pass.

use crate::proc::{Cli, Finished};
use ncss_rng::{dist, Pcg64, SplitMix64};
use ncss_sim::Job;
use ncss_workloads::{instance_to_csv, DensityDist, VolumeDist, WorkloadSpec};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Power-law exponent of every command.
pub const ALPHA: f64 = 3.0;
/// Pool width of `fleet` and `audit`; every other command is serial.
pub const THREADS: usize = 2;
/// Spill-ring cap the `stream` and `record` commands run with (their default).
pub const SPILL: usize = 4096;
/// Checkpoint interval of `record` (its default).
pub const CHECKPOINT_EVERY: usize = 64;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    StreamAudited,
    TraceRecord,
    TraceReplay,
    FleetCPar,
    FleetNcPar,
    OfflineBatch,
}

impl Workload {
    pub const ALL: [Workload; 6] = [
        Workload::StreamAudited,
        Workload::TraceRecord,
        Workload::TraceReplay,
        Workload::FleetCPar,
        Workload::FleetNcPar,
        Workload::OfflineBatch,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::StreamAudited => "stream_audited",
            Workload::TraceRecord => "trace_record",
            Workload::TraceReplay => "trace_replay",
            Workload::FleetCPar => "fleet_c_par",
            Workload::FleetNcPar => "fleet_nc_par",
            Workload::OfflineBatch => "offline_batch",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes. [`Sizes::FULL`] is what the benchmark measures; tests run
/// every workload end to end at [`Sizes::TINY`].
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub stream_rows: usize,
    pub record_rows: usize,
    pub replay_rows: usize,
    pub fleet_rows: usize,
    pub fleet_instances: usize,
    pub fleet_machines: [usize; 2],
    pub nonuniform_jobs: usize,
    pub nonuniform_instances: usize,
    pub batch_trace_rows: usize,
}

impl Sizes {
    /// Each workload's command sequence takes about a second on a 2-core
    /// Xeon VM, so a run holds several repetitions. The fleet and
    /// non-uniform costs depend strongly on the instance (one 64-job
    /// non-uniform instance can cost 1.7x another), so those workloads run
    /// several smaller instances per repetition, which keeps the spread
    /// between seeds within the bound.
    pub const FULL: Sizes = Sizes {
        stream_rows: 200_000,
        record_rows: 400_000,
        replay_rows: 100_000,
        fleet_rows: 1_024,
        fleet_instances: 4,
        fleet_machines: [2, 512],
        nonuniform_jobs: 24,
        nonuniform_instances: 6,
        batch_trace_rows: 10_000,
    };

    #[cfg(test)]
    pub const TINY: Sizes = Sizes {
        stream_rows: 300,
        record_rows: 300,
        replay_rows: 300,
        fleet_rows: 40,
        fleet_instances: 2,
        fleet_machines: [2, 8],
        nonuniform_jobs: 6,
        nonuniform_instances: 2,
        batch_trace_rows: 200,
    };
}

/// A workload with its inputs on disk.
#[derive(Debug)]
pub struct Prepared {
    pub workload: Workload,
    pub sizes: Sizes,
    /// The rows `stream` and `record` read, for their replicas, which take
    /// jobs straight from memory (empty for the other workloads).
    pub jobs: Vec<Job>,
    /// The CSV instances the timed commands read.
    pub csvs: Vec<PathBuf>,
    /// The trace `replay` reads (trace_replay, offline_batch).
    pub replay_trace: PathBuf,
    /// The trace `record` writes (trace_record).
    pub record_trace: PathBuf,
    /// Where the replica writes its own recording (trace_record).
    pub replica_trace: PathBuf,
    /// One argv per `ncss-cli` command, in the order a repetition runs them.
    pub commands: Vec<Vec<String>>,
    /// Jobs the command sequence pushes through, for `jobs_per_s`.
    pub jobs_per_rep: usize,
}

/// Commands run and failed, over setup, warm-up and timed repetitions.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

fn argv(parts: &[&str]) -> Vec<String> {
    parts.iter().map(|s| (*s).to_string()).collect()
}

fn path_arg(p: &Path) -> String {
    p.display().to_string()
}

/// Seeds of one workload's inputs: every workload owns its inputs, and the
/// same `--seed` gives the same inputs.
fn input_seeds(seed: u64, w: Workload) -> SplitMix64 {
    let index = Workload::ALL.iter().position(|&x| x == w).expect("listed") as u64;
    SplitMix64::new(seed ^ (index << 56))
}

/// Poisson releases at rate 4 with Exp(1) volumes and density 1: the
/// process `ncss-cli stream --synthetic` draws, so a CSV written from it
/// runs exactly as the synthetic source would.
pub fn stream_jobs(n: usize, seed: u64) -> Vec<Job> {
    let mut rng = Pcg64::seed_from_u64(seed);
    let mut clock = 0.0;
    (0..n)
        .map(|_| {
            clock += dist::poisson_gap(&mut rng, 4.0);
            Job::unit_density(clock, dist::exponential(&mut rng, 1.0))
        })
        .collect()
}

/// Rows as CSV. `{}` prints the shortest decimal that parses back to the
/// same f64, so the CLI reads exactly the jobs the replica holds.
pub fn jobs_csv(jobs: &[Job]) -> String {
    let mut out = String::with_capacity(jobs.len() * 48 + 24);
    out.push_str("release,volume,density\n");
    for j in jobs {
        let _ = writeln!(out, "{},{},{}", j.release, j.volume, j.density);
    }
    out
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Build every input of `w` from `seed` under `dir`: the CSVs, and for
/// the replay workloads the trace that `ncss-cli record` makes from them.
/// Those `record` runs are counted in `tally`.
pub fn setup(
    w: Workload,
    sizes: Sizes,
    seed: u64,
    dir: &Path,
    cli: &mut Cli,
    tally: &mut Tally,
) -> Result<Prepared, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let mut seeds = input_seeds(seed, w);
    let mut p = Prepared {
        workload: w,
        sizes,
        jobs: Vec::new(),
        csvs: Vec::new(),
        replay_trace: dir.join("replay.nct"),
        record_trace: dir.join("record.nct"),
        replica_trace: dir.join("replica.nct"),
        commands: Vec::new(),
        jobs_per_rep: 0,
    };
    // One stream-process CSV of `rows` jobs.
    let rows_csv = |name: &str, rows: usize, seed: u64| -> Result<(PathBuf, Vec<Job>), String> {
        let jobs = stream_jobs(rows, seed);
        let path = dir.join(name);
        write(&path, &jobs_csv(&jobs))?;
        Ok((path, jobs))
    };
    let alpha = ALPHA.to_string();
    let threads = THREADS.to_string();
    match w {
        Workload::StreamAudited => {
            let (csv, jobs) = rows_csv("rows.csv", sizes.stream_rows, seeds.next_u64())?;
            p.commands.push(argv(&[
                "stream",
                "--input",
                &path_arg(&csv),
                "--algorithm",
                "c",
                "--alpha",
                &alpha,
                "--audit",
                "incremental",
            ]));
            p.jobs_per_rep = jobs.len();
            p.jobs = jobs;
            p.csvs.push(csv);
        }
        Workload::TraceRecord => {
            let (csv, jobs) = rows_csv("rows.csv", sizes.record_rows, seeds.next_u64())?;
            p.commands.push(argv(&[
                "record",
                "--input",
                &path_arg(&csv),
                "--algorithm",
                "nc",
                "--alpha",
                &alpha,
                "--out",
                &path_arg(&p.record_trace),
            ]));
            p.jobs_per_rep = jobs.len();
            p.jobs = jobs;
            p.csvs.push(csv);
        }
        Workload::TraceReplay => {
            let (csv, jobs) = rows_csv("rows.csv", sizes.replay_rows, seeds.next_u64())?;
            record_setup_trace(cli, &csv, "nc", &p.replay_trace, tally)?;
            p.commands
                .push(argv(&["replay", "--trace", &path_arg(&p.replay_trace)]));
            p.jobs_per_rep = jobs.len();
        }
        Workload::FleetCPar | Workload::FleetNcPar => {
            let algo = if w == Workload::FleetCPar {
                "c-par"
            } else {
                "nc-par"
            };
            for i in 0..sizes.fleet_instances {
                let (csv, jobs) =
                    rows_csv(&format!("fleet{i}.csv"), sizes.fleet_rows, seeds.next_u64())?;
                for k in sizes.fleet_machines {
                    p.commands.push(argv(&[
                        "fleet",
                        "--input",
                        &path_arg(&csv),
                        "--algorithm",
                        algo,
                        "--alpha",
                        &alpha,
                        "--threads",
                        &threads,
                        "--max-rows",
                        "0",
                        "--machines",
                        &k.to_string(),
                    ]));
                    p.jobs_per_rep += jobs.len();
                }
                p.csvs.push(csv);
            }
        }
        Workload::OfflineBatch => {
            let (csv, jobs) = rows_csv("rows.csv", sizes.batch_trace_rows, seeds.next_u64())?;
            let spec = WorkloadSpec {
                n_jobs: sizes.nonuniform_jobs,
                arrival_rate: 1.5,
                volumes: VolumeDist::Exponential { mean: 1.0 },
                densities: DensityDist::LogUniform { lo: 0.5, hi: 10.0 },
            };
            for i in 0..sizes.nonuniform_instances {
                let inst = spec.generate(seeds.next_u64()).map_err(|e| e.to_string())?;
                let path = dir.join(format!("nonuniform{i}.csv"));
                write(&path, &instance_to_csv(&inst))?;
                p.commands.push(argv(&[
                    "audit",
                    "--algorithm",
                    "nc-nonuniform",
                    "--input",
                    &path_arg(&path),
                    "--alpha",
                    &alpha,
                    "--rel-tol",
                    "1e-2",
                    "--threads",
                    &threads,
                ]));
                p.csvs.push(path);
                p.jobs_per_rep += inst.len();
            }
            record_setup_trace(cli, &csv, "c", &p.replay_trace, tally)?;
            p.commands.push(argv(&[
                "replay",
                "--trace",
                &path_arg(&p.replay_trace),
                "--audit",
                "1",
            ]));
            p.jobs_per_rep += jobs.len();
        }
    }
    Ok(p)
}

fn record_setup_trace(
    cli: &mut Cli,
    csv: &Path,
    algo: &str,
    out: &Path,
    tally: &mut Tally,
) -> Result<(), String> {
    let args = argv(&[
        "record",
        "--input",
        &path_arg(csv),
        "--algorithm",
        algo,
        "--alpha",
        &ALPHA.to_string(),
        "--out",
        &path_arg(out),
    ]);
    tally.attempted += 1;
    let done = cli
        .run(&args)
        .map_err(|e| format!("cannot run {}: {e}", cli.program().display()))?;
    let ok =
        done.code == Some(0) && find_row(&done.stdout, "finalized").is_some_and(|v| v == "yes");
    if !ok {
        tally.failed += 1;
        return Err(format!(
            "setup `record` failed: {}{}",
            done.stdout, done.stderr
        ));
    }
    Ok(())
}

/// How a wanted line's value must read.
#[derive(Debug, Clone, PartialEq)]
pub enum Match {
    Equals(String),
    Prefix(String),
    Contains(String),
}

/// One line a command must print: a line starting with `label` (after
/// trimming) whose remainder satisfies `value`.
#[derive(Debug, Clone, PartialEq)]
pub struct Want {
    pub label: String,
    pub value: Match,
}

impl Want {
    pub fn equals(label: &str, value: impl Into<String>) -> Want {
        Want {
            label: label.into(),
            value: Match::Equals(value.into()),
        }
    }

    pub fn prefix(label: &str, value: &str) -> Want {
        Want {
            label: label.into(),
            value: Match::Prefix(value.into()),
        }
    }

    pub fn contains(label: &str, value: impl Into<String>) -> Want {
        Want {
            label: label.into(),
            value: Match::Contains(value.into()),
        }
    }

    fn holds(&self, rest: &str) -> bool {
        match &self.value {
            Match::Equals(v) => rest == v,
            Match::Prefix(v) => rest.starts_with(v.as_str()),
            Match::Contains(v) => rest.contains(v.as_str()),
        }
    }
}

/// What one command's run must show, as derived by the replica.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Expected {
    pub wants: Vec<Want>,
    /// A file the command writes and the exact size it must have.
    pub file: Option<(PathBuf, u64)>,
}

/// The remainder of `line` after `label`, trimmed, if the trimmed line
/// starts with the whole label (followed by whitespace or nothing).
fn after_label<'a>(line: &'a str, label: &str) -> Option<&'a str> {
    let rest = line.trim().strip_prefix(label)?;
    (rest.is_empty() || rest.starts_with(char::is_whitespace)).then(|| rest.trim())
}

/// Value of the first table row or line starting with `label`.
pub fn find_row<'a>(out: &'a str, label: &str) -> Option<&'a str> {
    out.lines().find_map(|line| after_label(line, label))
}

/// Check one finished command against what the replica expects of it.
pub fn check(done: &Finished, exp: &Expected) -> Result<(), String> {
    if done.code != Some(0) {
        let how = done
            .code
            .map_or("a signal".to_string(), |c| format!("exit code {c}"));
        return Err(format!("ended with {how}: {}", done.stderr.trim()));
    }
    for want in &exp.wants {
        let ok = done
            .stdout
            .lines()
            .filter_map(|l| after_label(l, &want.label))
            .any(|r| want.holds(r));
        if !ok {
            return Err(format!("no line `{}` with {:?}", want.label, want.value));
        }
    }
    if let Some((path, bytes)) = &exp.file {
        let len = std::fs::metadata(path)
            .map(|m| m.len())
            .map_err(|e| e.to_string())?;
        if len != *bytes {
            return Err(format!(
                "{} holds {len} bytes, the replica wrote {bytes}",
                path.display()
            ));
        }
    }
    Ok(())
}

/// One repetition of a workload's command sequence.
#[derive(Debug, Clone)]
pub struct Rep {
    /// Sum of the commands' wall times.
    pub wall_s: f64,
    /// Largest child peak RSS, KiB.
    pub maxrss_kib: u64,
    /// First failure of each failed command.
    pub failures: Vec<String>,
}

/// Run every command of `p` once, in order, each after the previous exits,
/// and check each against `expected` (aligned with `p.commands`).
pub fn run_rep(cli: &mut Cli, p: &Prepared, expected: &[Expected], tally: &mut Tally) -> Rep {
    let mut rep = Rep {
        wall_s: 0.0,
        maxrss_kib: 0,
        failures: Vec::new(),
    };
    for (args, exp) in p.commands.iter().zip(expected) {
        tally.attempted += 1;
        let started = Instant::now();
        let verdict = match cli.run(args) {
            Ok(done) => {
                rep.wall_s += done.wall_s;
                rep.maxrss_kib = rep.maxrss_kib.max(done.maxrss_kib);
                check(&done, exp)
            }
            Err(e) => {
                rep.wall_s += started.elapsed().as_secs_f64();
                Err(format!("cannot run {}: {e}", cli.program().display()))
            }
        };
        if let Err(why) = verdict {
            tally.failed += 1;
            rep.failures.push(format!("`{}`: {why}", args.join(" ")));
        }
    }
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finished(code: i32, stdout: &str) -> Finished {
        Finished {
            code: Some(code),
            stdout: stdout.into(),
            stderr: String::new(),
            wall_s: 0.1,
            maxrss_kib: 1,
        }
    }

    const STREAM_OUT: &str = "\
## stream c (alpha = 3)
             metric                        value
------------------------------------------------
             energy                      8.130e6
 energy-ish bogus                       1.0
  incremental audit  PASS (max residual 3.3e-11)
";

    #[test]
    fn rows_match_whole_labels_only() {
        assert_eq!(find_row(STREAM_OUT, "energy"), Some("8.130e6"));
        assert_eq!(
            find_row(STREAM_OUT, "incremental audit"),
            Some("PASS (max residual 3.3e-11)")
        );
        assert_eq!(find_row(STREAM_OUT, "energy-"), None);
        assert_eq!(find_row(STREAM_OUT, "frac flow"), None);
    }

    #[test]
    fn checks_exit_code_lines_and_file_size() {
        let exp = Expected {
            wants: vec![
                Want::equals("energy", "8.130e6"),
                Want::prefix("incremental audit", "PASS"),
            ],
            file: None,
        };
        assert!(check(&finished(0, STREAM_OUT), &exp).is_ok());
        assert!(check(&finished(1, STREAM_OUT), &exp)
            .unwrap_err()
            .contains("exit code 1"));
        let wrong = Expected {
            wants: vec![Want::equals("energy", "8.131e6")],
            file: None,
        };
        assert!(check(&finished(0, STREAM_OUT), &wrong)
            .unwrap_err()
            .contains("energy"));
        let red = STREAM_OUT.replace("PASS (max", "FAIL (max");
        assert!(check(&finished(0, &red), &exp).is_err());
        let audit =
            "PASS energy-recomputed  residual=0  re-derived 1.095e2 vs reported 1.095124824e2\n";
        let want = Want::contains("PASS energy-recomputed", "vs reported 1.095124824e2");
        assert!(check(
            &finished(0, audit),
            &Expected {
                wants: vec![want],
                file: None
            }
        )
        .is_ok());

        let dir = std::env::temp_dir().join(format!("ncss-benchmark-check-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.nct");
        std::fs::write(&path, [0u8; 10]).unwrap();
        let sized = |n| Expected {
            wants: vec![],
            file: Some((path.clone(), n)),
        };
        assert!(check(&finished(0, ""), &sized(10)).is_ok());
        assert!(check(&finished(0, ""), &sized(11))
            .unwrap_err()
            .contains("10 bytes"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn inputs_are_seeded_and_round_trip_through_csv() {
        let seed = |s, w| input_seeds(s, w).next_u64();
        let a = stream_jobs(50, seed(7, Workload::StreamAudited));
        assert_eq!(a, stream_jobs(50, seed(7, Workload::StreamAudited)));
        assert_ne!(a, stream_jobs(50, seed(8, Workload::StreamAudited)));
        assert_ne!(a, stream_jobs(50, seed(7, Workload::TraceRecord)));
        let back = ncss_workloads::instance_from_csv(&jobs_csv(&a)).unwrap();
        assert_eq!(back.jobs(), &a[..]);
    }
}
