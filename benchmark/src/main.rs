//! End-to-end benchmark of `ncss-cli`.
//!
//! ```text
//! benchmark --workload W --seed N --seconds S --trace 0|1 [--out DIR]
//! benchmark [--seed N] [--seconds S] [--out DIR]        every workload, both passes
//! benchmark --compare BASE.json NEW.json
//! ```
//!
//! One workload: build its inputs from the seed, then either time its
//! `ncss-cli` commands as child processes (`--trace 0`, end-to-end
//! metrics) or run the traced in-process replica (`--trace 1`, per-layer
//! metrics, and `DIR/trace_<workload>.json`). The last line printed is the
//! result as one JSON object. Without `--workload`, every workload is run
//! both ways and the results go to `DIR/seed<N>.json`, which `--compare`
//! reads. See README.md.

mod json;
mod measure;
mod proc;
mod replica;
mod stats;
mod tracer;
mod workload;

use json::Json;
use measure::Measured;
use ncss_analysis::fmt_f;
use proc::Cli;
use stats::{Reading, END_TO_END};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workload::{Sizes, Workload};

const USAGE: &str = "\
usage: benchmark --workload W --seed N --seconds S --trace 0|1 [--out DIR]
       benchmark [--seed N] [--seconds S] [--out DIR]
       benchmark --compare BASE.json NEW.json";

#[derive(Debug)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 12.0,
        trace: false,
        out: PathBuf::from("benchmark/out"),
        compare: None,
    };
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                args.workload =
                    Some(Workload::parse(v).ok_or_else(|| format!("unknown workload `{v}`"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed expects an integer")?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| "--seconds expects a number")?;
                if args.seconds.is_nan() || args.seconds < 0.0 {
                    return Err("--seconds must be >= 0".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace expects 0 or 1, got `{other}`")),
                }
            }
            "--out" => args.out = PathBuf::from(value()?),
            "--compare" => {
                let base = PathBuf::from(value()?);
                args.compare = Some((base, PathBuf::from(value()?)));
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

/// `ncss-cli` is built into the same target directory as this binary.
fn locate_cli() -> Result<Cli, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let cli = exe.with_file_name("ncss-cli");
    if !cli.is_file() {
        return Err(format!(
            "{} not found; build it first (benchmark/run.sh does)",
            cli.display()
        ));
    }
    Cli::launched(cli).map_err(|e| format!("cannot start the launcher: {e}"))
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn measure_one(w: Workload, args: &Args, traced: bool, cli: &mut Cli) -> Result<Measured, String> {
    let work = args.out.join("work");
    let m = measure::run(
        w,
        Sizes::FULL,
        args.seed,
        args.seconds,
        traced,
        cli,
        &work.join(w.name()),
    );
    let _ = std::fs::remove_dir(&work);
    let m = m?;
    if let Some(trace) = &m.trace {
        write_file(
            &args.out.join(format!("trace_{}.json", w.name())),
            &trace.pretty(),
        )?;
    }
    for f in &m.failures {
        eprintln!("FAILED {}: {f}", w.name());
    }
    Ok(m)
}

fn metrics_json(metrics: &[measure::Metric]) -> Json {
    let mut out = Json::obj();
    for m in metrics {
        let d = &m.dist;
        let mut entry = Json::obj().with("value", m.value).with("unit", m.unit);
        if d.n > 1 {
            entry = entry
                .with("median", d.median)
                .with("q1", d.q1)
                .with("q3", d.q3)
                .with("min", d.min)
                .with("max", d.max)
                .with("n", d.n);
        }
        out.push(&m.name, entry);
    }
    out
}

fn host_json() -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|r| r.trim_start_matches([' ', '\t', ':']).to_string())
            })
        })
        .unwrap_or_default();
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_default();
    Json::obj()
        .with("nproc", nproc)
        .with("cpu", cpu)
        .with("rustc", rustc)
}

/// Every workload, end-to-end then traced, into `DIR/seed<N>.json`.
fn run_set(args: &Args, cli: &mut Cli) -> Result<bool, String> {
    let mut workloads = Json::obj();
    let mut all_correct = true;
    println!(
        "{:<15} {:>10} {:>12} {:>12} {:>9} {:>7} {:>7}",
        "workload", "wall_s", "jobs_per_s", "peak_rss_mb", "setup_s", "failed", "tried"
    );
    for w in Workload::ALL {
        let e2e = measure_one(w, args, false, cli)?;
        let layers = measure_one(w, args, true, cli)?;
        let attempted = e2e.tally.attempted + layers.tally.attempted;
        let failed = e2e.tally.failed + layers.tally.failed;
        let value = |name: &str| {
            e2e.metrics
                .iter()
                .find(|m| m.name == name)
                .map_or(f64::NAN, |m| m.value)
        };
        println!(
            "{:<15} {:>10.4} {:>12.1} {:>12.2} {:>9.4} {:>7} {:>7}",
            w.name(),
            value("wall_s"),
            value("jobs_per_s"),
            value("peak_rss_mb"),
            value("setup_s"),
            failed,
            attempted
        );
        all_correct &= e2e.correct() && layers.correct();
        workloads.push(
            w.name(),
            Json::obj()
                .with("correct", e2e.correct() && layers.correct())
                .with("attempted", attempted)
                .with("failed", failed)
                .with("failed_frac", failed as f64 / attempted.max(1) as f64)
                .with("end_to_end", metrics_json(&e2e.metrics))
                .with("per_layer", metrics_json(&layers.metrics)),
        );
    }
    let doc = Json::obj()
        .with("schema", "ncss-benchmark/1")
        .with("seed", args.seed)
        .with("seconds", args.seconds)
        .with("host", host_json())
        .with("workloads", workloads);
    let path = args.out.join(format!("seed{}.json", args.seed));
    write_file(&path, &doc.pretty())?;
    println!("wrote {}", path.display());
    Ok(all_correct)
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// A metric entry of a set file: its value, q1, q3, and the spread.
fn reading_of(entry: &Json) -> Option<(Reading, f64, f64)> {
    let f = |k: &str| entry.get(k).and_then(Json::as_f64);
    let value = f("value")?;
    let (q1, q3) = (f("q1").unwrap_or(value), f("q3").unwrap_or(value));
    let spread = (q3 - q1) / f("median").unwrap_or(value).abs().max(f64::MIN_POSITIVE);
    Some((Reading { value, spread }, q1, q3))
}

/// Judge NEW against BASE on every (end-to-end metric, workload) pair.
/// Returns whether no pair is worse.
fn compare(base_path: &Path, new_path: &Path) -> Result<bool, String> {
    let (base, new) = (load(base_path)?, load(new_path)?);
    let workloads = |doc: &Json| doc.get("workloads").cloned().unwrap_or(Json::Null);
    let (bw, nw) = (workloads(&base), workloads(&new));
    println!(
        "{:<15} {:<19} {:>30} {:>30} {:>8}  verdict",
        "workload", "metric", "base value [q1, q3]", "new value [q1, q3]", "change"
    );
    let mut ok = true;
    for (name, b) in bw.fields() {
        let Some(n) = nw.get(name) else {
            println!("{name:<15} missing from {}", new_path.display());
            ok = false;
            continue;
        };
        for spec in END_TO_END {
            let get = |w: &Json| {
                w.get("end_to_end")
                    .and_then(|e| e.get(spec.name))
                    .and_then(reading_of)
            };
            let (Some(bd), Some(nd)) = (get(b), get(n)) else {
                println!("{name:<15} {:<19} missing", spec.name);
                ok = false;
                continue;
            };
            let v = stats::verdict(&spec, bd.0, nd.0);
            ok &= v != stats::Verdict::Worse;
            let show = |(r, q1, q3): (Reading, f64, f64)| {
                format!("{} [{}, {}]", fmt_f(r.value), fmt_f(q1), fmt_f(q3))
            };
            let change = (nd.0.value - bd.0.value) / bd.0.value * 100.0;
            let metric = format!("{} {}", spec.name, spec.unit);
            println!(
                "{name:<15} {metric:<19} {:>30} {:>30} {change:>+7.1}%  {}",
                show(bd),
                show(nd),
                v.name()
            );
        }
        // failed_frac must stay 0.
        let frac = |w: &Json| {
            w.get("failed_frac")
                .and_then(Json::as_f64)
                .unwrap_or(f64::NAN)
        };
        let (bf, nf) = (frac(b), frac(n));
        let v = if nf == 0.0 { "within bound" } else { "worse" };
        ok &= nf == 0.0;
        println!(
            "{name:<15} {:<19} {bf:>30} {nf:>30} {:>8}  {v}",
            "failed_frac ratio", ""
        );
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw == ["--launcher"] {
        return match proc::serve() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("launcher: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = if let Some((base, new)) = &args.compare {
        compare(base, new)
    } else {
        locate_cli().and_then(|mut cli| match args.workload {
            Some(w) => measure_one(w, &args, args.trace, &mut cli).map(|m| {
                println!("{}", m.result_line().compact());
                true
            }),
            None => run_set(&args, &mut cli),
        })
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests;
