//! Whole-benchmark tests: the manifest, every workload at tiny sizes
//! against the real `ncss-cli`, and the mandatory-red probes.

use super::*;
use crate::stats::Better;
use crate::tracer::Tracer;
use crate::workload::Tally;
use std::process::Command;
use std::sync::OnceLock;

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark sits in the repository")
}

/// Build `ncss-cli` once, into the repository's own target directory (not
/// this package's, whose lock the running `cargo test` may hold).
fn cli() -> Cli {
    static CLI: OnceLock<PathBuf> = OnceLock::new();
    let path = CLI.get_or_init(|| {
        let target = repo_root().join("target");
        let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
        let status = Command::new(cargo)
            .args([
                "build",
                "--release",
                "--offline",
                "--quiet",
                "-p",
                "ncss-cli",
                "--target-dir",
            ])
            .arg(&target)
            .current_dir(repo_root())
            .env_remove("CARGO_TARGET_DIR")
            .status()
            .expect("cargo runs");
        assert!(status.success(), "building ncss-cli failed");
        target.join("release").join("ncss-cli")
    });
    Cli::direct(path.clone())
}

fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ncss-benchmark-{name}-{}", std::process::id()))
}

fn strings(j: Option<&Json>) -> Vec<String> {
    j.map(Json::items)
        .unwrap_or_default()
        .iter()
        .filter_map(|x| x.as_str().map(String::from))
        .collect()
}

fn full_layer_metrics() -> Vec<measure::Metric> {
    let empty = replica::Replica {
        expected: Vec::new(),
        counters: Vec::new(),
    };
    measure::layer_metrics(
        &Sizes::FULL,
        &Tracer::new(false),
        &empty,
        &[1.0],
        &[1.0],
        &[1.0],
    )
}

#[test]
fn manifest_matches_the_code() {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).unwrap();
    let doc = Json::parse(&text).unwrap();
    assert_eq!(strings(doc.get("command")), ["bash", "benchmark/run.sh"]);
    assert_eq!(strings(doc.get("paths")), ["benchmark"]);
    let names = |key: &str| -> Vec<String> {
        doc.get(key)
            .unwrap()
            .items()
            .iter()
            .map(|m| m.get("name").unwrap().as_str().unwrap().to_string())
            .collect()
    };
    let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names("workloads"), workloads);

    let e2e = doc.get("end_to_end").unwrap().items();
    assert_eq!(e2e.len(), END_TO_END.len());
    for (m, spec) in e2e.iter().zip(END_TO_END) {
        assert_eq!(m.get("name").and_then(Json::as_str), Some(spec.name));
        assert_eq!(m.get("unit").and_then(Json::as_str), Some(spec.unit));
        let better = if spec.better == Better::Lower {
            "lower"
        } else {
            "higher"
        };
        assert_eq!(m.get("better").and_then(Json::as_str), Some(better));
        assert_eq!(m.get("bound").and_then(Json::as_f64), Some(spec.bound));
    }

    let layers = full_layer_metrics();
    let listed = doc.get("per_layer").unwrap().items();
    assert_eq!(listed.len(), layers.len());
    for (m, got) in listed.iter().zip(&layers) {
        assert_eq!(
            m.get("name").and_then(Json::as_str),
            Some(got.name.as_str())
        );
        assert_eq!(m.get("unit").and_then(Json::as_str), Some(got.unit));
    }
}

#[test]
fn arguments_match_the_documented_interface() {
    let v = |s: &[&str]| s.iter().map(|x| x.to_string()).collect::<Vec<_>>();
    let a = parse_args(&v(&[
        "--workload",
        "fleet_nc_par",
        "--seed",
        "7",
        "--seconds",
        "10",
        "--trace",
        "1",
    ]))
    .unwrap();
    assert_eq!(
        (a.workload, a.seed, a.seconds, a.trace),
        (Some(Workload::FleetNcPar), 7, 10.0, true)
    );
    let c = parse_args(&v(&["--compare", "a.json", "b.json"])).unwrap();
    assert_eq!(
        c.compare,
        Some((PathBuf::from("a.json"), PathBuf::from("b.json")))
    );
    for bad in [
        &["--workload", "nope"][..],
        &["--trace", "2"],
        &["--seed"],
        &["--seconds", "-1"],
        &["extra"],
    ] {
        assert!(parse_args(&v(bad)).is_err(), "{bad:?}");
    }
}

/// Every workload end to end and traced, at tiny sizes: no command fails,
/// every metric is reported, and the traced pass reconciles.
#[test]
fn every_workload_passes_at_tiny_sizes() {
    let mut cli = cli();
    for w in Workload::ALL {
        let dir = scratch(&format!("tiny-{}", w.name()));
        let e2e = measure::run(w, Sizes::TINY, 3, 0.0, false, &mut cli, &dir).unwrap();
        assert!(e2e.correct(), "{}: {:?}", w.name(), e2e.failures);
        assert_eq!(e2e.tally.failed, 0);
        let names: Vec<&str> = e2e.metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, END_TO_END.map(|s| s.name));
        assert!(
            e2e.metrics.iter().all(|m| m.dist.median > 0.0),
            "{}: {:?}",
            w.name(),
            e2e.metrics
        );
        assert!(!dir.exists(), "inputs are removed after the run");

        let traced = measure::run(w, Sizes::TINY, 3, 0.0, true, &mut cli, &dir).unwrap();
        assert!(traced.correct(), "{}: {:?}", w.name(), traced.failures);
        let value = |name: &str| {
            traced
                .metrics
                .iter()
                .find(|m| m.name == name)
                .unwrap()
                .dist
                .median
        };
        let layers: f64 = tracer::Layer::ALL
            .iter()
            .map(|l| value(&format!("layer.{}_s", l.name())))
            .sum();
        let sum = layers + value("bench.timer_s") + value("bench.other_s");
        let wall = value("bench.traced_wall_s");
        assert!(
            (sum - wall).abs() <= 0.01 * wall,
            "{}: {sum} vs {wall}",
            w.name()
        );
        assert!(layers > 0.0 && value("bench.timer_pair_ns") > 0.0);
        assert_eq!(value("audit.trips"), 0.0);
        let doc = traced.trace.as_ref().unwrap();
        assert!(
            !doc.get("spans").unwrap().items().is_empty(),
            "{}",
            w.name()
        );
        if w == Workload::OfflineBatch {
            for check in measure::BATCH_CHECKS {
                assert!(value(&format!("audit.batch.{check}_ms")) > 0.0, "{check}");
            }
        }
    }
}

/// A run whose outputs are wrong must count as failed: the CLI's own
/// corruption probes exit non-zero, and every such command is a failure.
#[test]
fn mandatory_red_probes_count_as_failed() {
    let mut cli = cli();
    for w in [Workload::StreamAudited, Workload::FleetCPar] {
        let dir = scratch(&format!("red-{}", w.name()));
        let mut tally = Tally::default();
        let mut p = workload::setup(w, Sizes::TINY, 5, &dir, &mut cli, &mut tally).unwrap();
        let reference = replica::run(&p, &mut Tracer::new(false)).unwrap();
        let honest = workload::run_rep(&mut cli, &p, &reference.expected, &mut tally);
        assert!(honest.failures.is_empty(), "{:?}", honest.failures);
        for args in &mut p.commands {
            args.extend(["--corrupt".to_string(), "energy".to_string()]);
        }
        let red = workload::run_rep(&mut cli, &p, &reference.expected, &mut tally);
        assert_eq!(red.failures.len(), p.commands.len(), "{}", w.name());
        assert_eq!(tally.failed, p.commands.len() as u64);
        assert_eq!(tally.attempted, 2 * p.commands.len() as u64);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn compare_flags_a_worse_median_and_passes_an_identical_run() {
    let dir = scratch("compare");
    std::fs::create_dir_all(&dir).unwrap();
    let set = |wall: f64| {
        let e2e = Json::obj()
            .with(
                "wall_s",
                Json::obj()
                    .with("value", wall)
                    .with("q1", wall)
                    .with("q3", wall),
            )
            .with("jobs_per_s", Json::obj().with("value", 1000.0 / wall))
            .with("peak_rss_mb", Json::obj().with("value", 100.0))
            .with("setup_s", Json::obj().with("value", 0.5));
        let w = Json::obj().with("failed_frac", 0.0).with("end_to_end", e2e);
        Json::obj().with("workloads", Json::obj().with("stream_audited", w))
    };
    let (base, same, slow) = (
        dir.join("base.json"),
        dir.join("same.json"),
        dir.join("slow.json"),
    );
    write_file(&base, &set(2.0).pretty()).unwrap();
    write_file(&same, &set(2.0).pretty()).unwrap();
    write_file(&slow, &set(3.0).pretty()).unwrap();
    assert!(compare(&base, &same).unwrap());
    assert!(!compare(&base, &slow).unwrap());
    std::fs::remove_dir_all(&dir).unwrap();
}
