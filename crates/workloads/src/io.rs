//! Plain-text (CSV) serialisation of instances and schedules' outcomes.
//!
//! Downstream users will want to pin down the exact instances behind a
//! result, diff workloads across runs, and feed externally-generated traces
//! in. The format is a minimal CSV with a header:
//!
//! ```text
//! release,volume,density
//! 0.0,2.0,1.0
//! 0.4,1.0,1.0
//! ```
//!
//! Parsing is hardened for externally-authored files: every malformed or
//! non-finite field is reported with its **1-based line number** via
//! [`SimError::InvalidRow`], and [`read_instance`] folds filesystem
//! failures into [`SimError::Io`] so callers handle one error type.

use ncss_sim::{Instance, Job, SimError, SimResult};

/// Serialise an instance to CSV (with header).
#[must_use]
pub fn instance_to_csv(instance: &Instance) -> String {
    let mut out = String::from("release,volume,density\n");
    for j in instance.jobs() {
        out.push_str(&format!("{},{},{}\n", j.release, j.volume, j.density));
    }
    out
}

/// Parse an instance from CSV (header required, `#` comments and blank
/// lines allowed).
///
/// Malformed rows — wrong field count, non-numeric or non-finite values —
/// fail with [`SimError::InvalidRow`] naming the offending line.
pub fn instance_from_csv(text: &str) -> SimResult<Instance> {
    let mut rows = text
        .lines()
        .enumerate()
        .map(|(i, l)| (i + 1, l.trim()))
        .filter(|(_, l)| !l.is_empty() && !l.starts_with('#'));
    let (header_line, header) = rows
        .next()
        .ok_or(SimError::InvalidInstance { reason: "empty CSV" })?;
    let cols: Vec<&str> = header.split(',').map(str::trim).collect();
    if cols != ["release", "volume", "density"] {
        return Err(SimError::InvalidRow {
            line: header_line,
            detail: format!("header must be release,volume,density (got {header:?})"),
        });
    }
    let mut jobs = Vec::new();
    for (line, row) in rows {
        let fields: Vec<&str> = row.split(',').map(str::trim).collect();
        if fields.len() != 3 {
            return Err(SimError::InvalidRow {
                line,
                detail: format!("expected 3 fields, got {}", fields.len()),
            });
        }
        let parse = |name: &str, s: &str| -> SimResult<f64> {
            let v: f64 = s
                .parse()
                .map_err(|_| SimError::InvalidRow { line, detail: format!("non-numeric {name} {s:?}") })?;
            if !v.is_finite() {
                return Err(SimError::InvalidRow { line, detail: format!("non-finite {name} {s:?}") });
            }
            Ok(v)
        };
        jobs.push(Job {
            release: parse("release", fields[0])?,
            volume: parse("volume", fields[1])?,
            density: parse("density", fields[2])?,
        });
    }
    Instance::new(jobs)
}

/// Read an instance from a file.
///
/// Filesystem errors surface as [`SimError::Io`], so the result is a single
/// flat [`SimResult`] rather than a nested `io::Result<SimResult<_>>`.
pub fn read_instance(path: &std::path::Path) -> SimResult<Instance> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| SimError::Io { detail: format!("{}: {e}", path.display()) })?;
    instance_from_csv(&text)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Instance {
        Instance::new(vec![
            Job::new(0.0, 2.0, 1.0),
            Job::new(0.4, 1.0, 2.5),
            Job::new(1.125, 0.0625, 0.125), // dyadic values survive exactly
        ])
        .unwrap()
    }

    #[test]
    fn round_trip_exact_for_dyadic_values() {
        let inst = sample();
        let csv = instance_to_csv(&inst);
        let back = instance_from_csv(&csv).unwrap();
        assert_eq!(inst, back);
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "# a trace\nrelease,volume,density\n\n0.0,1.0,1.0\n# tail\n0.5,2.0,1.0\n";
        let inst = instance_from_csv(text).unwrap();
        assert_eq!(inst.len(), 2);
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(instance_from_csv("").is_err());
        assert!(instance_from_csv("a,b,c\n1,2,3\n").is_err());
        assert!(instance_from_csv("release,volume,density\n1,2\n").is_err());
        assert!(instance_from_csv("release,volume,density\n1,x,3\n").is_err());
        // Validation still applies: zero volume is invalid.
        assert!(instance_from_csv("release,volume,density\n0,0,1\n").is_err());
    }

    #[test]
    fn malformed_rows_carry_their_line_number() {
        // Line 1 comment, line 2 header, line 3 fine, line 4 bad.
        let text = "# trace\nrelease,volume,density\n0.0,1.0,1.0\n0.5,oops,1.0\n";
        match instance_from_csv(text) {
            Err(SimError::InvalidRow { line: 4, detail }) => {
                assert!(detail.contains("volume"), "{detail}");
            }
            other => panic!("expected InvalidRow at line 4, got {other:?}"),
        }
        // Wrong field count, line 3.
        match instance_from_csv("release,volume,density\n\n1,2\n") {
            Err(SimError::InvalidRow { line: 3, .. }) => {}
            other => panic!("expected InvalidRow at line 3, got {other:?}"),
        }
    }

    #[test]
    fn non_finite_fields_are_rejected_with_location() {
        for bad in ["nan", "inf", "-inf", "NaN", "infinity"] {
            let text = format!("release,volume,density\n0.0,{bad},1.0\n");
            match instance_from_csv(&text) {
                Err(SimError::InvalidRow { line: 2, detail }) => {
                    assert!(detail.contains("non-finite"), "{bad}: {detail}");
                }
                other => panic!("{bad}: expected InvalidRow at line 2, got {other:?}"),
            }
        }
    }

    #[test]
    fn bad_header_reports_its_line() {
        match instance_from_csv("# c\n\nrelease,volume\n") {
            Err(SimError::InvalidRow { line: 3, .. }) => {}
            other => panic!("expected InvalidRow at line 3, got {other:?}"),
        }
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("ncss_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.csv");
        std::fs::write(&path, instance_to_csv(&sample())).unwrap();
        let back = read_instance(&path).unwrap();
        assert_eq!(back, sample());
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn missing_file_is_a_flat_io_error() {
        let path = std::path::Path::new("/definitely/not/a/real/path/trace.csv");
        match read_instance(path) {
            Err(SimError::Io { detail }) => assert!(detail.contains("trace.csv"), "{detail}"),
            other => panic!("expected Io error, got {other:?}"),
        }
    }
}
