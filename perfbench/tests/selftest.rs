//! Self-test of the benchmark. Each workload runs at a minimal length,
//! untraced and traced, and must print every metric `BENCHMARK.json`
//! names for that mode, with its unit; at the default seed the traced
//! run's batch sweep must match the pinned digests. That a corrupted
//! digest fails the check is a unit test in `src/repro.rs`.
//!
//! ```text
//! cargo test --release --offline --manifest-path perfbench/Cargo.toml
//! ```

use std::path::{Path, PathBuf};
use std::process::Command;

use instrep_core::service::Json;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("perfbench sits in the repo")
        .to_path_buf()
}

fn spec() -> Json {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    Json::parse(&text).expect("BENCHMARK.json is JSON")
}

/// Runs the benchmark from the repository root and parses its last line.
fn run(args: &[&str]) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .current_dir(repo_root())
        .output()
        .expect("benchmark starts");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{args:?} exited {:?}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    let doc = Json::parse(last).expect("the last line is JSON");
    let Json::Obj(map) = &doc else { panic!("result is not an object: {last}") };
    let keys: Vec<&str> = map.keys().map(String::as_str).collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"], "{last}");
    doc
}

fn check_metrics(workload: &str, trace: &str, list: &str) {
    let doc = run(&["--workload", workload, "--seed", "5", "--seconds", "1", "--trace", trace]);
    assert_eq!(doc.get("correct").and_then(Json::bool), Some(true), "{workload} trace {trace}");
    assert!(doc.get("attempted").and_then(Json::num).is_some_and(|n| n >= 1.0));
    let Some(Json::Obj(metrics)) = doc.get("metrics") else { panic!("no metrics object") };
    let spec = spec();
    let wanted = spec.get(list).expect("metric list").items();
    assert_eq!(metrics.len(), wanted.len(), "{workload} trace {trace}: metric count");
    for m in wanted {
        let name = m.get("name").and_then(Json::str).expect("name");
        let unit = m.get("unit").and_then(Json::str).expect("unit");
        let got =
            metrics.get(name).unwrap_or_else(|| panic!("{workload} trace {trace}: no {name}"));
        assert_eq!(got.get("unit").and_then(Json::str), Some(unit), "{name}");
        assert!(got.get("value").and_then(Json::num).is_some_and(f64::is_finite), "{name}");
    }
}

#[test]
fn serve_cold_prints_every_metric_with_its_unit() {
    check_metrics("serve-cold", "0", "end_to_end");
    check_metrics("serve-cold", "1", "per_layer");
}

#[test]
fn serve_warm_prints_every_metric_with_its_unit() {
    check_metrics("serve-warm", "0", "end_to_end");
    check_metrics("serve-warm", "1", "per_layer");
}

#[test]
fn pinned_digests_hold_at_the_default_seed() {
    let doc =
        run(&["--workload", "serve-cold", "--seed", "1998", "--seconds", "1", "--trace", "1"]);
    assert_eq!(doc.get("correct").and_then(Json::bool), Some(true));
}
