//! The repository's benchmark: cold and warm traffic to `instrep-serve`,
//! end to end and layer by layer, plus one batch sweep of
//! `instrep-repro` in the traced run.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve-cold --seed 1998 --seconds 30 --trace 0
//! ```
//!
//! Run from the repository root. The last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed` and `metrics`
//! (the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`). `perfbench/NOTES.md` explains the workloads and what
//! each metric should move.

mod layers;
mod repro;
mod serve;
mod util;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use instrep_core::service::scale_windows;
use instrep_core::AnalysisConfig;
use instrep_workloads::Scale;

use serve::Kind;
use util::{secs, Host, Metrics};

/// The seed the pinned digests were taken at (`instrep-repro`'s default).
pub const DEFAULT_SEED: u64 = 1998;
/// Directory, relative to the repository root, for sockets, caches and
/// the exact-count ledger.
const STATE_DIR: &str = ".perfbench";

const WORKLOADS: [&str; 2] = ["serve-cold", "serve-warm"];
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("events_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("p95_ms", "ms"),
    ("req_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Parsed command line.
struct Opts {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Opts, String> {
    let mut opts =
        Opts { workload: String::new(), seed: DEFAULT_SEED, seconds: 10.0, trace: false };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} expects a value"))?;
        match flag.as_str() {
            "--workload" => opts.workload = value,
            "--seed" => opts.seed = value.parse().map_err(|_| "--seed expects an integer")?,
            "--seconds" => {
                opts.seconds = value.parse().map_err(|_| "--seconds expects a number")?;
                if !(opts.seconds > 0.0 && opts.seconds.is_finite()) {
                    return Err("--seconds must be positive".to_string());
                }
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace expects 0 or 1".to_string()),
                }
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if !WORKLOADS.contains(&opts.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    Ok(opts)
}

/// Attempted and failed operations, the failed checks, and the exact
/// counts the ledger compares across runs.
#[derive(Default)]
pub struct Run {
    /// Operations attempted (sweeps or requests).
    pub attempted: u64,
    /// Failed operations and failed checks.
    pub failed: u64,
    counts: Vec<(String, u64)>,
}

impl Run {
    /// Records one failed check.
    pub fn fail(&mut self, msg: impl AsRef<str>) {
        self.failed += 1;
        eprintln!("perfbench: check failed: {}", msg.as_ref());
    }

    /// Records an exact count; within a run one name must keep one value.
    pub fn count(&mut self, name: &str, v: u64) {
        match self.counts.iter().find(|(n, _)| n == name) {
            Some((_, old)) if *old != v => {
                let old = *old;
                self.fail(format!("exact count {name} drifted within the run: {old} then {v}"));
            }
            Some(_) => {}
            None => self.counts.push((name.to_string(), v)),
        }
    }
}

/// Refuses a configuration whose threads or connections exceed `nproc`.
fn nproc_guard(workload: &str, nproc: usize) -> Result<(), String> {
    let config = [
        ("sweep jobs", repro::JOBS),
        ("workers", serve::workers()),
        ("client connections", serve::CLIENTS),
    ];
    for (what, n) in config {
        if n > nproc {
            return Err(format!("{workload} uses {n} {what} but this host has nproc = {nproc}"));
        }
    }
    Ok(())
}

/// Identifies the program under test: a digest of this executable, which
/// links the repository's crates. A change to the program, such as a new
/// cache policy, starts a new section of the ledger instead of failing
/// against the old one's counts.
fn build_id() -> String {
    std::env::current_exe()
        .and_then(std::fs::read)
        .map_or_else(|_| "unknown".to_string(), |bytes| util::digest(&bytes))
}

/// Compares this run's exact counts with the ones earlier runs of the
/// same build at the same workload and seed wrote to the ledger, then
/// records new ones.
fn ledger(path: &Path, workload: &str, seed: u64, run: &mut Run) {
    let text = std::fs::read_to_string(path).unwrap_or_default();
    let prefix = format!("{} {workload} {seed} ", build_id());
    let mut add = String::new();
    for (name, v) in run.counts.clone() {
        let key = format!("{prefix}{name} ");
        match text.lines().find_map(|l| l.strip_prefix(&key)) {
            Some(old) if old.trim() == v.to_string() => {}
            Some(old) => {
                run.fail(format!("exact count {name} was {old} in an earlier run, now {v}"))
            }
            None => add.push_str(&format!("{key}{v}\n")),
        }
    }
    if !add.is_empty() {
        let result = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| std::io::Write::write_all(&mut f, add.as_bytes()));
        if let Err(e) = result {
            eprintln!("perfbench: note: cannot update the ledger {}: {e}", path.display());
        }
    }
}

/// Pushes `trace_overhead.<metric>`: the figure of the half run after
/// the layer suite minus that of the half run before it.
fn overhead(traced: &Metrics, untraced: &Metrics, out: &mut Metrics) {
    for (name, unit) in END_TO_END {
        let (t, u) = (traced.get(name).unwrap_or(0.0), untraced.get(name).unwrap_or(0.0));
        out.push(format!("trace_overhead.{name}"), t - u, unit);
    }
}

fn e2e(setup_s: f64, events_per_s: f64, p50: f64, p95: f64, rps: f64, rss: f64) -> Metrics {
    let mut m = Metrics::default();
    for ((name, unit), v) in END_TO_END.into_iter().zip([setup_s, events_per_s, p50, p95, rps, rss])
    {
        m.push(name, v, unit);
    }
    m
}

/// The batch sweep `instrep-repro --scale small --jobs 1` performs, once,
/// at the end of a traced run: its wall time and rate are per-layer
/// figures, and its outputs are checked like a timed operation's.
fn repro_pass(seed: u64, out: &mut Metrics, run: &mut Run) -> Result<(), String> {
    let built = repro::build_all(Scale::Small, |_| seed)?;
    run.attempted += 1;
    let sweep = repro::sweep(&built)?;
    repro::check(&built, &sweep, seed, run);
    run.count("sweep.events", sweep.events);
    for (name, &total) in built.names.iter().zip(&sweep.totals) {
        run.count(&format!("report.{name}.dynamic_total"), total);
    }
    out.push("repro.sweep_ms", sweep.wall_s * 1e3, "ms");
    out.push("repro.events_per_s", sweep.events as f64 / sweep.wall_s, "1/s");
    Ok(())
}

/// One stretch of serve traffic from set-up to its checks: the daemon is
/// set up, sent timed requests `first..` for `seconds`, and stopped; every
/// response is checked against a direct run. Returns the end-to-end
/// figures, the segment, and the index after its last request.
fn serve_half(
    kind: Kind,
    seed: u64,
    first: u64,
    seconds: f64,
    scratch: &Path,
    run: &mut Run,
) -> Result<(Metrics, serve::Segment, u64), String> {
    let (daemon, setup_s, rss) = serve::setup(kind, seed, scratch, run)?;
    let plan = move |i: u64| serve::timed_plan(kind, seed, first + i);
    let seg = serve::traffic(&daemon, &plan, first + 1, u64::MAX, seconds);
    daemon.stop()?;
    let plans: Vec<_> = seg.samples.iter().map(|s| s.plan).collect();
    let direct = serve::direct_runs(&plans)?;
    let f = serve::check(&seg, &direct, "timed", run);
    serve::round_counts(kind, &seg, run);
    let next = first + seg.samples.len() as u64;
    Ok((e2e(setup_s, f.events_per_s, f.p50_ms, f.p95_ms, f.req_per_s, rss), seg, next))
}

/// `serve-cold` and `serve-warm`. Untraced: one stretch of traffic for
/// `--seconds`. Traced: a stretch for half the time, the layer suite,
/// a second stretch, on a new daemon, for the other half, then one
/// batch sweep.
fn run_serve(kind: Kind, opts: &Opts, scratch: &Path, run: &mut Run) -> Result<Metrics, String> {
    let seed = opts.seed;
    let half = if opts.trace { opts.seconds / 2.0 } else { opts.seconds };
    let (plain, seg, next) = serve_half(kind, seed, 0, half, scratch, run)?;
    if seg.samples.len() < 200 && !opts.trace {
        eprintln!(
            "perfbench: note: {} requests completed; p95_ms wants at least 200",
            seg.samples.len()
        );
    }
    if !opts.trace {
        return Ok(plain);
    }

    let mut out = Metrics::default();
    let seeds: Vec<u64> = (0..10)
        .map(|f| match kind {
            Kind::Cold => serve::timed_plan(kind, seed, f).seed,
            Kind::Warm => serve::key_seed(seed, 0),
        })
        .collect();
    let built = repro::build_all(Scale::Tiny, |f| seeds[f])?;
    let (skip, window) = scale_windows(serve::SCALE).expect("known scale");
    let spec = layers::Spec {
        built: &built,
        scale: Scale::Tiny,
        scale_name: serve::SCALE,
        seeds,
        cfg: AnalysisConfig { skip, window, ..AnalysisConfig::default() },
        reps: 3,
    };
    layers::run(&spec, scratch, &mut out, run)?;
    let (traced, tseg, _) = serve_half(kind, seed, next, half, scratch, run)?;
    serve::layer_metrics(&tseg, &mut out);
    overhead(&traced, &plain, &mut out);
    repro_pass(seed, &mut out, run)?;
    Ok(out)
}

/// Removes the per-run scratch directory however the run ends.
struct ScratchDir(PathBuf);

impl Drop for ScratchDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let host = Host::probe();
    if let Err(e) = nproc_guard(&opts.workload, host.nproc) {
        eprintln!("perfbench: refused: {e}");
        return ExitCode::from(2);
    }
    let scratch = ScratchDir(Path::new(STATE_DIR).join(format!("run-{}", std::process::id())));
    if let Err(e) = std::fs::create_dir_all(&scratch.0) {
        eprintln!("perfbench: creating {}: {e}", scratch.0.display());
        return ExitCode::FAILURE;
    }
    let started = Instant::now();
    let mut run = Run::default();
    let result = match opts.workload.as_str() {
        "serve-cold" => run_serve(Kind::Cold, &opts, &scratch.0, &mut run),
        _ => run_serve(Kind::Warm, &opts, &scratch.0, &mut run),
    };
    let metrics = match result {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", opts.workload);
            return ExitCode::FAILURE;
        }
    };
    ledger(&Path::new(STATE_DIR).join("ledger.txt"), &opts.workload, opts.seed, &mut run);
    if metrics.0.iter().any(|m| !m.value.is_finite()) {
        run.fail("a metric is not a finite number");
    }
    for m in &metrics.0 {
        eprintln!("  {:<40} {:>18.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "# host nproc={} cpu_model={:?} workload={} seed={} seconds={} trace={} wall_s={:.3}",
        host.nproc,
        host.cpu_model,
        opts.workload,
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        secs(started)
    );
    let finite: Vec<_> = metrics.0.iter().filter(|m| m.value.is_finite()).cloned().collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        run.failed == 0,
        run.attempted.max(1),
        run.failed,
        Metrics(finite).to_json()
    );
    ExitCode::SUCCESS
}
