//! Per-layer figures of the traced run. Each layer's public functions
//! are called and timed from the benchmark's own code, one layer at a
//! time, on the workload's own families and inputs.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use instrep_asm::Image;
use instrep_core::report::Named;
use instrep_core::service::{report_json, ReportPayload, Request, Response};
use instrep_core::{
    AnalysisCache, AnalysisConfig, CacheKey, CacheOutcome, ClassAnalysis, FunctionAnalysis,
    GlobalAnalysis, InstructionProfile, LocalAnalysis, LoopProfiler, RepetitionTracker,
    ReuseBuffer, Session, ValuePredictors, WorkloadReport,
};
use instrep_isa::abi::{region_of, Region, STACK_REGION_BASE};
use instrep_sim::{Event, Machine, SimError, Trace};
use instrep_workloads::Scale;

use crate::repro::{render_all, Built};
use crate::util::{median, secs, Metrics};
use crate::Run;

/// Events recorded per replay chunk: bounds the replay's memory while
/// every observer still sees the whole skip+window stream in order.
const CHUNK: u64 = 1 << 18;

/// Calls per timed batch for the microsecond-scale layers.
const BATCH: usize = 50;

/// Instruction counts of one bare simulator run.
pub struct BareRun {
    /// Instructions executed over skip and window.
    pub total: u64,
    /// Instructions executed in the window.
    pub measured: u64,
    /// Seconds spent inside `Machine::run`.
    pub run_s: f64,
}

/// Runs `image` on `input` through `Machine::run` with an observer that
/// only keeps each event alive, over `skip` then `window` instructions —
/// the interpreter as the pipeline drives it, with no analysis.
pub fn bare_run(image: &Image, input: &[u8], skip: u64, window: u64) -> Result<BareRun, SimError> {
    let mut m = Machine::new(image);
    m.set_input(input.to_vec());
    let t = Instant::now();
    if skip > 0 {
        m.run(skip, |ev| {
            black_box(ev);
        })?;
    }
    let from = m.icount();
    if m.exit_code().is_none() {
        m.run(window, |ev| {
            black_box(ev);
        })?;
    }
    Ok(BareRun { total: m.icount(), measured: m.icount() - from, run_s: secs(t) })
}

/// What the layer suite runs on.
pub struct Spec<'a> {
    /// The families, built, with the inputs the workload sends.
    pub built: &'a Built,
    /// Scale the inputs were generated at.
    pub scale: Scale,
    /// Scale name on the wire.
    pub scale_name: &'static str,
    /// Per-family input seed.
    pub seeds: Vec<u64>,
    /// The analysis configuration the workload uses.
    pub cfg: AnalysisConfig,
    /// Repetitions of each simulation-sized measurement; the median of
    /// the per-repetition totals is reported.
    pub reps: usize,
}

/// Seconds each of the eight replayed observers took, summed over the
/// families: tracker, reuse, global, local, function, predict, classes,
/// then the loop profiler.
#[derive(Default, Clone, Copy)]
struct ObserverTimes([f64; 8]);

const OBSERVERS: [&str; 7] =
    ["tracker", "reuse", "global", "local", "function", "predict", "classes"];

/// Times `f` and adds the seconds to `slot`.
fn timed<R>(slot: &mut f64, f: impl FnOnce() -> R) -> R {
    let t = Instant::now();
    let r = f();
    *slot += secs(t);
    r
}

fn regions_of(events: &[Event], data_end: u32, out: &mut Vec<Option<Region>>) {
    out.clear();
    out.extend(
        events.iter().map(|ev| ev.mem.map(|m| region_of(m.addr, data_end, STACK_REGION_BASE))),
    );
}

/// Replays one family's skip+window stream, chunk by chunk, into each
/// observer alone with the inputs the pipeline gives it (the tracker's
/// `repeated` flags and the memory region of each access, precomputed).
/// Returns the measured-event count and the tracker's repeated count;
/// adds observer seconds to `times` and the profile fill to `fill_s`.
fn replay(
    image: &Image,
    input: &[u8],
    cfg: &AnalysisConfig,
    times: &mut ObserverTimes,
    fill_s: &mut f64,
) -> Result<(u64, u64), String> {
    let mut m = Machine::new(image);
    m.set_input(input.to_vec());
    let data_end = image.data_end();
    let mut tracker = RepetitionTracker::new(cfg.tracker, image.text.len());
    let mut reuse = ReuseBuffer::new(cfg.reuse);
    let mut global = GlobalAnalysis::new(image);
    let mut local = LocalAnalysis::new(image);
    let mut function = FunctionAnalysis::new(image);
    let mut predict = ValuePredictors::new();
    let mut classes = ClassAnalysis::new();
    let mut loops = LoopProfiler::new(image.text.len());
    let mut regions = Vec::new();
    let mut flags: Vec<bool> = Vec::new();
    let t = &mut times.0;

    let mut left = cfg.skip;
    while left > 0 && m.exit_code().is_none() {
        let trace = Trace::record(&mut m, left.min(CHUNK)).map_err(|e| e.to_string())?;
        let evs = trace.events();
        if evs.is_empty() {
            break;
        }
        left -= evs.len() as u64;
        regions_of(evs, data_end, &mut regions);
        timed(&mut t[2], || evs.iter().for_each(|ev| global.observe(ev, false, false)));
        timed(&mut t[3], || {
            evs.iter().zip(&regions).for_each(|(ev, r)| local.observe(ev, false, false, *r))
        });
        timed(&mut t[4], || {
            evs.iter().zip(&regions).for_each(|(ev, r)| function.observe(ev, false, *r))
        });
        timed(&mut t[7], || evs.iter().for_each(|ev| loops.observe(ev, false)));
    }

    let mut measured = 0u64;
    let mut left = cfg.window;
    while left > 0 && m.exit_code().is_none() {
        let trace = Trace::record(&mut m, left.min(CHUNK)).map_err(|e| e.to_string())?;
        let evs = trace.events();
        if evs.is_empty() {
            break;
        }
        left -= evs.len() as u64;
        measured += evs.len() as u64;
        regions_of(evs, data_end, &mut regions);
        flags.clear();
        flags.reserve(evs.len());
        timed(&mut t[0], || evs.iter().for_each(|ev| flags.push(tracker.observe(ev))));
        let fl = &flags;
        timed(&mut t[1], || {
            evs.iter().zip(fl).for_each(|(ev, &rep)| {
                reuse.observe(ev, rep);
            })
        });
        timed(&mut t[2], || {
            evs.iter().zip(fl).for_each(|(ev, &rep)| global.observe(ev, rep, true))
        });
        timed(&mut t[3], || {
            evs.iter()
                .zip(fl)
                .zip(&regions)
                .for_each(|((ev, &rep), r)| local.observe(ev, rep, true, *r))
        });
        timed(&mut t[4], || {
            evs.iter().zip(&regions).for_each(|(ev, r)| function.observe(ev, true, *r))
        });
        timed(&mut t[5], || {
            evs.iter().zip(fl).for_each(|(ev, &rep)| {
                predict.observe(ev, rep);
            })
        });
        timed(&mut t[6], || {
            evs.iter().zip(fl).for_each(|(ev, &rep)| classes.observe(ev, rep, true))
        });
        timed(&mut t[7], || evs.iter().for_each(|ev| loops.observe(ev, true)));
    }

    let mut profile = InstructionProfile::default();
    timed(fill_s, || profile.fill(image, &tracker));
    black_box((&reuse, &global, &local, &function, &predict, &classes, &loops, &profile));
    Ok((measured, tracker.dynamic_repeated()))
}

/// Median over `reps` of `f`'s per-repetition value.
fn median_of(reps: usize, mut f: impl FnMut() -> Result<f64, String>) -> Result<f64, String> {
    let mut v = Vec::with_capacity(reps);
    for _ in 0..reps.max(1) {
        v.push(f()?);
    }
    Ok(median(&v))
}

/// Median microseconds per call of `f`, timed in batches of [`BATCH`].
fn micros_per_call(batches: usize, mut f: impl FnMut()) -> f64 {
    let mut v = Vec::with_capacity(batches);
    for _ in 0..batches {
        let t = Instant::now();
        for _ in 0..BATCH {
            f();
        }
        v.push(secs(t) * 1e6 / BATCH as f64);
    }
    median(&v)
}

/// Runs the layer suite, pushing every per-layer metric except the
/// `serve.*` and `trace_overhead.*` ones, and checking on the way that
/// the replay and the session agree with each other.
pub fn run(
    spec: &Spec<'_>,
    scratch: &Path,
    out: &mut Metrics,
    run: &mut Run,
) -> Result<(), String> {
    let b = spec.built;
    let workloads = instrep_workloads::all();
    let n = b.names.len();

    // Front end: input generation, compile, assemble.
    let input_s = median_of(5, || {
        let t = Instant::now();
        for (wl, &seed) in workloads.iter().zip(&spec.seeds) {
            black_box(wl.input(spec.scale, seed));
        }
        Ok(secs(t))
    })?;
    let sources: Vec<String> = workloads.iter().map(|w| w.full_source()).collect();
    let mut asm_texts = Vec::new();
    let compile_s = median_of(3, || {
        let t = Instant::now();
        asm_texts = sources
            .iter()
            .map(|s| instrep_minicc::compile_to_asm(s).map_err(|e| e.to_string()))
            .collect::<Result<_, _>>()?;
        Ok(secs(t))
    })?;
    let assemble_s = median_of(3, || {
        let t = Instant::now();
        for text in &asm_texts {
            black_box(instrep_asm::assemble(text).map_err(|e| e.to_string())?);
        }
        Ok(secs(t))
    })?;
    out.push("workloads.input_ms", input_s * 1e3, "ms");
    out.push("minicc.compile_ms", compile_s * 1e3, "ms");
    out.push("asm.assemble_ms", assemble_s * 1e3, "ms");

    // Interpreter alone.
    let mut sim_events = None;
    let sim_s = median_of(spec.reps, || {
        let (mut total, mut s) = (0, 0.0);
        for i in 0..n {
            let r = bare_run(&b.images[i], &b.inputs[i], spec.cfg.skip, spec.cfg.window)
                .map_err(|e| format!("{}: {e}", b.names[i]))?;
            total += r.total;
            s += r.run_s;
        }
        if sim_events.is_some_and(|e| e != total) {
            return Err(format!(
                "sim.events drifted between repetitions: {sim_events:?} vs {total}"
            ));
        }
        sim_events = Some(total);
        Ok(s)
    })?;
    let sim_events = sim_events.unwrap_or(0);
    run.count("sim.events", sim_events);

    // Each observer alone, replaying the recorded stream.
    let mut obs_runs: Vec<ObserverTimes> = Vec::new();
    let mut fills = Vec::new();
    let mut replayed = Vec::new();
    for _ in 0..spec.reps.max(1) {
        let mut times = ObserverTimes::default();
        let mut fill_s = 0.0;
        replayed.clear();
        for i in 0..n {
            replayed.push(replay(&b.images[i], &b.inputs[i], &spec.cfg, &mut times, &mut fill_s)?);
        }
        obs_runs.push(times);
        fills.push(fill_s);
    }
    let obs_s: Vec<f64> =
        (0..8).map(|k| median(&obs_runs.iter().map(|t| t.0[k]).collect::<Vec<_>>())).collect();

    // The whole analysis through the public entry point.
    let mut reports: Vec<WorkloadReport> = Vec::new();
    let session_s = median_of(spec.reps, || {
        let t = Instant::now();
        reports = (0..n)
            .map(|i| {
                Session::new(spec.cfg)
                    .run_one(&b.images[i], b.inputs[i].clone())
                    .map(|ir| ir.report)
                    .map_err(|e| format!("{}: {e}", b.names[i]))
            })
            .collect::<Result<_, _>>()?;
        Ok(secs(t))
    })?;
    for (i, r) in reports.iter().enumerate() {
        if replayed[i] != (r.dynamic_total, r.dynamic_repeated) {
            run.fail(format!(
                "{}: replay measured/repeated {:?}, session ({}, {})",
                b.names[i], replayed[i], r.dynamic_total, r.dynamic_repeated
            ));
        }
    }
    let measured: u64 = reports.iter().map(|r| r.dynamic_total).sum();
    let per_event = |s: f64| if measured == 0 { 0.0 } else { s * 1e9 / measured as f64 };
    out.push("sim.ns_per_event", sim_s * 1e9 / sim_events.max(1) as f64, "ns/event");
    out.push("sim.events", sim_events as f64, "count");
    for (k, name) in OBSERVERS.iter().enumerate() {
        out.push(format!("core.{name}.ns_per_event"), per_event(obs_s[k]), "ns/event");
    }
    out.push("core.loops.ns_per_event", per_event(obs_s[7]), "ns/event");
    out.push("core.profile.fill_ms", median(&fills) * 1e3, "ms");
    out.push("core.session.ns_per_event", per_event(session_s), "ns/event");
    let observers_s: f64 = obs_s[..7].iter().sum();
    out.push(
        "core.session.residual_ns_per_event",
        per_event(session_s - sim_s - observers_s),
        "ns/event",
    );

    // Rendering every table and figure.
    let named: Vec<Named<'_>> = b.names.iter().copied().zip(&reports).collect();
    let render_s = median_of(20, || {
        let t = Instant::now();
        black_box(render_all(&named));
        Ok(secs(t))
    })?;
    out.push("core.report.render_ms", render_s * 1e3, "ms");

    // Cache: key derivation, a store, a hit.
    let dir = scratch.join("layer-cache");
    std::fs::remove_dir_all(&dir).ok();
    let cache = AnalysisCache::open(&dir).map_err(|e| format!("opening {}: {e}", dir.display()))?;
    let (mut key_us, mut store_us, mut load_us, mut bytes) =
        (Vec::new(), Vec::new(), Vec::new(), 0);
    for (i, report) in reports.iter().enumerate() {
        let key = CacheKey::derive(&b.images[i], &b.inputs[i], &spec.cfg);
        key_us.push(micros_per_call(5, || {
            black_box(CacheKey::derive(&b.images[i], &b.inputs[i], &spec.cfg));
        }));
        for _ in 0..5 {
            let t = Instant::now();
            cache.store(&key, report).map_err(|e| format!("cache store: {e}"))?;
            store_us.push(secs(t) * 1e6);
            let t = Instant::now();
            let hit = cache.load(&key);
            load_us.push(secs(t) * 1e6);
            if hit.map(|h| report_json(&h)) != Some(report_json(report)) {
                run.fail(format!("{}: cache hit differs from the stored report", b.names[i]));
            }
        }
        bytes += std::fs::metadata(cache.entry_path(&key)).map_or(0, |m| m.len());
    }
    std::fs::remove_dir_all(&dir).ok();
    out.push("core.cache.key_us", median(&key_us), "us");
    out.push("core.cache.load_us", median(&load_us), "us");
    out.push("core.cache.store_us", median(&store_us), "us");
    out.push("core.cache.entry_bytes", bytes as f64 / n.max(1) as f64, "bytes");

    // Wire contract: decoding the workload's request lines, encoding
    // its responses.
    let mut decode_us = Vec::new();
    let mut encode_us = Vec::new();
    for (i, report) in reports.iter().enumerate() {
        let line = Request::workload(i as u64 + 1, b.names[i])
            .scale(spec.scale_name)
            .seed(spec.seeds[i])
            .encode();
        decode_us.push(micros_per_call(10, || {
            black_box(Request::decode(black_box(&line)).is_ok());
        }));
        encode_us.push(micros_per_call(10, || {
            let payload = ReportPayload {
                id: i as u64 + 1,
                cache: CacheOutcome::Miss,
                report: report_json(report),
                metrics: None,
                profile: None,
                loops: None,
            };
            black_box(Response::Report(payload).encode());
        }));
    }
    out.push("core.service.decode_us", median(&decode_us), "us");
    out.push("core.service.encode_us", median(&encode_us), "us");
    Ok(())
}
