//! One-pass analysis pipeline: runs a program on the simulator with every
//! analysis attached, mirroring the paper's methodology (skip the
//! initialization phase, then measure a fixed window).
//!
//! During the skip phase all analyses still *propagate state* (dataflow
//! tags, call stacks, shadow memory) but accumulate no statistics, so the
//! measured window has correct provenance for every value it observes.
//!
//! The public entry point is [`Session`](crate::Session) in
//! `core::session`; this module holds the engine (`run_probed`) and the
//! configuration and report types. The pre-`Session` `analyze*` shims
//! served their one release of deprecation and are gone —
//! `scripts/ci.sh` greps the tree so they cannot reappear.

use instrep_asm::Image;
use instrep_sim::{InterpTier, Machine, RunOutcome, SimError};

use instrep_isa::abi::Region;
use instrep_sim::Event;

use crate::classes::{ClassAnalysis, ClassCounts};
use crate::coverage::Coverage;
use crate::function::FunctionAnalysis;
use crate::fused::{AnalysisTier, FusedAnalysis, SplitObservers};
use crate::global::{GlobalAnalysis, GlobalCounts};
use crate::interval::{IntervalSampler, IntervalWindow};
use crate::local::{LocalAnalysis, LocalCounts};
use crate::loops::{LoopNestProfile, LoopProfiler};
use crate::metrics::{PhaseTimer, WorkloadMetrics};
use crate::predict::{PredictStats, StrideStats, ValuePredictors};
use crate::profile::InstructionProfile;
use crate::reuse::{ReuseBuffer, ReuseConfig, ReuseStats};
use crate::telemetry::{LanePhase, LiveCount, PipelineTelemetry};
use crate::trace_span::SpanLane;
use crate::tracker::{self, RepetitionTracker, StaticStats, TrackerConfig};

/// Configuration for an analysis run ([`Session`](crate::Session)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnalysisConfig {
    /// Repetition-tracker configuration (instance buffer size).
    pub tracker: TrackerConfig,
    /// Reuse-buffer geometry (Table 10).
    pub reuse: ReuseConfig,
    /// Instructions to execute before measurement begins (the paper
    /// skipped 0.5–2.5 billion; scale to the workload).
    pub skip: u64,
    /// Maximum instructions to measure after the skip.
    pub window: u64,
    /// `k` for the top-k reports (Table 9, Figures 5 and 6).
    pub top_k: usize,
}

impl Default for AnalysisConfig {
    fn default() -> AnalysisConfig {
        AnalysisConfig {
            tracker: TrackerConfig::default(),
            reuse: ReuseConfig::paper(),
            skip: 0,
            window: u64::MAX,
            top_k: 5,
        }
    }
}

/// Everything the paper reports for one benchmark, produced by a single
/// simulation pass. See `DESIGN.md` for the experiment-by-experiment map.
#[derive(Debug)]
pub struct WorkloadReport {
    /// Whether the program ran to completion inside the window.
    pub outcome: RunOutcome,
    /// Dynamic instructions measured (Table 1, *Total*).
    pub dynamic_total: u64,
    /// Measured instructions classified repeated (Table 1, *Repeat %*).
    pub dynamic_repeated: u64,
    /// Static instructions in the text segment (Table 1, *Total*).
    pub static_total: usize,
    /// Static instructions executed in the window (Table 1, *Executed*).
    pub static_executed: usize,
    /// Executed static instructions with repetition (Table 1, *Repeated*).
    pub static_repeated: usize,
    /// Unique repeatable instances (Table 2, *Count*).
    pub unique_repeatable: u64,
    /// Average repeats per unique repeatable instance (Table 2).
    pub avg_repeats: f64,
    /// Figure 1: coverage of dynamic repetition by repeated static
    /// instructions (heaviest first).
    pub static_coverage: Coverage,
    /// Figure 3: repetition share by unique-repeatable-instance bucket.
    pub instance_histogram: [f64; 5],
    /// Figure 4: coverage of repetition by unique repeatable instances.
    pub instance_coverage: Coverage,
    /// Table 3: global source analysis counters.
    pub global: GlobalCounts,
    /// Static functions called (Table 4).
    pub funcs_called: usize,
    /// Dynamic calls (Table 4).
    pub dynamic_calls: u64,
    /// Fraction of calls with all arguments repeated (Table 4).
    pub all_arg_rate: f64,
    /// Fraction of calls with no argument repeated (Table 4).
    pub no_arg_rate: f64,
    /// Fraction of calls that were side-effect- and implicit-input-free
    /// (Table 8, column 2).
    pub pure_rate: f64,
    /// Fraction of all-arg-repeated calls that were pure (Table 8,
    /// column 3).
    pub pure_all_arg_rate: f64,
    /// Figure 5: all-arg repetition covered by top-k argument sets,
    /// `k = 1..=top_k`.
    pub argset_coverage: Vec<f64>,
    /// Tables 5–7: local category counters.
    pub local: LocalCounts,
    /// Table 9: top prologue/epilogue contributors
    /// `(name, static size, repeated P/E instructions)` and the fraction
    /// of all P/E repetition they cover.
    pub prologue_top: Vec<(String, u32, u64)>,
    /// Table 9 coverage column.
    pub prologue_coverage: f64,
    /// Figure 6: global+heap load repetition covered by each load's
    /// top-k values, `k = 1..=top_k`.
    pub load_value_coverage: Vec<f64>,
    /// Table 10: reuse-buffer statistics.
    pub reuse: ReuseStats,
    /// Extension: per-instruction-class breakdown (the total analysis
    /// the paper's §2 defers).
    pub classes: ClassCounts,
    /// Extension: unbounded last-value-predictor statistics (the §7
    /// value-prediction comparison point).
    pub predict: PredictStats,
    /// Extension: unbounded two-delta stride-predictor statistics.
    pub stride: StrideStats,
}

impl WorkloadReport {
    /// Fraction of measured dynamic instructions repeated.
    pub fn repetition_rate(&self) -> f64 {
        if self.dynamic_total == 0 {
            0.0
        } else {
            self.dynamic_repeated as f64 / self.dynamic_total as f64
        }
    }

    /// Fraction of static instructions executed.
    pub fn static_executed_rate(&self) -> f64 {
        if self.static_total == 0 {
            0.0
        } else {
            self.static_executed as f64 / self.static_total as f64
        }
    }

    /// Fraction of executed static instructions that repeated.
    pub fn static_repeated_rate(&self) -> f64 {
        if self.static_executed == 0 {
            0.0
        } else {
            self.static_repeated as f64 / self.static_executed as f64
        }
    }
}

/// The pipeline's optional observability hooks, all riding the same
/// `Option<&mut …>` pattern: any subset may be attached, none of them
/// can perturb the [`WorkloadReport`], and an all-`None` bundle is the
/// plain uninstrumented path. [`Session`](crate::Session) assembles
/// this bundle internally from its builder flags.
#[derive(Debug, Default)]
pub struct Probes<'a> {
    /// Phase timers, throughput, and end-of-run gauges (`core::metrics`).
    pub metrics: Option<&'a mut WorkloadMetrics>,
    /// Span lane for Chrome-trace export (`core::trace_span`); one
    /// span per pipeline phase is recorded into it.
    pub spans: Option<&'a mut SpanLane>,
    /// Windowed repetition time-series sampler (`core::interval`),
    /// driven every retired instruction of the measurement phase.
    pub sampler: Option<&'a mut IntervalSampler>,
    /// Per-static-instruction attribution profile (`core::profile`),
    /// filled once during finalize from the tracker's per-PC counters —
    /// no per-event cost at all.
    pub profile: Option<&'a mut InstructionProfile>,
    /// Live lane telemetry (`core::telemetry`): current phase, batched
    /// instruction counts, and per-phase wall-time counters, published
    /// through relaxed atomics for the wall-clock heartbeat sampler. A
    /// shared reference — unlike the other probes it is read
    /// concurrently while the run executes.
    pub telemetry: Option<&'a PipelineTelemetry>,
    /// Dynamic loop-nest profiler (`core::loops`): online back-edge
    /// loop detection plus a per-event path assignment, joined against
    /// the tracker's per-static stats at finalize. The one probe with a
    /// per-event cost on the analysis side, so the engine is
    /// re-monomorphized with it attached and the probe-off hot path is
    /// untouched.
    pub loops: Option<&'a mut LoopProfiler>,
}

impl Probes<'_> {
    /// No probes attached: exactly the uninstrumented path.
    pub fn none() -> Probes<'static> {
        Probes::default()
    }
}

/// One simulation pass with any combination of [`Probes`] attached —
/// the entry everything else (the `Session` builder,
/// `steady_state_check`) runs on. Dispatches once, before any
/// event retires, to the per-event engine the analysis tier selects;
/// the phase scaffolding and the report/gauge assembly are shared, so
/// the two tiers cannot drift in anything but the per-event hot path.
///
/// Metrics and spans sample the clock at phase boundaries only; the
/// interval sampler adds one counter increment per measured instruction
/// and reads gauges at window boundaries. None of them feed back into
/// the analyses, so the report is byte-identical whatever is attached.
pub(crate) fn run_probed(
    image: &Image,
    input: Vec<u8>,
    cfg: &AnalysisConfig,
    interp: InterpTier,
    analysis: AnalysisTier,
    observers: SplitObservers,
    mut probes: Probes<'_>,
) -> Result<WorkloadReport, SimError> {
    // The loop profiler is the one probe with per-event analysis work,
    // so it wraps the engine instead of hanging off the event loop:
    // each (tier, probe) combination monomorphizes separately and the
    // probe-off paths compile exactly as before.
    let loops = probes.loops.take();
    match (analysis, loops) {
        (AnalysisTier::Fused, None) => {
            let engine = FusedAnalysis::new(image, cfg.tracker, cfg.reuse);
            run_engine(image, input, cfg, interp, engine, probes)
        }
        (AnalysisTier::Fused, Some(lp)) => {
            let engine =
                LoopedEngine { inner: FusedAnalysis::new(image, cfg.tracker, cfg.reuse), lp };
            run_engine(image, input, cfg, interp, engine, probes)
        }
        (AnalysisTier::Split, None) => {
            let engine = SplitEngine::new(image, cfg, observers);
            run_engine(image, input, cfg, interp, engine, probes)
        }
        (AnalysisTier::Split, Some(lp)) => {
            let engine = LoopedEngine { inner: SplitEngine::new(image, cfg, observers), lp };
            run_engine(image, input, cfg, interp, engine, probes)
        }
    }
}

/// The per-event half of an analysis tier, monomorphized into the
/// measure loop (no dynamic dispatch on the hot path). The finalize
/// half hands back tier-independent aggregates so the report and gauge
/// assembly in [`run_engine`] is literally shared code.
trait AnalysisEngine {
    /// Skip-phase event: propagate state, count nothing.
    fn skip(&mut self, ev: &Event, region: Option<Region>);
    /// Measurement-phase event.
    fn measure(&mut self, ev: &Event, region: Option<Region>);
    /// `(dynamic_repeated, reuse_hits, instances_buffered)` for the
    /// interval sampler's window flush.
    fn sampler_gauges(&self) -> (u64, u64, u64);
    /// Tracker-equivalent aggregates for the report (takes `&mut self`
    /// so a tier may flush deferred per-event state first).
    fn numbers(&mut self) -> TrackerNumbers;
    /// Borrowed views of the non-tracker observers and predictor stats.
    fn parts(&self) -> ObserverParts<'_>;
    /// Finalize hook for the loop profiler: joins the per-static stats
    /// against the recorded loop paths. A no-op unless the engine is
    /// wrapped in [`LoopedEngine`].
    fn finalize_loops(&mut self, _image: &Image, _stats: &[StaticStats]) {}
}

/// An [`AnalysisEngine`] with the loop-nest profiler fused into its
/// per-event path — the mechanism behind [`Probes::loops`]. Pure
/// delegation plus one `LoopProfiler::observe` per event; the profiler
/// reads the event stream only, so the inner engine's report is
/// byte-identical with or without the wrapper.
struct LoopedEngine<'a, E> {
    inner: E,
    lp: &'a mut LoopProfiler,
}

impl<E: AnalysisEngine> AnalysisEngine for LoopedEngine<'_, E> {
    fn skip(&mut self, ev: &Event, region: Option<Region>) {
        self.lp.observe(ev, false);
        self.inner.skip(ev, region);
    }

    fn measure(&mut self, ev: &Event, region: Option<Region>) {
        self.lp.observe(ev, true);
        self.inner.measure(ev, region);
    }

    fn sampler_gauges(&self) -> (u64, u64, u64) {
        self.inner.sampler_gauges()
    }

    fn numbers(&mut self) -> TrackerNumbers {
        self.inner.numbers()
    }

    fn parts(&self) -> ObserverParts<'_> {
        self.inner.parts()
    }

    fn finalize_loops(&mut self, image: &Image, stats: &[StaticStats]) {
        self.lp.fill_from_stats(image, stats);
    }
}

/// The tracker-side aggregates a tier produces for the report — the
/// split [`RepetitionTracker`] accessor family, materialized.
struct TrackerNumbers {
    dynamic_total: u64,
    dynamic_repeated: u64,
    static_total: usize,
    static_executed: usize,
    static_repeated: usize,
    unique_repeatable: u64,
    avg_repeats: f64,
    instance_histogram: [f64; 5],
    static_stats: Vec<StaticStats>,
    /// Repeat counts of every unique repeatable instance; order is
    /// unspecified (every consumer sorts).
    instance_counts: Vec<u64>,
    instances_buffered: u64,
}

/// Borrowed views of the observers whose state both tiers keep in the
/// same structures, plus the (Copy) predictor statistics.
struct ObserverParts<'a> {
    global: &'a GlobalAnalysis,
    function: &'a FunctionAnalysis,
    local: &'a LocalAnalysis,
    reuse: &'a ReuseBuffer,
    classes: &'a ClassAnalysis,
    predict: PredictStats,
    stride: StrideStats,
    lvp_entries: u64,
}

/// The split tier: the seven free-standing observers, each gated by its
/// [`SplitObservers`] flag (the mechanism behind `--disable-observer`,
/// which `scripts/bench.sh` uses to measure marginal per-event costs).
/// With every flag set this is exactly the pre-fusion pipeline — the
/// differential oracle.
struct SplitEngine {
    obs: SplitObservers,
    tracker: RepetitionTracker,
    global: GlobalAnalysis,
    function: FunctionAnalysis,
    local: LocalAnalysis,
    reuse: ReuseBuffer,
    classes: ClassAnalysis,
    values: ValuePredictors,
}

impl SplitEngine {
    fn new(image: &Image, cfg: &AnalysisConfig, obs: SplitObservers) -> SplitEngine {
        SplitEngine {
            obs,
            tracker: RepetitionTracker::new(cfg.tracker, image.text.len()),
            global: GlobalAnalysis::new(image),
            function: FunctionAnalysis::new(image),
            local: LocalAnalysis::new(image),
            reuse: ReuseBuffer::new(cfg.reuse),
            classes: ClassAnalysis::new(),
            values: ValuePredictors::new(),
        }
    }
}

impl AnalysisEngine for SplitEngine {
    fn skip(&mut self, ev: &Event, region: Option<Region>) {
        if self.obs.global {
            self.global.observe(ev, false, false);
        }
        if self.obs.function {
            self.function.observe(ev, false, region);
        }
        if self.obs.local {
            self.local.observe(ev, false, false, region);
        }
    }

    fn measure(&mut self, ev: &Event, region: Option<Region>) {
        let repeated = if self.obs.tracker { self.tracker.observe(ev) } else { false };
        if self.obs.global {
            self.global.observe(ev, repeated, true);
        }
        if self.obs.function {
            self.function.observe(ev, true, region);
        }
        if self.obs.local {
            self.local.observe(ev, repeated, true, region);
        }
        if self.obs.reuse {
            self.reuse.observe(ev, repeated);
        }
        if self.obs.classes {
            self.classes.observe(ev, repeated, true);
        }
        if self.obs.predict {
            self.values.observe(ev, repeated);
        }
    }

    fn sampler_gauges(&self) -> (u64, u64, u64) {
        (
            self.tracker.dynamic_repeated(),
            self.reuse.stats().hits,
            self.tracker.instances_buffered(),
        )
    }

    fn numbers(&mut self) -> TrackerNumbers {
        TrackerNumbers {
            dynamic_total: self.tracker.dynamic_total(),
            dynamic_repeated: self.tracker.dynamic_repeated(),
            static_total: self.tracker.static_total(),
            static_executed: self.tracker.static_executed(),
            static_repeated: self.tracker.static_repeated(),
            unique_repeatable: self.tracker.unique_repeatable_instances(),
            avg_repeats: self.tracker.avg_repeats(),
            instance_histogram: self.tracker.instance_histogram(),
            static_stats: self.tracker.static_stats(),
            instance_counts: self.tracker.instance_repeat_counts(),
            instances_buffered: self.tracker.instances_buffered(),
        }
    }

    fn parts(&self) -> ObserverParts<'_> {
        ObserverParts {
            global: &self.global,
            function: &self.function,
            local: &self.local,
            reuse: &self.reuse,
            classes: &self.classes,
            predict: *self.values.lvp_stats(),
            stride: *self.values.stride_stats(),
            lvp_entries: self.values.lvp_entries(),
        }
    }
}

impl AnalysisEngine for FusedAnalysis {
    fn skip(&mut self, ev: &Event, region: Option<Region>) {
        self.skip_event(ev, region);
    }

    fn measure(&mut self, ev: &Event, region: Option<Region>) {
        self.measure_event(ev, region);
    }

    fn sampler_gauges(&self) -> (u64, u64, u64) {
        (self.dynamic_repeated(), self.reuse.stats().hits, self.instances_buffered())
    }

    fn numbers(&mut self) -> TrackerNumbers {
        let s = self.tracker_summary();
        TrackerNumbers {
            dynamic_total: self.dynamic_total(),
            dynamic_repeated: self.dynamic_repeated(),
            static_total: self.static_total(),
            static_executed: s.static_executed,
            static_repeated: s.static_repeated,
            unique_repeatable: s.unique_repeatable,
            avg_repeats: s.avg_repeats,
            instance_histogram: s.histogram,
            static_stats: s.static_stats,
            instance_counts: s.instance_counts,
            instances_buffered: self.instances_buffered(),
        }
    }

    fn parts(&self) -> ObserverParts<'_> {
        ObserverParts {
            global: &self.global,
            function: &self.function,
            local: &self.local,
            reuse: &self.reuse,
            classes: &self.classes,
            predict: *self.lvp_stats(),
            stride: *self.stride_stats(),
            lvp_entries: self.lvp_entries(),
        }
    }
}

/// The tier-independent pipeline: phase scaffolding, probe plumbing,
/// and the shared report/gauge assembly around one [`AnalysisEngine`].
fn run_engine<E: AnalysisEngine>(
    image: &Image,
    input: Vec<u8>,
    cfg: &AnalysisConfig,
    interp: InterpTier,
    mut engine: E,
    mut probes: Probes<'_>,
) -> Result<WorkloadReport, SimError> {
    let tel = probes.telemetry;
    let timer = probes.metrics.as_ref().map(|_| PhaseTimer::start());
    let span = probes.spans.as_mut().map(|l| l.begin());
    let lt = tel.map(|t| t.begin(LanePhase::Setup));
    let mut machine = Machine::with_tier(image, interp);
    machine.set_input(input);

    // Region classification: the simulator traps accesses between the
    // real heap break and the stack region, so any surviving address in
    // (data_end, STACK_REGION_BASE) is heap — pass the stack base as the
    // effective break.
    let pseudo_brk = instrep_isa::abi::STACK_REGION_BASE;
    let data_end = image.data_end();
    if let Some(m) = probes.metrics.as_deref_mut() {
        m.record_phase("setup", timer.expect("timer started with metrics"), 0);
    }
    if let Some(l) = probes.spans.as_deref_mut() {
        l.end(span.expect("span opened with lane"), "setup", "phase", 0);
    }
    if let Some(t) = tel {
        t.end(LanePhase::Setup, lt.expect("telemetry timer started"));
    }

    // Skip phase: propagate analysis state without counting. The tracker
    // is idle during the skip (buffering starts with measurement, as in
    // the paper).
    let timer = probes.metrics.as_ref().map(|_| PhaseTimer::start());
    let span = probes.spans.as_mut().map(|l| l.begin());
    let lt = tel.map(|t| t.begin(LanePhase::Skip));
    let mut outcome = RunOutcome::MaxedOut;
    if cfg.skip > 0 {
        outcome = match tel {
            None => machine.run(cfg.skip, |ev| {
                let region =
                    ev.mem.map(|m| instrep_isa::abi::region_of(m.addr, data_end, pseudo_brk));
                engine.skip(ev, region);
            })?,
            Some(t) => {
                let mut live = LiveCount::new(t.lane());
                let outcome = machine.run(cfg.skip, |ev| {
                    let region =
                        ev.mem.map(|m| instrep_isa::abi::region_of(m.addr, data_end, pseudo_brk));
                    engine.skip(ev, region);
                    live.tick();
                })?;
                live.flush();
                outcome
            }
        };
    }
    if let Some(m) = probes.metrics.as_deref_mut() {
        m.record_phase("skip", timer.expect("timer started with metrics"), machine.icount());
    }
    if let Some(l) = probes.spans.as_deref_mut() {
        l.end(span.expect("span opened with lane"), "skip", "phase", machine.icount());
    }
    if let Some(t) = tel {
        t.end(LanePhase::Skip, lt.expect("telemetry timer started"));
    }

    // Measurement window; the sampler variant adds one tick per event
    // and reads gauges only at window boundaries.
    let timer = probes.metrics.as_ref().map(|_| PhaseTimer::start());
    let span = probes.spans.as_mut().map(|l| l.begin());
    let lt = tel.map(|t| t.begin(LanePhase::Measure));
    let measured_from = machine.icount();
    if machine.exit_code().is_none() {
        outcome = match (probes.sampler.as_deref_mut(), tel) {
            (None, None) => machine.run(cfg.window, |ev| {
                let region =
                    ev.mem.map(|m| instrep_isa::abi::region_of(m.addr, data_end, pseudo_brk));
                engine.measure(ev, region);
            })?,
            (None, Some(t)) => {
                let mut live = LiveCount::new(t.lane());
                let outcome = machine.run(cfg.window, |ev| {
                    let region =
                        ev.mem.map(|m| instrep_isa::abi::region_of(m.addr, data_end, pseudo_brk));
                    engine.measure(ev, region);
                    live.tick();
                })?;
                live.flush();
                outcome
            }
            (Some(s), None) => machine.run(cfg.window, |ev| {
                let region =
                    ev.mem.map(|m| instrep_isa::abi::region_of(m.addr, data_end, pseudo_brk));
                engine.measure(ev, region);
                if s.tick() {
                    let (repeated, reuse_hits, buffered) = engine.sampler_gauges();
                    s.flush(repeated, reuse_hits, buffered);
                }
            })?,
            (Some(s), Some(t)) => {
                let mut live = LiveCount::new(t.lane());
                let outcome = machine.run(cfg.window, |ev| {
                    let region =
                        ev.mem.map(|m| instrep_isa::abi::region_of(m.addr, data_end, pseudo_brk));
                    engine.measure(ev, region);
                    live.tick();
                    if s.tick() {
                        let (repeated, reuse_hits, buffered) = engine.sampler_gauges();
                        s.flush(repeated, reuse_hits, buffered);
                    }
                })?;
                live.flush();
                outcome
            }
        };
    }
    if let Some(s) = probes.sampler.as_deref_mut() {
        let (repeated, reuse_hits, buffered) = engine.sampler_gauges();
        s.finish(repeated, reuse_hits, buffered);
    }
    if let Some(m) = probes.metrics.as_deref_mut() {
        let t = timer.expect("timer started with metrics");
        m.record_phase("measure", t, machine.icount() - measured_from);
    }
    if let Some(l) = probes.spans.as_deref_mut() {
        let sp = span.expect("span opened with lane");
        l.end(sp, "measure", "phase", machine.icount() - measured_from);
    }
    if let Some(t) = tel {
        t.end(LanePhase::Measure, lt.expect("telemetry timer started"));
    }

    let timer = probes.metrics.as_ref().map(|_| PhaseTimer::start());
    let span = probes.spans.as_mut().map(|l| l.begin());
    let lt = tel.map(|t| t.begin(LanePhase::Finalize));
    let mut tn = engine.numbers();
    let parts = engine.parts();
    let static_coverage =
        tn.static_stats.iter().filter(|s| s.repeated > 0).map(|s| s.repeated).collect();
    let instance_coverage = Coverage::new(std::mem::take(&mut tn.instance_counts));
    let (prologue_top, prologue_coverage) = parts.local.prologue_report(cfg.top_k);

    let report = WorkloadReport {
        outcome,
        dynamic_total: tn.dynamic_total,
        dynamic_repeated: tn.dynamic_repeated,
        static_total: tn.static_total,
        static_executed: tn.static_executed,
        static_repeated: tn.static_repeated,
        unique_repeatable: tn.unique_repeatable,
        avg_repeats: tn.avg_repeats,
        static_coverage,
        instance_histogram: tn.instance_histogram,
        instance_coverage,
        global: *parts.global.counts(),
        funcs_called: parts.function.static_called(),
        dynamic_calls: parts.function.total_calls(),
        all_arg_rate: parts.function.all_arg_rate(),
        no_arg_rate: parts.function.no_arg_rate(),
        pure_rate: parts.function.pure_rate(),
        pure_all_arg_rate: parts.function.pure_all_arg_rate(),
        argset_coverage: parts.function.top_argset_coverage(cfg.top_k),
        local: *parts.local.counts(),
        prologue_top,
        prologue_coverage,
        load_value_coverage: parts.local.load_value_coverage(cfg.top_k),
        reuse: *parts.reuse.stats(),
        classes: *parts.classes.counts(),
        predict: parts.predict,
        stride: parts.stride,
    };

    if let Some(p) = probes.profile {
        // Pull-based: one pass over state the tier accumulated anyway.
        p.fill_from_stats(image, &tn.static_stats);
    }
    if let Some(m) = probes.metrics {
        m.record_phase("finalize", timer.expect("timer started with metrics"), 0);
        // Occupancy gauges, in a fixed order (deterministic documents).
        // All of them are tier-invariant: the fused tier reports the
        // same logical occupancies (and the same split-layout byte
        // estimate) as the oracle observers.
        m.gauge("tracker_static_entries", tn.static_total as u64);
        m.gauge("tracker_instances_buffered", tn.instances_buffered);
        m.gauge(
            "tracker_table_bytes_est",
            tracker::table_bytes_estimate(tn.instances_buffered, tn.static_total),
        );
        m.gauge("reuse_entries_valid", parts.reuse.occupancy());
        m.gauge("global_shadow_words", parts.global.shadow_words());
        m.gauge("function_argtuples", parts.function.distinct_argtuples());
        m.gauge("local_stack_tag_words", parts.local.shadow_stack_words());
        m.gauge("local_load_sites", parts.local.load_sites());
        m.gauge("local_load_values", parts.local.load_values_tracked());
        m.gauge("predict_lvp_entries", parts.lvp_entries);
        let fp = machine.footprint();
        m.gauge("sim_resident_pages", fp.resident_pages as u64);
        m.gauge("sim_resident_bytes", fp.resident_bytes as u64);
        m.gauge("sim_output_bytes", fp.output_bytes as u64);
    }
    // Pull-based like the profile: one pass over state the tier (and
    // the wrapper's path assignments) accumulated anyway. A no-op for
    // unwrapped engines.
    engine.finalize_loops(image, &tn.static_stats);
    if let Some(l) = probes.spans {
        l.end(span.expect("span opened with lane"), "finalize", "phase", 0);
    }
    if let Some(t) = tel {
        t.end(LanePhase::Finalize, lt.expect("telemetry timer started"));
    }

    Ok(report)
}

/// One unit of work for [`Session::run`](crate::Session::run): a built
/// image plus its input stream.
#[derive(Debug)]
pub struct AnalysisJob<'a> {
    /// The compiled workload image.
    pub image: &'a Image,
    /// The workload's input stream (consumed by the run).
    pub input: Vec<u8>,
    /// Display label (workload name) used for span traces; `""` is fine
    /// when tracing is off.
    pub label: &'a str,
}

/// One job's report plus whatever telemetry the
/// [`Session`](crate::Session) was configured to collect.
#[derive(Debug)]
pub struct InstrumentedReport {
    /// The analysis report — byte-identical to the uninstrumented run.
    pub report: WorkloadReport,
    /// Phase metrics, when `Session::metrics` was set.
    pub metrics: Option<WorkloadMetrics>,
    /// Interval windows, when `Session::interval` was set.
    pub intervals: Option<Vec<IntervalWindow>>,
    /// Per-PC attribution profile, when `Session::profile` was set.
    pub profile: Option<InstructionProfile>,
    /// Loop-nest attribution profile, when `Session::loops` was set.
    pub loops: Option<LoopNestProfile>,
    /// How the analysis cache participated, if one was attached.
    pub cache: crate::CacheOutcome,
}

/// The number of worker threads [`Session::jobs`](crate::Session::jobs)
/// should default to: the machine's available parallelism, or 1 if that
/// cannot be determined.
pub fn default_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Order-preserving parallel map over owned items using scoped threads,
/// passing each call the index of the worker thread running it
/// (`0..threads`) — the span tracer's lane key.
///
/// Items are claimed from a shared atomic cursor, so long and short jobs
/// balance across workers; each result lands in its item's original
/// slot, which is what makes downstream iteration deterministic.
pub(crate) fn parallel_map_indexed<T, R, F>(items: Vec<T>, threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    let n = items.len();
    let threads = threads.clamp(1, n.max(1));
    if threads <= 1 || n <= 1 {
        return items.into_iter().map(|item| f(0, item)).collect();
    }

    // Items move to whichever worker claims their index; results are
    // written back under a short-lived lock (contention is negligible —
    // one lock per *workload*, not per instruction).
    let work: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        let (f, work, results, cursor) = (&f, &work, &results, &cursor);
        for worker in 0..threads {
            // `move` captures only the shared references plus this
            // worker's index.
            scope.spawn(move || loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let item = work[i].lock().unwrap().take().expect("each index claimed once");
                let r = f(worker, item);
                *results[i].lock().unwrap() = Some(r);
            });
        }
    });

    results
        .into_iter()
        .map(|slot| slot.into_inner().unwrap().expect("worker filled every slot"))
        .collect()
}

/// The paper's §3 steady-state verification: runs the overall local
/// analysis at two window sizes and returns the largest absolute
/// difference in category shares. Small values indicate the short window
/// measures a steady-state region.
///
/// # Errors
///
/// Propagates simulator traps.
pub fn steady_state_check(
    image: &Image,
    input: Vec<u8>,
    cfg: &AnalysisConfig,
    factor: u64,
) -> Result<f64, SimError> {
    let short = run_probed(
        image,
        input.clone(),
        cfg,
        InterpTier::default(),
        AnalysisTier::default(),
        SplitObservers::all(),
        Probes::none(),
    )?;
    let mut long_cfg = *cfg;
    long_cfg.window = cfg.window.saturating_mul(factor);
    let long = run_probed(
        image,
        input,
        &long_cfg,
        InterpTier::default(),
        AnalysisTier::default(),
        SplitObservers::all(),
        Probes::none(),
    )?;
    let mut max_dev: f64 = 0.0;
    for cat in crate::local::LocalCat::ALL {
        let dev = (short.local.overall_share(cat) - long.local.overall_share(cat)).abs();
        max_dev = max_dev.max(dev);
    }
    Ok(max_dev)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace_span::{Span, SpanTracer};
    use crate::Session;
    use instrep_minicc::build;

    fn small_image() -> Image {
        build(
            r#"
            int tab[16] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16};
            int lookup(int i) { return tab[i & 15]; }
            int main() {
                int s = 0;
                int i;
                for (i = 0; i < 500; i++) s += lookup(i & 7);
                return s & 0xff;
            }
            "#,
        )
        .unwrap()
    }

    /// One plain run through the public builder.
    fn quick(image: &Image, cfg: &AnalysisConfig) -> WorkloadReport {
        Session::new(*cfg).run_one(image, Vec::new()).unwrap().report
    }

    #[test]
    fn end_to_end_analysis() {
        let image = small_image();
        let report = quick(&image, &AnalysisConfig::default());
        assert!(matches!(report.outcome, RunOutcome::Exited(_)));
        assert!(report.dynamic_total > 1000);
        // A tight loop calling a pure-ish lookup repeats heavily.
        assert!(report.repetition_rate() > 0.6, "rate = {}", report.repetition_rate());
        assert!(report.dynamic_calls >= 500);
        // lookup(i & 7) cycles through 8 tuples: heavy all-arg repetition.
        assert!(report.all_arg_rate > 0.9);
        // Counters are consistent.
        assert_eq!(report.global.total(), report.dynamic_total);
        assert_eq!(report.local.total(), report.dynamic_total);
        assert_eq!(report.reuse.total, report.dynamic_total);
        assert_eq!(report.static_coverage.total(), report.dynamic_repeated);
        assert_eq!(report.instance_coverage.total(), report.dynamic_repeated);
        let h: f64 = report.instance_histogram.iter().sum();
        assert!((h - 1.0).abs() < 1e-9);
        // The reuse buffer captures a large share of such a small loop.
        assert!(report.reuse.repeated_capture_rate() > 0.5);
        // Prologue/epilogue exist (lookup is called from main).
        use crate::local::LocalCat;
        assert!(report.local.overall[LocalCat::Prologue as usize] > 0);
        assert!(report.local.overall[LocalCat::Return as usize] >= 500);
    }

    #[test]
    fn skip_phase_excludes_startup() {
        let image = small_image();
        let full = quick(&image, &AnalysisConfig::default());
        let skipped = quick(&image, &AnalysisConfig { skip: 1000, ..AnalysisConfig::default() });
        assert_eq!(skipped.dynamic_total + 1000, full.dynamic_total);
        // Repetition persists in the steady-state region.
        assert!(skipped.repetition_rate() > 0.6);
    }

    #[test]
    fn window_truncates() {
        let image = small_image();
        let cfg = AnalysisConfig { window: 2000, ..AnalysisConfig::default() };
        let report = quick(&image, &cfg);
        assert_eq!(report.outcome, RunOutcome::MaxedOut);
        assert_eq!(report.dynamic_total, 2000);
    }

    #[test]
    fn steady_state_is_stable_for_uniform_loop() {
        let image = small_image();
        let cfg = AnalysisConfig { skip: 2000, window: 4000, ..AnalysisConfig::default() };
        let dev = steady_state_check(&image, Vec::new(), &cfg, 4).unwrap();
        assert!(dev < 0.15, "deviation {dev}");
    }

    #[test]
    fn batch_run_matches_serial_for_every_thread_count() {
        let image = small_image();
        let cfg = AnalysisConfig::default();
        let serial: Vec<u64> = (0..4).map(|_| quick(&image, &cfg).dynamic_repeated).collect();
        for threads in [1, 2, 7] {
            let jobs: Vec<AnalysisJob<'_>> = (0..4)
                .map(|_| AnalysisJob { image: &image, input: Vec::new(), label: "" })
                .collect();
            let parallel: Vec<u64> = Session::new(cfg)
                .jobs(threads)
                .run(jobs)
                .into_iter()
                .map(|r| r.unwrap().report.dynamic_repeated)
                .collect();
            assert_eq!(parallel, serial, "threads={threads}");
        }
    }

    #[test]
    fn metrics_sink_does_not_perturb_report() {
        let image = small_image();
        let cfg = AnalysisConfig { skip: 500, ..AnalysisConfig::default() };
        let plain = quick(&image, &cfg);
        let mut m = WorkloadMetrics::default();
        let probes = Probes { metrics: Some(&mut m), ..Probes::none() };
        let instrumented = run_probed(
            &image,
            Vec::new(),
            &cfg,
            InterpTier::default(),
            AnalysisTier::default(),
            SplitObservers::all(),
            probes,
        )
        .unwrap();
        assert_eq!(format!("{plain:?}"), format!("{instrumented:?}"));
        // Phases arrive in pipeline order with the right event counts.
        let names: Vec<&str> = m.phases.iter().map(|p| p.name).collect();
        assert_eq!(names, ["setup", "skip", "measure", "finalize"]);
        assert_eq!(m.phase("skip").unwrap().events, 500);
        assert_eq!(m.phase("measure").unwrap().events, instrumented.dynamic_total);
        // Gauges are present and consistent with the report.
        let gauge = |n: &str| m.gauges.iter().find(|(g, _)| *g == n).unwrap().1;
        assert_eq!(gauge("tracker_static_entries"), instrumented.static_total as u64);
        assert!(gauge("tracker_instances_buffered") >= instrumented.unique_repeatable);
        assert!(gauge("reuse_entries_valid") > 0);
        assert!(gauge("sim_resident_pages") > 0);
    }

    #[test]
    fn batch_metrics_do_not_perturb_reports() {
        let image = small_image();
        let cfg = AnalysisConfig::default();
        let jobs = |n: usize| -> Vec<AnalysisJob<'_>> {
            (0..n).map(|_| AnalysisJob { image: &image, input: Vec::new(), label: "" }).collect()
        };
        let plain: Vec<String> = Session::new(cfg)
            .jobs(2)
            .run(jobs(3))
            .into_iter()
            .map(|r| format!("{:?}", r.unwrap().report))
            .collect();
        let with: Vec<String> = Session::new(cfg)
            .jobs(2)
            .metrics(true)
            .run(jobs(3))
            .into_iter()
            .map(|r| format!("{:?}", r.unwrap().report))
            .collect();
        assert_eq!(plain, with);
    }

    #[test]
    fn probes_do_not_perturb_report() {
        let image = small_image();
        let cfg = AnalysisConfig { skip: 500, ..AnalysisConfig::default() };
        let plain = quick(&image, &cfg);
        let tracer = SpanTracer::new();
        let mut lane = SpanLane::new(0, tracer.epoch());
        let mut sampler = IntervalSampler::new(700);
        let mut m = WorkloadMetrics::default();
        let mut profile = InstructionProfile::default();
        let mut lp = LoopProfiler::new(image.text.len());
        let registry = crate::TelemetryRegistry::new();
        let tel = registry.pipeline_lane(0);
        let probed = run_probed(
            &image,
            Vec::new(),
            &cfg,
            InterpTier::default(),
            AnalysisTier::default(),
            SplitObservers::all(),
            Probes {
                metrics: Some(&mut m),
                spans: Some(&mut lane),
                sampler: Some(&mut sampler),
                profile: Some(&mut profile),
                telemetry: Some(&tel),
                loops: Some(&mut lp),
            },
        )
        .unwrap();
        assert_eq!(format!("{plain:?}"), format!("{probed:?}"));
        // The live lane count matches exactly after the flushes: skip
        // window plus the measured instructions.
        assert_eq!(tel.lane().icount(), cfg.skip + probed.dynamic_total);
        // One span per pipeline phase, closed in pipeline order.
        let names: Vec<&str> = lane.spans().iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["setup", "skip", "measure", "finalize"]);
        assert_eq!(lane.spans()[2].events, probed.dynamic_total);
        // Windows tile the measurement exactly and sum to the report.
        let w = sampler.windows();
        assert!(!w.is_empty());
        assert_eq!(w.iter().map(|w| w.insns).sum::<u64>(), probed.dynamic_total);
        assert_eq!(w.iter().map(|w| w.repeated).sum::<u64>(), probed.dynamic_repeated);
        assert_eq!(w.iter().map(|w| w.reuse_hits).sum::<u64>(), probed.reuse.hits);
        assert!(w[..w.len() - 1].iter().all(|w| !w.partial && w.insns == 700 && w.end % 700 == 0));
        assert_eq!(w.last().unwrap().occupancy, w.iter().map(|w| w.unique_growth).sum::<u64>());
        // The profile covers every measured instruction exactly once.
        assert_eq!(profile.total_exec(), probed.dynamic_total);
        assert_eq!(profile.total_repeated(), probed.dynamic_repeated);
        assert_eq!(profile.sites.len(), probed.static_executed);
        // The loop profiler saw the whole window: its path assignment
        // conserves the report's totals and found the for loop.
        let loops = lp.finish();
        assert_eq!(loops.total_exec(), probed.dynamic_total);
        assert_eq!(loops.total_repeated(), probed.dynamic_repeated);
        assert!(loops.max_depth >= 1 && !loops.loops.is_empty());
    }

    #[test]
    fn exact_interval_multiple_produces_no_tail_window() {
        // When the measured count is an exact multiple of the interval,
        // the final flush lands on the boundary and finish() must not
        // append a zero-width partial window.
        let image = small_image();
        let cfg = AnalysisConfig { window: 2000, ..AnalysisConfig::default() };
        let mut sampler = IntervalSampler::new(500);
        let report = run_probed(
            &image,
            Vec::new(),
            &cfg,
            InterpTier::default(),
            AnalysisTier::default(),
            SplitObservers::all(),
            Probes { sampler: Some(&mut sampler), ..Probes::none() },
        )
        .unwrap();
        assert_eq!(report.dynamic_total, 2000, "window must truncate exactly");
        let w = sampler.windows();
        assert_eq!(w.len(), 4);
        assert!(w.iter().all(|w| !w.partial && w.insns == 500));
        assert_eq!(w.last().unwrap().end, 2000);
    }

    #[test]
    fn batch_run_fills_profiles_identically_across_thread_counts() {
        let image = small_image();
        let cfg = AnalysisConfig::default();
        let jobs = |n: usize| -> Vec<AnalysisJob<'_>> {
            (0..n).map(|_| AnalysisJob { image: &image, input: Vec::new(), label: "" }).collect()
        };
        let profiles = |threads: usize| -> Vec<InstructionProfile> {
            Session::new(cfg)
                .jobs(threads)
                .profile(true)
                .run(jobs(3))
                .into_iter()
                .map(|r| r.unwrap().profile.expect("profile was requested"))
                .collect()
        };
        let serial = profiles(1);
        assert!(serial.iter().all(|p| p.total_exec() > 1000));
        assert_eq!(serial, profiles(4));
    }

    #[test]
    fn batch_run_traces_every_job_and_phase() {
        let image = small_image();
        let cfg = AnalysisConfig::default();
        let jobs: Vec<AnalysisJob<'_>> = (0..3)
            .map(|_| AnalysisJob { image: &image, input: Vec::new(), label: "lookup" })
            .collect();
        let mut tracer = SpanTracer::new();
        let results =
            Session::new(cfg).jobs(2).metrics(true).interval(1000).trace(&mut tracer).run(jobs);
        assert_eq!(results.len(), 3);
        for r in results {
            let ir = r.unwrap();
            assert!(ir.metrics.is_some());
            let windows = ir.intervals.unwrap();
            assert_eq!(windows.iter().map(|w| w.insns).sum::<u64>(), ir.report.dynamic_total);
        }
        // One workload span per job, each wrapping the four phase spans,
        // on worker lanes >= 1.
        let spans = tracer.spans();
        let workloads: Vec<&Span> = spans.iter().filter(|s| s.cat == "workload").collect();
        assert_eq!(workloads.len(), 3);
        assert!(workloads.iter().all(|s| s.name == "lookup" && s.lane >= 1));
        for lane in spans.iter().map(|s| s.lane).collect::<crate::FxHashSet<u32>>() {
            let names: Vec<&str> = spans
                .iter()
                .filter(|s| s.lane == lane && s.cat == "phase")
                .map(|s| s.name.as_str())
                .collect();
            assert_eq!(names.len() % 4, 0, "lane {lane} has whole jobs only");
            for chunk in names.chunks(4) {
                assert_eq!(chunk, ["setup", "skip", "measure", "finalize"]);
            }
        }
    }

    #[test]
    fn parallel_map_indexed_reports_valid_worker_ids() {
        use std::sync::Mutex;
        let seen = Mutex::new(Vec::new());
        let out = parallel_map_indexed((0..8u64).collect(), 3, |worker, i| {
            seen.lock().unwrap().push(worker);
            i
        });
        assert_eq!(out, (0..8).collect::<Vec<_>>());
        assert!(seen.lock().unwrap().iter().all(|w| *w < 3));
    }

    #[test]
    fn parallel_map_preserves_item_order() {
        // Later items finish first (they sleep less); results must still
        // come back in input order.
        let items: Vec<u64> = (0..16).collect();
        let out = parallel_map_indexed(items, 8, |_, i| {
            std::thread::sleep(std::time::Duration::from_micros(200 * (16 - i)));
            i * i
        });
        assert_eq!(out, (0..16).map(|i| i * i).collect::<Vec<_>>());
    }
}
