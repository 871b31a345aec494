//! The unified analysis entry point: a builder that owns the probe
//! bundle and the cache client.
//!
//! Four PRs of probe growth left `core::pipeline` with six parallel
//! `analyze*` functions, each new feature threading one more parameter
//! through all of them. [`Session`] replaces that surface: configure
//! once, attach whichever observers you want, then [`Session::run`] a
//! batch (or [`Session::run_one`] a single workload). The old functions
//! served their one release as `#[deprecated]` shims and are gone.
//!
//! A configured `Session` is `Send` (pinned by the compile-time
//! assertions in `tests/send_clean.rs`): every borrowed observer is
//! either exclusively owned (`&mut SpanTracer`) or `Sync`
//! ([`AnalysisCache`], [`TelemetryRegistry`]), so a worker pool — the
//! `instrep-serve` daemon — can move per-request sessions freely
//! across threads while sharing one cache and one registry.
//!
//! ```
//! use instrep_core::{AnalysisConfig, AnalysisJob, Session, SpanTracer};
//!
//! let image = instrep_minicc::build(
//!     "int main() { int i; int s = 0; for (i = 0; i < 300; i++) s += i & 7; return s & 0xff; }",
//! )?;
//! let mut tracer = SpanTracer::new();
//! let results = Session::new(AnalysisConfig::default())
//!     .jobs(2)
//!     .metrics(true)
//!     .interval(1000)
//!     .profile(true)
//!     .trace(&mut tracer)
//!     .run(vec![
//!         AnalysisJob { image: &image, input: Vec::new(), label: "a" },
//!         AnalysisJob { image: &image, input: Vec::new(), label: "b" },
//!     ]);
//! for r in results {
//!     let ir = r?;
//!     assert!(ir.report.dynamic_total > 300);
//!     assert!(ir.metrics.is_some() && ir.intervals.is_some() && ir.profile.is_some());
//! }
//! assert_eq!(tracer.spans().iter().filter(|s| s.cat == "workload").count(), 2);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! # Caching
//!
//! Attaching an [`AnalysisCache`] makes the session memoize whole
//! workloads: before simulating a job it derives the job's
//! [`CacheKey`](crate::CacheKey) and, on a hit, returns the stored
//! report without executing a single instruction (the job's metrics
//! then contain one `"cache"` phase and nothing else). Misses run
//! normally and populate the cache. [`Session::cache_verify`] turns
//! hits into recompute-and-compare runs — the poisoned-cache detector.
//!
//! The probe outputs are cached too. The key includes the
//! [`ProbeSet`](crate::ProbeSet) — profile on/off, loops on/off, the
//! interval period — so a probe run and a plain run of the same job are
//! separate entries, and a probe entry stores the profile's per-site
//! counters, the loop-nest profile, and the interval windows after the
//! report. A hit returns them byte-identical to a fresh run's; the
//! profile is rebuilt from its counters and the image by the same join
//! the pipeline uses. Only a partial
//! [`split_observers`](Session::split_observers) mask bypasses the
//! cache (outcome [`CacheOutcome::Uncached`]).

use instrep_asm::Image;
use instrep_sim::{InterpTier, SimError};

use crate::cache::{encode_entry, AnalysisCache, CacheKey, ProbeSections, ProbeSet};
use crate::fused::{AnalysisTier, SplitObservers};
use crate::interval::IntervalSampler;
use crate::loops::LoopProfiler;
use crate::metrics::{PhaseTimer, WorkloadMetrics};
use crate::pipeline::{
    parallel_map_indexed, run_probed, AnalysisConfig, AnalysisJob, InstrumentedReport, Probes,
};
use crate::profile::InstructionProfile;
use crate::telemetry::{LanePhase, PipelineTelemetry, TelemetryRegistry};
use crate::trace_span::{SpanLane, SpanTracer};

/// How the analysis cache participated in producing one job's report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// No cache attached, or a partial observer mask bypassed it (see
    /// the module docs).
    Uncached,
    /// Cache attached, no usable entry: the job ran and stored one.
    Miss,
    /// Entry found and returned without running the simulator.
    Hit,
    /// Verify mode: entry found, job recomputed, results identical.
    VerifyOk,
    /// Verify mode: entry found but it does **not** match the
    /// recomputation — the cache is poisoned or stale. The report
    /// returned is the fresh one.
    VerifyMismatch,
}

/// Builder for one batch of workload analyses — the crate's single
/// entry point (see the module docs for an example).
///
/// Builder methods consume and return the session, so a configured run
/// is one expression. The lifetime `'t` ties borrowed observers (the
/// span tracer, the cache) to the session; everything else is owned.
#[derive(Debug)]
pub struct Session<'t> {
    cfg: AnalysisConfig,
    threads: usize,
    metrics: bool,
    probes: ProbeSet,
    tracer: Option<&'t mut SpanTracer>,
    cache: Option<&'t AnalysisCache>,
    telemetry: Option<&'t TelemetryRegistry>,
    verify: bool,
    tier: InterpTier,
    analysis: AnalysisTier,
    observers: SplitObservers,
}

impl<'t> Session<'t> {
    /// A session with no probes, no cache, and one worker thread.
    pub fn new(cfg: AnalysisConfig) -> Session<'t> {
        Session {
            cfg,
            threads: 1,
            metrics: false,
            probes: ProbeSet::default(),
            tracer: None,
            cache: None,
            telemetry: None,
            verify: false,
            tier: InterpTier::default(),
            analysis: AnalysisTier::default(),
            observers: SplitObservers::all(),
        }
    }

    /// Interpreter tier driving the simulation ([`InterpTier::default`]
    /// unless overridden). Tiers produce byte-identical event streams,
    /// so reports — and [cache](Session::cache) keys — never depend on
    /// this choice: an entry stored under one tier is served under the
    /// other.
    pub fn interp(mut self, tier: InterpTier) -> Session<'t> {
        self.tier = tier;
        self
    }

    /// Analysis tier computing the report ([`AnalysisTier::default`]
    /// unless overridden): the fused per-event hot row, or the seven
    /// free-standing observers kept as its differential oracle. Tiers
    /// produce byte-identical results, so reports — and
    /// [cache](Session::cache) keys — never depend on this choice.
    pub fn analysis(mut self, tier: AnalysisTier) -> Session<'t> {
        self.analysis = tier;
        self
    }

    /// Restrict the split tier to a subset of its observers — the
    /// mechanism behind `--disable-observer`, which `scripts/bench.sh`
    /// uses to measure each observer's marginal per-event cost. A
    /// partial mask produces a report with the disabled observers'
    /// sections zeroed, so such runs bypass the cache. Ignored by the
    /// fused tier (which has no per-observer seams).
    pub fn split_observers(mut self, observers: SplitObservers) -> Session<'t> {
        self.observers = observers;
        self
    }

    /// Worker threads for [`Session::run`], clamped to `[1, jobs]` at
    /// run time. Pass [`crate::default_parallelism`] for "use the
    /// machine". Results are bit-identical for every value, including 1.
    pub fn jobs(mut self, threads: usize) -> Session<'t> {
        self.threads = threads;
        self
    }

    /// Collect a [`WorkloadMetrics`] per job (phase timers, throughput,
    /// occupancy gauges).
    pub fn metrics(mut self, on: bool) -> Session<'t> {
        self.metrics = on;
        self
    }

    /// Sample an interval time series per job, closing a window every
    /// `insns` measured instructions. Cached with the report, under a
    /// key that includes the period.
    pub fn interval(mut self, insns: u64) -> Session<'t> {
        self.probes.interval = Some(insns);
        self
    }

    /// Fill an [`InstructionProfile`] per job (per-PC attribution).
    /// Cached with the report.
    pub fn profile(mut self, on: bool) -> Session<'t> {
        self.probes.profile = on;
        self
    }

    /// Fill a [`LoopNestProfile`](crate::LoopNestProfile) per job —
    /// dynamic loop detection from back edges with exec/repeated
    /// attribution per loop nest. Cached with the report.
    pub fn loops(mut self, on: bool) -> Session<'t> {
        self.probes.loops = on;
        self
    }

    /// Record span traces into `tracer`: one lane per worker thread
    /// (lane `1 + worker index`; lane 0 is the driver's), one
    /// `"workload"` span per job wrapping the pipeline's `"phase"`
    /// spans. Lanes are merged into the tracer in job order.
    pub fn trace(mut self, tracer: &'t mut SpanTracer) -> Session<'t> {
        self.tracer = Some(tracer);
        self
    }

    /// Memoize whole-workload results in `cache` (see the module docs
    /// for hit/miss/bypass semantics).
    pub fn cache(mut self, cache: &'t AnalysisCache) -> Session<'t> {
        self.cache = Some(cache);
        self
    }

    /// Publish live telemetry into `registry`: per-worker-lane icount
    /// and phase ([`crate::telemetry::LaneTelemetry`]), shared
    /// `phase_ns_*` wall-time counters, `session_*` run counters, and
    /// `cache_verify_*` outcomes. Updates are relaxed atomics read
    /// concurrently by the wall-clock heartbeat sampler; like every
    /// probe, attaching a registry cannot perturb the reports.
    pub fn telemetry(mut self, registry: &'t TelemetryRegistry) -> Session<'t> {
        self.telemetry = Some(registry);
        self
    }

    /// On a cache hit, recompute anyway and compare — reporting
    /// [`CacheOutcome::VerifyOk`] or [`CacheOutcome::VerifyMismatch`]
    /// instead of skipping the run. No effect without
    /// [`Session::cache`].
    pub fn cache_verify(mut self, on: bool) -> Session<'t> {
        self.verify = on;
        self
    }

    /// Runs every job, returning results **in job order** regardless of
    /// scheduling. Reports are byte-identical to an unprobed, uncached
    /// run for every thread count — probes observe, the cache memoizes,
    /// neither perturbs.
    ///
    /// # Errors
    ///
    /// Each slot carries its own simulator outcome; one trapped
    /// workload does not poison the others.
    pub fn run(self, jobs: Vec<AnalysisJob<'_>>) -> Vec<Result<InstrumentedReport, SimError>> {
        let Session {
            cfg,
            threads,
            metrics,
            probes,
            mut tracer,
            cache,
            telemetry,
            verify,
            tier,
            analysis,
            observers,
        } = self;
        // A partial observer mask bypasses the cache: its zeroed report
        // must neither be stored under nor served for the full-analysis
        // key. Probe outputs are part of the key and of the entry.
        let cache = cache.filter(|_| observers.is_all());
        let epoch = tracer.as_ref().map(|t| t.epoch());

        // Telemetry handles, interned up front (one mutex pass): one
        // lane per worker the pool will actually spawn, plus the shared
        // session counters. The worker closure only touches atomics.
        let lane_count = threads.clamp(1, jobs.len().max(1));
        let lanes: Vec<PipelineTelemetry> = telemetry
            .map(|r| (0..lane_count).map(|w| r.pipeline_lane(w)).collect())
            .unwrap_or_default();
        let runs_started = telemetry.map(|r| r.counter("session_runs_started"));
        let runs_finished = telemetry.map(|r| r.counter("session_runs_finished"));
        let verify_ok = telemetry.map(|r| r.counter("cache_verify_ok"));
        let verify_mismatch = telemetry.map(|r| r.counter("cache_verify_mismatch"));
        // Loop-profiler instruments, registered only when the probe is
        // on so an off run leaves no zero-valued ghosts in expositions.
        let loop_tel = telemetry.filter(|_| probes.loops).map(|r| {
            (
                r.counter("loops_discovered"),
                r.counter("loops_back_edges"),
                r.counter("loops_irregular"),
                r.gauge("loops_max_depth"),
            )
        });
        if let Some(r) = telemetry {
            r.counter("session_jobs_submitted").add(jobs.len() as u64);
        }

        let results = parallel_map_indexed(jobs, threads, |worker, job| {
            let tel = lanes.get(worker);
            if let Some(c) = &runs_started {
                c.inc();
            }
            let mut m = metrics.then(WorkloadMetrics::default);
            let mut lane = epoch.map(|e| SpanLane::new(worker as u32 + 1, e));
            let label = job.label.to_string();
            if let Some(t) = tel {
                t.lane().set_label(&label);
            }
            let job_span = lane.as_mut().map(|l| l.begin());

            // Cache lookup, timed as its own pipeline phase.
            let mut key = None;
            let mut cached = None;
            if let Some(cache) = cache {
                let timer = m.as_ref().map(|_| PhaseTimer::start());
                let span = lane.as_mut().map(|l| l.begin());
                let lt = tel.map(|t| t.begin(LanePhase::Cache));
                let k = CacheKey::derive_probed(job.image, &job.input, &cfg, probes);
                cached = cache.load_entry(&k, probes);
                key = Some(k);
                if let Some(m) = m.as_mut() {
                    m.record_phase("cache", timer.expect("timer started with metrics"), 0);
                }
                if let Some(l) = lane.as_mut() {
                    l.end(span.expect("span opened with lane"), "cache", "phase", 0);
                }
                if let Some(t) = tel {
                    t.end(LanePhase::Cache, lt.expect("telemetry timer started"));
                }
            }

            if let Some((report, sections)) = cached.take_if(|_| !verify) {
                // Pure hit: the stored entry stands in for the whole
                // simulation — zero instructions execute (so no loop
                // telemetry is published either).
                if let Some(l) = lane.as_mut() {
                    l.end(job_span.expect("span opened with lane"), label, "workload", 0);
                }
                if let Some(t) = tel {
                    t.lane().job_done();
                    t.lane().set_phase(LanePhase::Idle);
                    t.lane().set_label("");
                }
                if let Some(c) = &runs_finished {
                    c.inc();
                }
                let profile = sections.profile.map(|stats| {
                    let mut p = InstructionProfile::default();
                    p.fill_from_stats(job.image, &stats);
                    p
                });
                let instrumented = InstrumentedReport {
                    report,
                    metrics: m,
                    intervals: sections.intervals,
                    profile,
                    loops: sections.loops,
                    cache: CacheOutcome::Hit,
                };
                return (Ok(instrumented), lane.map(SpanLane::into_spans));
            }

            let mut sampler = probes.interval.map(IntervalSampler::new);
            let mut prof = probes.profile.then(InstructionProfile::default);
            let mut lp = probes.loops.then(|| LoopProfiler::new(job.image.text.len()));
            let result = run_probed(
                job.image,
                job.input,
                &cfg,
                tier,
                analysis,
                observers,
                Probes {
                    metrics: m.as_mut(),
                    spans: lane.as_mut(),
                    sampler: sampler.as_mut(),
                    profile: prof.as_mut(),
                    telemetry: tel,
                    loops: lp.as_mut(),
                },
            );
            if let (Some((discovered, back_edges, irregular, max_depth)), Some(p)) =
                (&loop_tel, &lp)
            {
                discovered.add(p.loops_discovered());
                back_edges.add(p.back_edges());
                irregular.add(p.irregular());
                max_depth.set_max(u64::from(p.max_depth()));
            }

            let mut sections = ProbeSections {
                profile: None,
                loops: lp.map(LoopProfiler::finish),
                intervals: sampler.map(IntervalSampler::into_windows),
            };
            let mut outcome = CacheOutcome::Uncached;
            if let (Some(cache), Some(key), Ok(report)) = (cache, key.as_ref(), &result) {
                sections.profile = prof.as_ref().map(InstructionProfile::static_stats);
                outcome = match cached {
                    // Verified hit: canonical encodings are equal iff
                    // every report field and probe section is.
                    Some((prior, prior_sections))
                        if encode_entry(&prior, &prior_sections)
                            == encode_entry(report, &sections) =>
                    {
                        if let Some(c) = &verify_ok {
                            c.inc();
                        }
                        CacheOutcome::VerifyOk
                    }
                    Some(_) => {
                        if let Some(c) = &verify_mismatch {
                            c.inc();
                        }
                        CacheOutcome::VerifyMismatch
                    }
                    None => {
                        // Best-effort store: a full disk costs us the
                        // memoization, not the run.
                        let _ = cache.store_entry(key, report, &sections);
                        CacheOutcome::Miss
                    }
                };
            }

            if let (Some(l), Ok(_)) = (lane.as_mut(), &result) {
                l.end(job_span.expect("span opened with lane"), label, "workload", 0);
            }
            if let Some(t) = tel {
                t.lane().job_done();
                t.lane().set_phase(LanePhase::Idle);
                t.lane().set_label("");
            }
            if let (Some(c), Ok(_)) = (&runs_finished, &result) {
                c.inc();
            }
            let spans = lane.map(SpanLane::into_spans);
            let instrumented = result.map(|report| InstrumentedReport {
                report,
                metrics: m,
                intervals: sections.intervals,
                profile: prof,
                loops: sections.loops,
                cache: outcome,
            });
            (instrumented, spans)
        });

        results
            .into_iter()
            .map(|(r, spans)| {
                if let (Some(t), Some(spans)) = (tracer.as_deref_mut(), spans) {
                    t.extend(spans);
                }
                r
            })
            .collect()
    }

    /// Runs a single workload — [`Session::run`] with one unlabeled
    /// job.
    ///
    /// # Errors
    ///
    /// Propagates simulator traps ([`SimError`]); a trap indicates a
    /// workload or compiler bug, not a property of the analyses.
    pub fn run_one(self, image: &Image, input: Vec<u8>) -> Result<InstrumentedReport, SimError> {
        self.run(vec![AnalysisJob { image, input, label: "" }])
            .pop()
            .expect("one job in, one result out")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use instrep_minicc::build;
    use std::path::PathBuf;

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

    fn tmp_cache(tag: &str) -> (PathBuf, AnalysisCache) {
        let dir =
            std::env::temp_dir().join(format!("instrep-session-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let cache = AnalysisCache::open(&dir).unwrap();
        (dir, cache)
    }

    #[test]
    fn session_matches_direct_pipeline_at_every_thread_count() {
        let image = small_image();
        let cfg = AnalysisConfig::default();
        let direct = {
            let r = run_probed(
                &image,
                Vec::new(),
                &cfg,
                InterpTier::default(),
                AnalysisTier::default(),
                SplitObservers::all(),
                Probes::none(),
            );
            format!("{:?}", r.unwrap())
        };
        for threads in [1, 2, 7] {
            let jobs: Vec<AnalysisJob<'_>> = (0..4)
                .map(|_| AnalysisJob { image: &image, input: Vec::new(), label: "" })
                .collect();
            for r in Session::new(cfg).jobs(threads).run(jobs) {
                let ir = r.unwrap();
                assert_eq!(format!("{:?}", ir.report), direct, "threads={threads}");
                assert_eq!(ir.cache, CacheOutcome::Uncached);
                assert!(ir.metrics.is_none() && ir.intervals.is_none() && ir.profile.is_none());
            }
        }
    }

    #[test]
    fn interp_tiers_report_identically_and_share_cache_entries() {
        let image = small_image();
        let cfg = AnalysisConfig::default();
        let fast =
            Session::new(cfg).interp(InterpTier::Predecoded).run_one(&image, Vec::new()).unwrap();
        let legacy =
            Session::new(cfg).interp(InterpTier::Legacy).run_one(&image, Vec::new()).unwrap();
        assert_eq!(format!("{:?}", fast.report), format!("{:?}", legacy.report));

        // Cache keys are tier-invariant: an entry stored by the legacy
        // interpreter is a plain hit under the predecoded one.
        let (dir, cache) = tmp_cache("tier");
        let s = Session::new(cfg).interp(InterpTier::Legacy).cache(&cache);
        assert_eq!(s.run_one(&image, Vec::new()).unwrap().cache, CacheOutcome::Miss);
        let s = Session::new(cfg).interp(InterpTier::Predecoded).cache(&cache);
        let warm = s.run_one(&image, Vec::new()).unwrap();
        assert_eq!(warm.cache, CacheOutcome::Hit);
        assert_eq!(format!("{:?}", warm.report), format!("{:?}", fast.report));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn analysis_tiers_report_identically_and_share_cache_entries() {
        let image = small_image();
        let cfg = AnalysisConfig::default();
        let fused =
            Session::new(cfg).analysis(AnalysisTier::Fused).run_one(&image, Vec::new()).unwrap();
        let split =
            Session::new(cfg).analysis(AnalysisTier::Split).run_one(&image, Vec::new()).unwrap();
        assert_eq!(format!("{:?}", fused.report), format!("{:?}", split.report));

        // Cache keys are tier-invariant: an entry stored by the split
        // oracle is a plain hit under the fused tier.
        let (dir, cache) = tmp_cache("analysis-tier");
        let s = Session::new(cfg).analysis(AnalysisTier::Split).cache(&cache);
        assert_eq!(s.run_one(&image, Vec::new()).unwrap().cache, CacheOutcome::Miss);
        let s = Session::new(cfg).analysis(AnalysisTier::Fused).cache(&cache);
        let warm = s.run_one(&image, Vec::new()).unwrap();
        assert_eq!(warm.cache, CacheOutcome::Hit);
        assert_eq!(format!("{:?}", warm.report), format!("{:?}", fused.report));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn partial_observer_masks_bypass_the_cache() {
        let (dir, cache) = tmp_cache("mask");
        let image = small_image();
        let cfg = AnalysisConfig::default();
        // Prime the cache so a lookup *would* hit.
        Session::new(cfg).cache(&cache).run_one(&image, Vec::new()).unwrap();

        let mut obs = SplitObservers::all();
        obs.disable("reuse").unwrap();
        let s = Session::new(cfg).analysis(AnalysisTier::Split).split_observers(obs).cache(&cache);
        let ir = s.run_one(&image, Vec::new()).unwrap();
        assert_eq!(ir.cache, CacheOutcome::Uncached);
        assert_eq!(ir.report.reuse.hits, 0, "disabled observer reports zeroes");

        // The zeroed run must not have poisoned the full-analysis entry.
        let warm = Session::new(cfg).cache(&cache).run_one(&image, Vec::new()).unwrap();
        assert_eq!(warm.cache, CacheOutcome::Hit);
        assert!(warm.report.reuse.hits > 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cache_miss_then_hit_returns_identical_report() {
        let (dir, cache) = tmp_cache("hit");
        let image = small_image();
        let cfg = AnalysisConfig::default();

        let cold = Session::new(cfg).metrics(true).cache(&cache).run_one(&image, Vec::new());
        let cold = cold.unwrap();
        assert_eq!(cold.cache, CacheOutcome::Miss);
        let cold_phases: Vec<&str> =
            cold.metrics.as_ref().unwrap().phases.iter().map(|p| p.name).collect();
        assert_eq!(cold_phases, ["cache", "setup", "skip", "measure", "finalize"]);

        let warm = Session::new(cfg).metrics(true).cache(&cache).run_one(&image, Vec::new());
        let warm = warm.unwrap();
        assert_eq!(warm.cache, CacheOutcome::Hit);
        assert_eq!(format!("{:?}", warm.report), format!("{:?}", cold.report));
        // A hit executes nothing: the only phase is the cache lookup.
        let m = warm.metrics.unwrap();
        let warm_phases: Vec<&str> = m.phases.iter().map(|p| p.name).collect();
        assert_eq!(warm_phases, ["cache"]);
        assert_eq!(m.phases.iter().map(|p| p.events).sum::<u64>(), 0);
        assert!(m.gauges.is_empty(), "no simulator ran, so no gauges");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cached_batch_is_identical_across_thread_counts() {
        let (dir, cache) = tmp_cache("batch");
        let image = small_image();
        let cfg = AnalysisConfig::default();
        let jobs = |n: usize| -> Vec<AnalysisJob<'_>> {
            (0..n).map(|_| AnalysisJob { image: &image, input: Vec::new(), label: "" }).collect()
        };
        let plain: Vec<String> = Session::new(cfg)
            .run(jobs(3))
            .into_iter()
            .map(|r| format!("{:?}", r.unwrap().report))
            .collect();
        for threads in [1, 4] {
            let cached: Vec<String> = Session::new(cfg)
                .jobs(threads)
                .cache(&cache)
                .run(jobs(3))
                .into_iter()
                .map(|r| format!("{:?}", r.unwrap().report))
                .collect();
            assert_eq!(cached, plain, "threads={threads}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn verify_passes_on_honest_entries_and_catches_poison() {
        let (dir, cache) = tmp_cache("verify");
        let image = small_image();
        let cfg = AnalysisConfig::default();
        let key = CacheKey::derive(&image, &[], &cfg);

        // Verify on a cold cache is a plain miss (nothing to compare).
        let s = Session::new(cfg).cache(&cache).cache_verify(true);
        assert_eq!(s.run_one(&image, Vec::new()).unwrap().cache, CacheOutcome::Miss);

        // Honest entry: verification recomputes and agrees.
        let s = Session::new(cfg).cache(&cache).cache_verify(true);
        assert_eq!(s.run_one(&image, Vec::new()).unwrap().cache, CacheOutcome::VerifyOk);

        // Poison the entry *through the front door*: store a
        // well-formed report with one counter nudged. A plain hit
        // serves the lie; verify catches it and returns the fresh
        // report.
        let mut poisoned = cache.load(&key).unwrap();
        poisoned.dynamic_repeated += 1;
        cache.store(&key, &poisoned).unwrap();
        let served = Session::new(cfg).cache(&cache).run_one(&image, Vec::new()).unwrap();
        assert_eq!(served.cache, CacheOutcome::Hit);
        assert_eq!(served.report.dynamic_repeated, poisoned.dynamic_repeated);
        let s = Session::new(cfg).cache(&cache).cache_verify(true);
        let verified = s.run_one(&image, Vec::new()).unwrap();
        assert_eq!(verified.cache, CacheOutcome::VerifyMismatch);
        assert_ne!(verified.report.dynamic_repeated, poisoned.dynamic_repeated);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Three programs with distinct images, so a batch of them never
    /// shares a key (and every job of a cold batch misses).
    fn distinct_images() -> Vec<Image> {
        [300, 400, 500]
            .iter()
            .map(|n| {
                build(&format!(
                    "int sq(int x) {{ return x * x; }}
                     int main() {{
                         int i; int j; int s = 0;
                         for (i = 0; i < {n}; i++)
                             for (j = 0; j < 3; j++) s += sq(i & 7) + j;
                         return s & 0xff;
                     }}"
                ))
                .unwrap()
            })
            .collect()
    }

    fn with_probes(s: Session<'_>, probes: ProbeSet) -> Session<'_> {
        let s = s.profile(probes.profile).loops(probes.loops);
        match probes.interval {
            Some(n) => s.interval(n),
            None => s,
        }
    }

    #[test]
    fn probe_outputs_are_cached_per_probe_set() {
        let images = distinct_images();
        let cfg = AnalysisConfig::default();
        let jobs = || -> Vec<AnalysisJob<'_>> {
            images.iter().map(|image| AnalysisJob { image, input: Vec::new(), label: "" }).collect()
        };
        let sets = [
            ProbeSet { profile: true, loops: false, interval: None },
            ProbeSet { profile: false, loops: true, interval: None },
            ProbeSet { profile: false, loops: false, interval: Some(700) },
            ProbeSet { profile: true, loops: true, interval: Some(700) },
        ];
        for probes in sets {
            let uncached: Vec<InstrumentedReport> = with_probes(Session::new(cfg), probes)
                .run(jobs())
                .into_iter()
                .map(Result::unwrap)
                .collect();
            for threads in [1, 4] {
                let (dir, cache) = tmp_cache(&format!("probes-{threads}"));
                for expect in [CacheOutcome::Miss, CacheOutcome::Hit] {
                    let runs = with_probes(Session::new(cfg).jobs(threads).cache(&cache), probes)
                        .run(jobs());
                    for (ir, fresh) in runs.into_iter().map(Result::unwrap).zip(&uncached) {
                        let at = format!("{probes:?} threads={threads} {expect:?}");
                        assert_eq!(ir.cache, expect, "{at}");
                        assert_eq!(format!("{:?}", ir.report), format!("{:?}", fresh.report));
                        assert_eq!(ir.profile, fresh.profile, "{at}");
                        assert_eq!(ir.loops, fresh.loops, "{at}");
                        assert_eq!(ir.intervals, fresh.intervals, "{at}");
                        assert_eq!(ir.profile.is_some(), probes.profile, "{at}");
                        assert_eq!(ir.loops.is_some(), probes.loops, "{at}");
                        assert_eq!(ir.intervals.is_some(), probes.interval.is_some(), "{at}");
                    }
                }
                std::fs::remove_dir_all(&dir).ok();
            }
        }
    }

    #[test]
    fn plain_and_probe_entries_are_distinct_keys() {
        let (dir, cache) = tmp_cache("distinct");
        let image = small_image();
        let cfg = AnalysisConfig::default();
        let run = |probes: ProbeSet| {
            with_probes(Session::new(cfg).cache(&cache), probes)
                .run_one(&image, Vec::new())
                .unwrap()
        };
        let plain = ProbeSet::default();
        let profiled = ProbeSet { profile: true, ..plain };
        assert_eq!(run(plain).cache, CacheOutcome::Miss);
        // A stored plain entry is no hit for a probe request...
        let cold = run(profiled);
        assert_eq!(cold.cache, CacheOutcome::Miss);
        assert!(cold.profile.is_some());
        // ...nor does the probe entry replace the plain one.
        let warm = run(plain);
        assert_eq!(warm.cache, CacheOutcome::Hit);
        assert!(warm.profile.is_none());
        assert_eq!(run(profiled).cache, CacheOutcome::Hit);
        assert_eq!(cache.entries(), 2);
        assert_ne!(
            CacheKey::derive(&image, &[], &cfg),
            CacheKey::derive_probed(&image, &[], &cfg, profiled)
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn verify_catches_a_poisoned_profile_section() {
        let (dir, cache) = tmp_cache("verify-profile");
        let image = small_image();
        let cfg = AnalysisConfig::default();
        let probes = ProbeSet { profile: true, ..ProbeSet::default() };
        let key = CacheKey::derive_probed(&image, &[], &cfg, probes);
        let session = || Session::new(cfg).profile(true).cache(&cache);
        let fresh = session().run_one(&image, Vec::new()).unwrap();
        assert_eq!(fresh.cache, CacheOutcome::Miss);
        let s = session().cache_verify(true);
        assert_eq!(s.run_one(&image, Vec::new()).unwrap().cache, CacheOutcome::VerifyOk);

        // Poison one site's counter and leave the report alone: the
        // report-only comparison the cache used to make would pass.
        let (report, mut sections) = cache.load_entry(&key, probes).unwrap();
        sections.profile.as_mut().unwrap()[0].repeated += 1;
        cache.store_entry(&key, &report, &sections).unwrap();
        let served = session().run_one(&image, Vec::new()).unwrap();
        assert_eq!(served.cache, CacheOutcome::Hit);
        assert_ne!(served.profile, fresh.profile, "a plain hit serves the stored profile");
        let verified = session().cache_verify(true).run_one(&image, Vec::new()).unwrap();
        assert_eq!(verified.cache, CacheOutcome::VerifyMismatch);
        assert_eq!(verified.profile, fresh.profile, "verify returns the fresh profile");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn loop_probe_is_identical_across_threads_and_publishes_telemetry() {
        let image = small_image();
        let cfg = AnalysisConfig::default();
        let jobs = |n: usize| -> Vec<AnalysisJob<'_>> {
            (0..n).map(|_| AnalysisJob { image: &image, input: Vec::new(), label: "" }).collect()
        };
        let serial: Vec<_> = Session::new(cfg)
            .loops(true)
            .run(jobs(3))
            .into_iter()
            .map(|r| r.unwrap().loops.expect("loops were requested"))
            .collect();
        assert!(serial.iter().all(|p| !p.loops.is_empty() && p.max_depth >= 1));
        let registry = TelemetryRegistry::new();
        let parallel: Vec<_> = Session::new(cfg)
            .jobs(4)
            .loops(true)
            .telemetry(&registry)
            .run(jobs(3))
            .into_iter()
            .map(|r| r.unwrap().loops.expect("loops were requested"))
            .collect();
        assert_eq!(serial, parallel);
        // Each job contributed its counts; the depth gauge holds the max.
        assert_eq!(registry.counter("loops_discovered").get(), 3 * serial[0].loops.len() as u64);
        assert_eq!(registry.counter("loops_back_edges").get(), 3 * serial[0].back_edges);
        assert_eq!(registry.gauge("loops_max_depth").get(), u64::from(serial[0].max_depth));
    }

    #[test]
    fn telemetry_counts_runs_and_cache_outcomes() {
        let (dir, mut cache) = tmp_cache("telemetry");
        let registry = TelemetryRegistry::new();
        cache.attach_telemetry(&registry);
        let image = small_image();
        let cfg = AnalysisConfig { skip: 500, ..AnalysisConfig::default() };
        let counter = |name: &str| registry.counter(name).get();

        // Cold: one run, one miss, one store.
        let cold = Session::new(cfg)
            .cache(&cache)
            .telemetry(&registry)
            .run_one(&image, Vec::new())
            .unwrap();
        assert_eq!(cold.cache, CacheOutcome::Miss);
        assert_eq!(counter("session_jobs_submitted"), 1);
        assert_eq!(counter("session_runs_started"), 1);
        assert_eq!(counter("session_runs_finished"), 1);
        assert_eq!(counter("cache_miss"), 1);
        assert_eq!(counter("cache_store"), 1);
        assert_eq!(counter("cache_hit"), 0);

        // The lane's live icount is exact after the run: the skip
        // window plus every measured instruction, and one job done.
        let snap = registry.snapshot();
        assert_eq!(snap.lanes.len(), 1);
        assert_eq!(snap.lanes[0].icount, cfg.skip + cold.report.dynamic_total);
        assert_eq!(snap.lanes[0].jobs_done, 1);
        assert_eq!(snap.lanes[0].phase, LanePhase::Idle);
        for phase in ["cache", "setup", "skip", "measure", "finalize"] {
            assert!(counter(&format!("phase_ns_{phase}")) > 0, "phase_ns_{phase} unrecorded");
        }

        // Warm: a pure hit, no simulation.
        let warm = Session::new(cfg)
            .cache(&cache)
            .telemetry(&registry)
            .run_one(&image, Vec::new())
            .unwrap();
        assert_eq!(warm.cache, CacheOutcome::Hit);
        assert_eq!(counter("cache_hit"), 1);
        assert_eq!(counter("session_runs_finished"), 2);
        assert_eq!(registry.snapshot().lanes[0].icount, cfg.skip + cold.report.dynamic_total);

        // Verify mode recomputes and agrees.
        let verified = Session::new(cfg)
            .cache(&cache)
            .cache_verify(true)
            .telemetry(&registry)
            .run_one(&image, Vec::new())
            .unwrap();
        assert_eq!(verified.cache, CacheOutcome::VerifyOk);
        assert_eq!(counter("cache_verify_ok"), 1);
        assert_eq!(counter("cache_verify_mismatch"), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn telemetry_does_not_perturb_reports() {
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
        let registry = TelemetryRegistry::new();
        let with: Vec<String> = Session::new(cfg)
            .jobs(2)
            .telemetry(&registry)
            .run(jobs(3))
            .into_iter()
            .map(|r| format!("{:?}", r.unwrap().report))
            .collect();
        assert_eq!(plain, with);
        // All three jobs landed on some lane; the total is exact.
        let snap = registry.snapshot();
        assert_eq!(snap.lanes.iter().map(|l| l.jobs_done).sum::<u64>(), 3);
        assert_eq!(registry.counter("session_runs_finished").get(), 3);
    }

    #[test]
    fn cached_runs_trace_a_cache_span_per_job() {
        let (dir, cache) = tmp_cache("spans");
        let image = small_image();
        let cfg = AnalysisConfig::default();
        let jobs = || vec![AnalysisJob { image: &image, input: Vec::new(), label: "lookup" }];

        let mut cold = SpanTracer::new();
        Session::new(cfg).cache(&cache).trace(&mut cold).run(jobs());
        let cold_names: Vec<&str> = cold.spans().iter().map(|s| s.name.as_str()).collect();
        assert_eq!(cold_names, ["cache", "setup", "skip", "measure", "finalize", "lookup"]);

        let mut warm = SpanTracer::new();
        Session::new(cfg).cache(&cache).trace(&mut warm).run(jobs());
        let warm_names: Vec<&str> = warm.spans().iter().map(|s| s.name.as_str()).collect();
        assert_eq!(warm_names, ["cache", "lookup"], "a hit traces no pipeline phases");
        std::fs::remove_dir_all(&dir).ok();
    }
}
