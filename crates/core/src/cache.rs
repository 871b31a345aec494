//! Content-addressed on-disk cache of whole-workload analysis results.
//!
//! The paper's subject is exploiting repetition, and the driver's own
//! work repeats wholesale: re-running `instrep-repro` recomputes every
//! workload's analysis from scratch even when nothing changed. This
//! module memoizes the unit that matters — one `(image, input, config,
//! probe set)` analysis: its [`WorkloadReport`] plus whatever probe
//! outputs (per-PC profile, loop nests, interval windows) the run
//! produced — under a key derived from the *content* of those inputs, so
//! a warm run skips simulation entirely and still prints byte-identical
//! tables and exports.
//!
//! # Key derivation
//!
//! [`CacheKey::derive_probed`] hashes, in order: [`CACHE_SCHEMA_VERSION`],
//! every image field the analyses consume (text words, line table, data
//! bytes, initializer ranges, entry point, and function metadata — the
//! symbol table is deliberately excluded: no analysis reads it), the
//! raw input stream, every [`AnalysisConfig`] field, and the
//! [`ProbeSet`] (profile on/off, loops on/off, interval period). Two
//! independently salted [`FxHasher`] passes produce a 128-bit key, which
//! names the entry file (`<32 hex digits>.bin`). Any change to what a
//! run would compute therefore lands on a different file — a probe run
//! and a plain run of the same job are two entries; bumping
//! [`CACHE_SCHEMA_VERSION`] orphans every old entry at once (they can
//! never be addressed again, and a store over a stale same-named file
//! replaces it). [`CacheKey::derive`] is the key of the plain run (the
//! empty probe set).
//!
//! # On-disk entry layout
//!
//! ```text
//! offset  size  field
//! 0       8     magic "IRCACHE\x01"
//! 8       4     CACHE_SCHEMA_VERSION (u32 LE)
//! 12      8     key.hi (u64 LE)
//! 20      8     key.lo (u64 LE)
//! 28      8     payload length (u64 LE)
//! 36      n     payload: the serialized WorkloadReport, then one
//!               optional section each (a 0/1 tag byte, then the body)
//!               for the profile's per-site StaticStats, the
//!               LoopNestProfile, and the IntervalWindows
//! 36+n    8     FxHash of the payload bytes (u64 LE)
//! ```
//!
//! All integers are little-endian; floats are stored as IEEE-754 bit
//! patterns, so a loaded report is *bit-identical* to the stored one —
//! the property that keeps cached table output byte-identical. The
//! profile section holds only the tracker's per-site counters; a
//! session serving a hit rejoins them with the image through the same
//! `InstructionProfile::fill_from_stats` join a live run uses.
//!
//! # Failure policy
//!
//! [`AnalysisCache::load_entry`] treats **every** surprise — missing
//! file, short read, bad magic, version or key mismatch, checksum
//! failure, undecodable payload, trailing garbage, sections that do not
//! match the requested probe set — as a silent miss (`None`), never an
//! error: a damaged cache costs a recomputation, not a failed run.
//! Detecting a *well-formed but wrong* entry (a poisoned cache) is the
//! job of verify mode (`instrep-repro --cache-verify`), which recomputes
//! on every hit and compares the whole payload.

use std::hash::Hasher;
use std::path::{Path, PathBuf};

use instrep_asm::Image;
use instrep_sim::RunOutcome;

use crate::coverage::Coverage;
use crate::fxhash::FxHasher;
use crate::interval::IntervalWindow;
use crate::loops::{LoopNestProfile, LoopPathStats, LoopRecord};
use crate::metrics::PhaseTimer;
use crate::pipeline::{AnalysisConfig, WorkloadReport};
use crate::telemetry::{Counter, Histogram, TelemetryRegistry};
use crate::tracker::StaticStats;

/// Version of the cache entry format *and* of the serialized payload.
/// Bump whenever [`WorkloadReport`]'s fields, the probe sections, their
/// meaning, or the codec change: the version participates in key
/// derivation, so every pre-bump entry becomes unaddressable (a
/// guaranteed miss) rather than a misdecoded report. Version 2 added
/// the probe sections and the probe set in the key.
pub const CACHE_SCHEMA_VERSION: u32 = 2;

/// Entry-file magic: "IRCACHE" plus a format byte.
const MAGIC: [u8; 8] = *b"IRCACHE\x01";

/// Salt for the second hash lane of [`CacheKey::derive`] (an arbitrary
/// odd constant; it only needs to differ from the first lane's zero
/// initial state).
const LANE_SALT: u64 = 0x6a09_e667_f3bc_c908;

/// Byte offset of the payload within an entry file (see the module docs
/// for the full layout). Exposed so tests can poison payload bytes
/// surgically.
pub const ENTRY_PAYLOAD_OFFSET: usize = 36;

/// Which optional probe outputs one analysis produces. Part of the
/// [`CacheKey`], so each probe set names its own entry, and that entry
/// stores exactly the matching [`ProbeSections`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProbeSet {
    /// The per-PC [`InstructionProfile`](crate::InstructionProfile).
    pub profile: bool,
    /// The [`LoopNestProfile`].
    pub loops: bool,
    /// The interval sampler's period, if one runs.
    pub interval: Option<u64>,
}

/// The probe outputs a cache entry stores after its report; each is
/// present iff the entry's [`ProbeSet`] asked for it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProbeSections {
    /// The tracker's per-site statistics behind the profile; a hit
    /// rebuilds the [`InstructionProfile`](crate::InstructionProfile)
    /// from them and the image.
    pub profile: Option<Vec<StaticStats>>,
    /// The finished loop-nest profile.
    pub loops: Option<LoopNestProfile>,
    /// The closed interval windows.
    pub intervals: Option<Vec<IntervalWindow>>,
}

impl ProbeSections {
    /// Whether these sections are exactly the ones `probes` produces.
    fn fit(&self, probes: ProbeSet) -> bool {
        self.profile.is_some() == probes.profile
            && self.loops.is_some() == probes.loops
            && self.intervals.is_some() == probes.interval.is_some()
    }
}

/// A 128-bit content hash identifying one `(image, input, config, probe
/// set)` analysis, at the current schema version.
///
/// # Examples
///
/// ```
/// use instrep_core::{AnalysisConfig, CacheKey};
///
/// let image = instrep_minicc::build("int main() { return 0; }")?;
/// let cfg = AnalysisConfig::default();
/// let a = CacheKey::derive(&image, &[], &cfg);
/// // Same content, same key; different input, different key.
/// assert_eq!(a, CacheKey::derive(&image, &[], &cfg));
/// assert_ne!(a, CacheKey::derive(&image, &[1], &cfg));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// First hash lane (unsalted FxHash).
    pub hi: u64,
    /// Second hash lane (salted FxHash).
    pub lo: u64,
}

impl CacheKey {
    /// The key of a plain analysis (no probe outputs) — see
    /// [`CacheKey::derive_probed`].
    pub fn derive(image: &Image, input: &[u8], cfg: &AnalysisConfig) -> CacheKey {
        CacheKey::derive_probed(image, input, cfg, ProbeSet::default())
    }

    /// Derives the key for one analysis from everything that determines
    /// its stored payload: the image content, the input stream, the
    /// analysis configuration, the probe set, and
    /// [`CACHE_SCHEMA_VERSION`].
    pub fn derive_probed(
        image: &Image,
        input: &[u8],
        cfg: &AnalysisConfig,
        probes: ProbeSet,
    ) -> CacheKey {
        let mut hi = FxHasher::default();
        let mut lo = FxHasher::default();
        lo.write_u64(LANE_SALT);
        feed(&mut hi, image, input, cfg, probes);
        feed(&mut lo, image, input, cfg, probes);
        CacheKey { hi: hi.finish(), lo: lo.finish() }
    }
}

impl std::fmt::Display for CacheKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}{:016x}", self.hi, self.lo)
    }
}

/// Feeds one hash lane everything that determines an analysis result.
/// Length prefixes keep adjacent variable-length sections from aliasing.
fn feed<H: Hasher>(h: &mut H, image: &Image, input: &[u8], cfg: &AnalysisConfig, probes: ProbeSet) {
    h.write_u32(CACHE_SCHEMA_VERSION);
    h.write_u64(image.text.len() as u64);
    for w in &image.text {
        h.write_u32(*w);
    }
    h.write_u64(image.lines.len() as u64);
    for l in &image.lines {
        h.write_u32(*l);
    }
    h.write_u64(image.data.len() as u64);
    h.write(&image.data);
    h.write_u64(image.init_ranges.len() as u64);
    for r in &image.init_ranges {
        h.write_u32(r.start);
        h.write_u32(r.end);
    }
    h.write_u32(image.entry);
    h.write_u64(image.funcs.len() as u64);
    for fm in &image.funcs {
        h.write_u64(fm.name.len() as u64);
        h.write(fm.name.as_bytes());
        h.write_u32(fm.entry);
        h.write_u32(fm.end);
        h.write_u8(fm.arity);
    }
    h.write_u64(input.len() as u64);
    h.write(input);
    h.write_u64(cfg.tracker.max_instances as u64);
    h.write_u64(cfg.reuse.entries as u64);
    h.write_u64(cfg.reuse.ways as u64);
    h.write_u64(cfg.skip);
    h.write_u64(cfg.window);
    h.write_u64(cfg.top_k as u64);
    h.write_u8(u8::from(probes.profile));
    h.write_u8(u8::from(probes.loops));
    h.write_u8(u8::from(probes.interval.is_some()));
    h.write_u64(probes.interval.unwrap_or(0));
}

/// A directory of cached [`WorkloadReport`]s and their probe outputs,
/// one entry file per [`CacheKey`]. Shared by reference across pipeline
/// worker threads; all methods take `&self`.
///
/// # Examples
///
/// ```
/// use instrep_core::{AnalysisCache, AnalysisConfig, CacheKey, Session};
///
/// let dir = std::env::temp_dir().join(format!("instrep-cache-doc-{}", std::process::id()));
/// let cache = AnalysisCache::open(&dir)?;
/// let image = instrep_minicc::build(
///     "int main() { int i; int s = 0; for (i = 0; i < 50; i++) s += i & 3; return s; }",
/// )?;
/// let cfg = AnalysisConfig::default();
///
/// let key = CacheKey::derive(&image, &[], &cfg);
/// assert!(cache.load(&key).is_none(), "cold cache misses");
/// let report = Session::new(cfg).run_one(&image, Vec::new())?.report;
/// cache.store(&key, &report)?;
/// let warm = cache.load(&key).expect("stored entry loads");
/// assert_eq!(format!("{report:?}"), format!("{warm:?}"));
/// # std::fs::remove_dir_all(&dir).ok();
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct AnalysisCache {
    dir: PathBuf,
    /// Stale temp files removed by [`AnalysisCache::open`]'s sweep.
    tmp_swept: u64,
    telemetry: Option<CacheTelemetry>,
}

/// Live telemetry handles the cache updates on its hot paths (see
/// [`AnalysisCache::attach_telemetry`]).
#[derive(Debug, Clone)]
struct CacheTelemetry {
    hit: Counter,
    miss: Counter,
    corrupt_miss: Counter,
    store: Counter,
    lookup_ns: Histogram,
    write_ns: Histogram,
}

impl AnalysisCache {
    /// Opens (creating if needed) a cache rooted at `dir`, sweeping any
    /// stale `.tmp-*` files an interrupted temp+rename
    /// [`store`](AnalysisCache::store) left behind. (Temp names embed
    /// the writer's pid, so a *live* concurrent writer's temp file can
    /// only be swept in the unlikely window between its write and
    /// rename — which costs that writer one failed rename and a
    /// recomputation, never a corrupt entry.)
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the directory cannot be created. Sweep
    /// failures are ignored — a leftover temp file is unreferenced
    /// garbage, not a correctness hazard.
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<AnalysisCache> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let mut tmp_swept = 0;
        if let Ok(rd) = std::fs::read_dir(&dir) {
            for entry in rd.filter_map(Result::ok) {
                let name = entry.file_name();
                let is_tmp = name.to_str().is_some_and(|n| n.starts_with(".tmp-"));
                if is_tmp && std::fs::remove_file(entry.path()).is_ok() {
                    tmp_swept += 1;
                }
            }
        }
        Ok(AnalysisCache { dir, tmp_swept, telemetry: None })
    }

    /// Stale temp files [`AnalysisCache::open`]'s sweep removed.
    pub fn tmp_swept(&self) -> u64 {
        self.tmp_swept
    }

    /// Installs live telemetry: hit/miss/corrupt-miss/store counters
    /// and lookup/write latency histograms, updated on every
    /// [`load`](AnalysisCache::load)/[`store`](AnalysisCache::store),
    /// plus a one-time `cache_tmp_swept` credit for the open-time
    /// sweep. Without this call the cache touches no atomics.
    pub fn attach_telemetry(&mut self, registry: &TelemetryRegistry) {
        registry.counter("cache_tmp_swept").add(self.tmp_swept);
        self.telemetry = Some(CacheTelemetry {
            hit: registry.counter("cache_hit"),
            miss: registry.counter("cache_miss"),
            corrupt_miss: registry.counter("cache_corrupt_miss"),
            store: registry.counter("cache_store"),
            lookup_ns: registry.histogram("cache_lookup_ns"),
            write_ns: registry.histogram("cache_write_ns"),
        });
    }

    /// The cache's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The file an entry for `key` lives at (whether or not it exists).
    pub fn entry_path(&self, key: &CacheKey) -> PathBuf {
        self.dir.join(format!("{key}.bin"))
    }

    /// Loads the report of the plain entry (no probe sections) cached
    /// under `key` — [`AnalysisCache::load_entry`] with the empty
    /// [`ProbeSet`].
    pub fn load(&self, key: &CacheKey) -> Option<WorkloadReport> {
        self.load_entry(key, ProbeSet::default()).map(|(report, _)| report)
    }

    /// Loads the report and probe sections cached under `key`, or
    /// `None` on any kind of miss — absent, truncated, corrupt, or
    /// version-mismatched entries, and entries whose sections are not
    /// exactly the ones `probes` asks for, all degrade to a silent
    /// recomputation (see the module docs).
    pub fn load_entry(
        &self,
        key: &CacheKey,
        probes: ProbeSet,
    ) -> Option<(WorkloadReport, ProbeSections)> {
        let timer = self.telemetry.as_ref().map(|_| PhaseTimer::start());
        let entry = match std::fs::read(self.entry_path(key)) {
            Err(_) => {
                // Absent (or unreadable) entry: a plain miss.
                if let Some(t) = &self.telemetry {
                    t.miss.inc();
                }
                None
            }
            Ok(bytes) => {
                let entry = parse_entry(&bytes, key).filter(|(_, s)| s.fit(probes));
                if let Some(t) = &self.telemetry {
                    // The file existed, so a parse failure means it was
                    // damaged or foreign — a corrupt miss, worth its own
                    // counter (it should stay 0 on a healthy cache).
                    if entry.is_some() {
                        t.hit.inc();
                    } else {
                        t.corrupt_miss.inc();
                    }
                }
                entry
            }
        };
        if let (Some(t), Some(timer)) = (&self.telemetry, timer) {
            t.lookup_ns.record(timer.elapsed_ns());
        }
        entry
    }

    /// Stores `report` as a plain entry (no probe sections) under
    /// `key` — [`AnalysisCache::store_entry`] with empty sections.
    ///
    /// # Errors
    ///
    /// As [`AnalysisCache::store_entry`].
    pub fn store(&self, key: &CacheKey, report: &WorkloadReport) -> std::io::Result<()> {
        self.store_entry(key, report, &ProbeSections::default())
    }

    /// Stores `report` and its probe `sections` under `key`, replacing
    /// any existing entry. The write is atomic (temp file + rename), so
    /// a concurrent reader sees either the old complete entry or the
    /// new one, never a torn write.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error; callers that treat the cache
    /// as best-effort (the pipeline does) may ignore it.
    pub fn store_entry(
        &self,
        key: &CacheKey,
        report: &WorkloadReport,
        sections: &ProbeSections,
    ) -> std::io::Result<()> {
        let timer = self.telemetry.as_ref().map(|_| PhaseTimer::start());
        let bytes = entry_bytes(key, &encode_entry(report, sections));
        let tmp = self.dir.join(format!(".tmp-{}-{:016x}", std::process::id(), key.lo));
        std::fs::write(&tmp, &bytes)?;
        let result = std::fs::rename(&tmp, self.entry_path(key));
        if let (Some(t), Some(timer)) = (&self.telemetry, timer) {
            t.write_ns.record(timer.elapsed_ns());
            if result.is_ok() {
                t.store.inc();
            }
        }
        result
    }

    /// Number of entry files currently in the cache directory.
    pub fn entries(&self) -> usize {
        std::fs::read_dir(&self.dir).map_or(0, |rd| {
            rd.filter_map(Result::ok)
                .filter(|e| e.path().extension().is_some_and(|x| x == "bin"))
                .count()
        })
    }
}

/// FxHash of a byte string — the payload checksum.
fn fxhash64(bytes: &[u8]) -> u64 {
    let mut h = FxHasher::default();
    h.write(bytes);
    h.finish()
}

/// Assembles a complete entry file image (header + payload + checksum).
fn entry_bytes(key: &CacheKey, payload: &[u8]) -> Vec<u8> {
    let mut b = Vec::with_capacity(ENTRY_PAYLOAD_OFFSET + payload.len() + 8);
    b.extend_from_slice(&MAGIC);
    b.extend_from_slice(&CACHE_SCHEMA_VERSION.to_le_bytes());
    b.extend_from_slice(&key.hi.to_le_bytes());
    b.extend_from_slice(&key.lo.to_le_bytes());
    b.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    b.extend_from_slice(payload);
    b.extend_from_slice(&fxhash64(payload).to_le_bytes());
    b
}

/// Validates an entry file image against `key` and decodes its payload.
/// Every check failure is a miss (`None`).
fn parse_entry(bytes: &[u8], key: &CacheKey) -> Option<(WorkloadReport, ProbeSections)> {
    let mut d = Dec { b: bytes };
    if d.take(8)? != MAGIC {
        return None;
    }
    if d.u32()? != CACHE_SCHEMA_VERSION {
        return None;
    }
    if d.u64()? != key.hi || d.u64()? != key.lo {
        return None;
    }
    let len = usize::try_from(d.u64()?).ok()?;
    let payload = d.take(len)?;
    let checksum = d.u64()?;
    if !d.finished() || checksum != fxhash64(payload) {
        return None;
    }
    decode_entry(payload)
}

// --- Entry payload codec -----------------------------------------------
//
// A hand-rolled little-endian binary codec (the workspace is hermetic:
// no serde). Encoding is canonical — field order is fixed and floats
// are bit patterns — so two payloads are equal iff their encodings are,
// which is what verify mode compares.

/// Serializes a report and its probe sections to the canonical payload
/// bytes: the report first, then the profile, loops and interval
/// sections. Also used by verify mode as a total equality check over
/// every stored field.
pub(crate) fn encode_entry(r: &WorkloadReport, sections: &ProbeSections) -> Vec<u8> {
    let mut e = Enc { buf: Vec::with_capacity(4096) };
    put_report(&mut e, r);
    e.opt(sections.profile.as_deref(), |e, stats| {
        e.seq(stats, |e, s| {
            e.u32(s.index);
            e.u64(s.exec);
            e.u64(s.repeated);
            e.u64(s.unique_repeatable);
        });
    });
    e.opt(sections.loops.as_ref(), |e, p| {
        e.seq(&p.loops, |e, l| {
            e.u32(l.header);
            e.u32(l.end);
            e.str(&l.func);
            e.u32(l.line_lo);
            e.u32(l.line_hi);
            e.u32(l.depth);
            for v in [l.trips, l.entries, l.exec, l.repeated, l.unique_repeatable] {
                e.u64(v);
            }
            for v in l.class_exec.iter().chain(&l.class_repeated) {
                e.u64(*v);
            }
        });
        e.seq(&p.paths, |e, path| {
            e.seq(&path.headers, |e, h| e.u32(*h));
            e.u64(path.exec);
            e.u64(path.repeated);
        });
        for v in [p.no_loop_exec, p.no_loop_repeated, p.back_edges, p.irregular] {
            e.u64(v);
        }
        e.u32(p.max_depth);
    });
    e.opt(sections.intervals.as_deref(), |e, windows| {
        e.seq(windows, |e, w| {
            for v in [w.end, w.insns, w.repeated, w.reuse_hits, w.occupancy, w.unique_growth] {
                e.u64(v);
            }
            e.u8(u8::from(w.partial));
        });
    });
    e.buf
}

/// Decodes a payload produced by [`encode_entry`]. Any shortfall,
/// overrun, malformed field, or trailing byte yields `None`.
pub(crate) fn decode_entry(payload: &[u8]) -> Option<(WorkloadReport, ProbeSections)> {
    let mut d = Dec { b: payload };
    let report = get_report(&mut d)?;
    let profile = d.opt(|d| {
        d.seq(28, |d| {
            Some(StaticStats {
                index: d.u32()?,
                exec: d.u64()?,
                repeated: d.u64()?,
                unique_repeatable: d.u64()?,
            })
        })
    })?;
    let loops = d.opt(|d| {
        let loops = d.seq(164, |d| {
            Some(LoopRecord {
                header: d.u32()?,
                end: d.u32()?,
                func: d.str()?,
                line_lo: d.u32()?,
                line_hi: d.u32()?,
                depth: d.u32()?,
                trips: d.u64()?,
                entries: d.u64()?,
                exec: d.u64()?,
                repeated: d.u64()?,
                unique_repeatable: d.u64()?,
                class_exec: d.u64_array()?,
                class_repeated: d.u64_array()?,
            })
        })?;
        let paths = d.seq(24, |d| {
            Some(LoopPathStats { headers: d.seq(4, Dec::u32)?, exec: d.u64()?, repeated: d.u64()? })
        })?;
        Some(LoopNestProfile {
            loops,
            paths,
            no_loop_exec: d.u64()?,
            no_loop_repeated: d.u64()?,
            back_edges: d.u64()?,
            irregular: d.u64()?,
            max_depth: d.u32()?,
        })
    })?;
    let intervals = d.opt(|d| {
        d.seq(49, |d| {
            Some(IntervalWindow {
                end: d.u64()?,
                insns: d.u64()?,
                repeated: d.u64()?,
                reuse_hits: d.u64()?,
                occupancy: d.u64()?,
                unique_growth: d.u64()?,
                partial: d.bool()?,
            })
        })
    })?;
    if !d.finished() {
        return None; // trailing garbage: not an entry we wrote
    }
    Some((report, ProbeSections { profile, loops, intervals }))
}

/// Writes the report section of a payload.
fn put_report(e: &mut Enc, r: &WorkloadReport) {
    match r.outcome {
        RunOutcome::Exited(code) => {
            e.u8(0);
            e.u32(code);
        }
        RunOutcome::MaxedOut => e.u8(1),
    }
    e.u64(r.dynamic_total);
    e.u64(r.dynamic_repeated);
    e.u64(r.static_total as u64);
    e.u64(r.static_executed as u64);
    e.u64(r.static_repeated as u64);
    e.u64(r.unique_repeatable);
    e.f64(r.avg_repeats);
    e.seq(r.static_coverage.weights(), |e, v| e.u64(*v));
    for v in &r.instance_histogram {
        e.f64(*v);
    }
    e.seq(r.instance_coverage.weights(), |e, v| e.u64(*v));
    for v in r.global.overall.iter().chain(&r.global.repeated) {
        e.u64(*v);
    }
    e.u64(r.funcs_called as u64);
    e.u64(r.dynamic_calls);
    e.f64(r.all_arg_rate);
    e.f64(r.no_arg_rate);
    e.f64(r.pure_rate);
    e.f64(r.pure_all_arg_rate);
    e.seq(&r.argset_coverage, |e, v| e.f64(*v));
    for v in r.local.overall.iter().chain(&r.local.repeated) {
        e.u64(*v);
    }
    e.seq(&r.prologue_top, |e, (name, size, repeated)| {
        e.str(name);
        e.u32(*size);
        e.u64(*repeated);
    });
    e.f64(r.prologue_coverage);
    e.seq(&r.load_value_coverage, |e, v| e.f64(*v));
    for v in
        [r.reuse.total, r.reuse.hits, r.reuse.repeated_hits, r.reuse.repeated_total, r.reuse.stale]
    {
        e.u64(v);
    }
    for v in r.classes.overall.iter().chain(&r.classes.repeated) {
        e.u64(*v);
    }
    for v in [r.predict.predictable, r.predict.correct, r.predict.correct_and_repeated] {
        e.u64(v);
    }
    for v in [r.stride.predictable, r.stride.correct] {
        e.u64(v);
    }
}

/// Reads the report section of a payload.
fn get_report(d: &mut Dec<'_>) -> Option<WorkloadReport> {
    let outcome = match d.u8()? {
        0 => RunOutcome::Exited(d.u32()?),
        1 => RunOutcome::MaxedOut,
        _ => return None,
    };
    let dynamic_total = d.u64()?;
    let dynamic_repeated = d.u64()?;
    let static_total = usize::try_from(d.u64()?).ok()?;
    let static_executed = usize::try_from(d.u64()?).ok()?;
    let static_repeated = usize::try_from(d.u64()?).ok()?;
    let unique_repeatable = d.u64()?;
    let avg_repeats = d.f64()?;
    let static_coverage = Coverage::new(d.seq(8, Dec::u64)?);
    let mut instance_histogram = [0.0f64; 5];
    for slot in &mut instance_histogram {
        *slot = d.f64()?;
    }
    let instance_coverage = Coverage::new(d.seq(8, Dec::u64)?);
    let mut global = crate::GlobalCounts::default();
    for slot in global.overall.iter_mut().chain(&mut global.repeated) {
        *slot = d.u64()?;
    }
    let funcs_called = usize::try_from(d.u64()?).ok()?;
    let dynamic_calls = d.u64()?;
    let all_arg_rate = d.f64()?;
    let no_arg_rate = d.f64()?;
    let pure_rate = d.f64()?;
    let pure_all_arg_rate = d.f64()?;
    let argset_coverage = d.seq(8, Dec::f64)?;
    let mut local = crate::LocalCounts::default();
    for slot in local.overall.iter_mut().chain(&mut local.repeated) {
        *slot = d.u64()?;
    }
    // 20 bytes: the minimum encoded (name, size, repeated).
    let prologue_top = d.seq(20, |d| Some((d.str()?, d.u32()?, d.u64()?)))?;
    let prologue_coverage = d.f64()?;
    let load_value_coverage = d.seq(8, Dec::f64)?;
    let reuse = crate::ReuseStats {
        total: d.u64()?,
        hits: d.u64()?,
        repeated_hits: d.u64()?,
        repeated_total: d.u64()?,
        stale: d.u64()?,
    };
    let mut classes = crate::ClassCounts::default();
    for slot in classes.overall.iter_mut().chain(&mut classes.repeated) {
        *slot = d.u64()?;
    }
    let predict = crate::PredictStats {
        predictable: d.u64()?,
        correct: d.u64()?,
        correct_and_repeated: d.u64()?,
    };
    let stride = crate::StrideStats { predictable: d.u64()?, correct: d.u64()? };
    Some(WorkloadReport {
        outcome,
        dynamic_total,
        dynamic_repeated,
        static_total,
        static_executed,
        static_repeated,
        unique_repeatable,
        avg_repeats,
        static_coverage,
        instance_histogram,
        instance_coverage,
        global,
        funcs_called,
        dynamic_calls,
        all_arg_rate,
        no_arg_rate,
        pure_rate,
        pure_all_arg_rate,
        argset_coverage,
        local,
        prologue_top,
        prologue_coverage,
        load_value_coverage,
        reuse,
        classes,
        predict,
        stride,
    })
}

/// Canonical little-endian encoder.
struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn str(&mut self, v: &str) {
        self.u64(v.len() as u64);
        self.buf.extend_from_slice(v.as_bytes());
    }

    /// A length prefix, then every element.
    fn seq<T>(&mut self, vs: &[T], mut put: impl FnMut(&mut Self, &T)) {
        self.u64(vs.len() as u64);
        for v in vs {
            put(self, v);
        }
    }

    /// A presence tag (0 or 1), then the value if present.
    fn opt<T: ?Sized>(&mut self, v: Option<&T>, put: impl FnOnce(&mut Self, &T)) {
        match v {
            None => self.u8(0),
            Some(v) => {
                self.u8(1);
                put(self, v);
            }
        }
    }
}

/// Bounds-checked little-endian decoder over a borrowed byte slice.
/// Every read returns `None` past the end — garbage input can never
/// panic or over-allocate.
struct Dec<'a> {
    b: &'a [u8],
}

impl<'a> Dec<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        if self.b.len() < n {
            return None;
        }
        let (head, tail) = self.b.split_at(n);
        self.b = tail;
        Some(head)
    }

    fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }

    fn bool(&mut self) -> Option<bool> {
        match self.u8()? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }

    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }

    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }

    fn f64(&mut self) -> Option<f64> {
        Some(f64::from_bits(self.u64()?))
    }

    fn u64_array<const N: usize>(&mut self) -> Option<[u64; N]> {
        let mut a = [0; N];
        for slot in &mut a {
            *slot = self.u64()?;
        }
        Some(a)
    }

    /// A length prefix for elements of at least `elem_size` bytes,
    /// rejected up front if the remaining input could not possibly hold
    /// that many (so corrupt lengths cannot trigger huge allocations).
    fn len(&mut self, elem_size: usize) -> Option<usize> {
        let n = usize::try_from(self.u64()?).ok()?;
        if n.checked_mul(elem_size)? > self.b.len() {
            return None;
        }
        Some(n)
    }

    fn str(&mut self) -> Option<String> {
        let n = self.len(1)?;
        String::from_utf8(self.take(n)?.to_vec()).ok()
    }

    /// A length-prefixed sequence of elements of at least `elem_size`
    /// encoded bytes each.
    fn seq<T>(
        &mut self,
        elem_size: usize,
        mut get: impl FnMut(&mut Self) -> Option<T>,
    ) -> Option<Vec<T>> {
        let n = self.len(elem_size)?;
        (0..n).map(|_| get(self)).collect()
    }

    /// A presence tag (0 or 1), then the value if present. The outer
    /// `None` is a decode failure; the inner one an absent value.
    fn opt<T>(&mut self, get: impl FnOnce(&mut Self) -> Option<T>) -> Option<Option<T>> {
        if self.bool()? {
            get(self).map(Some)
        } else {
            Some(None)
        }
    }

    fn finished(&self) -> bool {
        self.b.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::run_probed;
    use crate::Probes;
    use instrep_minicc::build;
    use instrep_sim::InterpTier;

    fn tmp_dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("instrep-cache-{tag}-{}", std::process::id()))
    }

    fn sample() -> (Image, AnalysisConfig, WorkloadReport) {
        let image = build(
            r#"
            int sq(int x) { return x * x; }
            int main() {
                int i; int s = 0;
                for (i = 0; i < 200; i++) s += sq(i & 7);
                return s & 0xff;
            }
            "#,
        )
        .unwrap();
        let cfg = AnalysisConfig::default();
        let report = run_probed(
            &image,
            Vec::new(),
            &cfg,
            InterpTier::default(),
            crate::AnalysisTier::default(),
            crate::SplitObservers::all(),
            Probes::none(),
        )
        .unwrap();
        (image, cfg, report)
    }

    /// Every probe section filled, from a run of the sample program.
    fn sample_sections(image: &Image, cfg: AnalysisConfig) -> ProbeSections {
        let ir = crate::Session::new(cfg)
            .profile(true)
            .loops(true)
            .interval(500)
            .run_one(image, Vec::new())
            .unwrap();
        let sections = ProbeSections {
            profile: ir.profile.map(|p| p.static_stats()),
            loops: ir.loops,
            intervals: ir.intervals,
        };
        assert!(sections.profile.as_ref().is_some_and(|p| !p.is_empty()));
        assert!(sections.loops.as_ref().is_some_and(|l| !l.loops.is_empty()));
        assert!(sections.intervals.as_ref().is_some_and(|w| w.len() > 1));
        sections
    }

    #[test]
    fn report_codec_roundtrips_exactly() {
        let (image, cfg, report) = sample();
        for sections in [ProbeSections::default(), sample_sections(&image, cfg)] {
            let payload = encode_entry(&report, &sections);
            let (back, back_sections) = decode_entry(&payload).expect("payload decodes");
            // Debug covers every field, including f64 bit patterns.
            assert_eq!(format!("{report:?}"), format!("{back:?}"));
            assert_eq!(back_sections, sections);
            assert_eq!(encode_entry(&back, &back_sections), payload, "re-encoding is canonical");
        }
    }

    #[test]
    fn decode_rejects_any_truncation_without_panicking() {
        let (image, cfg, report) = sample();
        // Every section present, so every cut lands in some field of
        // the report, the profile, the loops, or the windows.
        let payload = encode_entry(&report, &sample_sections(&image, cfg));
        for cut in 0..payload.len() {
            assert!(decode_entry(&payload[..cut]).is_none(), "cut at {cut} decoded");
        }
        // Trailing garbage is rejected too.
        let mut long = payload.clone();
        long.push(0);
        assert!(decode_entry(&long).is_none());
        // So is a section tag other than 0 or 1.
        let mut bad_tag = encode_entry(&report, &ProbeSections::default());
        let last = bad_tag.len() - 1;
        bad_tag[last] = 2;
        assert!(decode_entry(&bad_tag).is_none());
    }

    #[test]
    fn key_is_content_addressed() {
        let (image, cfg, _) = sample();
        let base = CacheKey::derive(&image, &[], &cfg);
        assert_eq!(base, CacheKey::derive(&image, &[], &cfg), "deterministic");
        assert_ne!(base, CacheKey::derive(&image, &[7], &cfg), "input changes key");
        let mut other_cfg = cfg;
        other_cfg.window = 12345;
        assert_ne!(base, CacheKey::derive(&image, &[], &other_cfg), "config changes key");
        let other_image = build("int main() { return 1; }").unwrap();
        assert_ne!(base, CacheKey::derive(&other_image, &[], &cfg), "image changes key");

        // The probe set is part of the key: every shape is its own
        // entry, and the plain key is the empty probe set's.
        let probed = |profile, loops, interval| {
            CacheKey::derive_probed(&image, &[], &cfg, ProbeSet { profile, loops, interval })
        };
        assert_eq!(base, probed(false, false, None));
        let keys = [
            base,
            probed(true, false, None),
            probed(false, true, None),
            probed(true, true, None),
            probed(false, false, Some(1000)),
            probed(false, false, Some(1001)),
        ];
        for (i, a) in keys.iter().enumerate() {
            for b in &keys[i + 1..] {
                assert_ne!(a, b, "probe sets must not share keys");
            }
        }
    }

    #[test]
    fn probe_sections_roundtrip_and_must_fit_the_probe_set() {
        let dir = tmp_dir("sections");
        let cache = AnalysisCache::open(&dir).unwrap();
        let (image, cfg, report) = sample();
        let sections = sample_sections(&image, cfg);
        let probes = ProbeSet { profile: true, loops: true, interval: Some(500) };
        let key = CacheKey::derive_probed(&image, &[], &cfg, probes);
        cache.store_entry(&key, &report, &sections).unwrap();
        let (back, back_sections) = cache.load_entry(&key, probes).expect("entry hits");
        assert_eq!(format!("{report:?}"), format!("{back:?}"));
        assert_eq!(back_sections, sections);
        // An entry whose sections do not match the requested probe set
        // is not served, however it got under this key.
        let fewer = ProbeSet { interval: None, ..probes };
        assert!(cache.load_entry(&key, fewer).is_none());
        assert!(cache.load(&key).is_none(), "a probe entry is not a plain entry");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn store_then_load_hits_and_roundtrips() {
        let dir = tmp_dir("hit");
        let cache = AnalysisCache::open(&dir).unwrap();
        let (image, cfg, report) = sample();
        let key = CacheKey::derive(&image, &[], &cfg);
        assert!(cache.load(&key).is_none(), "cold cache must miss");
        assert_eq!(cache.entries(), 0);
        cache.store(&key, &report).unwrap();
        assert_eq!(cache.entries(), 1);
        let warm = cache.load(&key).expect("warm cache must hit");
        assert_eq!(format!("{report:?}"), format!("{warm:?}"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_and_truncated_entries_degrade_to_a_miss() {
        let dir = tmp_dir("corrupt");
        let cache = AnalysisCache::open(&dir).unwrap();
        let (image, cfg, report) = sample();
        let key = CacheKey::derive(&image, &[], &cfg);
        cache.store(&key, &report).unwrap();
        let path = cache.entry_path(&key);
        let pristine = std::fs::read(&path).unwrap();

        // Flip one payload byte: the checksum catches it.
        let mut bytes = pristine.clone();
        bytes[ENTRY_PAYLOAD_OFFSET + 2] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        assert!(cache.load(&key).is_none(), "corrupt entry must miss");

        // Truncate at several depths: header-short, payload-short,
        // checksum-short.
        for cut in [3, ENTRY_PAYLOAD_OFFSET - 1, ENTRY_PAYLOAD_OFFSET + 5, pristine.len() - 1] {
            std::fs::write(&path, &pristine[..cut]).unwrap();
            assert!(cache.load(&key).is_none(), "truncated entry (cut {cut}) must miss");
        }

        // An empty file and non-entry garbage miss too.
        std::fs::write(&path, b"").unwrap();
        assert!(cache.load(&key).is_none());
        std::fs::write(&path, b"not a cache entry at all").unwrap();
        assert!(cache.load(&key).is_none());

        // Storing over the damaged file repairs the entry.
        cache.store(&key, &report).unwrap();
        assert!(cache.load(&key).is_some());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn schema_bump_evicts_old_entries() {
        let dir = tmp_dir("bump");
        let cache = AnalysisCache::open(&dir).unwrap();
        let (image, cfg, report) = sample();
        let key = CacheKey::derive(&image, &[], &cfg);
        cache.store(&key, &report).unwrap();

        // Simulate an entry written by a *previous* schema version at
        // the same path: bump the stored version field and re-checksum
        // nothing (the version check fires before the checksum).
        let path = cache.entry_path(&key);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[8..12].copy_from_slice(&(CACHE_SCHEMA_VERSION + 1).to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        assert!(cache.load(&key).is_none(), "version mismatch must miss");

        // A fresh store evicts (replaces) the stale entry in place.
        cache.store(&key, &report).unwrap();
        assert!(cache.load(&key).is_some(), "store replaces the stale entry");
        assert_eq!(cache.entries(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_sweeps_stale_tmp_files_and_reports_them() {
        let dir = tmp_dir("sweep");
        std::fs::create_dir_all(&dir).unwrap();
        // A stale temp file from an interrupted writer, plus a real
        // entry that must survive the sweep.
        let stale = dir.join(".tmp-123-00000000deadbeef");
        std::fs::write(&stale, b"half-written entry").unwrap();
        let keeper = dir.join("0123456789abcdef0123456789abcdef.bin");
        std::fs::write(&keeper, b"entry bytes").unwrap();

        let mut cache = AnalysisCache::open(&dir).unwrap();
        assert!(!stale.exists(), "stale temp file must be swept");
        assert!(keeper.exists(), "entry files must survive the sweep");
        assert_eq!(cache.tmp_swept(), 1);

        // Attaching telemetry credits the sweep to a counter.
        let registry = TelemetryRegistry::new();
        cache.attach_telemetry(&registry);
        let swept = registry.counter("cache_tmp_swept").get();
        assert_eq!(swept, 1);

        // A second open finds nothing left to sweep.
        assert_eq!(AnalysisCache::open(&dir).unwrap().tmp_swept(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn telemetry_classifies_hits_misses_and_corruption() {
        let dir = tmp_dir("telemetry");
        let mut cache = AnalysisCache::open(&dir).unwrap();
        let registry = TelemetryRegistry::new();
        cache.attach_telemetry(&registry);
        let (image, cfg, report) = sample();
        let key = CacheKey::derive(&image, &[], &cfg);

        assert!(cache.load(&key).is_none());
        assert_eq!(registry.counter("cache_miss").get(), 1, "absent entry is a plain miss");
        cache.store(&key, &report).unwrap();
        assert_eq!(registry.counter("cache_store").get(), 1);
        assert!(cache.load(&key).is_some());
        assert_eq!(registry.counter("cache_hit").get(), 1);

        std::fs::write(cache.entry_path(&key), b"garbage").unwrap();
        assert!(cache.load(&key).is_none());
        assert_eq!(registry.counter("cache_corrupt_miss").get(), 1);

        let snap = registry.snapshot();
        let lookup = snap.hists.iter().find(|(n, _)| n == "cache_lookup_ns").unwrap();
        assert_eq!(lookup.1.count, 3, "every load records a lookup latency");
        let write = snap.hists.iter().find(|(n, _)| n == "cache_write_ns").unwrap();
        assert_eq!(write.1.count, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wrong_key_inside_file_misses() {
        let dir = tmp_dir("key");
        let cache = AnalysisCache::open(&dir).unwrap();
        let (image, cfg, report) = sample();
        let key = CacheKey::derive(&image, &[], &cfg);
        // A valid entry for a different key, copied to this key's path
        // (e.g. a mis-rename), must not be trusted.
        let other = CacheKey { hi: key.hi ^ 1, lo: key.lo };
        let bytes = entry_bytes(&other, &encode_entry(&report, &ProbeSections::default()));
        std::fs::write(cache.entry_path(&key), &bytes).unwrap();
        assert!(cache.load(&key).is_none());
        std::fs::remove_dir_all(&dir).ok();
    }
}
