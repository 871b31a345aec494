//! `serve-cold` and `serve-warm`: closed-loop traffic from two client
//! threads against an in-process `instrep_serve::Server` with the
//! shipped defaults. Each request opens its own connection, as
//! `examples/instrep_client.rs` does.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use instrep_core::service::{
    loops_json, profile_json, report_json, scale_windows, ReportPayload, Request, Response,
};
use instrep_core::TelemetryRegistry;
use instrep_core::{AnalysisConfig, AnalysisJob, CacheOutcome, InstrumentedReport, Session};
use instrep_serve::{ServeConfig, Server};
use instrep_workloads::Scale;

use crate::util::{mean, median, percentile, secs, Metrics, SplitMix};
use crate::Run;

/// Client threads, and so connections open at once.
pub const CLIENTS: usize = 2;
/// Scale every serve request names.
pub const SCALE: &str = "tiny";
/// Seeds per family in the warm set (10 families x 4 seeds).
const WARM_SEEDS: u64 = 4;
/// Key offset of the cold set-up requests; timed keys stay below it.
const SETUP_OFFSET: u64 = 900_000;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Which serve workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Every request names a new key: miss, simulate, store.
    Cold,
    /// Requests draw from a warm set: hits, plus one probe request in
    /// four that bypasses the cache.
    Warm,
}

/// The daemon's worker count under the shipped defaults.
pub fn workers() -> usize {
    ServeConfig::new("").workers
}

/// Latency charged to a request that failed, was refused, or failed its
/// check: the daemon's default request timeout, so it misses any
/// latency limit.
fn fail_ms() -> f64 {
    ServeConfig::new("").timeout.as_secs_f64() * 1e3
}

/// A request input seed derived from the benchmark seed: distinct
/// offsets give distinct keys, and every value stays exact as a JSON
/// number.
pub fn key_seed(seed: u64, offset: u64) -> u64 {
    (seed % 1_000_000) * 1_000_000 + offset
}

/// One planned request and the cache outcome it should report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Planned {
    /// Family index in roster order.
    pub family: usize,
    /// Input seed.
    pub seed: u64,
    /// Scale name.
    pub scale: &'static str,
    /// Skip override; `None` keeps the scale's skip.
    pub skip: Option<u64>,
    /// Whether the request asks for the profile and loops payloads.
    pub probes: bool,
    /// The cache outcome the response should carry; see
    /// [`Planned::accepts`].
    pub expect: CacheOutcome,
}

/// A key the daemon derives one cache entry from.
pub type KeyId = (usize, u64, &'static str, u64);

impl Planned {
    /// A plain tiny-scale request with a skip override.
    fn tiny(family: usize, seed: u64, skip: u64, expect: CacheOutcome) -> Planned {
        Planned { family, seed, scale: SCALE, skip: Some(skip), probes: false, expect }
    }

    /// The analysis configuration the daemon runs this request with.
    pub fn config(&self) -> AnalysisConfig {
        let (skip, window) = scale_windows(self.scale).expect("planned scales are known");
        AnalysisConfig { skip: self.skip.unwrap_or(skip), window, ..AnalysisConfig::default() }
    }

    /// What determines the response's report.
    pub fn key(&self) -> KeyId {
        (self.family, self.seed, self.scale, self.config().skip)
    }

    /// Whether a response may carry cache outcome `c`: the expected one,
    /// or, for a request that wants the profile and loops payloads, `hit`
    /// or `uncached`. Today `Session` runs such requests around the cache
    /// (`uncached`); a daemon that caches those payloads answers them
    /// from the cache once stored (`hit`). Both are correct output.
    pub fn accepts(&self, c: CacheOutcome) -> bool {
        let served_or_bypassed = matches!(c, CacheOutcome::Hit | CacheOutcome::Uncached);
        c == self.expect || (self.probes && served_or_bypassed)
    }
}

/// The tiny scale's skip. Requests override it by a few instructions
/// to make keys distinct: m88ksim's input depends only on `seed % 5`
/// and li's on `seed % 2`, so a new seed alone can name an old entry.
fn tiny_skip() -> u64 {
    scale_windows(SCALE).expect("known scale").0
}

/// Requests per round: a fixed unit whose counts repeat exactly.
pub fn round_len(kind: Kind) -> u64 {
    match kind {
        Kind::Cold => 10,
        Kind::Warm => 10 * WARM_SEEDS,
    }
}

/// Requests per set-up: cold sends one per family; warm sends the warm
/// set twice, once plain and once wanting the profile and loops.
fn setup_len(kind: Kind) -> u64 {
    match kind {
        Kind::Cold => 10,
        Kind::Warm => 2 * round_len(kind),
    }
}

/// The warm set's key `w` (family-major), stored by a miss.
fn warm_key(seed: u64, w: u64, expect: CacheOutcome) -> Planned {
    let j = w % WARM_SEEDS;
    Planned::tiny((w / WARM_SEEDS) as usize, key_seed(seed, j), tiny_skip() + j, expect)
}

/// Set-up request `i`: cold sends one per family on keys the timed part
/// never uses (its skip is one below every timed skip). Warm sends each
/// key of the warm set in both shapes the timed part uses: first plain,
/// which stores it, then wanting the profile and loops, so a daemon that
/// caches those payloads is warm for them too. The two sends of a key
/// are 40 requests apart and never in flight together.
pub fn setup_plan(kind: Kind, seed: u64, i: u64) -> Planned {
    match kind {
        Kind::Cold => Planned::tiny(
            i as usize % 10,
            key_seed(seed, SETUP_OFFSET + i),
            tiny_skip() - 1,
            CacheOutcome::Miss,
        ),
        Kind::Warm => {
            let n = round_len(kind);
            Planned { probes: i >= n, ..warm_key(seed, i % n, CacheOutcome::Miss) }
        }
    }
}

/// Timed request `i`. Cold: family `i % 10`, a new seed, and a skip
/// that grows by one per round of ten, so every key is new. Warm: round
/// `i / 40` is a seeded shuffle of the warm set, and every fourth
/// request of a round also asks for the profile and loops payloads.
pub fn timed_plan(kind: Kind, seed: u64, i: u64) -> Planned {
    let n = round_len(kind);
    let (round, k) = (i / n, i % n);
    match kind {
        Kind::Cold => {
            Planned::tiny(k as usize, key_seed(seed, i), tiny_skip() + round, CacheOutcome::Miss)
        }
        Kind::Warm => {
            let mut order: Vec<u64> = (0..n).collect();
            SplitMix::new(seed ^ round.wrapping_mul(0x2545_f491_4f6c_dd1d)).shuffle(&mut order);
            Planned { probes: k % 4 == 3, ..warm_key(seed, order[k as usize], CacheOutcome::Hit) }
        }
    }
}

/// The wire line for request `id`.
fn request_line(id: u64, p: &Planned) -> String {
    let name = instrep_workloads::all()[p.family].name;
    let mut req = Request::workload(id, name).scale(p.scale).seed(p.seed);
    if let Some(skip) = p.skip {
        req = req.skip(skip);
    }
    if p.probes {
        req = req.with_profile().with_loops();
    }
    let mut line = req.encode();
    line.push('\n');
    line
}

/// A running in-process daemon and the paths it owns.
pub struct Daemon {
    server: Server,
    /// The registry the daemon reports into.
    pub registry: Arc<TelemetryRegistry>,
    socket: PathBuf,
    cache_dir: PathBuf,
}

impl Daemon {
    /// Starts a daemon with the shipped defaults and an empty cache
    /// under `scratch`.
    pub fn start(scratch: &Path, tag: usize) -> Result<Daemon, String> {
        let cache_dir = scratch.join(format!("cache-{tag}"));
        std::fs::remove_dir_all(&cache_dir).ok();
        let socket = scratch.join(format!("s{tag}.sock"));
        let mut cfg = ServeConfig::new(&socket);
        cfg.cache_dir = Some(cache_dir.clone());
        let registry = Arc::new(TelemetryRegistry::new());
        let server = Server::start(cfg, Arc::clone(&registry))
            .map_err(|e| format!("starting the daemon: {e}"))?;
        Ok(Daemon { server, registry, socket, cache_dir })
    }

    /// Drains and joins the daemon, then removes its cache.
    pub fn stop(self) -> Result<(), String> {
        self.server.shutdown();
        let joined = self.server.join().map_err(|e| format!("joining the daemon: {e}"));
        std::fs::remove_dir_all(&self.cache_dir).ok();
        joined
    }

    fn counter(&self, name: &str) -> u64 {
        self.registry.counter(name).get()
    }
}

/// One request as the client saw it.
pub struct Sample {
    /// Request id (also its index in the schedule plus the offset).
    pub id: u64,
    /// What was asked.
    pub plan: Planned,
    /// Connect to the response's last byte, ms.
    pub latency_ms: f64,
    /// The response line, or why none arrived.
    pub response: Result<String, String>,
    /// The cache outcome of a report response; `None` for any other.
    pub cache: Option<CacheOutcome>,
}

/// The cache outcome of a report response line; `None` for any other
/// response.
fn report_cache(line: &str) -> Option<CacheOutcome> {
    match Response::decode(line) {
        Ok(Response::Report(p)) => Some(p.cache),
        _ => None,
    }
}

/// Daemon counters read at a segment's edges.
#[derive(Debug, Default, Clone, Copy)]
struct Counters {
    requests: u64,
    ok: u64,
    hit: u64,
    miss: u64,
    hist_count: u64,
    hist_sum_ns: u64,
}

impl Counters {
    fn read(d: &Daemon) -> Counters {
        let h = d.registry.histogram("serve_request_ns");
        Counters {
            requests: d.counter("serve_requests"),
            ok: d.counter("serve_responses_ok"),
            hit: d.counter("cache_hit"),
            miss: d.counter("cache_miss"),
            hist_count: h.count(),
            hist_sum_ns: h.sum(),
        }
    }

    fn since(self, before: Counters) -> Counters {
        Counters {
            requests: self.requests - before.requests,
            ok: self.ok - before.ok,
            hit: self.hit - before.hit,
            miss: self.miss - before.miss,
            hist_count: self.hist_count - before.hist_count,
            hist_sum_ns: self.hist_sum_ns - before.hist_sum_ns,
        }
    }
}

/// What one stretch of traffic produced.
pub struct Segment {
    /// Every request attempted, in id order.
    pub samples: Vec<Sample>,
    /// First request to the last response, seconds.
    pub wall_s: f64,
    /// Largest queue depth a client saw right after sending.
    pub queue_depth_max: u64,
    /// Peak RSS of the process at the segment's end, MB.
    pub rss_mb: f64,
    delta: Counters,
}

/// Sends one request on a fresh connection and reads the response line.
fn exchange(
    socket: &Path,
    line: &str,
    queue: &instrep_core::telemetry::Gauge,
    qmax: &mut u64,
) -> Result<String, String> {
    let mut s = UnixStream::connect(socket).map_err(|e| format!("connect: {e}"))?;
    s.set_read_timeout(Some(Duration::from_secs(60))).map_err(|e| e.to_string())?;
    s.write_all(line.as_bytes()).map_err(|e| format!("send: {e}"))?;
    *qmax = (*qmax).max(queue.get());
    let mut buf = Vec::with_capacity(1024);
    let mut chunk = [0u8; 8192];
    loop {
        let n = s.read(&mut chunk).map_err(|e| format!("receive: {e}"))?;
        if n == 0 {
            return Err("connection closed before a full response".to_string());
        }
        buf.extend_from_slice(&chunk[..n]);
        if chunk[..n].contains(&b'\n') {
            break;
        }
    }
    let text = String::from_utf8(buf).map_err(|_| "response is not UTF-8".to_string())?;
    Ok(text.trim_end_matches('\n').to_string())
}

/// Runs [`CLIENTS`] closed-loop clients over `plan(0..limit)` until
/// `seconds` pass (each client stops taking requests at the deadline and
/// finishes the one in flight). Ids are `first_id + i`.
pub fn traffic(
    d: &Daemon,
    plan: &(dyn Fn(u64) -> Planned + Sync),
    first_id: u64,
    limit: u64,
    seconds: f64,
) -> Segment {
    let before = Counters::read(d);
    let queue = d.registry.gauge("serve_queue_depth");
    let next = AtomicU64::new(0);
    let t0 = Instant::now();
    let deadline = seconds.is_finite().then(|| t0 + Duration::from_secs_f64(seconds));
    let per_client: Vec<(Vec<Sample>, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let (next, queue) = (&next, &queue);
                scope.spawn(move || {
                    let (mut samples, mut qmax) = (Vec::new(), 0);
                    while deadline.is_none_or(|d| Instant::now() < d) {
                        let i = next.fetch_add(1, Ordering::SeqCst);
                        if i >= limit {
                            break;
                        }
                        let p = plan(i);
                        let id = first_id + i;
                        let line = request_line(id, &p);
                        let t = Instant::now();
                        let response = exchange(&d.socket, &line, queue, &mut qmax);
                        let latency_ms = secs(t) * 1e3;
                        samples.push(Sample { id, plan: p, latency_ms, response, cache: None });
                    }
                    (samples, qmax)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client threads do not panic")).collect()
    });
    let wall_s = secs(t0);
    let mut samples = Vec::new();
    let mut queue_depth_max = 0;
    for (s, q) in per_client {
        samples.extend(s);
        queue_depth_max = queue_depth_max.max(q);
    }
    samples.sort_by_key(|s| s.id);
    for s in &mut samples {
        s.cache = s.response.as_deref().ok().and_then(report_cache);
    }
    let delta = Counters::read(d).since(before);
    Segment { samples, wall_s, queue_depth_max, rss_mb: crate::util::peak_rss_mb(), delta }
}

/// Set-up, repeated [`SETUP_REPS`] times: start the daemon on an empty
/// cache and send the set-up requests. Returns the last daemon (the
/// others are stopped), the median set-up time in seconds, and the
/// process's peak RSS in MB at the end of the first set-up.
///
/// The serve workloads report that peak RSS as `peak_rss_mb`, the
/// memory of set-up: a daemon freshly started that has served the set-up
/// requests on both workers. Later peaks depend on glibc's per-thread
/// malloc arenas. Each restarted daemon's
/// new workers, and a worker that finds its arena locked by a
/// cross-thread free, can land in an arena that never held a working
/// set, and the peak then jumps by about 30 MB at random: after all five
/// set-ups it read 68 MB in six runs of ten and 77–110 MB in four; with
/// `MALLOC_ARENA_MAX=1` it stays at 63–67 MB. The peak after the timed
/// traffic is reported per layer as `serve.peak_rss_mb`.
pub fn setup(
    kind: Kind,
    seed: u64,
    scratch: &Path,
    run: &mut Run,
) -> Result<(Daemon, f64, f64), String> {
    let count = setup_len(kind);
    let mut times = Vec::new();
    let mut last: Option<Daemon> = None;
    let mut rss_mb = 0.0;
    for rep in 0..SETUP_REPS {
        if let Some(d) = last.take() {
            d.stop()?;
        }
        let t = Instant::now();
        let d = Daemon::start(scratch, rep)?;
        let plan = move |i| setup_plan(kind, seed, i);
        let seg = traffic(&d, &plan, 1_000_000_000, count, f64::INFINITY);
        times.push(secs(t));
        if rep == 0 {
            rss_mb = crate::util::peak_rss_mb();
        }
        for s in &seg.samples {
            if !s.cache.is_some_and(|c| s.plan.accepts(c)) {
                run.fail(format!("set-up request {} failed: {:?}", s.id, s.response));
            }
        }
        if seg.samples.len() as u64 != count {
            run.fail(format!("set-up sent {} of {count} requests", seg.samples.len()));
        }
        counters_match(&seg, "set-up", run);
        run.count("setup.cache_miss", seg.delta.miss);
        run.count("setup.cache_hit", seg.delta.hit);
        last = Some(d);
    }
    Ok((last.expect("at least one set-up"), median(&times), rss_mb))
}

/// End-to-end figures of a checked segment.
pub struct Figures {
    /// Measured instructions covered by the delivered reports, per s.
    pub events_per_s: f64,
    /// Median client latency, ms (failures count as [`fail_ms`]).
    pub p50_ms: f64,
    /// 95th-percentile client latency, ms.
    pub p95_ms: f64,
    /// Completed requests per second.
    pub req_per_s: f64,
}

/// The direct `Session` result for every key a set of samples used.
pub type Direct = HashMap<KeyId, InstrumentedReport>;

/// Runs each distinct key of `plans` through a direct `Session` (no
/// daemon, no cache) on [`CLIENTS`] threads. Where any request of a
/// configuration wants the profile and loops payloads, that
/// configuration runs with both probes on, so one run answers both
/// request shapes.
pub fn direct_runs(plans: &[Planned]) -> Result<Direct, String> {
    // One plan per key; it wants the probes if any request for the key
    // did.
    let mut todo: Vec<Planned> = Vec::new();
    let mut index: HashMap<KeyId, usize> = HashMap::new();
    for p in plans {
        match index.get(&p.key()) {
            Some(&i) => todo[i].probes |= p.probes,
            None => {
                index.insert(p.key(), todo.len());
                todo.push(*p);
            }
        }
    }
    let workloads = instrep_workloads::all();
    let images = workloads
        .iter()
        .map(|w| w.build().map_err(|e| format!("building {}: {e}", w.name)))
        .collect::<Result<Vec<_>, _>>()?;
    let mut out = Direct::new();
    // One session per analysis configuration.
    while let Some(first) = todo.first().copied() {
        let cfg = first.config();
        let (group, rest): (Vec<Planned>, Vec<Planned>) =
            todo.into_iter().partition(|p| p.config() == cfg && p.scale == first.scale);
        todo = rest;
        let scale = match first.scale {
            "tiny" => Scale::Tiny,
            "small" => Scale::Small,
            _ => Scale::Full,
        };
        let jobs: Vec<AnalysisJob<'_>> = group
            .iter()
            .map(|p| AnalysisJob {
                image: &images[p.family],
                input: workloads[p.family].input(scale, p.seed),
                label: "",
            })
            .collect();
        let probes = group.iter().any(|p| p.probes);
        let results = Session::new(cfg).jobs(CLIENTS).profile(probes).loops(probes).run(jobs);
        for (p, r) in group.iter().zip(results) {
            out.insert(p.key(), r.map_err(|e| format!("direct run of {p:?} trapped: {e}"))?);
        }
    }
    Ok(out)
}

/// The exact line the daemon must send for request `id` when it reports
/// cache outcome `cache`.
pub fn expected_line(id: u64, p: &Planned, cache: CacheOutcome, ir: &InstrumentedReport) -> String {
    let top_k = AnalysisConfig::default().top_k;
    Response::Report(ReportPayload {
        id,
        cache,
        report: report_json(&ir.report),
        metrics: None,
        profile: if p.probes { ir.profile.as_ref().map(|x| profile_json(x, top_k)) } else { None },
        loops: if p.probes { ir.loops.as_ref().map(|x| loops_json(x, top_k)) } else { None },
    })
    .encode()
}

/// Checks the daemon's request, report, hit and miss counters over a
/// segment against the responses its clients received.
fn counters_match(seg: &Segment, what: &str, run: &mut Run) {
    let seen = |want: Option<CacheOutcome>| {
        seg.samples
            .iter()
            .filter(|s| want.map_or(s.cache.is_some(), |w| s.cache == Some(w)))
            .count() as u64
    };
    let clients = (
        seg.samples.len() as u64,
        seen(None),
        seen(Some(CacheOutcome::Hit)),
        seen(Some(CacheOutcome::Miss)),
    );
    let d = seg.delta;
    if (d.requests, d.ok, d.hit, d.miss) != clients {
        run.fail(format!(
            "{what}: daemon counted requests/ok/hit/miss {:?}, clients saw {clients:?}",
            (d.requests, d.ok, d.hit, d.miss)
        ));
    }
}

/// Checks every response of `seg` byte for byte against `direct`, with
/// the cache outcome the response reports if the plan accepts it, and
/// the daemon's counters against the responses. Returns the figures.
pub fn check(seg: &Segment, direct: &Direct, what: &str, run: &mut Run) -> Figures {
    let mut events = 0u64;
    let mut completed = 0u64;
    let mut lat = Vec::with_capacity(seg.samples.len());
    for s in &seg.samples {
        run.attempted += 1;
        let verdict = match (&s.response, s.cache, direct.get(&s.plan.key())) {
            (Err(e), _, _) => Err(format!("got no response: {e}")),
            (Ok(line), None, _) => Err(format!("is not a report: {line:.200}")),
            (Ok(_), Some(c), _) if !s.plan.accepts(c) => Err(format!("reports cache {c:?}")),
            (Ok(_), _, None) => Err("has no direct run".to_string()),
            (Ok(line), Some(c), Some(ir)) if *line == expected_line(s.id, &s.plan, c, ir) => Ok(ir),
            (Ok(line), _, Some(_)) => Err(format!("differs from a direct run: {line:.200}")),
        };
        let ir = match verdict {
            Ok(ir) => ir,
            Err(e) => {
                run.fail(format!("{what}: request {} ({:?}) {e}", s.id, s.plan));
                lat.push(fail_ms());
                continue;
            }
        };
        lat.push(s.latency_ms);
        completed += 1;
        events += ir.report.dynamic_total;
    }
    counters_match(seg, what, run);
    Figures {
        events_per_s: events as f64 / seg.wall_s,
        p50_ms: median(&lat),
        p95_ms: percentile(&lat, 95.0),
        req_per_s: completed as f64 / seg.wall_s,
    }
}

/// Exact counts of every complete round of a segment's schedule: each
/// round must repeat the first, and the first goes to the cross-run
/// ledger.
pub fn round_counts(kind: Kind, seg: &Segment, run: &mut Run) {
    let n = round_len(kind);
    let mut rounds: HashMap<u64, [u64; 4]> = HashMap::new();
    for s in &seg.samples {
        let c = rounds.entry((s.id - 1) / n).or_default();
        c[0] += 1;
        c[1] += u64::from(s.cache.is_some());
        c[2] += u64::from(s.cache == Some(CacheOutcome::Hit));
        c[3] += u64::from(s.cache == Some(CacheOutcome::Miss));
    }
    let mut complete: Vec<(u64, [u64; 4])> =
        rounds.into_iter().filter(|(_, c)| c[0] == n).collect();
    complete.sort_unstable();
    let Some(&(_, first)) = complete.first() else { return };
    for (r, c) in &complete {
        if *c != first {
            run.fail(format!(
                "round {r} counts {c:?} differ from the first complete round {first:?}"
            ));
        }
    }
    for (name, v) in ["round.attempted", "round.completed", "round.cache_hit", "round.cache_miss"]
        .into_iter()
        .zip(first)
    {
        run.count(name, v);
    }
}

/// Serve-layer figures of a traced segment.
pub fn layer_metrics(seg: &Segment, out: &mut Metrics) {
    let d = seg.delta;
    let request_ms =
        if d.hist_count == 0 { 0.0 } else { d.hist_sum_ns as f64 / d.hist_count as f64 / 1e6 };
    let client_ms: Vec<f64> =
        seg.samples.iter().filter(|s| s.response.is_ok()).map(|s| s.latency_ms).collect();
    let lookups = d.hit + d.miss;
    out.push("serve.request_ms", request_ms, "ms");
    out.push("serve.outside_ms", mean(&client_ms) - request_ms, "ms");
    out.push("serve.queue_depth_max", seg.queue_depth_max as f64, "count");
    out.push(
        "serve.cache_hit_ratio",
        if lookups == 0 { 0.0 } else { d.hit as f64 / lookups as f64 },
        "ratio",
    );
    out.push("serve.cache_lookups", lookups as f64, "count");
    out.push("serve.peak_rss_mb", seg.rss_mb, "MB");
}
