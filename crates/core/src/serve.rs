//! # `rescomm::serve` — the crash-safe mapping service
//!
//! A std-only, long-lived JSON-lines-over-TCP server around the mapping
//! pipeline: clients send affine nest sources plus machine/schedule
//! specs, the server maps them ([`map_nest_cancellable`]) with warm
//! [`AnalysisCache`]s, prices the mapping through [`compile`] (plan,
//! lowering, simulation under BLOCK), and answers with the mapping
//! report counts and the simulated makespan.
//! See `DESIGN.md` §15 for the full wire protocol and state machine; the
//! short version:
//!
//! * **One request per line, one response per line.** Requests are
//!   strict JSON objects (`rescomm_json::parse` — duplicate keys and
//!   trailing garbage are protocol errors with line/col positions).
//!   Ops: `map`, `map_batch`, `ping`, `stats`, `snapshot`, `shutdown`.
//! * **One per-nest path.** A `map` and every entry of a `map_batch`
//!   take the same steps: plan-cache lookup, admission, compute under
//!   the request's deadline, store. A batch runs its entries in order
//!   and answers `{"results": [...]}`; its first failing entry answers
//!   for the batch, and the entries before it stay cached.
//! * **Responses** are `{"id": …, "ok": true, "served": s, "result": …}`
//!   with `served` ∈ `fresh | cache | snapshot`, or `{"id": …, "ok":
//!   false, "error": {"code": …, "exit_code": …, "detail": …}}` — the
//!   server never answers a malformed or hostile request with anything
//!   but a structured error, and never crashes on one (every compute is
//!   wrapped in [`crate::guarded`]).
//! * **Admission control.** At most `workers` nest computations run
//!   concurrently, each holding one of `workers` slots (a warm analysis
//!   cache) for its duration; up to `max_queue` more wait on a condvar.
//!   Beyond that the request is rejected with a structured `overload`
//!   error (`retry_after_ms` included), 429-style. Plan-cache hits bypass
//!   admission entirely — under overload the server degrades to serving
//!   cached results before it starts rejecting.
//! * **Bounded plan cache.** The cache holds at most `plan_cache_cap`
//!   entries; past the cap the least-recently-used entry is evicted
//!   (hits refresh recency). Hit/miss/eviction counters surface in the
//!   `stats` op.
//! * **Deadlines.** A request's `deadline_ms` (or the server's default)
//!   arms a [`CancelToken`]; the pipeline checks it between passes and
//!   the first checkpoint past the deadline aborts the work with a
//!   `deadline` error.
//!   Requests that exhaust their deadline while *queued* are abandoned
//!   without ever computing.
//! * **Bounded meshes.** A mesh over [`MAX_MESH_NODES`] nodes is a
//!   `protocol` error: the simulator allocates per link, so an unbounded
//!   shape could exhaust memory and abort the process.
//! * **Snapshots.** The plan cache checkpoints to disk (atomic
//!   write-then-rename) every `snapshot_every` completed computations,
//!   on an interval, on `shutdown` (drain first), and on demand, always
//!   through one writer, so writes never interleave and the newest state
//!   wins. The computation that triggers a write is answered after it. Each
//!   entry is `{key, digest, result}`: the key is the canonical request
//!   object, so it alone holds the machine spec, and the served `result`
//!   alone holds the counts and the makespan. A restarted server — even
//!   after `kill -9` — reloads the snapshot and keeps an entry only if its
//!   digest matches, its key reads back through the same request parser
//!   (and node bound) as a live request, and recomputing the key through
//!   the miss path (fanned out over a parallel sweep, under the default
//!   deadline) yields the stored `result` byte for byte. Kept entries
//!   serve the same bytes with `"served": "snapshot"`; any other entry is
//!   dropped and recomputed on demand.

use crate::error::{CancelToken, RescommError};
use crate::guarded;
use crate::pipeline::{map_nest_cancellable, AnalysisCache, MappingOptions};
use crate::plan::{compile, CompileOptions};
use rescomm_distribution::{Dist1D, Dist2D};
use rescomm_json::{parse, JsonValue};
use rescomm_loopnest::parser::parse_nest;
use rescomm_machine::{pool, CostModel, Mesh2D, ScheduleMode, MAX_MESH_NODES};
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Magic of the snapshot file format.
const SNAPSHOT_FORMAT: &str = "rescomm-snapshot";
/// Version of the snapshot file format; mismatches are rejected on load.
const SNAPSHOT_VERSION: i64 = 3;

/// Server tuning knobs. [`ServerConfig::default`] is sized for tests and
/// local use; the bin exposes every field as a flag.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Map computations allowed to run concurrently.
    pub workers: usize,
    /// Requests allowed to wait for a worker before overload rejection.
    pub max_queue: usize,
    /// Plan-cache snapshot file; `None` disables durability.
    pub snapshot_path: Option<PathBuf>,
    /// Flush the snapshot after this many completed computations; the
    /// one that reaches the count is answered only after the write
    /// (0 = only on interval/shutdown/demand).
    pub snapshot_every: u64,
    /// Flush the snapshot at this interval when dirty.
    pub snapshot_interval: Option<Duration>,
    /// Deadline applied to requests that don't carry their own.
    pub default_deadline: Option<Duration>,
    /// Hard cap on one request line; longer lines get a structured
    /// rejection and the connection is closed.
    pub max_line_bytes: usize,
    /// Plan-cache entry cap; the least-recently-used entry is evicted
    /// past it (0 = unbounded). Evictions are counted in `stats`.
    pub plan_cache_cap: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            max_queue: 16,
            snapshot_path: None,
            snapshot_every: 32,
            snapshot_interval: Some(Duration::from_secs(5)),
            default_deadline: None,
            max_line_bytes: 1 << 20,
            plan_cache_cap: 1024,
        }
    }
}

/// One served result, ready to replay byte-identically. Its machine
/// spec is its plan-cache key ([`MapParams::key`]), stored nowhere else.
#[derive(Debug, Clone)]
struct PlanEntry {
    /// The rendered `result` object — the bytes every later response
    /// splices verbatim, and the only copy of the counts and makespan.
    result_json: String,
    /// [`entry_digest`] of the key and `result_json`.
    digest: String,
    /// Entry came from a snapshot restore, not this process's compute.
    from_snapshot: bool,
}

/// FNV-1a 64-bit digest of a snapshot entry's key and result, as 16 hex
/// digits: restore drops an entry whose bytes no longer match it before
/// paying for its recomputation. Each part ends with `0xff`, a byte UTF-8
/// text never holds, so the part boundary is part of what is hashed.
fn entry_digest(key: &str, result_json: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for part in [key, result_json] {
        for &b in part.as_bytes().iter().chain([0xff].iter()) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

/// The bounded LRU plan cache. Recency is a monotonically increasing
/// clock stamp per entry; `by_age` indexes stamp → key so eviction pops
/// the stalest entry in O(log n) instead of scanning the whole map.
/// Keys and entries are shared, so a snapshot copies pointers, not bytes.
struct PlanCache {
    cap: usize,
    clock: u64,
    map: HashMap<Arc<str>, (u64, Arc<PlanEntry>)>,
    by_age: BTreeMap<u64, Arc<str>>,
    /// Computations stored since the snapshot file last held them.
    dirty: u64,
}

impl PlanCache {
    fn new(cap: usize) -> PlanCache {
        PlanCache {
            cap,
            clock: 0,
            map: HashMap::new(),
            by_age: BTreeMap::new(),
            dirty: 0,
        }
    }

    fn len(&self) -> usize {
        self.map.len()
    }

    /// Look up an entry and refresh its recency.
    fn touch(&mut self, key: &str) -> Option<&PlanEntry> {
        self.clock += 1;
        let clock = self.clock;
        let (stamp, entry) = self.map.get_mut(key)?;
        let key = self.by_age.remove(stamp).expect("every entry has an age");
        self.by_age.insert(clock, key);
        *stamp = clock;
        Some(&**entry)
    }

    /// Insert (or replace) an entry, evicting least-recently-used
    /// entries past the cap. Returns how many were evicted.
    fn insert(&mut self, key: String, entry: PlanEntry) -> u64 {
        self.clock += 1;
        let key: Arc<str> = key.into();
        let stamped = (self.clock, Arc::new(entry));
        if let Some((old_stamp, _)) = self.map.insert(Arc::clone(&key), stamped) {
            self.by_age.remove(&old_stamp);
        }
        self.by_age.insert(self.clock, key);
        let mut evicted = 0;
        while self.cap > 0 && self.map.len() > self.cap {
            // Smallest stamp = least recently used.
            let (_, victim) = self
                .by_age
                .pop_first()
                .expect("cache over cap is non-empty");
            self.map.remove(&victim);
            evicted += 1;
        }
        evicted
    }
}

/// The admission slots: one warm [`AnalysisCache`] per idle worker
/// slot. [`admit`] grants a slot by popping its cache and [`release`]
/// pushes it back, so a server holds exactly `workers` caches, each
/// bounded by [`SLOT_CACHE_MAX`].
struct AdmState {
    idle: Vec<AnalysisCache>,
    waiting: usize,
}

/// Monotonic counters surfaced by the `stats` op.
#[derive(Default)]
struct Stats {
    requests: AtomicU64,
    computed: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    cache_evictions: AtomicU64,
    snapshot_hits: AtomicU64,
    rejected_overload: AtomicU64,
    deadline_cancelled: AtomicU64,
    protocol_errors: AtomicU64,
    pipeline_errors: AtomicU64,
    panics_absorbed: AtomicU64,
    restored_entries: AtomicU64,
    snapshot_flushes: AtomicU64,
}

struct Shared {
    cfg: ServerConfig,
    plans: Mutex<PlanCache>,
    adm: Mutex<AdmState>,
    adm_cv: Condvar,
    /// Held by the one snapshot writer ([`flush_snapshot`]).
    writer: Mutex<()>,
    writer_cv: Condvar,
    shutdown: AtomicBool,
    stats: Stats,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // A panic while holding a lock is already absorbed upstream; the
    // data is still consistent (every critical section is a plain
    // insert/lookup), so poisoning must not take the server down.
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// A structured request failure: wire code, exit code and detail.
struct Failure {
    code: &'static str,
    exit_code: u8,
    detail: String,
}

impl Failure {
    fn protocol(detail: impl Into<String>) -> Failure {
        Failure {
            code: "protocol",
            exit_code: 1,
            detail: detail.into(),
        }
    }
}

impl From<RescommError> for Failure {
    fn from(e: RescommError) -> Failure {
        let code = match e {
            RescommError::Parse(_) => "parse",
            RescommError::Lin(_) => "lin",
            RescommError::Analysis { .. } => "analysis",
            RescommError::Exec { .. } => "exec",
            RescommError::Cancelled { .. } => "deadline",
        };
        Failure {
            code,
            exit_code: e.exit_code(),
            detail: e.to_string(),
        }
    }
}

fn err_response(id: &JsonValue, code: &str, exit_code: u8, detail: &str) -> String {
    let mut error = vec![
        ("code", JsonValue::Str(code.to_string())),
        ("exit_code", JsonValue::Int(i64::from(exit_code))),
        ("detail", JsonValue::Str(detail.to_string())),
    ];
    if code == "overload" {
        error.push(("retry_after_ms", JsonValue::Int(50)));
    }
    JsonValue::object([
        ("id", id.clone()),
        ("ok", JsonValue::Bool(false)),
        ("error", JsonValue::object(error)),
    ])
    .render()
}

/// Count a failure under its `stats` counter and render its response.
fn fail(shared: &Shared, id: &JsonValue, f: Failure) -> String {
    let s = &shared.stats;
    let counter = match f.code {
        "protocol" => &s.protocol_errors,
        "overload" => &s.rejected_overload,
        "deadline" => &s.deadline_cancelled,
        "internal" => &s.panics_absorbed,
        _ => &s.pipeline_errors,
    };
    counter.fetch_add(1, Ordering::Relaxed);
    err_response(id, f.code, f.exit_code, &f.detail)
}

fn ok_response(id: &JsonValue, served: &str, result_json: &str) -> String {
    // `result_json` is spliced verbatim so cache/snapshot replays are
    // byte-identical to the fresh computation that produced them.
    format!(
        "{{\"id\": {}, \"ok\": true, \"served\": \"{served}\", \"result\": {result_json}}}",
        id.render()
    )
}

/// Everything a `map` request pins down, in canonical form: the nest
/// source and the target it is compiled for (always an explicit plan
/// under BLOCK).
struct MapParams {
    src: String,
    cost_label: &'static str,
    target: CompileOptions,
}

impl MapParams {
    /// Canonical plan-cache key: the exact inputs, rendered as the
    /// request object that asks for them (so distinct nests/specs can
    /// never collide, and [`parse_map_params`] reads the key back).
    fn key(&self) -> String {
        // Rendered directly, in `JsonValue::render`'s canonical layout:
        // the labels need no escaping and the integers fit `i64`.
        let t = &self.target;
        format!(
            "{{\"nest\": {}, \"mesh\": [{}, {}], \"cost\": \"{}\", \"vshape\": [{}, {}], \
             \"bytes\": {}, \"mode\": \"{}\"}}",
            JsonValue::Str(self.src.clone()).render(),
            t.mesh.px,
            t.mesh.py,
            self.cost_label,
            t.vshape.0,
            t.vshape.1,
            t.bytes,
            t.mode.label()
        )
    }
}

fn get_pair(v: &JsonValue, key: &str, default: (usize, usize)) -> Result<(usize, usize), String> {
    match v.get(key) {
        None => Ok(default),
        Some(JsonValue::Array(a)) if a.len() == 2 => {
            let x = a[0]
                .as_u64()
                .ok_or_else(|| format!("{key}[0] must be a positive integer"))?;
            let y = a[1]
                .as_u64()
                .ok_or_else(|| format!("{key}[1] must be a positive integer"))?;
            if x == 0 || y == 0 || x > 1 << 20 || y > 1 << 20 {
                return Err(format!("{key} out of range"));
            }
            Ok((x as usize, y as usize))
        }
        Some(_) => Err(format!("{key} must be a [w, h] pair")),
    }
}

/// The machine/schedule spec of a `map` or `map_batch` request, applied
/// to the nest source `src`.
fn parse_map_params(req: &JsonValue, src: &str) -> Result<MapParams, String> {
    if let Some(m) = req.get("m") {
        if m.as_i64() != Some(2) {
            return Err("only m=2 (2-D virtual grids) is served".to_string());
        }
    }
    let (px, py) = get_pair(req, "mesh", (8, 4))?;
    if px * py > MAX_MESH_NODES {
        return Err(format!("mesh {px}x{py} exceeds {MAX_MESH_NODES} nodes"));
    }
    let (cost_label, cost) = match req.get("cost").and_then(JsonValue::as_str) {
        None | Some("paragon") => ("paragon", CostModel::paragon()),
        Some("cm5") => ("cm5", CostModel::cm5()),
        Some(other) => return Err(format!("unknown cost model {other:?} (paragon|cm5)")),
    };
    let vshape = get_pair(req, "vshape", (px, py))?;
    let bytes = match req.get("bytes") {
        None => 1024,
        Some(b) => b.as_u64().ok_or("bytes must be a positive integer")?,
    };
    let mode = match req.get("mode").and_then(JsonValue::as_str) {
        None => ScheduleMode::Phased,
        Some(s) => ScheduleMode::parse(s)
            .ok_or_else(|| format!("unknown mode {s:?} (phased|overlapped|overlapped-longest)"))?,
    };
    Ok(MapParams {
        src: src.to_string(),
        cost_label,
        target: CompileOptions {
            mesh: Mesh2D::new(px, py, cost),
            dist: Dist2D::uniform(Dist1D::Block),
            vshape,
            bytes,
            mode,
            closed: false,
        },
    })
}

/// Grant a slot — its warm cache, to hand back through [`release`] — or
/// queue until `release` frees one, [`begin_shutdown`] closes admission
/// or the deadline passes: a request queued past its deadline is
/// abandoned, as a doomed request must not occupy a worker.
fn admit(shared: &Shared, deadline: Option<Instant>) -> Result<AnalysisCache, Failure> {
    let overload = || Failure {
        code: "overload",
        exit_code: 1,
        detail: "admission queue full (or draining); retry later".to_string(),
    };
    let mut st = lock(&shared.adm);
    if st.idle.is_empty() && st.waiting >= shared.cfg.max_queue {
        return Err(overload());
    }
    let now = Instant::now();
    let left = deadline.map_or(Duration::MAX, |d| d.saturating_duration_since(now));
    let closed = || shared.shutdown.load(Ordering::Acquire);
    st.waiting += 1;
    let waited = shared
        .adm_cv
        .wait_timeout_while(st, left, |st| st.idle.is_empty() && !closed());
    let (mut st, _) = waited.unwrap_or_else(|e| e.into_inner());
    st.waiting -= 1;
    if closed() {
        return Err(overload());
    }
    st.idle.pop().ok_or_else(|| Failure {
        code: "deadline",
        exit_code: 6,
        detail: "deadline expired while queued for admission".to_string(),
    })
}

/// Memoized analyses a slot's cache may hold when the slot goes back;
/// past this [`release`] clears it. The cache is keyed by the matrices
/// clients send, so unbounded it would grow with every distinct one.
/// Kernel-zoo traffic (every zoo kernel at sizes 4–9 through one cache)
/// peaks at 119: interned matrices, products and memo entries together.
const SLOT_CACHE_MAX: usize = 1024;

/// Hand a slot back to admission with its cache, cleared once it holds
/// more than [`SLOT_CACHE_MAX`] entries.
fn release(shared: &Shared, mut cache: AnalysisCache) {
    if cache.len() > SLOT_CACHE_MAX {
        cache.clear();
    }
    lock(&shared.adm).idle.push(cache);
    shared.adm_cv.notify_all();
}

/// Parse + map + [`compile`] one nest under a token with the slot's
/// analysis cache. Returns the entry to cache under `key`. Runs inside
/// a `guarded` wrapper upstream.
fn compute_entry(
    p: &MapParams,
    key: &str,
    cancel: &CancelToken,
    cache: &mut AnalysisCache,
) -> Result<PlanEntry, RescommError> {
    let nest = parse_nest(&p.src)?;
    let mapping = map_nest_cancellable(&nest, &MappingOptions::new(2), cache, cancel)?;
    let compiled = compile(&nest, &mapping, &p.target, cancel)?;
    // The stable `result` object: report counts, phases and makespan.
    let r = mapping.report(&nest);
    let n = |x: usize| JsonValue::exact_u64(x as u64);
    let result_json = JsonValue::object([
        ("nest", JsonValue::Str(r.nest.clone())),
        ("accesses", n(nest.accesses.len())),
        ("local", n(r.n_local)),
        ("translation", n(r.n_translation)),
        ("broadcast", n(r.n_broadcast)),
        ("scatter", n(r.n_scatter)),
        ("gather", n(r.n_gather)),
        ("reduction", n(r.n_reduction)),
        ("decomposed", n(r.n_decomposed)),
        ("factors", n(r.n_factors)),
        ("general", n(r.n_general)),
        ("incidents", n(r.n_incidents)),
        ("phases", n(compiled.plan.phases.len())),
        ("mode", JsonValue::Str(p.target.mode.label().to_string())),
        ("makespan", JsonValue::exact_u64(compiled.makespan)),
    ])
    .render();
    Ok(PlanEntry {
        digest: entry_digest(key, &result_json),
        result_json,
        from_snapshot: false,
    })
}

/// A request's deadline: its own `deadline_ms`, else the server default.
fn request_deadline(shared: &Shared, req: &JsonValue) -> Option<Instant> {
    let own = req.get("deadline_ms").and_then(JsonValue::as_u64);
    let own = own.map(Duration::from_millis);
    deadline_after(own.or(shared.cfg.default_deadline))
}

/// The instant `d` from now (none when `d` is none or overflows).
fn deadline_after(d: Option<Duration>) -> Option<Instant> {
    d.and_then(|d| Instant::now().checked_add(d))
}

/// The token a computation runs under until `deadline`.
fn cancel_token(deadline: Option<Instant>) -> CancelToken {
    match deadline {
        Some(d) => CancelToken::with_deadline(d.saturating_duration_since(Instant::now())),
        None => CancelToken::none(),
    }
}

/// The one per-nest path every `map` request and every `map_batch` entry
/// takes: plan-cache lookup, admission under the request's deadline,
/// compute under its token, store. Returns how the `result` was served
/// and its bytes.
fn map_one(
    shared: &Shared,
    p: MapParams,
    deadline: Option<Instant>,
) -> Result<(&'static str, String), Failure> {
    let key = p.key();
    // Cached path first: hits are served even under full overload — the
    // degradation ladder is fresh → cached → rejected. `touch` also
    // refreshes recency so hot plans survive LRU eviction.
    if let Some(entry) = lock(&shared.plans).touch(&key) {
        let (served, ctr) = if entry.from_snapshot {
            ("snapshot", &shared.stats.snapshot_hits)
        } else {
            ("cache", &shared.stats.cache_hits)
        };
        ctr.fetch_add(1, Ordering::Relaxed);
        return Ok((served, entry.result_json.clone()));
    }
    shared.stats.cache_misses.fetch_add(1, Ordering::Relaxed);

    let mut cache = admit(shared, deadline)?;
    let cancel = cancel_token(deadline);
    // `guarded` so an internal panic becomes a structured `internal`
    // error — the worker slot is released either way, with a fresh cache
    // after a panic (the used one may be half-updated).
    let stored = match guarded("serve_map", || compute_entry(&p, &key, &cancel, &mut cache)) {
        Ok(Ok(entry)) => {
            // Stored before the slot goes back, so a drain that finds
            // every slot idle finds every computed entry.
            let result = entry.result_json.clone();
            let mut plans = lock(&shared.plans);
            let evicted = plans.insert(key, entry);
            plans.dirty += 1;
            Ok((result, evicted, plans.dirty))
        }
        Ok(Err(e)) => Err(e.into()),
        Err(incident) => {
            cache = AnalysisCache::new();
            Err(Failure {
                code: "internal",
                exit_code: 1,
                detail: format!("absorbed internal panic: {}", incident.detail),
            })
        }
    };
    release(shared, cache);
    let (result, evicted, dirty) = stored?;
    let s = &shared.stats;
    s.cache_evictions.fetch_add(evicted, Ordering::Relaxed);
    s.computed.fetch_add(1, Ordering::Relaxed);
    // The answer waits for a write that holds this entry: ours, or an
    // earlier writer's that cleared the count.
    if shared.cfg.snapshot_every > 0 && dirty >= shared.cfg.snapshot_every {
        flush_snapshot(shared, &lock(&shared.writer), true);
    }
    Ok(("fresh", result))
}

fn handle_map(shared: &Shared, id: &JsonValue, req: &JsonValue) -> Result<String, Failure> {
    let src = req
        .get("nest")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| Failure::protocol("map needs a \"nest\" string (the nest source)"))?;
    let p = parse_map_params(req, src).map_err(Failure::protocol)?;
    let (served, result) = map_one(shared, p, request_deadline(shared, req))?;
    Ok(ok_response(id, served, &result))
}

/// Every nest of a batch shares the request's machine/schedule spec and
/// deadline. Entries run in order; the first failure answers for the
/// batch, and the entries before it stay cached.
fn handle_map_batch(shared: &Shared, id: &JsonValue, req: &JsonValue) -> Result<String, Failure> {
    let sources = match req.get("nests").and_then(JsonValue::as_array) {
        Some(a) if !a.is_empty() => a,
        _ => return Err(Failure::protocol("map_batch needs a non-empty nests array")),
    };
    let sources = sources
        .iter()
        .enumerate()
        .map(|(i, s)| {
            s.as_str()
                .ok_or_else(|| Failure::protocol(format!("nests[{i}] must be a string")))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let deadline = request_deadline(shared, req);
    let mut results = Vec::with_capacity(sources.len());
    for (i, src) in sources.into_iter().enumerate() {
        let p = parse_map_params(req, src).map_err(Failure::protocol)?;
        let (_, result) = map_one(shared, p, deadline).map_err(|f| Failure {
            detail: format!("nests[{i}]: {}", f.detail),
            ..f
        })?;
        results.push(result);
    }
    let body = format!("{{\"results\": [{}]}}", results.join(", "));
    Ok(ok_response(id, "fresh", &body))
}

fn handle_stats(shared: &Shared, id: &JsonValue) -> String {
    let s = &shared.stats;
    let plan_entries = lock(&shared.plans).len();
    let analysis_entries: usize = lock(&shared.adm).idle.iter().map(|c| c.len()).sum();
    let counters = [
        ("requests", &s.requests),
        ("computed", &s.computed),
        ("cache_hits", &s.cache_hits),
        ("cache_misses", &s.cache_misses),
        ("cache_evictions", &s.cache_evictions),
        ("snapshot_hits", &s.snapshot_hits),
        ("rejected_overload", &s.rejected_overload),
        ("deadline_cancelled", &s.deadline_cancelled),
        ("protocol_errors", &s.protocol_errors),
        ("pipeline_errors", &s.pipeline_errors),
        ("panics_absorbed", &s.panics_absorbed),
        ("restored_entries", &s.restored_entries),
        ("snapshot_flushes", &s.snapshot_flushes),
    ];
    let sizes = [
        ("plan_entries", plan_entries),
        ("plan_cache_cap", shared.cfg.plan_cache_cap),
        ("analysis_entries", analysis_entries),
    ];
    let result = JsonValue::object(
        counters
            .map(|(k, c)| (k, c.load(Ordering::Relaxed)))
            .into_iter()
            .chain(sizes.map(|(k, n)| (k, n as u64)))
            .map(|(k, n)| (k, JsonValue::exact_u64(n))),
    )
    .render();
    ok_response(id, "fresh", &result)
}

/// Route one request line to its handler. Never panics; always returns
/// one response line.
fn handle_line(shared: &Shared, line: &str) -> String {
    shared.stats.requests.fetch_add(1, Ordering::Relaxed);
    let req = match parse(line) {
        Ok(v) => v,
        Err(e) => {
            let f = Failure::protocol(format!("bad request: {e}"));
            return fail(shared, &JsonValue::Null, f);
        }
    };
    let id = req.get("id").cloned().unwrap_or(JsonValue::Null);
    if !matches!(req, JsonValue::Object(_)) {
        return fail(
            shared,
            &id,
            Failure::protocol("request must be a JSON object"),
        );
    }
    let response = match req.get("op").and_then(JsonValue::as_str) {
        Some("ping") => Ok(ok_response(&id, "fresh", "{\"pong\": true}")),
        Some("map") => handle_map(shared, &id, &req),
        Some("map_batch") => handle_map_batch(shared, &id, &req),
        Some("stats") => Ok(handle_stats(shared, &id)),
        Some("snapshot") => {
            let flushed = flush_snapshot(shared, &lock(&shared.writer), false);
            let entries = lock(&shared.plans).len();
            let result = JsonValue::object([
                ("flushed", JsonValue::Bool(flushed)),
                ("entries", JsonValue::exact_u64(entries as u64)),
            ]);
            Ok(ok_response(&id, "fresh", &result.render()))
        }
        Some("shutdown") => {
            begin_shutdown(shared);
            Ok(ok_response(&id, "fresh", "{\"draining\": true}"))
        }
        Some(other) => Err(Failure::protocol(format!("unknown op {other:?}"))),
        None => Err(Failure::protocol("request needs an \"op\" string")),
    };
    response.unwrap_or_else(|f| fail(shared, &id, f))
}

// --- snapshot persistence --------------------------------------------------

/// Render plan-cache entries as one snapshot document. Every part of an
/// entry is already rendered JSON and is spliced verbatim, the way
/// [`ok_response`] splices `result_json`.
fn snapshot_doc(mut entries: Vec<(Arc<str>, Arc<PlanEntry>)>) -> String {
    // Deterministic entry order so back-to-back flushes of the same
    // state write the same bytes.
    entries.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    let mut doc = format!(
        "{{\"format\": \"{SNAPSHOT_FORMAT}\", \"version\": {SNAPSHOT_VERSION}, \"entries\": ["
    );
    for (i, (k, e)) in entries.iter().enumerate() {
        let sep = if i > 0 { ", " } else { "" };
        let _ = write!(
            doc,
            "{sep}{{\"key\": {k}, \"digest\": \"{}\", \"result\": {}}}",
            e.digest, e.result_json
        );
    }
    doc.push_str("]}");
    doc
}

/// Write the snapshot atomically (tmp + rename) under the `writer` lock,
/// so writes never interleave and each copies a newer state than the
/// last; hits wait only for the copy. `skip_if_clean` skips the write
/// when every stored computation is already on disk. Returns `true`
/// when a file was written. Failures are reported to stderr, never
/// raised — a full disk must not take the serving path down.
fn flush_snapshot(shared: &Shared, _writer: &MutexGuard<'_, ()>, skip_if_clean: bool) -> bool {
    let Some(path) = &shared.cfg.snapshot_path else {
        return false;
    };
    let (entries, dirty) = {
        let plans = lock(&shared.plans);
        if skip_if_clean && plans.dirty == 0 {
            return false;
        }
        let pairs = plans.map.iter().map(|(k, (_, e))| (k.clone(), e.clone()));
        (pairs.collect(), plans.dirty)
    };
    let tmp = path.with_extension("tmp");
    let result =
        std::fs::write(&tmp, snapshot_doc(entries)).and_then(|()| std::fs::rename(&tmp, path));
    match result {
        Ok(()) => {
            // Computations stored during the write stay counted.
            lock(&shared.plans).dirty -= dirty;
            shared
                .stats
                .snapshot_flushes
                .fetch_add(1, Ordering::Relaxed);
            true
        }
        Err(e) => {
            eprintln!(
                "rescomm-serve: snapshot write to {} failed: {e}",
                path.display()
            );
            false
        }
    }
}

/// One read-back snapshot entry awaiting its restore proof.
struct RestoredEntry {
    /// Position in the file's `entries`, for diagnostics.
    index: usize,
    key: String,
    entry: PlanEntry,
    /// The spec read back from the key.
    params: MapParams,
}

/// Load and *verify* a snapshot. A file that is not a well-formed
/// version-[`SNAPSHOT_VERSION`] snapshot restores nothing (cold start).
/// Each entry then stands alone: it is kept only if [`restore_entry`]
/// reads it back and recomputing its key with [`compute_entry`] — the
/// miss path, fanned out over `cfg.workers` by [`pool::sweep`] with one
/// [`AnalysisCache`] per worker, each run under the token of a request
/// without `deadline_ms` — renders the stored `result` byte for byte.
/// Any other entry is dropped and the rest still restore, so corruption
/// degrades to recomputation, never to wrong answers. Returns the kept
/// entries.
fn load_snapshot(path: &Path, cfg: &ServerConfig) -> Result<Vec<(String, PlanEntry)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read: {e}"))?;
    let doc = parse(&text).map_err(|e| format!("parse: {e}"))?;
    if doc.get("format").and_then(JsonValue::as_str) != Some(SNAPSHOT_FORMAT) {
        return Err("not a rescomm snapshot".to_string());
    }
    if doc.get("version").and_then(JsonValue::as_i64) != Some(SNAPSHOT_VERSION) {
        return Err(format!(
            "unsupported snapshot version (want {SNAPSHOT_VERSION})"
        ));
    }
    let entries = doc
        .get("entries")
        .and_then(JsonValue::as_array)
        .ok_or("missing entries")?;
    let drop_entry = |i: usize, why: &str| {
        eprintln!(
            "rescomm-serve: dropping entries[{i}] of snapshot {}: {why}",
            path.display()
        );
    };
    let parsed: Vec<RestoredEntry> = entries
        .iter()
        .enumerate()
        .filter_map(|(i, e)| restore_entry(i, e).map_err(|why| drop_entry(i, &why)).ok())
        .collect();
    // The restore proof: the miss path must answer each key with the
    // stored bytes. Entries are independent, so it rides a parallel sweep.
    let (verdicts, _) = pool::sweep(
        &parsed,
        cfg.workers.max(1),
        AnalysisCache::new,
        |cache, r| {
            let cancel = cancel_token(deadline_after(cfg.default_deadline));
            match guarded("snapshot_verify", || {
                compute_entry(&r.params, &r.key, &cancel, cache)
            }) {
                Ok(Ok(fresh)) if fresh.result_json == r.entry.result_json => Ok(()),
                Ok(Ok(_)) => Err("recomputed result differs from the stored one".to_string()),
                Ok(Err(e)) => Err(format!("recomputation failed: {e}")),
                Err(incident) => {
                    // The cache may be half-updated after a panic.
                    *cache = AnalysisCache::new();
                    Err(format!("recomputation panicked: {}", incident.detail))
                }
            }
        },
    );
    Ok(parsed
        .into_iter()
        .zip(verdicts)
        .filter_map(|(r, verdict)| match verdict {
            Ok(()) => Some((r.key, r.entry)),
            Err(why) => {
                drop_entry(r.index, &why);
                None
            }
        })
        .collect())
}

/// Read back snapshot entry `index` (its recomputation is checked
/// later). The entry's digest must match its bytes, and its key must
/// pass [`parse_map_params`] — the validator every live request passes —
/// and re-render to the same bytes.
fn restore_entry(index: usize, e: &JsonValue) -> Result<RestoredEntry, String> {
    let field = |k: &str| e.get(k).ok_or(format!("missing {k}"));
    let key_v = field("key")?;
    let result = field("result")?;
    let digest = field("digest")?.as_str().ok_or("digest must be a string")?;
    let key = key_v.render();
    let entry = PlanEntry {
        result_json: result.render(),
        digest: digest.to_string(),
        from_snapshot: true,
    };
    if entry_digest(&key, &entry.result_json) != digest {
        return Err("digest does not match the entry".to_string());
    }
    let src = key_v
        .get("nest")
        .and_then(JsonValue::as_str)
        .ok_or("key: missing nest")?;
    let params = parse_map_params(key_v, src).map_err(|e| format!("key: {e}"))?;
    if params.key() != key {
        return Err("key is not a canonical request".to_string());
    }
    Ok(RestoredEntry {
        index,
        key,
        entry,
        params,
    })
}

// --- the server ------------------------------------------------------------

/// A bound (not yet running) server. [`Server::bind`] restores the
/// snapshot, [`Server::run`] serves until a `shutdown` op drains it.
pub struct Server {
    listener: TcpListener,
    addr: SocketAddr,
    shared: Arc<Shared>,
}

/// Handle to a server running on a background thread (in-process tests
/// and the bench harness).
pub struct ServerHandle {
    /// The bound address (real port even when 0 was requested).
    pub addr: SocketAddr,
    thread: std::thread::JoinHandle<std::io::Result<()>>,
    shared: Arc<Shared>,
}

impl ServerHandle {
    /// Ask the server to drain and stop (as the `shutdown` op does),
    /// then wait for it.
    pub fn stop(self) -> std::io::Result<()> {
        begin_shutdown(&self.shared);
        self.thread.join().unwrap_or(Ok(()))
    }
}

/// Close admission and wake every condvar waiter. Each lock is taken
/// after the store, so a waiter that saw the flag unset is waiting.
fn begin_shutdown(shared: &Shared) {
    shared.shutdown.store(true, Ordering::Release);
    drop(lock(&shared.adm));
    shared.adm_cv.notify_all();
    drop(lock(&shared.writer));
    shared.writer_cv.notify_all();
}

impl Server {
    /// Bind the listener and (when configured) restore the snapshot:
    /// each entry that passes its digest and key checks is recomputed
    /// through the miss path, over `workers` threads, and kept only if
    /// the recomputation renders its stored `result` byte for byte. A
    /// file that cannot be read as a current snapshot restores nothing.
    pub fn bind(cfg: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let mut plans = PlanCache::new(cfg.plan_cache_cap);
        if let Some(path) = &cfg.snapshot_path {
            if path.exists() {
                match load_snapshot(path, &cfg) {
                    Ok(p) => {
                        for (key, entry) in p {
                            // A snapshot larger than the cap degrades to
                            // the freshest cap entries.
                            plans.insert(key, entry);
                        }
                    }
                    Err(e) => {
                        // Cold start beats refusing to serve.
                        eprintln!(
                            "rescomm-serve: ignoring unusable snapshot {}: {e}",
                            path.display()
                        );
                    }
                }
            }
        }
        let adm = AdmState {
            idle: (0..cfg.workers).map(|_| AnalysisCache::new()).collect(),
            waiting: 0,
        };
        // What the cache kept: no duplicate key or entry past the cap.
        let restored = plans.len() as u64;
        let shared = Arc::new(Shared {
            cfg,
            plans: Mutex::new(plans),
            adm: Mutex::new(adm),
            adm_cv: Condvar::new(),
            writer: Mutex::new(()),
            writer_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            stats: Stats::default(),
        });
        shared
            .stats
            .restored_entries
            .store(restored, Ordering::Relaxed);
        Ok(Server {
            listener,
            addr,
            shared,
        })
    }

    /// The bound address (the real port when 0 was requested).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Entries restored from the snapshot at bind time.
    pub fn restored_entries(&self) -> u64 {
        self.shared.stats.restored_entries.load(Ordering::Relaxed)
    }

    /// Serve until a `shutdown` op (or [`ServerHandle::stop`]) drains the
    /// server; flushes a final snapshot on the way out. A failed `accept`
    /// drains the same way before its error is returned.
    pub fn run(self) -> std::io::Result<()> {
        let Server {
            listener, shared, ..
        } = self;
        listener.set_nonblocking(true)?;
        std::thread::scope(|scope| {
            if let (Some(_), Some(interval)) =
                (&shared.cfg.snapshot_path, shared.cfg.snapshot_interval)
            {
                let shared = &shared;
                scope.spawn(move || interval_flusher(shared, interval));
            }
            let mut accepted = Ok(());
            while accepted.is_ok() && !shared.shutdown.load(Ordering::Acquire) {
                match listener.accept() {
                    Ok((stream, _)) => {
                        let conn = Arc::clone(&shared);
                        std::thread::spawn(move || serve_connection(&conn, stream));
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(e) => accepted = Err(e),
                }
            }
            begin_shutdown(&shared);
            // Drain: no slot is granted past shutdown, so once `release`
            // has returned every slot the final write holds every entry.
            let busy = |st: &mut AdmState| st.idle.len() < shared.cfg.workers;
            drop(shared.adm_cv.wait_while(lock(&shared.adm), busy));
            flush_snapshot(&shared, &lock(&shared.writer), false);
            accepted
        })
    }

    /// [`Server::run`] on a background thread.
    pub fn spawn(self) -> ServerHandle {
        let addr = self.addr;
        let shared = Arc::clone(&self.shared);
        let thread = std::thread::spawn(move || self.run());
        ServerHandle {
            addr,
            thread,
            shared,
        }
    }
}

/// Flush a dirty cache every `interval` until shutdown wakes it.
/// Waiting releases the writer lock, even when the interval is 0.
fn interval_flusher(shared: &Shared, interval: Duration) {
    let open = |_: &mut ()| !shared.shutdown.load(Ordering::Acquire);
    let mut writer = lock(&shared.writer);
    loop {
        let waited = shared.writer_cv.wait_timeout_while(writer, interval, open);
        match waited.unwrap_or_else(|e| e.into_inner()) {
            (guard, timeout) if timeout.timed_out() => writer = guard,
            _ => return,
        }
        flush_snapshot(shared, &writer, true);
    }
}

/// Send one response line in a single `write_all`: with `TCP_NODELAY` a
/// separate write of the `\n` would go out as its own segment and wake
/// the client's line read twice.
fn write_line(w: &mut impl Write, mut resp: String) -> std::io::Result<()> {
    resp.push('\n');
    w.write_all(resp.as_bytes())
}

/// Serve one connection: bounded line reads, one response per line.
fn serve_connection(shared: &Shared, stream: TcpStream) {
    // Request/response lines are tiny; Nagle + delayed ACK would add
    // ~40ms to every round trip on loopback.
    let _ = stream.set_nodelay(true);
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    let max = shared.cfg.max_line_bytes as u64;
    let mut buf = Vec::new();
    loop {
        buf.clear();
        // `take` bounds a single hostile line; the +1 distinguishes
        // "exactly max" from "over max".
        let n = match (&mut reader).take(max + 1).read_until(b'\n', &mut buf) {
            Ok(0) => return, // client closed
            Ok(n) => n,
            Err(_) => return,
        };
        if n as u64 > max && !buf.ends_with(b"\n") {
            let resp = err_response(
                &JsonValue::Null,
                "protocol",
                1,
                &format!("request line exceeds {max} bytes"),
            );
            let _ = write_line(&mut writer, resp);
            return; // the rest of the line is garbage: drop the conn
        }
        let line = String::from_utf8_lossy(&buf);
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let shutdown_before = shared.shutdown.load(Ordering::Acquire);
        let resp = handle_line(shared, line);
        if write_line(&mut writer, resp).is_err() || writer.flush().is_err() {
            return;
        }
        // A shutdown op was just handled: stop reading so the drain can
        // finish.
        if !shutdown_before && shared.shutdown.load(Ordering::Acquire) {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufRead;

    /// A writer that records each `write` call.
    #[derive(Default)]
    struct Calls(Vec<Vec<u8>>);

    impl Write for Calls {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_response_line_is_one_write() {
        let mut w = Calls::default();
        write_line(&mut w, r#"{"ok":true}"#.to_string()).unwrap();
        write_line(&mut w, String::new()).unwrap();
        assert_eq!(w.0, [b"{\"ok\":true}\n".to_vec(), b"\n".to_vec()]);
    }

    /// The motivating example's `map` answers, pinned byte for byte with
    /// their canonical keys: defaults, then non-default `mesh`, `vshape`
    /// and `bytes`, both cost models and all three modes. Then the
    /// nest whose plan subscripts leave `i64`: its panic answers
    /// `internal`.
    #[test]
    fn map_answers_and_keys_are_pinned() {
        const SRC: &str = include_str!("../../../examples/nests/motivating.nest");
        let counts = "{\"nest\": \"motivating-example\", \"accesses\": 8, \"local\": 5, \
                      \"translation\": 0, \"broadcast\": 2, \"scatter\": 0, \"gather\": 0, \
                      \"reduction\": 0, \"decomposed\": 1, \"factors\": 2, \"general\": 0, \
                      \"incidents\": 0, \"phases\": 5";
        let pinned = [
            (
                "",
                "\"mesh\": [8, 4], \"cost\": \"paragon\", \"vshape\": [8, 4], \"bytes\": 1024, \
                 \"mode\": \"phased\"",
                "\"mode\": \"phased\", \"makespan\": 8244424",
            ),
            (
                ", \"mesh\": [4, 4]",
                "\"mesh\": [4, 4], \"cost\": \"paragon\", \"vshape\": [4, 4], \"bytes\": 1024, \
                 \"mode\": \"phased\"",
                "\"mode\": \"phased\", \"makespan\": 3129192",
            ),
            (
                ", \"mesh\": [4, 4], \"vshape\": [16, 12], \"bytes\": 64",
                "\"mesh\": [4, 4], \"cost\": \"paragon\", \"vshape\": [16, 12], \"bytes\": 64, \
                 \"mode\": \"phased\"",
                "\"mode\": \"phased\", \"makespan\": 2306928",
            ),
            (
                ", \"cost\": \"cm5\"",
                "\"mesh\": [8, 4], \"cost\": \"cm5\", \"vshape\": [8, 4], \"bytes\": 1024, \
                 \"mode\": \"phased\"",
                "\"mode\": \"phased\", \"makespan\": 57573400",
            ),
            (
                ", \"mesh\": [2, 8], \"vshape\": [24, 24], \"bytes\": 4096, \"cost\": \"cm5\", \
                 \"mode\": \"overlapped\"",
                "\"mesh\": [2, 8], \"cost\": \"cm5\", \"vshape\": [24, 24], \"bytes\": 4096, \
                 \"mode\": \"overlapped\"",
                "\"mode\": \"overlapped\", \"makespan\": 286410200",
            ),
            (
                ", \"mode\": \"overlapped\"",
                "\"mesh\": [8, 4], \"cost\": \"paragon\", \"vshape\": [8, 4], \"bytes\": 1024, \
                 \"mode\": \"overlapped\"",
                "\"mode\": \"overlapped\", \"makespan\": 7741472",
            ),
            (
                ", \"mode\": \"overlapped-longest\"",
                "\"mesh\": [8, 4], \"cost\": \"paragon\", \"vshape\": [8, 4], \"bytes\": 1024, \
                 \"mode\": \"overlapped-longest\"",
                "\"mode\": \"overlapped-longest\", \"makespan\": 4510400",
            ),
            (
                ", \"vshape\": [32, 32], \"cost\": \"cm5\", \"mode\": \"overlapped-longest\"",
                "\"mesh\": [8, 4], \"cost\": \"cm5\", \"vshape\": [32, 32], \"bytes\": 1024, \
                 \"mode\": \"overlapped-longest\"",
                "\"mode\": \"overlapped-longest\", \"makespan\": 39959400",
            ),
        ];
        let shared = Server::bind(ServerConfig::default()).unwrap().shared;
        let nest = JsonValue::Str(SRC.to_string()).render();
        for (id, (spec, key, tail)) in pinned.iter().enumerate() {
            let req = format!("{{\"id\": {id}, \"op\": \"map\", \"nest\": {nest}{spec}}}");
            let want = format!(
                "{{\"id\": {id}, \"ok\": true, \"served\": \"fresh\", \"result\": {counts}, {tail}}}}}"
            );
            assert_eq!(handle_line(&shared, &req), want, "{spec}");
            let p = parse_map_params(&parse(&req).unwrap(), SRC).unwrap();
            assert_eq!(p.key(), format!("{{\"nest\": {nest}, {key}}}"), "{spec}");
        }
        // Nests a plan cannot price answer `analysis`, as the CLI's exit 4.
        let overflow = SRC.replace(
            "stmt S1 depth 2 domain 0..7 0..7",
            "stmt S1 depth 2 domain 0..1 9223372036854775805..9223372036854775806",
        );
        assert_ne!(overflow, SRC);
        for src in [overflow.as_str(), crate::plan::tests::WRAP_NEST] {
            let nest = JsonValue::Str(src.to_string()).render();
            let resp = handle_line(&shared, &format!("{{\"op\": \"map\", \"nest\": {nest}}}"));
            let err = parse(&resp)
                .unwrap()
                .get("error")
                .cloned()
                .expect("an error");
            assert_eq!(
                err.get("code").and_then(JsonValue::as_str),
                Some("analysis")
            );
            assert_eq!(err.get("exit_code").and_then(JsonValue::as_i64), Some(4));
        }
        assert_eq!(shared.stats.panics_absorbed.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn served_makespan_never_decreases_with_the_element_size() {
        const SRC: &str = include_str!("../../../examples/nests/motivating.nest");
        let shared = Server::bind(ServerConfig::default()).unwrap().shared;
        let nest = JsonValue::Str(SRC.to_string()).render();
        let mut last = 0;
        for bytes in [1024, 1 << 40, 1 << 58, 1 << 61, 1 << 62, i64::MAX as u64] {
            let req = format!("{{\"op\": \"map\", \"nest\": {nest}, \"bytes\": {bytes}}}");
            let resp = parse(&handle_line(&shared, &req)).unwrap();
            let makespan = resp.get("result").and_then(|r| r.get("makespan")).unwrap();
            // Past `i64::MAX` the answer carries the exact value as a string.
            let t = makespan
                .as_u64()
                .or_else(|| makespan.as_str()?.parse().ok())
                .unwrap_or_else(|| panic!("{bytes}: {makespan:?}"));
            assert!(t >= last, "bytes {bytes}: makespan {t} < {last}");
            last = t;
        }
        assert_eq!(last, u64::MAX, "the clock saturates");
    }

    fn client(addr: SocketAddr) -> (BufReader<TcpStream>, TcpStream) {
        let stream = TcpStream::connect(addr).unwrap();
        let reader = BufReader::new(stream.try_clone().unwrap());
        (reader, stream)
    }

    fn roundtrip(reader: &mut BufReader<TcpStream>, w: &mut TcpStream, req: &str) -> JsonValue {
        writeln!(w, "{req}").unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        parse(line.trim()).expect("response must be valid JSON")
    }

    const NEST: &str = "nest demo\narray a 2\nstmt S depth 2 domain 0..3 0..3\n  \
                        write a [1 0; 0 1] + [0 0]\n  read a [0 1; 1 0] + [1 0]\n";

    fn map_req(id: u64) -> String {
        let nest = JsonValue::Str(NEST.to_string()).render();
        format!("{{\"id\": {id}, \"op\": \"map\", \"nest\": {nest}, \"mesh\": [4, 4]}}")
    }

    #[test]
    fn serves_map_ping_stats_and_shuts_down() {
        let handle = Server::bind(ServerConfig::default()).unwrap().spawn();
        let (mut r, mut w) = client(handle.addr);
        let pong = roundtrip(&mut r, &mut w, "{\"id\": 1, \"op\": \"ping\"}");
        assert_eq!(pong.get("ok"), Some(&JsonValue::Bool(true)));

        let first = roundtrip(&mut r, &mut w, &map_req(2));
        assert_eq!(first.get("ok"), Some(&JsonValue::Bool(true)), "{first:?}");
        assert_eq!(
            first.get("served").and_then(JsonValue::as_str),
            Some("fresh")
        );
        let result = first.get("result").unwrap();
        assert!(result.get("makespan").is_some());
        assert_eq!(result.get("accesses").and_then(JsonValue::as_u64), Some(2));

        // Second identical request: served from cache, byte-identical
        // result.
        let second = roundtrip(&mut r, &mut w, &map_req(3));
        assert_eq!(
            second.get("served").and_then(JsonValue::as_str),
            Some("cache")
        );
        assert_eq!(second.get("result").unwrap().render(), result.render());

        let stats = roundtrip(&mut r, &mut w, "{\"id\": 4, \"op\": \"stats\"}");
        let sr = stats.get("result").unwrap();
        assert_eq!(sr.get("computed").and_then(JsonValue::as_u64), Some(1));
        assert_eq!(sr.get("cache_hits").and_then(JsonValue::as_u64), Some(1));

        let bye = roundtrip(&mut r, &mut w, "{\"id\": 5, \"op\": \"shutdown\"}");
        assert_eq!(bye.get("ok"), Some(&JsonValue::Bool(true)));
        handle.stop().unwrap();
    }

    #[test]
    fn malformed_requests_get_structured_errors_not_crashes() {
        let handle = Server::bind(ServerConfig::default()).unwrap().spawn();
        let (mut r, mut w) = client(handle.addr);
        for hostile in [
            "not json at all",
            "{\"op\": \"map\"}",              // missing nest
            "{\"op\": \"warp\"}",             // unknown op
            "{\"a\": 1, \"a\": 2}",           // duplicate keys
            "{\"op\": \"map\", \"nest\": 7}", // wrong type
            "{\"op\": \"map\", \"nest\": \"nest x\\nbogus line\"}", // bad nest source
            "{\"op\": \"map\", \"nest\": \"\", \"mesh\": [0, 4]}", // zero mesh
            "[1, 2, 3]",                      // not an object
        ] {
            let resp = roundtrip(&mut r, &mut w, hostile);
            assert_eq!(
                resp.get("ok"),
                Some(&JsonValue::Bool(false)),
                "hostile input {hostile:?} must be rejected: {resp:?}"
            );
            assert!(resp.get("error").and_then(|e| e.get("code")).is_some());
        }
        // The server is still alive and serving.
        let pong = roundtrip(&mut r, &mut w, "{\"id\": 9, \"op\": \"ping\"}");
        assert_eq!(pong.get("ok"), Some(&JsonValue::Bool(true)));
        handle.stop().unwrap();
    }

    #[test]
    fn zero_deadline_is_cancelled_and_reported() {
        let handle = Server::bind(ServerConfig::default()).unwrap().spawn();
        let (mut r, mut w) = client(handle.addr);
        let nest = JsonValue::Str(NEST.to_string()).render();
        // A batch honours the request deadline exactly as a map does.
        for req in [
            format!("{{\"id\": 1, \"op\": \"map\", \"nest\": {nest}, \"deadline_ms\": 0}}"),
            format!(
                "{{\"id\": 1, \"op\": \"map_batch\", \"nests\": [{nest}], \"deadline_ms\": 0}}"
            ),
        ] {
            let resp = roundtrip(&mut r, &mut w, &req);
            assert_eq!(resp.get("ok"), Some(&JsonValue::Bool(false)), "{resp:?}");
            let err = resp.get("error").unwrap();
            assert_eq!(
                err.get("code").and_then(JsonValue::as_str),
                Some("deadline")
            );
            assert_eq!(err.get("exit_code").and_then(JsonValue::as_i64), Some(6));
        }
        // And the server still answers.
        let pong = roundtrip(&mut r, &mut w, "{\"id\": 2, \"op\": \"ping\"}");
        assert_eq!(pong.get("ok"), Some(&JsonValue::Bool(true)));
        handle.stop().unwrap();
    }

    #[test]
    fn oversized_mesh_is_a_protocol_error_not_an_abort() {
        let handle = Server::bind(ServerConfig::default()).unwrap().spawn();
        let (mut r, mut w) = client(handle.addr);
        let nest = JsonValue::Str(NEST.to_string()).render();
        let req = format!("{{\"op\": \"map\", \"nest\": {nest}, \"mesh\": [1048576, 1048576]}}");
        let resp = roundtrip(&mut r, &mut w, &req);
        let err = resp.get("error").expect("structured error");
        assert_eq!(
            err.get("code").and_then(JsonValue::as_str),
            Some("protocol")
        );
        assert!(err
            .get("detail")
            .and_then(JsonValue::as_str)
            .is_some_and(|d| d.contains("exceeds")));
        let pong = roundtrip(&mut r, &mut w, "{\"id\": 2, \"op\": \"ping\"}");
        assert_eq!(pong.get("ok"), Some(&JsonValue::Bool(true)));
        handle.stop().unwrap();
    }

    #[test]
    fn snapshot_round_trip_serves_identical_bytes() {
        let dir = std::env::temp_dir().join(format!("rescomm-serve-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.json");
        let _ = std::fs::remove_file(&path);

        let cfg = ServerConfig {
            snapshot_path: Some(path.clone()),
            snapshot_every: 1, // flush after every computation
            ..ServerConfig::default()
        };
        let handle = Server::bind(cfg.clone()).unwrap().spawn();
        let (mut r, mut w) = client(handle.addr);
        let fresh = roundtrip(&mut r, &mut w, &map_req(1));
        assert_eq!(
            fresh.get("served").and_then(JsonValue::as_str),
            Some("fresh")
        );
        let fresh_bytes = fresh.get("result").unwrap().render();
        // Hard stop — no drain, no shutdown op. The per-compute flush
        // already persisted the entry.
        drop((r, w));
        handle.stop().unwrap();
        assert!(path.exists(), "snapshot must exist after the first compute");

        let server = Server::bind(cfg).unwrap();
        assert_eq!(server.restored_entries(), 1);
        let handle = server.spawn();
        let (mut r, mut w) = client(handle.addr);
        let replay = roundtrip(&mut r, &mut w, &map_req(2));
        assert_eq!(
            replay.get("served").and_then(JsonValue::as_str),
            Some("snapshot"),
            "{replay:?}"
        );
        assert_eq!(replay.get("result").unwrap().render(), fresh_bytes);
        handle.stop().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn forged_entry_with_oversized_key_mesh_is_dropped_alone() {
        let dir = std::env::temp_dir().join(format!("rescomm-serve-forge-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.json");
        let _ = std::fs::remove_file(&path);
        let cfg = ServerConfig {
            snapshot_path: Some(path.clone()),
            snapshot_every: 1,
            ..ServerConfig::default()
        };
        let handle = Server::bind(cfg.clone()).unwrap().spawn();
        let (mut r, mut w) = client(handle.addr);
        let fresh = roundtrip(&mut r, &mut w, &map_req(1));
        drop((r, w));
        handle.stop().unwrap();

        // Re-write the real entry beside a forged one: same result, a
        // digest that matches, but a key naming a 2^40-node mesh.
        let doc = parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let real = &doc.get("entries").and_then(JsonValue::as_array).unwrap()[0];
        let part = |k: &str| real.get(k).unwrap().render();
        let key = part("key");
        let forged_key = key.replace("\"mesh\": [4, 4]", "\"mesh\": [1048576, 1048576]");
        assert_ne!(forged_key, key);
        let mut plans = Vec::new();
        for k in [key, forged_key] {
            let result_json = part("result");
            let entry = PlanEntry {
                digest: entry_digest(&k, &result_json),
                result_json,
                from_snapshot: false,
            };
            plans.push((k.into(), Arc::new(entry)));
        }
        let forged_doc = snapshot_doc(plans);
        assert!(
            forged_doc.find("1048576") < forged_doc.find("\"mesh\": [4, 4]"),
            "the forged entry comes first"
        );
        std::fs::write(&path, forged_doc).unwrap();

        let server = Server::bind(cfg).unwrap();
        assert_eq!(server.restored_entries(), 1);
        let handle = server.spawn();
        let (mut r, mut w) = client(handle.addr);
        let replay = roundtrip(&mut r, &mut w, &map_req(2));
        assert_eq!(
            replay.get("served").and_then(JsonValue::as_str),
            Some("snapshot")
        );
        assert_eq!(replay.get("result"), fresh.get("result"));
        handle.stop().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn forged_count_with_a_matching_digest_is_recomputed() {
        let dir = scratch_dir("count");
        let path = dir.join("snap.json");
        let _ = std::fs::remove_file(&path);
        let cfg = ServerConfig {
            snapshot_path: Some(path.clone()),
            snapshot_every: 1,
            ..ServerConfig::default()
        };
        let handle = Server::bind(cfg.clone()).unwrap().spawn();
        let (mut r, mut w) = client(handle.addr);
        let fresh = roundtrip(&mut r, &mut w, &map_req(1));
        drop((r, w));
        handle.stop().unwrap();

        // Edit one count of the real entry and give it a digest that
        // matches: only recomputing the key can tell.
        let doc = parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let real = &doc.get("entries").and_then(JsonValue::as_array).unwrap()[0];
        let key = real.get("key").unwrap().render();
        let result = real.get("result").unwrap().render();
        let local = fresh.get("result").and_then(|r| r.get("local")?.as_u64());
        let local = local.expect("a local count");
        let forged = result.replacen(
            &format!("\"local\": {local}"),
            &format!("\"local\": {}", local + 5),
            1,
        );
        assert_ne!(forged, result);
        let entry = PlanEntry {
            digest: entry_digest(&key, &forged),
            result_json: forged,
            from_snapshot: false,
        };
        std::fs::write(&path, snapshot_doc(vec![(key.into(), Arc::new(entry))])).unwrap();

        let server = Server::bind(cfg).unwrap();
        assert_eq!(server.restored_entries(), 0);
        let handle = server.spawn();
        let (mut r, mut w) = client(handle.addr);
        let replay = roundtrip(&mut r, &mut w, &map_req(2));
        assert_eq!(
            replay.get("served").and_then(JsonValue::as_str),
            Some("fresh")
        );
        assert_eq!(replay.get("result"), fresh.get("result"));
        handle.stop().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn slot_caches_stay_bounded_under_distinct_matrix_misses() {
        let cfg = ServerConfig {
            workers: 1,
            plan_cache_cap: 8,
            ..ServerConfig::default()
        };
        let shared = Server::bind(cfg).unwrap().shared;
        let stat = |k: &str| {
            let resp = parse(&handle_line(&shared, "{\"op\": \"stats\"}")).unwrap();
            resp.get("result").and_then(|r| r.get(k)?.as_u64()).unwrap()
        };
        let bound = (shared.cfg.workers * SLOT_CACHE_MAX) as u64;
        let mut peak = 0;
        // Each miss reads `b` through a matrix no earlier miss used.
        for i in 0..SLOT_CACHE_MAX + 64 {
            let nest = format!(
                "nest d\narray b 2\narray c 2\nstmt S depth 2 domain 0..3 0..3\n  \
                 write c [1 0; 0 1] + [0 0]\n  read b [1 {}; {} 1] + [0 0]\n",
                i % 61 + 2,
                i / 61 + 2
            );
            let nest = JsonValue::Str(nest).render();
            let req = format!("{{\"op\": \"map\", \"nest\": {nest}, \"mesh\": [4, 4]}}");
            let resp = parse(&handle_line(&shared, &req)).unwrap();
            assert_eq!(resp.get("ok"), Some(&JsonValue::Bool(true)), "{resp:?}");
            peak = peak.max(stat("analysis_entries"));
        }
        assert_eq!(stat("computed"), (SLOT_CACHE_MAX + 64) as u64);
        assert!(peak <= bound, "analysis_entries peaked at {peak} > {bound}");
        assert!(peak > 0);
    }

    #[test]
    fn map_batch_maps_all_and_warms_the_plan_cache() {
        let handle = Server::bind(ServerConfig::default()).unwrap().spawn();
        let (mut r, mut w) = client(handle.addr);
        let nest = JsonValue::Str(NEST.to_string()).render();
        let req = format!(
            "{{\"id\": 1, \"op\": \"map_batch\", \"nests\": [{nest}, {nest}], \"mesh\": [4, 4]}}"
        );
        let resp = roundtrip(&mut r, &mut w, &req);
        assert_eq!(resp.get("ok"), Some(&JsonValue::Bool(true)), "{resp:?}");
        let results = resp
            .get("result")
            .and_then(|r| r.get("results"))
            .and_then(JsonValue::as_array)
            .unwrap();
        assert_eq!(results.len(), 2);
        // The batch warmed the plan cache for the single-map path.
        let single = roundtrip(&mut r, &mut w, &map_req(2));
        assert_eq!(
            single.get("served").and_then(JsonValue::as_str),
            Some("cache")
        );
        assert_eq!(single.get("result").unwrap().render(), results[0].render());
        handle.stop().unwrap();
    }

    #[test]
    fn map_batch_serves_cached_entries_from_the_plan_cache() {
        let handle = Server::bind(ServerConfig::default()).unwrap().spawn();
        let (mut r, mut w) = client(handle.addr);
        let single = roundtrip(&mut r, &mut w, &map_req(1));
        let stat = |r: &mut BufReader<TcpStream>, w: &mut TcpStream, k: &str| {
            let stats = roundtrip(r, w, "{\"op\": \"stats\"}");
            stats
                .get("result")
                .and_then(|s| s.get(k))
                .and_then(JsonValue::as_u64)
        };
        let (hits, computed) = (
            stat(&mut r, &mut w, "cache_hits"),
            stat(&mut r, &mut w, "computed"),
        );
        let nest = JsonValue::Str(NEST.to_string()).render();
        let req = format!("{{\"op\": \"map_batch\", \"nests\": [{nest}], \"mesh\": [4, 4]}}");
        let batch = roundtrip(&mut r, &mut w, &req);
        let results = batch
            .get("result")
            .and_then(|r| r.get("results"))
            .and_then(JsonValue::as_array)
            .unwrap();
        assert_eq!(results[0].render(), single.get("result").unwrap().render());
        assert_eq!(stat(&mut r, &mut w, "cache_hits"), hits.map(|h| h + 1));
        assert_eq!(stat(&mut r, &mut w, "computed"), computed);
        handle.stop().unwrap();
    }

    #[test]
    fn overload_rejections_are_structured() {
        // workers=0 would deadlock admission; use a 1-worker server and
        // verify the queue-full rejection arithmetic directly instead.
        let cfg = ServerConfig {
            workers: 1,
            max_queue: 0,
            ..ServerConfig::default()
        };
        let server = Server::bind(cfg).unwrap();
        let shared = Arc::clone(&server.shared);
        let handle = server.spawn();
        // Occupy the only worker slot from the outside.
        let slot = lock(&shared.adm).idle.pop().unwrap();
        let (mut r, mut w) = client(handle.addr);
        let resp = roundtrip(&mut r, &mut w, &map_req(1));
        assert_eq!(resp.get("ok"), Some(&JsonValue::Bool(false)));
        let err = resp.get("error").unwrap();
        assert_eq!(
            err.get("code").and_then(JsonValue::as_str),
            Some("overload")
        );
        assert!(err.get("retry_after_ms").is_some());
        release(&shared, slot);
        // With the slot free the same request computes fine.
        let resp = roundtrip(&mut r, &mut w, &map_req(2));
        assert_eq!(resp.get("ok"), Some(&JsonValue::Bool(true)), "{resp:?}");
        handle.stop().unwrap();
    }

    #[test]
    fn plan_cache_evicts_lru_and_counts() {
        let cfg = ServerConfig {
            plan_cache_cap: 2,
            ..ServerConfig::default()
        };
        let handle = Server::bind(cfg).unwrap().spawn();
        let (mut r, mut w) = client(handle.addr);
        // `bytes` participates in the cache key, so each value is a
        // distinct plan-cache entry.
        let req = |id: u64, bytes: u64| {
            let nest = JsonValue::Str(NEST.to_string()).render();
            format!(
                "{{\"id\": {id}, \"op\": \"map\", \"nest\": {nest}, \
                 \"mesh\": [4, 4], \"bytes\": {bytes}}}"
            )
        };
        let served = |resp: &JsonValue| {
            resp.get("served")
                .and_then(JsonValue::as_str)
                .unwrap()
                .to_string()
        };
        assert_eq!(served(&roundtrip(&mut r, &mut w, &req(1, 64))), "fresh");
        assert_eq!(served(&roundtrip(&mut r, &mut w, &req(2, 128))), "fresh");
        // Touch 64 so 128 becomes the LRU entry...
        assert_eq!(served(&roundtrip(&mut r, &mut w, &req(3, 64))), "cache");
        // ...and the third insert evicts 128, not 64 (FIFO would evict
        // 64, the oldest insert).
        assert_eq!(served(&roundtrip(&mut r, &mut w, &req(4, 256))), "fresh");
        assert_eq!(served(&roundtrip(&mut r, &mut w, &req(5, 64))), "cache");
        assert_eq!(served(&roundtrip(&mut r, &mut w, &req(6, 128))), "fresh");

        let stats = roundtrip(&mut r, &mut w, "{\"id\": 7, \"op\": \"stats\"}");
        let sr = stats.get("result").unwrap();
        let field = |k: &str| sr.get(k).and_then(JsonValue::as_u64).unwrap();
        assert_eq!(field("cache_hits"), 2);
        assert_eq!(field("cache_misses"), 4);
        // Insert of 256 evicted 128; re-insert of 128 evicted 256 (64
        // stayed resident — its recency was refreshed by the hits).
        assert_eq!(field("cache_evictions"), 2);
        assert_eq!(field("plan_entries"), 2);
        assert_eq!(field("plan_cache_cap"), 2);
        handle.stop().unwrap();
    }

    #[test]
    fn oversized_lines_are_rejected_gracefully() {
        let cfg = ServerConfig {
            max_line_bytes: 256,
            ..ServerConfig::default()
        };
        let handle = Server::bind(cfg).unwrap().spawn();
        let (mut r, mut w) = client(handle.addr);
        let huge = format!("{{\"op\": \"map\", \"nest\": \"{}\"}}", "x".repeat(1024));
        writeln!(w, "{huge}").unwrap();
        let mut line = String::new();
        r.read_line(&mut line).unwrap();
        let resp = parse(line.trim()).unwrap();
        assert_eq!(resp.get("ok"), Some(&JsonValue::Bool(false)));
        assert!(resp
            .get("error")
            .and_then(|e| e.get("detail"))
            .and_then(JsonValue::as_str)
            .is_some_and(|d| d.contains("exceeds")));
        handle.stop().unwrap();
    }

    /// A `map` of [`NEST`] on a 4×4 mesh; `bytes` is part of the key, so
    /// each value is a distinct plan-cache entry.
    fn bytes_req(bytes: u64) -> String {
        let nest = JsonValue::Str(NEST.to_string()).render();
        format!("{{\"op\": \"map\", \"nest\": {nest}, \"mesh\": [4, 4], \"bytes\": {bytes}}}")
    }

    fn key_of(req: &str) -> String {
        parse_map_params(&parse(req).unwrap(), NEST).unwrap().key()
    }

    fn scratch_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rescomm-serve-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn concurrent_flushes_never_tear_or_lose_an_answered_entry() {
        let dir = scratch_dir("flush");
        let path = dir.join("plans.json");
        let _ = std::fs::remove_file(&path);
        let cfg = ServerConfig {
            workers: 4,
            snapshot_path: Some(path.clone()),
            snapshot_every: 1,
            snapshot_interval: None,
            ..ServerConfig::default()
        };
        let handle = Server::bind(cfg).unwrap().spawn();
        let (clients, misses) = (4, 40);
        let start = std::sync::Barrier::new(clients as usize);
        std::thread::scope(|s| {
            for c in 0..clients {
                let (addr, path, start) = (handle.addr, &path, &start);
                s.spawn(move || {
                    let (mut r, mut w) = client(addr);
                    start.wait();
                    for i in 0..misses {
                        let req = bytes_req(64 + c * misses + i);
                        let resp = roundtrip(&mut r, &mut w, &req);
                        let served = resp.get("served").and_then(JsonValue::as_str);
                        assert_eq!(served, Some("fresh"), "{resp:?}");
                        // The answer is out: the live file must be whole
                        // and already hold its entry.
                        let text = std::fs::read_to_string(path).unwrap();
                        let doc = parse(&text).unwrap_or_else(|e| panic!("torn snapshot: {e}"));
                        let entries = doc.get("entries").and_then(JsonValue::as_array).unwrap();
                        let key = key_of(&req);
                        assert!(
                            entries
                                .iter()
                                .any(|e| e.get("key").unwrap().render() == key),
                            "answered entry {} missing from the snapshot",
                            64 + c * misses + i
                        );
                    }
                });
            }
        });
        handle.stop().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn restored_entries_counts_what_the_capped_cache_keeps() {
        let dir = scratch_dir("cap");
        let path = dir.join("plans.json");
        let _ = std::fs::remove_file(&path);
        let cfg = ServerConfig {
            snapshot_path: Some(path),
            snapshot_every: 1,
            ..ServerConfig::default()
        };
        let handle = Server::bind(cfg.clone()).unwrap().spawn();
        let (mut r, mut w) = client(handle.addr);
        for bytes in [64, 128, 256] {
            roundtrip(&mut r, &mut w, &bytes_req(bytes));
        }
        drop((r, w));
        handle.stop().unwrap();

        let server = Server::bind(ServerConfig {
            plan_cache_cap: 2,
            ..cfg
        })
        .unwrap();
        assert_eq!(server.restored_entries(), 2);
        let handle = server.spawn();
        let (mut r, mut w) = client(handle.addr);
        let stats = roundtrip(&mut r, &mut w, "{\"op\": \"stats\"}");
        let field = |k: &str| stats.get("result").and_then(|s| s.get(k)?.as_u64());
        assert_eq!(field("restored_entries"), Some(2));
        assert_eq!(field("plan_entries"), Some(2));
        handle.stop().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn queued_admissions_wake_on_release_deadline_and_shutdown() {
        let cfg = ServerConfig {
            workers: 1,
            max_queue: 4,
            ..ServerConfig::default()
        };
        let shared = Server::bind(cfg).unwrap().shared;
        let queued = || {
            while lock(&shared.adm).waiting == 0 {
                std::thread::yield_now();
            }
        };
        let code = |r: Result<AnalysisCache, Failure>| r.err().map(|f| f.code);
        let slot = admit(&shared, None).ok().expect("an idle slot");
        let soon = Instant::now() + Duration::from_millis(20);
        assert_eq!(code(admit(&shared, Some(soon))), Some("deadline"));
        std::thread::scope(|s| {
            let waiter = s.spawn(|| admit(&shared, None).ok());
            queued();
            release(&shared, slot);
            let slot = waiter.join().unwrap().expect("release wakes the queue");
            let waiter = s.spawn(|| code(admit(&shared, None)));
            queued();
            begin_shutdown(&shared);
            assert_eq!(waiter.join().unwrap(), Some("overload"));
            release(&shared, slot);
        });
    }

    #[test]
    fn stop_wakes_the_interval_flusher_and_the_drain_writes_last() {
        let dir = scratch_dir("drain");
        let path = dir.join("plans.json");
        let _ = std::fs::remove_file(&path);
        let cfg = ServerConfig {
            snapshot_path: Some(path.clone()),
            snapshot_every: 0,
            snapshot_interval: Some(Duration::from_secs(3600)),
            ..ServerConfig::default()
        };
        let handle = Server::bind(cfg).unwrap().spawn();
        let (mut r, mut w) = client(handle.addr);
        let fresh = roundtrip(&mut r, &mut w, &map_req(1));
        assert!(!path.exists(), "no write is due before the drain");
        drop((r, w));
        // Returns only because shutdown wakes the flusher's hour-long wait.
        handle.stop().unwrap();
        let doc = parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let entries = doc.get("entries").and_then(JsonValue::as_array).unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].get("result"), fresh.get("result"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Six real entries, each with its key, computed once.
    fn fresh_entries() -> &'static [(String, PlanEntry)] {
        static FRESH: std::sync::OnceLock<Vec<(String, PlanEntry)>> = std::sync::OnceLock::new();
        FRESH.get_or_init(|| {
            (0..6)
                .map(|i| {
                    let key = key_of(&bytes_req(64 << i));
                    let p = parse_map_params(&parse(&key).unwrap(), NEST).unwrap();
                    let cancel = CancelToken::none();
                    let entry = compute_entry(&p, &key, &cancel, &mut AnalysisCache::new());
                    (key, entry.unwrap())
                })
                .collect()
        })
    }

    use proptest::prelude::*;

    /// A JSON literal as written, with the value [`parse`] must read from
    /// it, or `None` where RFC 8259 or the parser's checks refuse it.
    type Literal = (String, Option<JsonValue>);

    /// The value of a number literal that follows RFC 8259's grammar:
    /// `Int` for an integer literal in `i64` range (decided in `i128`),
    /// else the finite `Float`, else nothing.
    fn number_value(text: &str) -> Option<JsonValue> {
        if !text.contains(['.', 'e', 'E']) {
            let wide: i128 = text.parse().expect("at most 25 digits");
            if let Ok(i) = i64::try_from(wide) {
                return Some(JsonValue::Int(i));
            }
        }
        let x: f64 = text.parse().expect("a grammatical number");
        x.is_finite().then_some(JsonValue::Float(x))
    }

    /// Integers of 19–25 digits (`i64` has 19), numbers with exponents up
    /// to 999, and forms the grammar forbids.
    fn hostile_number() -> impl Strategy<Value = Literal> {
        let valid = |t: String| {
            let v = number_value(&t);
            (t, v)
        };
        prop_oneof![
            "-?[1-9][0-9]{18,24}".prop_map(valid),
            "-?(0|[1-9][0-9]{0,2})(\\.[0-9]{1,3})?[eE][+-]?[0-9]{1,3}".prop_map(valid),
            prop_oneof![
                Just("007"),
                Just("00"),
                Just("01.5"),
                Just("1."),
                Just("-.5"),
                Just("1e+"),
                Just("+1"),
            ]
            .prop_map(|t| (t.to_string(), None)),
        ]
    }

    /// A string of plain, escaped and surrogate pieces: valid pairs, lone
    /// high and low halves, a reversed pair, a high half before a non-low
    /// escape, or a high half just before the closing quote. No two pieces
    /// can join into a valid pair.
    fn hostile_string() -> impl Strategy<Value = Literal> {
        let piece = prop_oneof![
            "[a-z ]{0,3}".prop_map(|s| (s.clone(), Some(s))),
            Just(("\\u00e9".to_string(), Some("é".to_string()))),
            Just(("\\ud83d\\ude00".to_string(), Some("😀".to_string()))),
            Just(("\\ud800x".to_string(), None)),
            Just(("\\udc00".to_string(), None)),
            Just(("\\udc00\\ud800".to_string(), None)),
            Just(("\\uDBFF\\u0041".to_string(), None)),
        ];
        (proptest::collection::vec(piece, 1..4), any::<bool>()).prop_map(|(pieces, high_last)| {
            let mut text = String::from('"');
            let mut value = Some(String::new());
            for (t, v) in pieces {
                text.push_str(&t);
                value = value.zip(v).map(|(s, v)| s + &v);
            }
            if high_last {
                text.push_str("\\ud800");
                value = None;
            }
            text.push('"');
            (text, value.map(JsonValue::Str))
        })
    }

    /// One hostile JSON line: a few literals in an array, nested in arrays
    /// and object fields to around [`rescomm_json::MAX_DEPTH`], with the
    /// value `parse` must read from it (`None` past the depth cap or with
    /// any literal refused), and a byte to cut it at, if any.
    fn hostile_line() -> impl Strategy<Value = (String, Option<JsonValue>, Option<usize>)> {
        use rescomm_json::MAX_DEPTH;
        let nesting = prop_oneof![0usize..4, MAX_DEPTH - 2..MAX_DEPTH + 3]
            .prop_flat_map(|depth| proptest::collection::vec(any::<bool>(), depth));
        let literal = prop_oneof![
            hostile_number(),
            hostile_string(),
            Just(("null".to_string(), Some(JsonValue::Null))),
            Just(("tru".to_string(), None)),
        ];
        let literals = proptest::collection::vec(literal, 0..4);
        let cut = prop_oneof![Just(None), any::<u64>().prop_map(Some)];
        (nesting, literals, cut).prop_map(|(arrays, literals, cut)| {
            // The literals sit inside the innermost array, one level deeper.
            let depth = arrays.len() + usize::from(!literals.is_empty());
            let (texts, values): (Vec<String>, Vec<Option<JsonValue>>) =
                literals.into_iter().unzip();
            let mut value = values
                .into_iter()
                .collect::<Option<Vec<_>>>()
                .filter(|_| depth <= MAX_DEPTH)
                .map(JsonValue::Array);
            let mut text = format!("[{}]", texts.join(", "));
            for &array in arrays.iter().rev() {
                if array {
                    text = format!("[{text}]");
                    value = value.map(|v| JsonValue::Array(vec![v]));
                } else {
                    text = format!("{{\"k\": {text}}}");
                    value = value.map(|v| JsonValue::object([("k", v)]));
                }
            }
            let cut = cut.map(|at| (at % (text.len() as u64 + 1)) as usize);
            (text, value, cut)
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Hostile JSON lines: nesting around the depth cap, integers of
        /// 19–25 digits, exponents, forbidden number forms, lone and
        /// reversed surrogate escapes, each line possibly cut at any byte
        /// (read lossily, as the server reads a line). `parse` never
        /// panics, reads a whole line exactly as RFC 8259 does (`Int` only
        /// for an integer literal in `i64` range, an error past the cap),
        /// and every value it reads re-renders and re-parses to itself.
        /// The server answers each line, bare or as a request's `id`, with
        /// exactly one structured response line and absorbs no panic.
        #[test]
        fn hostile_json_lines_parse_strictly_and_answer_once(
            case in hostile_line(),
            op in prop_oneof![Just("ping"), Just("stats"), Just("map"), Just("bogus")],
        ) {
            let (line, want, cut) = case;
            prop_assert_eq!(parse(&line).ok(), want, "{}", line);
            let cut = cut.map(|at| String::from_utf8_lossy(&line.as_bytes()[..at]).into_owned());
            let request = format!("{{\"op\": \"{op}\", \"id\": {line}, \"nest\": {line}}}");
            let shared = Server::bind(ServerConfig::default()).unwrap().shared;
            for text in [Some(&line), cut.as_ref(), Some(&request)].into_iter().flatten() {
                let parsed = parse(text);
                if let Ok(v) = &parsed {
                    prop_assert_eq!(&parse(&v.render()), &parsed, "{}", text);
                }
                let resp = handle_line(&shared, text);
                prop_assert!(!resp.contains('\n'), "{}: {}", text, resp);
                let resp = parse(&resp).map_err(|e| format!("{text}: {resp}: {e}"))?;
                let id = parsed.ok().and_then(|v| v.get("id").cloned());
                prop_assert_eq!(resp.get("id"), Some(id.as_ref().unwrap_or(&JsonValue::Null)));
                match resp.get("ok") {
                    Some(JsonValue::Bool(true)) => prop_assert!(resp.get("result").is_some()),
                    Some(JsonValue::Bool(false)) => {
                        let code = resp.get("error").and_then(|e| e.get("code"));
                        prop_assert!(code.and_then(JsonValue::as_str).is_some(), "{:?}", resp);
                    }
                    other => prop_assert!(false, "{text}: no ok flag: {other:?}"),
                }
            }
            prop_assert_eq!(shared.stats.panics_absorbed.load(Ordering::Relaxed), 0);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Hostile snapshot files: a real snapshot of 3–6 entries with its
        /// entries reordered and duplicated, then optionally one bit
        /// flipped or the file cut at any byte. Restore never panics and
        /// keeps only entries whose bytes are the fresh ones; reordering
        /// and duplicating alone keep every key.
        #[test]
        fn hostile_snapshot_files_restore_only_fresh_bytes(
            n in 3usize..7,
            order in proptest::collection::vec(any::<u64>(), 6),
            dups in proptest::collection::vec((0usize..6, 0usize..9), 0..3),
            damage in 0u8..3,
            at in any::<u64>(),
            bit in 0u32..8,
        ) {
            let fresh = &fresh_entries()[..n];
            let shared = fresh.iter().map(|(k, e)| (k.as_str().into(), Arc::new(e.clone())));
            let doc = parse(&snapshot_doc(shared.collect())).unwrap();
            let entries = doc.get("entries").and_then(JsonValue::as_array).unwrap();
            let mut idx: Vec<usize> = (0..n).collect();
            idx.sort_by_key(|&i| order[i]);
            let mut list: Vec<JsonValue> = idx.iter().map(|&i| entries[i].clone()).collect();
            for (src, pos) in dups {
                let e = list[src % n].clone();
                list.insert(pos % (list.len() + 1), e);
            }
            let header = |k: &str| doc.get(k).unwrap().clone();
            let file = JsonValue::object([
                ("format", header("format")),
                ("version", header("version")),
                ("entries", JsonValue::Array(list)),
            ]);
            let mut bytes = file.render().into_bytes();
            let at = (at % bytes.len() as u64) as usize;
            match damage {
                1 => bytes[at] ^= 1 << bit,
                2 => bytes.truncate(at),
                _ => {}
            }
            let path = std::env::temp_dir()
                .join(format!("rescomm-serve-hostile-{}.json", std::process::id()));
            std::fs::write(&path, &bytes).unwrap();
            let kept = load_snapshot(&path, &ServerConfig::default()).unwrap_or_default();
            let _ = std::fs::remove_file(&path);
            for (key, entry) in &kept {
                let want = fresh.iter().find(|(k, _)| k == key).map(|(_, e)| e);
                prop_assert!(want.is_some(), "kept a key no fresh entry has: {key}");
                let want = want.unwrap();
                prop_assert_eq!(&entry.result_json, &want.result_json);
            }
            if damage == 0 {
                for (key, _) in fresh {
                    prop_assert!(kept.iter().any(|(k, _)| k == key), "lost {key}");
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Hostile-edge net: small nests whose domain bounds and
        /// subscript offsets sit at the `i64` edges. Both plan forms
        /// either price the nest, with a plan that delivers its data, or
        /// answer `Analysis`, never panicking; the server answers each
        /// `ok` or `analysis` and absorbs no panic.
        #[test]
        fn hostile_edge_nests_are_priced_or_unpriceable(
            src in crate::plan::tests::edge_nest_source(),
        ) {
            let nest = parse_nest(&src).map_err(|e| format!("{src}: {e}"))?;
            let opts = MappingOptions::new(2);
            if let Ok(mapping) = crate::pipeline::map_nest(&nest, &opts) {
                let mesh = Mesh2D::new(4, 4, CostModel::paragon());
                for closed in [false, true] {
                    let target = CompileOptions {
                        mesh: mesh.clone(),
                        dist: Dist2D::uniform(Dist1D::Cyclic),
                        vshape: (8, 8),
                        bytes: 64,
                        mode: ScheduleMode::Phased,
                        closed,
                    };
                    let none = CancelToken::none();
                    let run = std::panic::catch_unwind(|| {
                        compile(&nest, &mapping, &target, &none)
                            .map(|c| c.plan.verify_availability(&nest, &mapping))
                    });
                    match run {
                        Ok(Ok(verified)) => prop_assert!(verified.is_ok(), "{src}: {verified:?}"),
                        Ok(Err(RescommError::Analysis { .. })) => {}
                        Ok(Err(e)) => prop_assert!(false, "{src} closed={closed}: {e}"),
                        Err(_) => prop_assert!(false, "{src} closed={closed}: panicked"),
                    }
                }
            }
            let shared = Server::bind(ServerConfig::default()).unwrap().shared;
            let req = format!(
                "{{\"op\": \"map\", \"nest\": {}}}",
                JsonValue::Str(src.clone()).render()
            );
            let resp = parse(&handle_line(&shared, &req)).unwrap();
            let code = resp.get("error").and_then(|e| e.get("code")).and_then(JsonValue::as_str);
            prop_assert!(matches!(code, None | Some("analysis")), "{src}: {code:?}");
            prop_assert_eq!(shared.stats.panics_absorbed.load(Ordering::Relaxed), 0);
        }
    }
}
