//! # `rescomm::serve` — the crash-safe mapping service
//!
//! A std-only, long-lived JSON-lines-over-TCP server around the mapping
//! pipeline: clients send affine nest sources plus machine/schedule
//! specs, the server maps them ([`map_nest_cancellable`]) with warm
//! [`AnalysisCache`]s, builds the communication plan, simulates it, and
//! answers with the mapping report counts and the simulated makespan.
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
//!   on an interval, on `shutdown` (drain first), and on demand. Each
//!   entry is `{key, digest, result, plan}`: the key is the canonical
//!   request object, so it alone holds the machine spec, and the served
//!   `result` alone holds the makespan. A restarted server — even after
//!   `kill -9` — reloads the snapshot and keeps an entry only if its
//!   digest matches, its key reads back through the same request parser
//!   (and node bound) as a live request, and its restored [`CommPlan`],
//!   re-simulated under the key's spec (fanned out over a
//!   parallel sweep), reproduces the `result`'s makespan bit for
//!   bit. Kept entries serve the same bytes with `"served": "snapshot"`;
//!   any other entry is dropped and recomputed on demand.

use crate::error::{CancelToken, RescommError};
use crate::pipeline::{map_nest_cancellable, AnalysisCache, MappingOptions};
use crate::plan::CommPlan;
use crate::snapshot::{plan_from_json, plan_to_json};
use crate::{build_plan, guarded};
use rescomm_distribution::{Dist1D, Dist2D};
use rescomm_json::{parse, JsonValue};
use rescomm_loopnest::parser::parse_nest;
use rescomm_loopnest::LoopNest;
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
const SNAPSHOT_VERSION: i64 = 2;

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
    /// Flush the snapshot after this many completed computations
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
    /// splices verbatim, and the only copy of the makespan.
    result_json: String,
    /// Serialized [`CommPlan`] (the durable artifact).
    plan_json: String,
    /// [`entry_digest`] of the key, `result_json` and `plan_json`.
    digest: String,
    /// Entry came from a snapshot restore, not this process's compute.
    from_snapshot: bool,
}

/// FNV-1a 64-bit digest of a snapshot entry's key, result and plan, as
/// 16 hex digits: restore drops an entry whose bytes no longer match it.
/// Each part ends with `0xff`, a byte UTF-8 text never holds, so the
/// part boundaries are part of what is hashed.
fn entry_digest(key: &str, result_json: &str, plan_json: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for part in [key, result_json, plan_json] {
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
struct PlanCache {
    cap: usize,
    clock: u64,
    map: HashMap<String, (u64, PlanEntry)>,
    by_age: BTreeMap<u64, String>,
}

impl PlanCache {
    fn new(cap: usize) -> PlanCache {
        PlanCache {
            cap,
            clock: 0,
            map: HashMap::new(),
            by_age: BTreeMap::new(),
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
        self.by_age.remove(stamp);
        self.by_age.insert(clock, key.to_string());
        *stamp = clock;
        Some(entry)
    }

    /// Insert (or replace) an entry, evicting least-recently-used
    /// entries past the cap. Returns how many were evicted.
    fn insert(&mut self, key: String, entry: PlanEntry) -> u64 {
        self.clock += 1;
        if let Some((old_stamp, _)) = self.map.insert(key.clone(), (self.clock, entry)) {
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
/// pushes it back, so a server holds exactly `workers` caches.
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
    shutdown: AtomicBool,
    /// Completed computations since the last flush.
    dirty: AtomicU64,
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

/// Everything a `map` request pins down, in canonical form.
struct MapParams {
    src: String,
    mesh: Mesh2D,
    cost_label: &'static str,
    vshape: (usize, usize),
    bytes: u64,
    mode: ScheduleMode,
}

impl MapParams {
    /// Canonical plan-cache key: the exact inputs, rendered as the
    /// request object that asks for them (so distinct nests/specs can
    /// never collide, and [`parse_map_params`] reads the key back).
    fn key(&self) -> String {
        // Rendered directly, in `JsonValue::render`'s canonical layout:
        // the labels need no escaping and the integers fit `i64`.
        format!(
            "{{\"nest\": {}, \"mesh\": [{}, {}], \"cost\": \"{}\", \"vshape\": [{}, {}], \
             \"bytes\": {}, \"mode\": \"{}\"}}",
            JsonValue::Str(self.src.clone()).render(),
            self.mesh.px,
            self.mesh.py,
            self.cost_label,
            self.vshape.0,
            self.vshape.1,
            self.bytes,
            self.mode.label()
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
    let cost_label = match req.get("cost").and_then(JsonValue::as_str) {
        None | Some("paragon") => "paragon",
        Some("cm5") => "cm5",
        Some(other) => return Err(format!("unknown cost model {other:?} (paragon|cm5)")),
    };
    let cost = if cost_label == "cm5" {
        CostModel::cm5()
    } else {
        CostModel::paragon()
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
        mesh: Mesh2D::new(px, py, cost),
        cost_label,
        vshape,
        bytes,
        mode,
    })
}

/// Build the stable `result` object for one mapped nest.
fn render_result(
    nest: &LoopNest,
    mapping: &crate::Mapping,
    plan: &CommPlan,
    p: &MapParams,
    makespan: u64,
) -> String {
    let r = mapping.report(nest);
    let n = |x: usize| JsonValue::exact_u64(x as u64);
    JsonValue::object([
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
        ("phases", n(plan.phases.len())),
        ("mode", JsonValue::Str(p.mode.label().to_string())),
        ("makespan", JsonValue::exact_u64(makespan)),
    ])
    .render()
}

/// The admission decision for one computation slot.
enum Admit {
    /// The slot's warm cache, to hand back through [`release`].
    Granted(AnalysisCache),
    Overload,
    DeadlineExpired,
}

fn admit(shared: &Shared, deadline: Option<Instant>) -> Admit {
    let mut st = lock(&shared.adm);
    if shared.shutdown.load(Ordering::Acquire) {
        return Admit::Overload;
    }
    if let Some(cache) = st.idle.pop() {
        return Admit::Granted(cache);
    }
    if st.waiting >= shared.cfg.max_queue {
        return Admit::Overload;
    }
    st.waiting += 1;
    loop {
        if shared.shutdown.load(Ordering::Acquire) {
            st.waiting -= 1;
            return Admit::Overload;
        }
        if let Some(cache) = st.idle.pop() {
            st.waiting -= 1;
            return Admit::Granted(cache);
        }
        // Queued past the deadline: abandon without computing — a
        // doomed request must not occupy a worker.
        let wait_for = match deadline {
            Some(d) => {
                let now = Instant::now();
                if now >= d {
                    st.waiting -= 1;
                    return Admit::DeadlineExpired;
                }
                (d - now).min(Duration::from_millis(50))
            }
            None => Duration::from_millis(50),
        };
        let (guard, _) = shared
            .adm_cv
            .wait_timeout(st, wait_for)
            .unwrap_or_else(|e| e.into_inner());
        st = guard;
    }
}

/// Hand a slot back to admission with its cache.
fn release(shared: &Shared, cache: AnalysisCache) {
    lock(&shared.adm).idle.push(cache);
    shared.adm_cv.notify_all();
}

/// Parse + map + plan + simulate one nest under a token with the slot's
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
    cancel.check("build_plan")?;
    let plan = build_plan(&nest, &mapping);
    cancel.check("simulate")?;
    let dist = Dist2D::uniform(Dist1D::Block);
    let makespan = plan.simulate_on_mesh(&p.mesh, dist, p.vshape, p.bytes, p.mode);
    let result_json = render_result(&nest, &mapping, &plan, p, makespan);
    let plan_json = plan_to_json(&plan).render();
    Ok(PlanEntry {
        digest: entry_digest(key, &result_json, &plan_json),
        result_json,
        plan_json,
        from_snapshot: false,
    })
}

/// A request's deadline: its own `deadline_ms`, else the server default.
fn request_deadline(shared: &Shared, req: &JsonValue) -> Option<Instant> {
    req.get("deadline_ms")
        .and_then(JsonValue::as_u64)
        .map(Duration::from_millis)
        .or(shared.cfg.default_deadline)
        .and_then(|d| Instant::now().checked_add(d))
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

    let mut cache = match admit(shared, deadline) {
        Admit::Granted(cache) => cache,
        Admit::Overload => {
            return Err(Failure {
                code: "overload",
                exit_code: 1,
                detail: "admission queue full (or draining); retry later".to_string(),
            })
        }
        Admit::DeadlineExpired => {
            return Err(Failure {
                code: "deadline",
                exit_code: 6,
                detail: "deadline expired while queued for admission".to_string(),
            })
        }
    };
    let cancel = match deadline {
        Some(d) => CancelToken::with_deadline(d.saturating_duration_since(Instant::now())),
        None => CancelToken::none(),
    };
    // `guarded` so an internal panic becomes a structured `internal`
    // error — the worker slot is released either way, with a fresh cache
    // after a panic (the used one may be half-updated).
    let outcome = guarded("serve_map", || compute_entry(&p, &key, &cancel, &mut cache));
    release(
        shared,
        if outcome.is_ok() {
            cache
        } else {
            AnalysisCache::new()
        },
    );
    let entry = match outcome {
        Ok(Ok(entry)) => entry,
        Ok(Err(e)) => return Err(e.into()),
        Err(incident) => {
            return Err(Failure {
                code: "internal",
                exit_code: 1,
                detail: format!("absorbed internal panic: {}", incident.detail),
            })
        }
    };

    let result = entry.result_json.clone();
    let evicted = lock(&shared.plans).insert(key, entry);
    let s = &shared.stats;
    s.cache_evictions.fetch_add(evicted, Ordering::Relaxed);
    s.computed.fetch_add(1, Ordering::Relaxed);
    let dirty = shared.dirty.fetch_add(1, Ordering::AcqRel) + 1;
    if shared.cfg.snapshot_every > 0 && dirty >= shared.cfg.snapshot_every {
        flush_snapshot(shared);
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
            let flushed = flush_snapshot(shared);
            let entries = lock(&shared.plans).len();
            let result = JsonValue::object([
                ("flushed", JsonValue::Bool(flushed)),
                ("entries", JsonValue::exact_u64(entries as u64)),
            ]);
            Ok(ok_response(&id, "fresh", &result.render()))
        }
        Some("shutdown") => {
            shared.shutdown.store(true, Ordering::Release);
            shared.adm_cv.notify_all();
            Ok(ok_response(&id, "fresh", "{\"draining\": true}"))
        }
        Some(other) => Err(Failure::protocol(format!("unknown op {other:?}"))),
        None => Err(Failure::protocol("request needs an \"op\" string")),
    };
    response.unwrap_or_else(|f| fail(shared, &id, f))
}

// --- snapshot persistence --------------------------------------------------

/// Render the plan cache as one snapshot document. Every part of an
/// entry is already rendered JSON and is spliced verbatim, the way
/// [`ok_response`] splices `result_json`.
fn snapshot_doc(plans: &PlanCache) -> String {
    // Deterministic entry order so back-to-back flushes of the same
    // state write the same bytes.
    let mut keys: Vec<&String> = plans.map.keys().collect();
    keys.sort();
    let mut doc = format!(
        "{{\"format\": \"{SNAPSHOT_FORMAT}\", \"version\": {SNAPSHOT_VERSION}, \"entries\": ["
    );
    for (i, k) in keys.into_iter().enumerate() {
        let (_, e) = &plans.map[k];
        let sep = if i > 0 { ", " } else { "" };
        let _ = write!(
            doc,
            "{sep}{{\"key\": {k}, \"digest\": \"{}\", \"result\": {}, \"plan\": {}}}",
            e.digest, e.result_json, e.plan_json
        );
    }
    doc.push_str("]}");
    doc
}

/// Write the snapshot atomically (tmp + rename). Returns `true` when a
/// file was written. Failures are reported to stderr, never raised — a
/// full disk must not take the serving path down.
fn flush_snapshot(shared: &Shared) -> bool {
    let Some(path) = &shared.cfg.snapshot_path else {
        return false;
    };
    let doc = snapshot_doc(&lock(&shared.plans));
    let tmp = path.with_extension("tmp");
    let result = std::fs::write(&tmp, &doc).and_then(|()| std::fs::rename(&tmp, path));
    match result {
        Ok(()) => {
            shared.dirty.store(0, Ordering::Release);
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
    plan: CommPlan,
    /// The spec read back from the key.
    params: MapParams,
    /// The makespan inside the entry's served `result`.
    makespan: u64,
}

/// Load and *verify* a snapshot. A file that is not a well-formed
/// version-[`SNAPSHOT_VERSION`] snapshot restores nothing (cold start).
/// Each entry then stands alone: it is kept only if [`restore_entry`]
/// reads it back and its restored [`CommPlan`], re-simulated under the
/// key's spec (fanned out over `workers` by [`pool::sweep`]), reproduces
/// the makespan in its served `result` bit for bit. Any other entry is
/// dropped and the rest still restore, so corruption degrades to
/// recomputation, never to wrong answers. Returns the kept entries.
fn load_snapshot(path: &Path, workers: usize) -> Result<Vec<(String, PlanEntry)>, String> {
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
    // The restore proof. Entries are independent, so verification rides
    // a parallel sweep.
    let (verdicts, _) = pool::sweep(
        &parsed,
        workers,
        || (),
        |(), r| {
            let p = &r.params;
            let dist = Dist2D::uniform(Dist1D::Block);
            let replayed = guarded("snapshot_verify", || {
                r.plan
                    .simulate_on_mesh(&p.mesh, dist, p.vshape, p.bytes, p.mode)
            });
            replayed == Ok(r.makespan)
        },
    );
    Ok(parsed
        .into_iter()
        .zip(verdicts)
        .filter(|(r, ok)| {
            if !ok {
                drop_entry(r.index, "replay disagrees with the served makespan");
            }
            *ok
        })
        .map(|(r, _)| (r.key, r.entry))
        .collect())
}

/// Read back snapshot entry `index` (its replay is checked later). The
/// entry's digest must match its bytes, and its key must pass
/// [`parse_map_params`] — the validator every live request passes — and
/// re-render to the same bytes.
fn restore_entry(index: usize, e: &JsonValue) -> Result<RestoredEntry, String> {
    let field = |k: &str| e.get(k).ok_or(format!("missing {k}"));
    let key_v = field("key")?;
    let result = field("result")?;
    let plan_v = field("plan")?;
    let digest = field("digest")?.as_str().ok_or("digest must be a string")?;
    let key = key_v.render();
    let entry = PlanEntry {
        result_json: result.render(),
        plan_json: plan_v.render(),
        digest: digest.to_string(),
        from_snapshot: true,
    };
    if entry_digest(&key, &entry.result_json, &entry.plan_json) != digest {
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
    let makespan = result
        .get("makespan")
        .and_then(JsonValue::as_u64)
        .ok_or("result: missing makespan")?;
    let plan = plan_from_json(plan_v).map_err(|e| e.to_string())?;
    Ok(RestoredEntry {
        index,
        key,
        entry,
        plan,
        params,
        makespan,
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
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.adm_cv.notify_all();
        self.thread.join().unwrap_or(Ok(()))
    }
}

impl Server {
    /// Bind the listener and (when configured) restore the snapshot.
    pub fn bind(cfg: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let mut plans = PlanCache::new(cfg.plan_cache_cap);
        let mut restored = 0u64;
        if let Some(path) = &cfg.snapshot_path {
            if path.exists() {
                match load_snapshot(path, cfg.workers.max(1)) {
                    Ok(p) => {
                        restored = p.len() as u64;
                        for (key, entry) in p {
                            // A snapshot larger than the cap degrades to
                            // the freshest cap entries, silently.
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
        let shared = Arc::new(Shared {
            cfg,
            plans: Mutex::new(plans),
            adm: Mutex::new(adm),
            adm_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            dirty: AtomicU64::new(0),
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
    /// server; flushes a final snapshot on the way out.
    pub fn run(self) -> std::io::Result<()> {
        let Server {
            listener, shared, ..
        } = self;
        listener.set_nonblocking(true)?;

        // Interval flusher.
        if shared.cfg.snapshot_path.is_some() {
            if let Some(interval) = shared.cfg.snapshot_interval {
                let flusher = Arc::clone(&shared);
                std::thread::spawn(move || {
                    let mut last = Instant::now();
                    while !flusher.shutdown.load(Ordering::Acquire) {
                        std::thread::sleep(Duration::from_millis(25).min(interval));
                        if last.elapsed() >= interval && flusher.dirty.load(Ordering::Acquire) > 0 {
                            flush_snapshot(&flusher);
                            last = Instant::now();
                        }
                    }
                });
            }
        }

        while !shared.shutdown.load(Ordering::Acquire) {
            match listener.accept() {
                Ok((stream, _)) => {
                    let conn = Arc::clone(&shared);
                    std::thread::spawn(move || serve_connection(&conn, stream));
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }

        // Drain: wait for in-flight computations, then flush.
        loop {
            let st = lock(&shared.adm);
            if st.idle.len() == shared.cfg.workers && st.waiting == 0 {
                break;
            }
            drop(st);
            std::thread::sleep(Duration::from_millis(5));
        }
        flush_snapshot(&shared);
        Ok(())
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
            let _ = writeln!(writer, "{resp}");
            return; // the rest of the line is garbage: drop the conn
        }
        let line = String::from_utf8_lossy(&buf);
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let shutdown_before = shared.shutdown.load(Ordering::Acquire);
        let resp = handle_line(shared, line);
        if writeln!(writer, "{resp}").is_err() || writer.flush().is_err() {
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

        // Re-write the real entry beside a forged one: same result and
        // plan, a digest that matches, but a key naming a 2^40-node mesh.
        let doc = parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let real = &doc.get("entries").and_then(JsonValue::as_array).unwrap()[0];
        let part = |k: &str| real.get(k).unwrap().render();
        let key = part("key");
        let forged_key = key.replace("\"mesh\": [4, 4]", "\"mesh\": [1048576, 1048576]");
        assert_ne!(forged_key, key);
        let mut plans = PlanCache::new(0);
        for k in [key, forged_key] {
            let (result_json, plan_json) = (part("result"), part("plan"));
            let entry = PlanEntry {
                digest: entry_digest(&k, &result_json, &plan_json),
                result_json,
                plan_json,
                from_snapshot: false,
            };
            plans.insert(k, entry);
        }
        let forged_doc = snapshot_doc(&plans);
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
}
