//! The typed, versioned service protocol: every message the server and
//! client exchange, as Rust enums with one JSON codec.
//!
//! ## Versioning
//!
//! The protocol version is a single integer, [`PROTOCOL_VERSION`].
//! A client *may* open a connection with a [`Request::Hello`]
//! advertising the version it speaks; the server answers with a
//! [`Response::Hello`] carrying its own version and capability list, or
//! an error naming the version it supports (the connection stays usable
//! — a multi-version client can downgrade and continue). The handshake
//! is optional: requests are self-describing, so a client that knows
//! what it speaks may skip straight to business.
//!
//! Compatibility rules:
//!
//! * Additions (new verbs, new optional request fields, new response
//!   fields) do **not** bump the version — unknown response fields must
//!   be ignored by clients, and unknown verbs answer with a typed
//!   error.
//! * Changes to the meaning or shape of an *existing* field bump
//!   [`PROTOCOL_VERSION`]; servers reject hellos for versions they do
//!   not speak.
//!
//! ## Dialects
//!
//! Two request dialects share the wire, distinguished per message:
//!
//! * **Typed (v1)** — objects carrying a `"type"` field naming the
//!   verb. Responses to typed requests carry `"type"` too.
//! * **Legacy** — the pre-versioning protocol: bare job objects (no
//!   `"type"`, no `"cmd"`) and `{"cmd": "ping"|"stats"|"shutdown"}`
//!   control verbs. Responses to legacy requests are rendered
//!   **byte-identically** to the pre-versioning server, so deployed
//!   clients keep working unchanged.
//!
//! Either dialect travels in either encoding of [`crate::wire`]
//! (newline-delimited JSON text or length-prefixed binary frames); a
//! response always uses the encoding of its request.
//!
//! See `docs/PROTOCOL.md` for the full verb-by-verb reference.

use drmap_store::store::{CompactReport, StoreStats};
use drmap_telemetry::{
    HistogramSnapshot, MetricsSnapshot, SlowEntry, SnapshotHistory, SnapshotSample,
};

use crate::cache::{CacheStats, EvictionPolicy};
use crate::error::ServiceError;
use crate::json::Json;
use crate::overload::OverloadConfig;
use crate::pool::ShardPolicy;
use crate::spec::{JobResult, JobSpec};

/// The protocol version this build speaks. See the module docs for
/// when it bumps.
pub const PROTOCOL_VERSION: u64 = 1;

/// Which request dialect a message arrived in — the server answers in
/// kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dialect {
    /// Pre-versioning messages: bare job objects and `{"cmd": …}`
    /// verbs. Responses render byte-identically to the old server.
    Legacy,
    /// `{"type": …}` messages of the versioned protocol.
    V1,
}

/// The capability strings a server advertises in its hello response.
/// `store` and `slow-traces` appear only when a persistent result
/// store is attached (without it, `cache-warm`, `store-compact`, and
/// `slow-traces` answer with errors — persisted post-mortems need
/// somewhere to live). `faults` appears only in builds with fault
/// injection compiled in (debug, or the `faults` cargo feature) —
/// release servers without it refuse `set-faults` outright.
pub fn capabilities(store_attached: bool) -> Vec<String> {
    let mut caps = vec![
        "jobs".to_owned(),
        "pipelining".to_owned(),
        "binary-frames".to_owned(),
        "per-job-options".to_owned(),
        "admin".to_owned(),
        "metrics".to_owned(),
        "metrics-history".to_owned(),
        "set-bounds".to_owned(),
        "deadlines".to_owned(),
        "overload-control".to_owned(),
        "tiling-range".to_owned(),
    ];
    if crate::faults::FAULTS_COMPILED_IN {
        caps.push("faults".to_owned());
    }
    if store_attached {
        caps.push("store".to_owned());
        caps.push("slow-traces".to_owned());
    }
    caps
}

/// The capability string `drmap-router` adds to the backend
/// intersection it advertises, so clients (and the loadgen's
/// environment block) can tell a cluster tier from a single node.
/// Backends never advertise it.
pub const ROUTER_CAPABILITY: &str = "router";

/// The capability set a router advertises: the intersection of its
/// healthy backends' capabilities — a verb is only promised when every
/// node that might serve it understands it — minus the verbs the
/// router cannot aggregate meaningfully (`metrics-history`,
/// `slow-traces` are per-node rings; ask a backend directly), plus
/// [`ROUTER_CAPABILITY`].
pub fn router_capabilities(backend_caps: &[Vec<String>]) -> Vec<String> {
    let mut caps: Vec<String> = match backend_caps.split_first() {
        None => Vec::new(),
        Some((first, rest)) => first
            .iter()
            .filter(|cap| rest.iter().all(|other| other.contains(cap)))
            .filter(|cap| cap.as_str() != "metrics-history" && cap.as_str() != "slow-traces")
            .cloned()
            .collect(),
    };
    caps.push(ROUTER_CAPABILITY.to_owned());
    caps
}

/// A partial [`ShardPolicy`] update: absent fields keep the running
/// pool's current value, so an operator can retune one knob without
/// restating the rest. `chunk_tilings` uses `0` on the wire to clear
/// the explicit chunk-size override (returning to the
/// `chunks_per_worker` derivation), since "absent" already means
/// "keep".
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardPolicyUpdate {
    /// New sharding threshold, if given.
    pub min_tilings: Option<usize>,
    /// New chunks-per-worker target, if given.
    pub chunks_per_worker: Option<usize>,
    /// New explicit chunk size; `Some(0)` clears the override.
    pub chunk_tilings: Option<usize>,
}

impl ShardPolicyUpdate {
    /// The policy that results from applying this update to `current`.
    pub fn apply(&self, current: ShardPolicy) -> ShardPolicy {
        ShardPolicy {
            min_tilings: self.min_tilings.unwrap_or(current.min_tilings),
            chunks_per_worker: self.chunks_per_worker.unwrap_or(current.chunks_per_worker),
            chunk_tilings: match self.chunk_tilings {
                None => current.chunk_tilings,
                Some(0) => None,
                Some(n) => Some(n),
            },
        }
    }
}

/// A partial cache-bounds update: absent fields keep the running
/// cache's current bound. `0` on the wire clears a bound entirely
/// (unbounded), since "absent" already means "keep" — the same
/// convention [`ShardPolicyUpdate::chunk_tilings`] uses.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BoundsUpdate {
    /// New resident-entry cap; `Some(0)` clears it (unbounded).
    pub max_entries: Option<usize>,
    /// New approximate-byte cap; `Some(0)` clears it (unbounded).
    pub max_bytes: Option<usize>,
}

impl BoundsUpdate {
    /// True when the update changes nothing. Clients reject empty
    /// updates as usage errors rather than sending silent no-ops.
    pub fn is_empty(&self) -> bool {
        self.max_entries.is_none() && self.max_bytes.is_none()
    }

    /// The entry-bound field in the cache's nested-option form:
    /// `None` keeps, `Some(None)` clears to unbounded, `Some(Some(n))`
    /// sets.
    pub fn entries_action(&self) -> Option<Option<usize>> {
        Self::action(self.max_entries)
    }

    /// As [`BoundsUpdate::entries_action`], for the byte bound.
    pub fn bytes_action(&self) -> Option<Option<usize>> {
        Self::action(self.max_bytes)
    }

    fn action(field: Option<usize>) -> Option<Option<usize>> {
        match field {
            None => None,
            Some(0) => Some(None),
            Some(n) => Some(Some(n)),
        }
    }
}

/// A partial overload-controller update: absent fields keep the
/// running controller's current value, so an operator can retune one
/// watermark without restating the rest. `max_inflight` uses `0` on
/// the wire to clear the cap (returning admission to purely
/// latency-driven), the same convention [`BoundsUpdate`] uses.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OverloadUpdate {
    /// Arm or disarm the controller, if given.
    pub enabled: Option<bool>,
    /// New high (shed-entry) watermark in milliseconds, if given.
    pub high_ms: Option<u64>,
    /// New low (recovery) watermark in milliseconds, if given.
    pub low_ms: Option<u64>,
    /// New consecutive-healthy-window requirement, if given.
    pub recover_windows: Option<u32>,
    /// New backoff advice for shed responses, if given.
    pub retry_after_ms: Option<u64>,
    /// New in-flight cap; `Some(0)` clears it.
    pub max_inflight: Option<u64>,
}

impl OverloadUpdate {
    /// True when the update changes nothing. Clients reject empty
    /// updates as usage errors rather than sending silent no-ops.
    pub fn is_empty(&self) -> bool {
        *self == OverloadUpdate::default()
    }

    /// The (sanitized) configuration that results from applying this
    /// update to `current`.
    pub fn apply(&self, current: OverloadConfig) -> OverloadConfig {
        OverloadConfig {
            enabled: self.enabled.unwrap_or(current.enabled),
            high_ms: self.high_ms.unwrap_or(current.high_ms),
            low_ms: self.low_ms.unwrap_or(current.low_ms),
            recover_windows: self.recover_windows.unwrap_or(current.recover_windows),
            retry_after_ms: self.retry_after_ms.unwrap_or(current.retry_after_ms),
            max_inflight: match self.max_inflight {
                None => current.max_inflight,
                Some(0) => None,
                Some(n) => Some(n),
            },
        }
        .sanitized()
    }
}

/// Everything a client can ask of the server.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Open the conversation: advertise the protocol version the
    /// client speaks (and optionally who it is, for server logs).
    Hello {
        /// Protocol version the client speaks.
        version: u64,
        /// Free-form client identification, e.g. `drmap-batch/0.1.0`.
        client: Option<String>,
    },
    /// Liveness check.
    Ping {
        /// Optional correlation id, echoed in the response.
        id: Option<u64>,
    },
    /// Fetch counters plus the **active configuration** (live eviction
    /// policy, cache bounds, shard policy, protocol version).
    Stats {
        /// Optional correlation id, echoed in the response.
        id: Option<u64>,
    },
    /// Stop accepting connections.
    Shutdown {
        /// Optional correlation id, echoed in the response.
        id: Option<u64>,
    },
    /// Swap the cache's eviction policy on the live server.
    SetPolicy {
        /// Optional correlation id, echoed in the response.
        id: Option<u64>,
        /// The policy to switch to.
        policy: EvictionPolicy,
    },
    /// Retune the running pool's intra-layer sharding policy.
    SetShardPolicy {
        /// Optional correlation id, echoed in the response.
        id: Option<u64>,
        /// Partial update; absent fields keep their current values.
        update: ShardPolicyUpdate,
    },
    /// Drop every resident cache entry and zero the counters (the
    /// persistent store tier is untouched).
    CacheClear {
        /// Optional correlation id, echoed in the response.
        id: Option<u64>,
    },
    /// Promote stored results into the resident cache tier.
    CacheWarm {
        /// Optional correlation id, echoed in the response.
        id: Option<u64>,
        /// At most this many entries (`None`: up to the cache's entry
        /// bound, or everything).
        limit: Option<usize>,
    },
    /// Rewrite the persistent store's log, dropping superseded records
    /// — and/or retune the background auto-compaction check.
    StoreCompact {
        /// Optional correlation id, echoed in the response.
        id: Option<u64>,
        /// Without `auto_ratio`, compact unconditionally right now
        /// (the wire-compatible pre-auto-compaction behavior). With
        /// it, arm the background check at that dead-bytes ratio
        /// (`0` disarms, since "absent" already means "compact now")
        /// and compact immediately only if the store is already past
        /// the threshold.
        auto_ratio: Option<f64>,
    },
    /// Fetch the telemetry snapshot: every counter, gauge, and latency
    /// histogram, plus the slow-request log.
    Metrics {
        /// Optional correlation id, echoed in the response.
        id: Option<u64>,
    },
    /// Retune the cache's resident bounds on the live server
    /// (shrinking a bound evicts down to the new cap immediately).
    SetBounds {
        /// Optional correlation id, echoed in the response.
        id: Option<u64>,
        /// Partial update; absent fields keep their current values.
        update: BoundsUpdate,
    },
    /// Fetch the windowed metrics time series: the sampler ring's base
    /// snapshot, its per-window deltas, and the cumulative snapshot
    /// they reconstruct.
    MetricsHistory {
        /// Optional correlation id, echoed in the response.
        id: Option<u64>,
    },
    /// Fetch the slow traces persisted through the store (post-mortems
    /// that survive restarts). Requires an attached store.
    SlowTraces {
        /// Optional correlation id, echoed in the response.
        id: Option<u64>,
        /// At most this many traces, newest last (`None`: all
        /// retained).
        limit: Option<usize>,
    },
    /// Retune the slow-request log live: its threshold and/or its ring
    /// capacity. Absent fields keep their current values.
    SetSlowLog {
        /// Optional correlation id, echoed in the response.
        id: Option<u64>,
        /// New slow threshold in milliseconds (`0` logs everything).
        slow_ms: Option<u64>,
        /// New ring capacity (clamped to at least 1).
        cap: Option<usize>,
    },
    /// Arm, replace, or disarm the deterministic fault plan on the
    /// live server. Only honored by builds with fault injection
    /// compiled in (debug, or the `faults` cargo feature) — the
    /// capability list advertises `faults` when it is.
    SetFaults {
        /// Optional correlation id, echoed in the response.
        id: Option<u64>,
        /// The plan to arm, in `key=value,…` form (see
        /// [`FaultPlan::parse`](crate::faults::FaultPlan::parse));
        /// absent disarms fault injection.
        spec: Option<String>,
    },
    /// Retune the adaptive overload controller on the live server.
    SetOverload {
        /// Optional correlation id, echoed in the response.
        id: Option<u64>,
        /// Partial update; absent fields keep their current values.
        update: OverloadUpdate,
    },
    /// Run a DSE job (the job's own `id` is the correlation key).
    Submit(JobSpec),
}

/// A snapshot of the server's counters **and active configuration**,
/// carried by the typed `stats` response. The legacy `{"cmd":"stats"}`
/// rendering exposes only the counter subset the old protocol had.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StatsReport {
    /// Cache counters and sizes.
    pub cache: CacheStats,
    /// The eviction policy currently in force (live, not the boot
    /// value).
    pub policy: EvictionPolicy,
    /// Resident-entry bound, if any.
    pub max_entries: Option<usize>,
    /// Approximate-byte bound, if any.
    pub max_bytes: Option<usize>,
    /// The sharding policy currently in force.
    pub shard: ShardPolicy,
    /// Worker threads in the pool.
    pub workers: usize,
    /// Persistent-store counters, when a store is attached.
    pub store: Option<StoreStats>,
    /// How many backends stand behind this endpoint: `Some(n)` from a
    /// `drmap-router` (whose report sums its backends' counters),
    /// `None` from a single node. V1-only — the legacy rendering
    /// predates clusters.
    pub backends: Option<usize>,
}

/// The telemetry snapshot carried by the typed `metrics` response:
/// every registered counter, gauge, and latency histogram, plus the
/// slow-request log. Clients can render the snapshot as
/// Prometheus-style text exposition via
/// [`drmap_telemetry::MetricsSnapshot::to_prometheus`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsReport {
    /// Every registered metric, sorted by name.
    pub snapshot: MetricsSnapshot,
    /// The most recent slow requests, oldest first.
    pub slow: Vec<SlowEntry>,
}

/// One slow trace read back from the persistent store: the entry plus
/// the monotonic sequence number and wall-clock stamp it was persisted
/// under — enough to order post-mortems across restarts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PersistedSlowTrace {
    /// Monotonic persistence sequence number (survives restarts).
    pub seq: u64,
    /// Milliseconds since the Unix epoch when the trace was captured.
    pub unix_ms: u64,
    /// The slow request itself.
    pub entry: SlowEntry,
}

/// Everything the server can answer.
// The size spread (a stats report is ~an order of magnitude bigger than
// a pong) is fine here: responses are transient — built, rendered to
// JSON, and dropped — never stored in bulk.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Handshake accepted.
    Hello {
        /// Protocol version the server speaks.
        version: u64,
        /// Server identification, e.g. `drmap-service/0.1.0`.
        server: String,
        /// What this server can do (see [`capabilities`]).
        capabilities: Vec<String>,
    },
    /// `ping` answer.
    Pong {
        /// Echoed request id.
        id: Option<u64>,
    },
    /// `stats` answer.
    Stats {
        /// Echoed request id.
        id: Option<u64>,
        /// Counters plus active configuration.
        report: StatsReport,
    },
    /// `shutdown` acknowledged: the server stops accepting.
    Shutdown {
        /// Echoed request id.
        id: Option<u64>,
    },
    /// `set-policy` applied.
    PolicySet {
        /// Echoed request id.
        id: Option<u64>,
        /// The policy now in force.
        policy: EvictionPolicy,
        /// The policy that was in force before.
        previous: EvictionPolicy,
    },
    /// `set-shard-policy` applied.
    ShardPolicySet {
        /// Echoed request id.
        id: Option<u64>,
        /// The full policy now in force (after merging the update).
        policy: ShardPolicy,
        /// The policy that was in force before.
        previous: ShardPolicy,
    },
    /// `cache clear` done.
    CacheCleared {
        /// Echoed request id.
        id: Option<u64>,
    },
    /// `cache warm` done.
    CacheWarmed {
        /// Echoed request id.
        id: Option<u64>,
        /// Entries promoted into the resident tier.
        loaded: usize,
    },
    /// `store compact` done.
    StoreCompacted {
        /// Echoed request id.
        id: Option<u64>,
        /// What the compaction accomplished.
        report: CompactReport,
    },
    /// `metrics` answer.
    Metrics {
        /// Echoed request id.
        id: Option<u64>,
        /// The telemetry snapshot and slow-request log.
        report: MetricsReport,
    },
    /// `set-bounds` applied.
    BoundsSet {
        /// Echoed request id.
        id: Option<u64>,
        /// The resident-entry bound now in force.
        max_entries: Option<usize>,
        /// The approximate-byte bound now in force.
        max_bytes: Option<usize>,
        /// The entry bound that was in force before.
        previous_entries: Option<usize>,
        /// The byte bound that was in force before.
        previous_bytes: Option<usize>,
        /// Entries evicted immediately to honor a shrunk bound.
        evicted: u64,
    },
    /// `metrics-history` answer.
    MetricsHistory {
        /// Echoed request id.
        id: Option<u64>,
        /// The sampler ring's base, windowed deltas, and cumulative.
        history: SnapshotHistory,
    },
    /// `slow-traces` answer.
    SlowTraces {
        /// Echoed request id.
        id: Option<u64>,
        /// Persisted slow traces, oldest first.
        traces: Vec<PersistedSlowTrace>,
    },
    /// `set-slow-log` applied.
    SlowLogSet {
        /// Echoed request id.
        id: Option<u64>,
        /// The threshold now in force, in milliseconds (`None`:
        /// logging disabled).
        slow_ms: Option<u64>,
        /// The ring capacity now in force.
        cap: usize,
        /// The threshold that was in force before.
        previous_ms: Option<u64>,
        /// The capacity that was in force before.
        previous_cap: usize,
    },
    /// `set-faults` applied.
    FaultsSet {
        /// Echoed request id.
        id: Option<u64>,
        /// The canonical rendering of the plan now armed (`None`:
        /// fault injection disarmed).
        spec: Option<String>,
    },
    /// `set-overload` applied.
    OverloadSet {
        /// Echoed request id.
        id: Option<u64>,
        /// The configuration now in force (after merging the update
        /// and sanitizing).
        config: OverloadConfig,
        /// The configuration that was in force before.
        previous: OverloadConfig,
    },
    /// The admission controller refused the job: the server is
    /// shedding load. Retry after the hinted delay.
    Overloaded {
        /// Echoed job id.
        id: Option<u64>,
        /// Server-suggested backoff before retrying, in milliseconds.
        retry_after_ms: u64,
    },
    /// The job's `deadline_ms` elapsed before its result was ready;
    /// the server abandoned the remaining work.
    DeadlineExceeded {
        /// Echoed job id.
        id: Option<u64>,
        /// The deadline the job carried, in milliseconds.
        deadline_ms: u64,
    },
    /// A job finished successfully.
    Job {
        /// The job's result (its `id` is the correlation key).
        result: JobResult,
    },
    /// Anything that failed.
    Error {
        /// Echoed request/job id, when one was recognizable.
        id: Option<u64>,
        /// What went wrong.
        message: String,
    },
}

/// A request that could not be decoded, with enough context to answer
/// in the right dialect with the right correlation id.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodeError {
    /// The request's id, when one was recognizable.
    pub id: Option<u64>,
    /// The dialect the malformed request appeared to be in (errors are
    /// answered in kind).
    pub dialect: Dialect,
    /// What was wrong with it.
    pub message: String,
}

impl DecodeError {
    fn new(id: Option<u64>, dialect: Dialect, message: impl Into<String>) -> Self {
        DecodeError {
            id,
            dialect,
            message: message.into(),
        }
    }
}

// ---------------------------------------------------------------------
// Request codec
// ---------------------------------------------------------------------

fn push_id(pairs: &mut Vec<(String, Json)>, id: Option<u64>) {
    if let Some(id) = id {
        pairs.push(("id".to_owned(), Json::num_u64(id)));
    }
}

fn typed(kind: &str, id: Option<u64>, rest: Vec<(String, Json)>) -> Json {
    let mut pairs = vec![("type".to_owned(), Json::str(kind))];
    push_id(&mut pairs, id);
    pairs.extend(rest);
    Json::Obj(pairs)
}

impl Request {
    /// The typed (v1) wire form. Legacy forms are only *parsed* (the
    /// compatibility shim); new writers always emit typed messages.
    pub fn to_json(&self) -> Json {
        match self {
            Request::Hello { version, client } => {
                let mut rest = vec![("version".to_owned(), Json::num_u64(*version))];
                if let Some(client) = client {
                    rest.push(("client".to_owned(), Json::str(client)));
                }
                typed("hello", None, rest)
            }
            Request::Ping { id } => typed("ping", *id, vec![]),
            Request::Stats { id } => typed("stats", *id, vec![]),
            Request::Shutdown { id } => typed("shutdown", *id, vec![]),
            Request::SetPolicy { id, policy } => typed(
                "set-policy",
                *id,
                vec![("policy".to_owned(), Json::str(policy.label()))],
            ),
            Request::SetShardPolicy { id, update } => {
                let mut rest = Vec::new();
                if let Some(n) = update.min_tilings {
                    rest.push(("min_tilings".to_owned(), Json::num_usize(n)));
                }
                if let Some(n) = update.chunks_per_worker {
                    rest.push(("chunks_per_worker".to_owned(), Json::num_usize(n)));
                }
                if let Some(n) = update.chunk_tilings {
                    rest.push(("chunk_tilings".to_owned(), Json::num_usize(n)));
                }
                typed("set-shard-policy", *id, rest)
            }
            Request::CacheClear { id } => typed("cache-clear", *id, vec![]),
            Request::CacheWarm { id, limit } => {
                let mut rest = Vec::new();
                if let Some(limit) = limit {
                    rest.push(("limit".to_owned(), Json::num_usize(*limit)));
                }
                typed("cache-warm", *id, rest)
            }
            Request::StoreCompact { id, auto_ratio } => {
                let mut rest = Vec::new();
                if let Some(ratio) = auto_ratio {
                    rest.push(("auto_ratio".to_owned(), Json::Num(*ratio)));
                }
                typed("store-compact", *id, rest)
            }
            Request::Metrics { id } => typed("metrics", *id, vec![]),
            Request::SetBounds { id, update } => {
                let mut rest = Vec::new();
                if let Some(n) = update.max_entries {
                    rest.push(("max_entries".to_owned(), Json::num_usize(n)));
                }
                if let Some(n) = update.max_bytes {
                    rest.push(("max_bytes".to_owned(), Json::num_usize(n)));
                }
                typed("set-bounds", *id, rest)
            }
            Request::MetricsHistory { id } => typed("metrics-history", *id, vec![]),
            Request::SlowTraces { id, limit } => {
                let mut rest = Vec::new();
                if let Some(limit) = limit {
                    rest.push(("limit".to_owned(), Json::num_usize(*limit)));
                }
                typed("slow-traces", *id, rest)
            }
            Request::SetSlowLog { id, slow_ms, cap } => {
                let mut rest = Vec::new();
                if let Some(ms) = slow_ms {
                    rest.push(("slow_ms".to_owned(), Json::num_u64(*ms)));
                }
                if let Some(cap) = cap {
                    rest.push(("cap".to_owned(), Json::num_usize(*cap)));
                }
                typed("set-slow-log", *id, rest)
            }
            Request::SetFaults { id, spec } => {
                let mut rest = Vec::new();
                if let Some(spec) = spec {
                    rest.push(("spec".to_owned(), Json::str(spec)));
                }
                typed("set-faults", *id, rest)
            }
            Request::SetOverload { id, update } => {
                let mut rest = Vec::new();
                if let Some(enabled) = update.enabled {
                    rest.push(("enabled".to_owned(), Json::Bool(enabled)));
                }
                if let Some(ms) = update.high_ms {
                    rest.push(("high_ms".to_owned(), Json::num_u64(ms)));
                }
                if let Some(ms) = update.low_ms {
                    rest.push(("low_ms".to_owned(), Json::num_u64(ms)));
                }
                if let Some(n) = update.recover_windows {
                    rest.push(("recover_windows".to_owned(), Json::num_u64(u64::from(n))));
                }
                if let Some(ms) = update.retry_after_ms {
                    rest.push(("retry_after_ms".to_owned(), Json::num_u64(ms)));
                }
                if let Some(n) = update.max_inflight {
                    rest.push(("max_inflight".to_owned(), Json::num_u64(n)));
                }
                typed("set-overload", *id, rest)
            }
            Request::Submit(spec) => match spec.to_json() {
                Json::Obj(pairs) => {
                    let mut all = vec![("type".to_owned(), Json::str("submit"))];
                    all.extend(pairs);
                    Json::Obj(all)
                }
                _ => unreachable!("JobSpec::to_json builds an object"),
            },
        }
    }

    /// Decode one request in either dialect.
    ///
    /// * `"type"` present → typed (v1) verbs.
    /// * `"cmd"` present → the legacy control shim (`ping`, `stats`,
    ///   `shutdown` — exactly the verbs the old protocol had).
    /// * neither → a legacy bare job object.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] carrying the dialect and any
    /// recognizable id, so the caller can answer in kind.
    pub fn decode(v: &Json) -> Result<(Request, Dialect), DecodeError> {
        let id = v.get("id").and_then(Json::as_u64);
        if let Some(kind) = v.get("type") {
            let kind = kind
                .as_str()
                .ok_or_else(|| DecodeError::new(id, Dialect::V1, "\"type\" must be a string"))?;
            return Self::decode_typed(kind, id, v).map(|r| (r, Dialect::V1));
        }
        if let Some(cmd) = v.get("cmd") {
            let cmd = cmd
                .as_str()
                .ok_or_else(|| DecodeError::new(id, Dialect::Legacy, "\"cmd\" must be a string"))?;
            let request = match cmd {
                "ping" => Request::Ping { id },
                "stats" => Request::Stats { id },
                "shutdown" => Request::Shutdown { id },
                other => {
                    // Exactly the old server's message, byte for byte.
                    return Err(DecodeError::new(
                        id,
                        Dialect::Legacy,
                        format!("unknown command {other:?}"),
                    ));
                }
            };
            return Ok((request, Dialect::Legacy));
        }
        match JobSpec::from_json(v) {
            Ok(spec) => Ok((Request::Submit(spec), Dialect::Legacy)),
            Err(e) => Err(DecodeError::new(id, Dialect::Legacy, e.to_string())),
        }
    }

    fn decode_typed(kind: &str, id: Option<u64>, v: &Json) -> Result<Request, DecodeError> {
        let bad = |message: String| DecodeError::new(id, Dialect::V1, message);
        let opt_usize = |field: &str| -> Result<Option<usize>, DecodeError> {
            match v.get(field) {
                None | Some(Json::Null) => Ok(None),
                Some(n) => n
                    .as_usize()
                    .map(Some)
                    .ok_or_else(|| bad(format!("{field:?} must be a non-negative integer"))),
            }
        };
        match kind {
            "hello" => {
                let version = v
                    .get("version")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| bad("hello needs an integer \"version\"".to_owned()))?;
                let client = match v.get("client") {
                    None | Some(Json::Null) => None,
                    Some(c) => Some(
                        c.as_str()
                            .ok_or_else(|| bad("\"client\" must be a string".to_owned()))?
                            .to_owned(),
                    ),
                };
                Ok(Request::Hello { version, client })
            }
            "ping" => Ok(Request::Ping { id }),
            "stats" => Ok(Request::Stats { id }),
            "shutdown" => Ok(Request::Shutdown { id }),
            "set-policy" => {
                let label = v
                    .get("policy")
                    .and_then(Json::as_str)
                    .ok_or_else(|| bad("set-policy needs a string \"policy\"".to_owned()))?;
                let policy = EvictionPolicy::from_label(label).ok_or_else(|| {
                    bad(format!(
                        "unknown eviction policy {label:?} (expected \"lru\" or \"cost\")"
                    ))
                })?;
                Ok(Request::SetPolicy { id, policy })
            }
            "set-shard-policy" => {
                let update = ShardPolicyUpdate {
                    min_tilings: opt_usize("min_tilings")?,
                    chunks_per_worker: opt_usize("chunks_per_worker")?,
                    chunk_tilings: opt_usize("chunk_tilings")?,
                };
                if update.min_tilings == Some(0) || update.chunks_per_worker == Some(0) {
                    return Err(bad(
                        "min_tilings and chunks_per_worker must be positive".to_owned()
                    ));
                }
                Ok(Request::SetShardPolicy { id, update })
            }
            "cache-clear" => Ok(Request::CacheClear { id }),
            "cache-warm" => Ok(Request::CacheWarm {
                id,
                limit: opt_usize("limit")?,
            }),
            "store-compact" => {
                let auto_ratio = match v.get("auto_ratio") {
                    None | Some(Json::Null) => None,
                    Some(Json::Num(n)) if (0.0..=1.0).contains(n) => Some(*n),
                    Some(_) => {
                        return Err(bad(
                            "\"auto_ratio\" must be a number in [0, 1] (0 disarms)".to_owned()
                        ))
                    }
                };
                Ok(Request::StoreCompact { id, auto_ratio })
            }
            "metrics" => Ok(Request::Metrics { id }),
            "set-bounds" => Ok(Request::SetBounds {
                id,
                update: BoundsUpdate {
                    max_entries: opt_usize("max_entries")?,
                    max_bytes: opt_usize("max_bytes")?,
                },
            }),
            "metrics-history" => Ok(Request::MetricsHistory { id }),
            "slow-traces" => Ok(Request::SlowTraces {
                id,
                limit: opt_usize("limit")?,
            }),
            "set-slow-log" => {
                let slow_ms = match v.get("slow_ms") {
                    None | Some(Json::Null) => None,
                    Some(n) => Some(n.as_u64().ok_or_else(|| {
                        bad("\"slow_ms\" must be a non-negative integer".to_owned())
                    })?),
                };
                let cap = opt_usize("cap")?;
                if cap == Some(0) {
                    return Err(bad("\"cap\" must be positive".to_owned()));
                }
                Ok(Request::SetSlowLog { id, slow_ms, cap })
            }
            "set-faults" => {
                let spec = match v.get("spec") {
                    None | Some(Json::Null) => None,
                    Some(s) => Some(
                        s.as_str()
                            .ok_or_else(|| bad("\"spec\" must be a string".to_owned()))?
                            .to_owned(),
                    ),
                };
                Ok(Request::SetFaults { id, spec })
            }
            "set-overload" => {
                let opt_u64 = |field: &str| -> Result<Option<u64>, DecodeError> {
                    match v.get(field) {
                        None | Some(Json::Null) => Ok(None),
                        Some(n) => n.as_u64().map(Some).ok_or_else(|| {
                            bad(format!("{field:?} must be a non-negative integer"))
                        }),
                    }
                };
                let enabled = match v.get("enabled") {
                    None | Some(Json::Null) => None,
                    Some(Json::Bool(b)) => Some(*b),
                    Some(_) => return Err(bad("\"enabled\" must be a boolean".to_owned())),
                };
                let recover_windows = match opt_u64("recover_windows")? {
                    None => None,
                    Some(n) => Some(
                        u32::try_from(n)
                            .map_err(|_| bad("\"recover_windows\" is out of range".to_owned()))?,
                    ),
                };
                let update = OverloadUpdate {
                    enabled,
                    high_ms: opt_u64("high_ms")?,
                    low_ms: opt_u64("low_ms")?,
                    recover_windows,
                    retry_after_ms: opt_u64("retry_after_ms")?,
                    max_inflight: opt_u64("max_inflight")?,
                };
                if update.high_ms == Some(0) || update.recover_windows == Some(0) {
                    return Err(bad(
                        "high_ms and recover_windows must be positive".to_owned()
                    ));
                }
                Ok(Request::SetOverload { id, update })
            }
            "submit" => JobSpec::from_json(v)
                .map(Request::Submit)
                .map_err(|e| bad(e.to_string())),
            other => Err(bad(format!("unknown request type {other:?}"))),
        }
    }
}

// ---------------------------------------------------------------------
// Response codec
// ---------------------------------------------------------------------

fn shard_policy_to_json(policy: &ShardPolicy) -> Json {
    Json::obj([
        ("min_tilings", Json::num_usize(policy.min_tilings)),
        (
            "chunks_per_worker",
            Json::num_usize(policy.chunks_per_worker),
        ),
        (
            "chunk_tilings",
            match policy.chunk_tilings {
                Some(n) => Json::num_usize(n),
                None => Json::Null,
            },
        ),
    ])
}

fn shard_policy_from_json(v: &Json) -> Result<ShardPolicy, ServiceError> {
    let field = |name: &str| {
        v.get(name)
            .and_then(Json::as_usize)
            .ok_or_else(|| ServiceError::protocol(format!("shard policy missing {name:?}")))
    };
    Ok(ShardPolicy {
        min_tilings: field("min_tilings")?,
        chunks_per_worker: field("chunks_per_worker")?,
        chunk_tilings: match v.get("chunk_tilings") {
            None | Some(Json::Null) => None,
            Some(n) => Some(n.as_usize().ok_or_else(|| {
                ServiceError::protocol("\"chunk_tilings\" must be an integer or null")
            })?),
        },
    })
}

fn store_stats_to_json(s: &StoreStats) -> Json {
    Json::obj([
        ("live_entries", Json::num_usize(s.live_entries)),
        ("records", Json::num_u64(s.records)),
        ("dead_records", Json::num_u64(s.dead_records)),
        ("file_bytes", Json::num_u64(s.file_bytes)),
        ("live_value_bytes", Json::num_u64(s.live_value_bytes)),
        ("dead_bytes", Json::num_u64(s.dead_bytes)),
        ("appends", Json::num_u64(s.appends)),
        ("gets", Json::num_u64(s.gets)),
        ("hits", Json::num_u64(s.hits)),
        ("compactions", Json::num_u64(s.compactions)),
        ("recovered_bytes", Json::num_u64(s.recovered_bytes)),
    ])
}

fn store_stats_from_json(v: &Json) -> Result<StoreStats, ServiceError> {
    let int = |name: &str| {
        v.get(name)
            .and_then(Json::as_u64)
            .ok_or_else(|| ServiceError::protocol(format!("store stats missing {name:?}")))
    };
    Ok(StoreStats {
        live_entries: int("live_entries")? as usize,
        records: int("records")?,
        dead_records: int("dead_records")?,
        file_bytes: int("file_bytes")?,
        live_value_bytes: int("live_value_bytes")?,
        dead_bytes: int("dead_bytes")?,
        appends: int("appends")?,
        gets: int("gets")?,
        hits: int("hits")?,
        compactions: int("compactions")?,
        recovered_bytes: int("recovered_bytes")?,
    })
}

impl StatsReport {
    /// The counter fields the legacy `{"cmd":"stats"}` response carried,
    /// in their exact historical order — the byte-compatibility
    /// contract with pre-versioning clients.
    fn legacy_fields(&self) -> Vec<(String, Json)> {
        let stats = &self.cache;
        let mut fields = vec![
            ("hits".to_owned(), Json::num_u64(stats.hits)),
            ("misses".to_owned(), Json::num_u64(stats.misses)),
            ("coalesced".to_owned(), Json::num_u64(stats.coalesced)),
            ("evictions".to_owned(), Json::num_u64(stats.evictions)),
            (
                "cost_evictions".to_owned(),
                Json::num_u64(stats.cost_evictions),
            ),
            ("entries".to_owned(), Json::num_usize(stats.entries)),
            ("bytes".to_owned(), Json::num_usize(stats.bytes)),
            ("hit_rate".to_owned(), Json::Num(stats.hit_rate())),
            ("workers".to_owned(), Json::num_usize(self.workers)),
            ("store_hits".to_owned(), Json::num_u64(stats.store_hits)),
            ("store_misses".to_owned(), Json::num_u64(stats.store_misses)),
            ("store_errors".to_owned(), Json::num_u64(stats.store_errors)),
            (
                "compute_ns_min".to_owned(),
                Json::num_u64(stats.compute_ns_min),
            ),
            (
                "compute_ns_max".to_owned(),
                Json::num_u64(stats.compute_ns_max),
            ),
            (
                "compute_ns_total".to_owned(),
                Json::num_u64(stats.compute_ns_total),
            ),
        ];
        if let Some(s) = &self.store {
            fields.push((
                "store".to_owned(),
                Json::obj([
                    ("live_entries", Json::num_usize(s.live_entries)),
                    ("records", Json::num_u64(s.records)),
                    ("dead_records", Json::num_u64(s.dead_records)),
                    ("file_bytes", Json::num_u64(s.file_bytes)),
                    ("appends", Json::num_u64(s.appends)),
                    ("gets", Json::num_u64(s.gets)),
                    ("hits", Json::num_u64(s.hits)),
                ]),
            ));
        }
        fields
    }

    /// The legacy stats object (counters only).
    pub fn to_legacy_json(&self) -> Json {
        Json::Obj(self.legacy_fields())
    }

    /// The extended (v1) stats object: the legacy counters plus the
    /// bypass/refresh counters and the **active configuration**.
    pub fn to_json(&self) -> Json {
        let mut fields = self.legacy_fields();
        // The store sub-object (when present) stays last for readers;
        // insert the extensions just before it.
        let config_at = fields
            .iter()
            .position(|(k, _)| k == "store")
            .unwrap_or(fields.len());
        let mut extensions = vec![
            ("bypasses".to_owned(), Json::num_u64(self.cache.bypasses)),
            ("refreshes".to_owned(), Json::num_u64(self.cache.refreshes)),
            ("policy".to_owned(), Json::str(self.policy.label())),
            (
                "max_entries".to_owned(),
                match self.max_entries {
                    Some(n) => Json::num_usize(n),
                    None => Json::Null,
                },
            ),
            (
                "max_bytes".to_owned(),
                match self.max_bytes {
                    Some(n) => Json::num_usize(n),
                    None => Json::Null,
                },
            ),
            ("shard".to_owned(), shard_policy_to_json(&self.shard)),
            (
                "protocol_version".to_owned(),
                Json::num_u64(PROTOCOL_VERSION),
            ),
        ];
        // `backends` only appears on router reports: single-node
        // reports stay byte-identical to the pre-cluster protocol.
        if let Some(n) = self.backends {
            extensions.push(("backends".to_owned(), Json::num_usize(n)));
        }
        // Replace the legacy partial store object with the full one.
        if let Some(s) = &self.store {
            if let Some(slot) = fields.iter_mut().find(|(k, _)| k == "store") {
                slot.1 = store_stats_to_json(s);
            }
        }
        fields.splice(config_at..config_at, extensions);
        Json::Obj(fields)
    }

    /// Parse the extended (v1) stats object.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::Protocol`] for missing counters or
    /// configuration fields.
    pub fn from_json(v: &Json) -> Result<Self, ServiceError> {
        let int = |name: &str| {
            v.get(name)
                .and_then(Json::as_u64)
                .ok_or_else(|| ServiceError::protocol(format!("stats missing {name:?}")))
        };
        let opt = |name: &str| match v.get(name) {
            None | Some(Json::Null) => Ok(None),
            Some(n) => n.as_usize().map(Some).ok_or_else(|| {
                ServiceError::protocol(format!("{name:?} must be an integer or null"))
            }),
        };
        let cache = CacheStats {
            hits: int("hits")?,
            misses: int("misses")?,
            coalesced: int("coalesced")?,
            bypasses: int("bypasses")?,
            refreshes: int("refreshes")?,
            evictions: int("evictions")?,
            cost_evictions: int("cost_evictions")?,
            entries: int("entries")? as usize,
            bytes: int("bytes")? as usize,
            store_hits: int("store_hits")?,
            store_misses: int("store_misses")?,
            store_errors: int("store_errors")?,
            compute_ns_min: int("compute_ns_min")?,
            compute_ns_max: int("compute_ns_max")?,
            compute_ns_total: int("compute_ns_total")?,
        };
        let label = v
            .get("policy")
            .and_then(Json::as_str)
            .ok_or_else(|| ServiceError::protocol("stats missing \"policy\""))?;
        let policy = EvictionPolicy::from_label(label)
            .ok_or_else(|| ServiceError::protocol(format!("unknown eviction policy {label:?}")))?;
        Ok(StatsReport {
            cache,
            policy,
            max_entries: opt("max_entries")?,
            max_bytes: opt("max_bytes")?,
            shard: shard_policy_from_json(
                v.get("shard")
                    .ok_or_else(|| ServiceError::protocol("stats missing \"shard\""))?,
            )?,
            workers: int("workers")? as usize,
            store: match v.get("store") {
                None | Some(Json::Null) => None,
                Some(s) => Some(store_stats_from_json(s)?),
            },
            backends: opt("backends")?,
        })
    }
}

fn opt_usize_to_json(v: Option<usize>) -> Json {
    match v {
        Some(n) => Json::num_usize(n),
        None => Json::Null,
    }
}

fn histogram_snapshot_to_json(h: &HistogramSnapshot) -> Json {
    Json::obj([
        ("count", Json::num_u64(h.count)),
        ("sum", Json::num_u64(h.sum)),
        ("min", Json::num_u64(h.min)),
        ("max", Json::num_u64(h.max)),
        // Precomputed quantiles are a reader convenience; decoders
        // ignore them and recompute from the buckets.
        ("p50", Json::num_u64(h.p50())),
        ("p95", Json::num_u64(h.p95())),
        ("p99", Json::num_u64(h.p99())),
        ("p999", Json::num_u64(h.p999())),
        (
            "buckets",
            Json::Arr(
                h.buckets
                    .iter()
                    .map(|&(index, n)| {
                        Json::Arr(vec![Json::num_u64(u64::from(index)), Json::num_u64(n)])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn histogram_snapshot_from_json(v: &Json) -> Result<HistogramSnapshot, ServiceError> {
    let int = |name: &str| {
        v.get(name)
            .and_then(Json::as_u64)
            .ok_or_else(|| ServiceError::protocol(format!("histogram missing {name:?}")))
    };
    let buckets = v
        .get("buckets")
        .and_then(Json::as_array)
        .ok_or_else(|| ServiceError::protocol("histogram missing \"buckets\""))?
        .iter()
        .map(|pair| {
            let pair = pair.as_array().filter(|p| p.len() == 2).ok_or_else(|| {
                ServiceError::protocol("histogram buckets must be [index, count] pairs")
            })?;
            let index = pair[0]
                .as_u64()
                .ok_or_else(|| ServiceError::protocol("bucket index must be an integer"))?;
            let count = pair[1]
                .as_u64()
                .ok_or_else(|| ServiceError::protocol("bucket count must be an integer"))?;
            Ok((index as u32, count))
        })
        .collect::<Result<Vec<_>, ServiceError>>()?;
    Ok(HistogramSnapshot {
        count: int("count")?,
        sum: int("sum")?,
        min: int("min")?,
        max: int("max")?,
        buckets,
    })
}

fn slow_entry_to_json(e: &SlowEntry) -> Json {
    Json::obj([
        ("trace_id", Json::num_u64(e.trace_id)),
        ("total_ns", Json::num_u64(e.total_ns)),
        (
            "stages",
            Json::Arr(
                e.stages
                    .iter()
                    .map(|(name, ns)| Json::Arr(vec![Json::str(name), Json::num_u64(*ns)]))
                    .collect(),
            ),
        ),
    ])
}

fn slow_entry_from_json(v: &Json) -> Result<SlowEntry, ServiceError> {
    let int = |name: &str| {
        v.get(name)
            .and_then(Json::as_u64)
            .ok_or_else(|| ServiceError::protocol(format!("slow entry missing {name:?}")))
    };
    let stages =
        v.get("stages")
            .and_then(Json::as_array)
            .ok_or_else(|| ServiceError::protocol("slow entry missing \"stages\""))?
            .iter()
            .map(|pair| {
                let pair = pair.as_array().filter(|p| p.len() == 2).ok_or_else(|| {
                    ServiceError::protocol("slow stages must be [name, ns] pairs")
                })?;
                let name = pair[0]
                    .as_str()
                    .ok_or_else(|| ServiceError::protocol("stage name must be a string"))?;
                let ns = pair[1]
                    .as_u64()
                    .ok_or_else(|| ServiceError::protocol("stage time must be an integer"))?;
                Ok((name.to_owned(), ns))
            })
            .collect::<Result<Vec<_>, ServiceError>>()?;
    Ok(SlowEntry {
        trace_id: int("trace_id")?,
        total_ns: int("total_ns")?,
        stages,
    })
}

fn metrics_snapshot_to_json(snapshot: &MetricsSnapshot) -> Json {
    Json::obj([
        (
            "counters",
            Json::Obj(
                snapshot
                    .counters
                    .iter()
                    .map(|(name, v)| (name.clone(), Json::num_u64(*v)))
                    .collect(),
            ),
        ),
        (
            "gauges",
            Json::Obj(
                snapshot
                    .gauges
                    .iter()
                    .map(|(name, v)| (name.clone(), Json::Num(*v as f64)))
                    .collect(),
            ),
        ),
        (
            "histograms",
            Json::Obj(
                snapshot
                    .histograms
                    .iter()
                    .map(|(name, h)| (name.clone(), histogram_snapshot_to_json(h)))
                    .collect(),
            ),
        ),
    ])
}

fn metrics_snapshot_from_json(v: &Json) -> Result<MetricsSnapshot, ServiceError> {
    let obj = |name: &str| match v.get(name) {
        Some(Json::Obj(pairs)) => Ok(pairs),
        _ => Err(ServiceError::protocol(format!(
            "metrics missing object {name:?}"
        ))),
    };
    let counters = obj("counters")?
        .iter()
        .map(|(name, val)| {
            val.as_u64().map(|n| (name.clone(), n)).ok_or_else(|| {
                ServiceError::protocol(format!("counter {name:?} must be an integer"))
            })
        })
        .collect::<Result<Vec<_>, _>>()?;
    let gauges = obj("gauges")?
        .iter()
        .map(|(name, val)| {
            val.as_f64()
                .filter(|n| n.fract() == 0.0)
                .map(|n| (name.clone(), n as i64))
                .ok_or_else(|| ServiceError::protocol(format!("gauge {name:?} must be an integer")))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let histograms = obj("histograms")?
        .iter()
        .map(|(name, val)| Ok((name.clone(), histogram_snapshot_from_json(val)?)))
        .collect::<Result<Vec<_>, ServiceError>>()?;
    Ok(MetricsSnapshot {
        counters,
        gauges,
        histograms,
    })
}

fn metrics_report_fields(report: &MetricsReport) -> Vec<(String, Json)> {
    let mut fields = match metrics_snapshot_to_json(&report.snapshot) {
        Json::Obj(pairs) => pairs,
        _ => unreachable!("metrics_snapshot_to_json builds an object"),
    };
    fields.push((
        "slow".to_owned(),
        Json::Arr(report.slow.iter().map(slow_entry_to_json).collect()),
    ));
    fields
}

fn metrics_report_from_json(v: &Json) -> Result<MetricsReport, ServiceError> {
    let slow = v
        .get("slow")
        .and_then(Json::as_array)
        .ok_or_else(|| ServiceError::protocol("metrics missing \"slow\""))?
        .iter()
        .map(slow_entry_from_json)
        .collect::<Result<Vec<_>, _>>()?;
    Ok(MetricsReport {
        snapshot: metrics_snapshot_from_json(v)?,
        slow,
    })
}

fn snapshot_history_fields(history: &SnapshotHistory) -> Vec<(String, Json)> {
    vec![
        ("base".to_owned(), metrics_snapshot_to_json(&history.base)),
        (
            "samples".to_owned(),
            Json::Arr(
                history
                    .samples
                    .iter()
                    .map(|s| {
                        Json::obj([
                            ("uptime_ms", Json::num_u64(s.uptime_ms)),
                            ("window_ms", Json::num_u64(s.window_ms)),
                            ("delta", metrics_snapshot_to_json(&s.delta)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "cumulative".to_owned(),
            metrics_snapshot_to_json(&history.cumulative),
        ),
    ]
}

fn snapshot_history_from_json(v: &Json) -> Result<SnapshotHistory, ServiceError> {
    let samples = v
        .get("samples")
        .and_then(Json::as_array)
        .ok_or_else(|| ServiceError::protocol("history missing \"samples\""))?
        .iter()
        .map(|s| {
            let int = |name: &str| {
                s.get(name)
                    .and_then(Json::as_u64)
                    .ok_or_else(|| ServiceError::protocol(format!("sample missing {name:?}")))
            };
            Ok(SnapshotSample {
                uptime_ms: int("uptime_ms")?,
                window_ms: int("window_ms")?,
                delta: metrics_snapshot_from_json(
                    s.get("delta")
                        .ok_or_else(|| ServiceError::protocol("sample missing \"delta\""))?,
                )?,
            })
        })
        .collect::<Result<Vec<_>, ServiceError>>()?;
    Ok(SnapshotHistory {
        base: metrics_snapshot_from_json(
            v.get("base")
                .ok_or_else(|| ServiceError::protocol("history missing \"base\""))?,
        )?,
        samples,
        cumulative: metrics_snapshot_from_json(
            v.get("cumulative")
                .ok_or_else(|| ServiceError::protocol("history missing \"cumulative\""))?,
        )?,
    })
}

fn persisted_trace_to_json(t: &PersistedSlowTrace) -> Json {
    let mut pairs = vec![
        ("seq".to_owned(), Json::num_u64(t.seq)),
        ("unix_ms".to_owned(), Json::num_u64(t.unix_ms)),
    ];
    match slow_entry_to_json(&t.entry) {
        Json::Obj(entry) => pairs.extend(entry),
        _ => unreachable!("slow_entry_to_json builds an object"),
    }
    Json::Obj(pairs)
}

fn persisted_trace_from_json(v: &Json) -> Result<PersistedSlowTrace, ServiceError> {
    let int = |name: &str| {
        v.get(name)
            .and_then(Json::as_u64)
            .ok_or_else(|| ServiceError::protocol(format!("slow trace missing {name:?}")))
    };
    Ok(PersistedSlowTrace {
        seq: int("seq")?,
        unix_ms: int("unix_ms")?,
        entry: slow_entry_from_json(v)?,
    })
}

fn overload_config_to_json(c: &OverloadConfig) -> Json {
    Json::obj([
        ("enabled", Json::Bool(c.enabled)),
        ("high_ms", Json::num_u64(c.high_ms)),
        ("low_ms", Json::num_u64(c.low_ms)),
        (
            "recover_windows",
            Json::num_u64(u64::from(c.recover_windows)),
        ),
        ("retry_after_ms", Json::num_u64(c.retry_after_ms)),
        (
            "max_inflight",
            match c.max_inflight {
                Some(n) => Json::num_u64(n),
                None => Json::Null,
            },
        ),
    ])
}

fn overload_config_from_json(v: &Json) -> Result<OverloadConfig, ServiceError> {
    let int = |name: &str| {
        v.get(name)
            .and_then(Json::as_u64)
            .ok_or_else(|| ServiceError::protocol(format!("overload config missing {name:?}")))
    };
    let enabled = match v.get("enabled") {
        Some(Json::Bool(b)) => *b,
        _ => {
            return Err(ServiceError::protocol(
                "overload config missing boolean \"enabled\"",
            ))
        }
    };
    Ok(OverloadConfig {
        enabled,
        high_ms: int("high_ms")?,
        low_ms: int("low_ms")?,
        recover_windows: u32::try_from(int("recover_windows")?)
            .map_err(|_| ServiceError::protocol("\"recover_windows\" is out of range"))?,
        retry_after_ms: int("retry_after_ms")?,
        max_inflight: match v.get("max_inflight") {
            None | Some(Json::Null) => None,
            Some(n) => Some(n.as_u64().ok_or_else(|| {
                ServiceError::protocol("\"max_inflight\" must be an integer or null")
            })?),
        },
    })
}

fn legacy_error(id: Option<u64>, message: &str) -> Json {
    let mut pairs = vec![("ok".to_owned(), Json::Bool(false))];
    if let Some(id) = id {
        pairs.push(("id".to_owned(), Json::num_u64(id)));
    }
    pairs.push(("error".to_owned(), Json::str(message)));
    Json::Obj(pairs)
}

fn typed_ok(kind: &str, id: Option<u64>, rest: Vec<(String, Json)>) -> Json {
    let mut pairs = vec![
        ("type".to_owned(), Json::str(kind)),
        ("ok".to_owned(), Json::Bool(true)),
    ];
    push_id(&mut pairs, id);
    pairs.extend(rest);
    Json::Obj(pairs)
}

impl Response {
    /// Render for the wire in the given dialect. Legacy renderings are
    /// byte-identical to the pre-versioning server's responses; typed
    /// renderings carry a `"type"` field. Admin responses have no
    /// legacy form (the old protocol had no such verbs) and render
    /// typed in both dialects.
    pub fn render(&self, dialect: Dialect) -> Json {
        match (self, dialect) {
            (Response::Pong { .. }, Dialect::Legacy) => {
                Json::obj([("ok", Json::Bool(true)), ("pong", Json::Bool(true))])
            }
            (Response::Pong { id }, Dialect::V1) => typed_ok("pong", *id, vec![]),
            (Response::Stats { report, .. }, Dialect::Legacy) => {
                Json::obj([("ok", Json::Bool(true)), ("stats", report.to_legacy_json())])
            }
            (Response::Stats { id, report }, Dialect::V1) => {
                typed_ok("stats", *id, vec![("stats".to_owned(), report.to_json())])
            }
            (Response::Shutdown { .. }, Dialect::Legacy) => {
                Json::obj([("ok", Json::Bool(true)), ("shutdown", Json::Bool(true))])
            }
            (Response::Shutdown { id }, Dialect::V1) => typed_ok(
                "shutdown",
                *id,
                vec![("shutdown".to_owned(), Json::Bool(true))],
            ),
            (Response::Job { result }, Dialect::Legacy) => Json::obj([
                ("ok", Json::Bool(true)),
                ("id", Json::num_u64(result.id)),
                ("result", result.to_json()),
            ]),
            (Response::Job { result }, Dialect::V1) => Json::obj([
                ("type", Json::str("job")),
                ("ok", Json::Bool(true)),
                ("id", Json::num_u64(result.id)),
                ("result", result.to_json()),
            ]),
            (Response::Error { id, message }, Dialect::Legacy) => legacy_error(*id, message),
            (Response::Error { id, message }, Dialect::V1) => {
                let mut pairs = vec![
                    ("type".to_owned(), Json::str("error")),
                    ("ok".to_owned(), Json::Bool(false)),
                ];
                push_id(&mut pairs, *id);
                pairs.push(("error".to_owned(), Json::str(message)));
                Json::Obj(pairs)
            }
            (
                Response::Hello {
                    version,
                    server,
                    capabilities,
                },
                _,
            ) => typed_ok(
                "hello",
                None,
                vec![
                    ("version".to_owned(), Json::num_u64(*version)),
                    ("server".to_owned(), Json::str(server)),
                    (
                        "capabilities".to_owned(),
                        Json::Arr(capabilities.iter().map(|c| Json::str(c.as_str())).collect()),
                    ),
                ],
            ),
            (
                Response::PolicySet {
                    id,
                    policy,
                    previous,
                },
                _,
            ) => typed_ok(
                "policy-set",
                *id,
                vec![
                    ("policy".to_owned(), Json::str(policy.label())),
                    ("previous".to_owned(), Json::str(previous.label())),
                ],
            ),
            (
                Response::ShardPolicySet {
                    id,
                    policy,
                    previous,
                },
                _,
            ) => typed_ok(
                "shard-policy-set",
                *id,
                vec![
                    ("policy".to_owned(), shard_policy_to_json(policy)),
                    ("previous".to_owned(), shard_policy_to_json(previous)),
                ],
            ),
            (Response::CacheCleared { id }, _) => typed_ok("cache-cleared", *id, vec![]),
            (Response::CacheWarmed { id, loaded }, _) => typed_ok(
                "cache-warmed",
                *id,
                vec![("loaded".to_owned(), Json::num_usize(*loaded))],
            ),
            (Response::StoreCompacted { id, report }, _) => typed_ok(
                "store-compacted",
                *id,
                vec![
                    (
                        "live_records".to_owned(),
                        Json::num_u64(report.live_records),
                    ),
                    (
                        "dropped_records".to_owned(),
                        Json::num_u64(report.dropped_records),
                    ),
                    (
                        "bytes_before".to_owned(),
                        Json::num_u64(report.bytes_before),
                    ),
                    ("bytes_after".to_owned(), Json::num_u64(report.bytes_after)),
                ],
            ),
            (Response::Metrics { id, report }, _) => {
                typed_ok("metrics", *id, metrics_report_fields(report))
            }
            (Response::MetricsHistory { id, history }, _) => {
                typed_ok("metrics-history", *id, snapshot_history_fields(history))
            }
            (Response::SlowTraces { id, traces }, _) => typed_ok(
                "slow-traces",
                *id,
                vec![(
                    "traces".to_owned(),
                    Json::Arr(traces.iter().map(persisted_trace_to_json).collect()),
                )],
            ),
            (
                Response::SlowLogSet {
                    id,
                    slow_ms,
                    cap,
                    previous_ms,
                    previous_cap,
                },
                _,
            ) => typed_ok(
                "slow-log-set",
                *id,
                vec![
                    (
                        "slow_ms".to_owned(),
                        match slow_ms {
                            Some(ms) => Json::num_u64(*ms),
                            None => Json::Null,
                        },
                    ),
                    ("cap".to_owned(), Json::num_usize(*cap)),
                    (
                        "previous_ms".to_owned(),
                        match previous_ms {
                            Some(ms) => Json::num_u64(*ms),
                            None => Json::Null,
                        },
                    ),
                    ("previous_cap".to_owned(), Json::num_usize(*previous_cap)),
                ],
            ),
            (Response::FaultsSet { id, spec }, _) => typed_ok(
                "faults-set",
                *id,
                vec![(
                    "spec".to_owned(),
                    match spec {
                        Some(s) => Json::str(s),
                        None => Json::Null,
                    },
                )],
            ),
            (
                Response::OverloadSet {
                    id,
                    config,
                    previous,
                },
                _,
            ) => typed_ok(
                "overload-set",
                *id,
                vec![
                    ("config".to_owned(), overload_config_to_json(config)),
                    ("previous".to_owned(), overload_config_to_json(previous)),
                ],
            ),
            (Response::Overloaded { id, retry_after_ms }, Dialect::Legacy) => legacy_error(
                *id,
                &ServiceError::Overloaded {
                    retry_after_ms: *retry_after_ms,
                }
                .to_string(),
            ),
            (Response::Overloaded { id, retry_after_ms }, Dialect::V1) => {
                let mut pairs = vec![
                    ("type".to_owned(), Json::str("overloaded")),
                    ("ok".to_owned(), Json::Bool(false)),
                ];
                push_id(&mut pairs, *id);
                pairs.push(("retry_after_ms".to_owned(), Json::num_u64(*retry_after_ms)));
                pairs.push((
                    "error".to_owned(),
                    Json::str(
                        ServiceError::Overloaded {
                            retry_after_ms: *retry_after_ms,
                        }
                        .to_string(),
                    ),
                ));
                Json::Obj(pairs)
            }
            (Response::DeadlineExceeded { id, deadline_ms }, Dialect::Legacy) => legacy_error(
                *id,
                &ServiceError::DeadlineExceeded {
                    deadline_ms: *deadline_ms,
                }
                .to_string(),
            ),
            (Response::DeadlineExceeded { id, deadline_ms }, Dialect::V1) => {
                let mut pairs = vec![
                    ("type".to_owned(), Json::str("deadline_exceeded")),
                    ("ok".to_owned(), Json::Bool(false)),
                ];
                push_id(&mut pairs, *id);
                pairs.push(("deadline_ms".to_owned(), Json::num_u64(*deadline_ms)));
                pairs.push((
                    "error".to_owned(),
                    Json::str(
                        ServiceError::DeadlineExceeded {
                            deadline_ms: *deadline_ms,
                        }
                        .to_string(),
                    ),
                ));
                Json::Obj(pairs)
            }
            (
                Response::BoundsSet {
                    id,
                    max_entries,
                    max_bytes,
                    previous_entries,
                    previous_bytes,
                    evicted,
                },
                _,
            ) => typed_ok(
                "bounds-set",
                *id,
                vec![
                    ("max_entries".to_owned(), opt_usize_to_json(*max_entries)),
                    ("max_bytes".to_owned(), opt_usize_to_json(*max_bytes)),
                    (
                        "previous_entries".to_owned(),
                        opt_usize_to_json(*previous_entries),
                    ),
                    (
                        "previous_bytes".to_owned(),
                        opt_usize_to_json(*previous_bytes),
                    ),
                    ("evicted".to_owned(), Json::num_u64(*evicted)),
                ],
            ),
        }
    }

    /// Decode a typed (v1) response. Legacy responses have no `"type"`
    /// field and are parsed by their own pre-versioning readers.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::Protocol`] for unknown types or missing
    /// fields.
    pub fn decode(v: &Json) -> Result<Response, ServiceError> {
        let kind = v
            .get("type")
            .and_then(Json::as_str)
            .ok_or_else(|| ServiceError::protocol("response carries no \"type\""))?;
        let id = v.get("id").and_then(Json::as_u64);
        let policy_field = |name: &str| {
            let label = v
                .get(name)
                .and_then(Json::as_str)
                .ok_or_else(|| ServiceError::protocol(format!("response missing {name:?}")))?;
            EvictionPolicy::from_label(label)
                .ok_or_else(|| ServiceError::protocol(format!("unknown eviction policy {label:?}")))
        };
        let int = |name: &str| {
            v.get(name)
                .and_then(Json::as_u64)
                .ok_or_else(|| ServiceError::protocol(format!("response missing {name:?}")))
        };
        match kind {
            "hello" => Ok(Response::Hello {
                version: int("version")?,
                server: v
                    .get("server")
                    .and_then(Json::as_str)
                    .ok_or_else(|| ServiceError::protocol("hello missing \"server\""))?
                    .to_owned(),
                capabilities: v
                    .get("capabilities")
                    .and_then(Json::as_array)
                    .ok_or_else(|| ServiceError::protocol("hello missing \"capabilities\""))?
                    .iter()
                    .map(|c| {
                        c.as_str()
                            .map(str::to_owned)
                            .ok_or_else(|| ServiceError::protocol("capabilities must be strings"))
                    })
                    .collect::<Result<Vec<_>, _>>()?,
            }),
            "pong" => Ok(Response::Pong { id }),
            "stats" => Ok(Response::Stats {
                id,
                report: StatsReport::from_json(
                    v.get("stats")
                        .ok_or_else(|| ServiceError::protocol("response missing \"stats\""))?,
                )?,
            }),
            "shutdown" => Ok(Response::Shutdown { id }),
            "policy-set" => Ok(Response::PolicySet {
                id,
                policy: policy_field("policy")?,
                previous: policy_field("previous")?,
            }),
            "shard-policy-set" => Ok(Response::ShardPolicySet {
                id,
                policy: shard_policy_from_json(
                    v.get("policy")
                        .ok_or_else(|| ServiceError::protocol("response missing \"policy\""))?,
                )?,
                previous: shard_policy_from_json(
                    v.get("previous")
                        .ok_or_else(|| ServiceError::protocol("response missing \"previous\""))?,
                )?,
            }),
            "cache-cleared" => Ok(Response::CacheCleared { id }),
            "cache-warmed" => Ok(Response::CacheWarmed {
                id,
                loaded: int("loaded")? as usize,
            }),
            "store-compacted" => Ok(Response::StoreCompacted {
                id,
                report: CompactReport {
                    live_records: int("live_records")?,
                    dropped_records: int("dropped_records")?,
                    bytes_before: int("bytes_before")?,
                    bytes_after: int("bytes_after")?,
                },
            }),
            "metrics" => Ok(Response::Metrics {
                id,
                report: metrics_report_from_json(v)?,
            }),
            "metrics-history" => Ok(Response::MetricsHistory {
                id,
                history: snapshot_history_from_json(v)?,
            }),
            "slow-traces" => Ok(Response::SlowTraces {
                id,
                traces: v
                    .get("traces")
                    .and_then(Json::as_array)
                    .ok_or_else(|| ServiceError::protocol("response missing \"traces\""))?
                    .iter()
                    .map(persisted_trace_from_json)
                    .collect::<Result<Vec<_>, _>>()?,
            }),
            "slow-log-set" => {
                let opt_ms = |name: &str| match v.get(name) {
                    None | Some(Json::Null) => Ok(None),
                    Some(n) => n.as_u64().map(Some).ok_or_else(|| {
                        ServiceError::protocol(format!("{name:?} must be an integer or null"))
                    }),
                };
                Ok(Response::SlowLogSet {
                    id,
                    slow_ms: opt_ms("slow_ms")?,
                    cap: int("cap")? as usize,
                    previous_ms: opt_ms("previous_ms")?,
                    previous_cap: int("previous_cap")? as usize,
                })
            }
            "bounds-set" => {
                let opt = |name: &str| match v.get(name) {
                    None | Some(Json::Null) => Ok(None),
                    Some(n) => n.as_usize().map(Some).ok_or_else(|| {
                        ServiceError::protocol(format!("{name:?} must be an integer or null"))
                    }),
                };
                Ok(Response::BoundsSet {
                    id,
                    max_entries: opt("max_entries")?,
                    max_bytes: opt("max_bytes")?,
                    previous_entries: opt("previous_entries")?,
                    previous_bytes: opt("previous_bytes")?,
                    evicted: int("evicted")?,
                })
            }
            "faults-set" => Ok(Response::FaultsSet {
                id,
                spec: match v.get("spec") {
                    None | Some(Json::Null) => None,
                    Some(s) => Some(
                        s.as_str()
                            .ok_or_else(|| {
                                ServiceError::protocol("\"spec\" must be a string or null")
                            })?
                            .to_owned(),
                    ),
                },
            }),
            "overload-set" => Ok(Response::OverloadSet {
                id,
                config: overload_config_from_json(
                    v.get("config")
                        .ok_or_else(|| ServiceError::protocol("response missing \"config\""))?,
                )?,
                previous: overload_config_from_json(
                    v.get("previous")
                        .ok_or_else(|| ServiceError::protocol("response missing \"previous\""))?,
                )?,
            }),
            "overloaded" => Ok(Response::Overloaded {
                id,
                retry_after_ms: int("retry_after_ms")?,
            }),
            "deadline_exceeded" => Ok(Response::DeadlineExceeded {
                id,
                deadline_ms: int("deadline_ms")?,
            }),
            "job" => Ok(Response::Job {
                result: JobResult::from_json(
                    v.get("result")
                        .ok_or_else(|| ServiceError::protocol("response missing \"result\""))?,
                )?,
            }),
            "error" => Ok(Response::Error {
                id,
                message: v
                    .get("error")
                    .and_then(Json::as_str)
                    .ok_or_else(|| ServiceError::protocol("error response missing \"error\""))?
                    .to_owned(),
            }),
            other => Err(ServiceError::protocol(format!(
                "unknown response type {other:?}"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::EngineSpec;
    use drmap_cnn::network::Network;
    use drmap_telemetry::MetricsRegistry;

    #[test]
    fn typed_requests_round_trip() {
        let requests = vec![
            Request::Hello {
                version: 1,
                client: Some("test/1".into()),
            },
            Request::Ping { id: Some(7) },
            Request::Stats { id: None },
            Request::Shutdown { id: Some(0) },
            Request::SetPolicy {
                id: Some(3),
                policy: EvictionPolicy::Cost,
            },
            Request::SetShardPolicy {
                id: None,
                update: ShardPolicyUpdate {
                    min_tilings: Some(32),
                    chunks_per_worker: None,
                    chunk_tilings: Some(0),
                },
            },
            Request::CacheClear { id: Some(9) },
            Request::CacheWarm {
                id: None,
                limit: Some(100),
            },
            Request::StoreCompact {
                id: Some(2),
                auto_ratio: None,
            },
            Request::StoreCompact {
                id: None,
                auto_ratio: Some(0.25),
            },
            Request::Metrics { id: Some(11) },
            Request::SetBounds {
                id: Some(12),
                update: BoundsUpdate {
                    max_entries: Some(64),
                    max_bytes: Some(0),
                },
            },
            Request::MetricsHistory { id: Some(13) },
            Request::SlowTraces {
                id: Some(14),
                limit: Some(5),
            },
            Request::SlowTraces {
                id: None,
                limit: None,
            },
            Request::SetSlowLog {
                id: Some(15),
                slow_ms: Some(0),
                cap: Some(64),
            },
            Request::SetSlowLog {
                id: None,
                slow_ms: None,
                cap: Some(8),
            },
            Request::SetFaults {
                id: Some(16),
                spec: Some("seed=7,store-fail=0.1".into()),
            },
            Request::SetFaults {
                id: None,
                spec: None,
            },
            Request::SetOverload {
                id: Some(17),
                update: OverloadUpdate {
                    enabled: Some(true),
                    high_ms: Some(800),
                    low_ms: None,
                    recover_windows: Some(4),
                    retry_after_ms: None,
                    max_inflight: Some(0),
                },
            },
            Request::Submit(JobSpec::network(5, EngineSpec::default(), Network::tiny())),
        ];
        for request in requests {
            let rendered = request.to_json().render();
            let (decoded, dialect) = Request::decode(&Json::parse(&rendered).unwrap())
                .unwrap_or_else(|e| {
                    panic!("failed to decode {rendered}: {e:?}");
                });
            assert_eq!(dialect, Dialect::V1, "{rendered}");
            assert_eq!(decoded, request, "{rendered}");
        }
    }

    #[test]
    fn legacy_requests_decode_through_the_shim() {
        let (req, dialect) = Request::decode(&Json::parse(r#"{"cmd":"ping"}"#).unwrap()).unwrap();
        assert_eq!(req, Request::Ping { id: None });
        assert_eq!(dialect, Dialect::Legacy);

        let (req, dialect) =
            Request::decode(&Json::parse(r#"{"id":4,"network":{"model":"tiny"}}"#).unwrap())
                .unwrap();
        assert!(matches!(req, Request::Submit(spec) if spec.id == 4));
        assert_eq!(dialect, Dialect::Legacy);

        let err = Request::decode(&Json::parse(r#"{"cmd":"reboot","id":6}"#).unwrap()).unwrap_err();
        assert_eq!(err.dialect, Dialect::Legacy);
        assert_eq!(err.id, Some(6));
        assert_eq!(err.message, "unknown command \"reboot\"");
    }

    #[test]
    fn shard_policy_updates_merge_field_by_field() {
        let current = ShardPolicy {
            min_tilings: 64,
            chunks_per_worker: 3,
            chunk_tilings: Some(16),
        };
        let keep_all = ShardPolicyUpdate::default();
        assert_eq!(keep_all.apply(current), current);
        let retune = ShardPolicyUpdate {
            min_tilings: Some(128),
            chunks_per_worker: None,
            chunk_tilings: Some(0), // clears the override
        };
        assert_eq!(
            retune.apply(current),
            ShardPolicy {
                min_tilings: 128,
                chunks_per_worker: 3,
                chunk_tilings: None,
            }
        );
    }

    #[test]
    fn legacy_renderings_match_the_pre_versioning_bytes() {
        assert_eq!(
            Response::Pong { id: Some(3) }
                .render(Dialect::Legacy)
                .render(),
            r#"{"ok":true,"pong":true}"#
        );
        assert_eq!(
            Response::Shutdown { id: None }
                .render(Dialect::Legacy)
                .render(),
            r#"{"ok":true,"shutdown":true}"#
        );
        assert_eq!(
            Response::Error {
                id: Some(6),
                message: "unknown command \"reboot\"".into()
            }
            .render(Dialect::Legacy)
            .render(),
            r#"{"ok":false,"id":6,"error":"unknown command \"reboot\""}"#
        );
        // A fresh report renders the exact legacy stats field set.
        let report = StatsReport {
            cache: CacheStats::default(),
            policy: EvictionPolicy::Lru,
            max_entries: None,
            max_bytes: None,
            shard: ShardPolicy::default(),
            workers: 2,
            store: None,
            backends: None,
        };
        assert_eq!(
            Response::Stats { id: None, report }
                .render(Dialect::Legacy)
                .render(),
            "{\"ok\":true,\"stats\":{\"hits\":0,\"misses\":0,\"coalesced\":0,\
             \"evictions\":0,\"cost_evictions\":0,\"entries\":0,\"bytes\":0,\
             \"hit_rate\":0,\"workers\":2,\"store_hits\":0,\"store_misses\":0,\
             \"store_errors\":0,\"compute_ns_min\":0,\"compute_ns_max\":0,\
             \"compute_ns_total\":0}}"
        );
    }

    #[test]
    fn typed_responses_round_trip() {
        let report = StatsReport {
            cache: CacheStats {
                hits: 10,
                misses: 4,
                coalesced: 2,
                bypasses: 1,
                refreshes: 1,
                evictions: 3,
                cost_evictions: 2,
                entries: 5,
                bytes: 4096,
                store_hits: 1,
                store_misses: 3,
                store_errors: 0,
                compute_ns_min: 1_000,
                compute_ns_max: 9_000,
                compute_ns_total: 20_000,
            },
            policy: EvictionPolicy::Cost,
            max_entries: Some(512),
            max_bytes: None,
            shard: ShardPolicy {
                min_tilings: 32,
                chunks_per_worker: 4,
                chunk_tilings: Some(8),
            },
            workers: 8,
            store: Some(StoreStats {
                live_entries: 5,
                records: 9,
                dead_records: 4,
                file_bytes: 8192,
                live_value_bytes: 4000,
                dead_bytes: 2000,
                appends: 9,
                gets: 12,
                hits: 7,
                compactions: 1,
                recovered_bytes: 0,
            }),
            backends: Some(3),
        };
        let responses = vec![
            Response::Hello {
                version: PROTOCOL_VERSION,
                server: "drmap-service/test".into(),
                capabilities: capabilities(true),
            },
            Response::Pong { id: Some(1) },
            Response::Stats {
                id: Some(2),
                report,
            },
            Response::Shutdown { id: None },
            Response::PolicySet {
                id: Some(4),
                policy: EvictionPolicy::Cost,
                previous: EvictionPolicy::Lru,
            },
            Response::ShardPolicySet {
                id: None,
                policy: ShardPolicy::default(),
                previous: ShardPolicy {
                    chunk_tilings: Some(4),
                    ..ShardPolicy::default()
                },
            },
            Response::CacheCleared { id: Some(5) },
            Response::CacheWarmed {
                id: None,
                loaded: 42,
            },
            Response::StoreCompacted {
                id: Some(6),
                report: CompactReport {
                    live_records: 5,
                    dropped_records: 4,
                    bytes_before: 8192,
                    bytes_after: 4501,
                },
            },
            Response::Metrics {
                id: Some(8),
                report: {
                    let registry = MetricsRegistry::new();
                    registry.counter("jobs_total").add(3);
                    registry.gauge("connections_open").set(2);
                    let h = registry.histogram("request_ns");
                    h.record(1_000);
                    h.record(2_000_000);
                    MetricsReport {
                        snapshot: registry.snapshot(),
                        slow: vec![SlowEntry {
                            trace_id: 9,
                            total_ns: 2_000_000,
                            stages: vec![("explore".to_owned(), 1_500_000)],
                        }],
                    }
                },
            },
            Response::BoundsSet {
                id: Some(9),
                max_entries: Some(64),
                max_bytes: None,
                previous_entries: Some(128),
                previous_bytes: Some(1 << 20),
                evicted: 17,
            },
            Response::MetricsHistory {
                id: Some(10),
                history: {
                    let registry = MetricsRegistry::new();
                    let ring = drmap_telemetry::SnapshotRing::new(2);
                    let c = registry.counter("jobs_total");
                    for step in 1..=3u64 {
                        c.add(step);
                        registry.histogram("request_ns").record(step * 1_000);
                        ring.record(registry.snapshot(), registry.uptime_ms());
                    }
                    ring.history()
                },
            },
            Response::SlowTraces {
                id: Some(11),
                traces: vec![PersistedSlowTrace {
                    seq: 3,
                    unix_ms: 1_700_000_000_000,
                    entry: SlowEntry {
                        trace_id: 42,
                        total_ns: 7_000_000,
                        stages: vec![("explore".to_owned(), 6_000_000)],
                    },
                }],
            },
            Response::SlowTraces {
                id: None,
                traces: vec![],
            },
            Response::SlowLogSet {
                id: Some(12),
                slow_ms: Some(25),
                cap: 64,
                previous_ms: None,
                previous_cap: 32,
            },
            Response::FaultsSet {
                id: Some(13),
                spec: Some("seed=7,store-fail=0.1".into()),
            },
            Response::FaultsSet {
                id: None,
                spec: None,
            },
            Response::OverloadSet {
                id: Some(14),
                config: crate::overload::OverloadConfig {
                    enabled: true,
                    high_ms: 800,
                    low_ms: 400,
                    recover_windows: 4,
                    retry_after_ms: 250,
                    max_inflight: Some(32),
                },
                previous: crate::overload::OverloadConfig::default(),
            },
            Response::Overloaded {
                id: Some(15),
                retry_after_ms: 1_000,
            },
            Response::DeadlineExceeded {
                id: Some(16),
                deadline_ms: 250,
            },
            Response::Error {
                id: Some(7),
                message: "no store attached".into(),
            },
        ];
        for response in responses {
            let rendered = response.render(Dialect::V1).render();
            let decoded = Response::decode(&Json::parse(&rendered).unwrap())
                .unwrap_or_else(|e| panic!("failed to decode {rendered}: {e}"));
            assert_eq!(decoded, response, "{rendered}");
        }
    }

    #[test]
    fn capability_list_reflects_the_store() {
        assert!(!capabilities(false).contains(&"store".to_owned()));
        assert!(capabilities(true).contains(&"store".to_owned()));
        assert!(capabilities(false).contains(&"admin".to_owned()));
        assert!(capabilities(false).contains(&"metrics".to_owned()));
        assert!(capabilities(false).contains(&"set-bounds".to_owned()));
        assert!(capabilities(false).contains(&"metrics-history".to_owned()));
        // Persisted post-mortems need a store to live in.
        assert!(!capabilities(false).contains(&"slow-traces".to_owned()));
        assert!(capabilities(true).contains(&"slow-traces".to_owned()));
    }

    #[test]
    fn overload_updates_merge_and_sanitize_field_by_field() {
        let current = crate::overload::OverloadConfig::default();
        assert!(OverloadUpdate::default().is_empty());
        assert_eq!(OverloadUpdate::default().apply(current), current);
        let update = OverloadUpdate {
            enabled: Some(true),
            high_ms: Some(200),
            low_ms: None,
            recover_windows: None,
            retry_after_ms: Some(100),
            max_inflight: Some(16),
        };
        assert!(!update.is_empty());
        let applied = update.apply(current);
        assert!(applied.enabled);
        assert_eq!(applied.high_ms, 200);
        // low_ms kept its default 500 but sanitization clamps it down
        // to the new high watermark.
        assert_eq!(applied.low_ms, 200);
        assert_eq!(applied.recover_windows, current.recover_windows);
        assert_eq!(applied.retry_after_ms, 100);
        assert_eq!(applied.max_inflight, Some(16));
        // 0 clears the cap.
        let cleared = OverloadUpdate {
            max_inflight: Some(0),
            ..OverloadUpdate::default()
        }
        .apply(applied);
        assert_eq!(cleared.max_inflight, None);
        // Shed responses carry the typed payloads in the legacy
        // dialect too, rendered as ordinary legacy errors.
        assert_eq!(
            Response::Overloaded {
                id: Some(3),
                retry_after_ms: 250
            }
            .render(Dialect::Legacy)
            .render(),
            r#"{"ok":false,"id":3,"error":"server overloaded; retry after 250 ms"}"#
        );
        assert_eq!(
            Response::DeadlineExceeded {
                id: None,
                deadline_ms: 40
            }
            .render(Dialect::Legacy)
            .render(),
            r#"{"ok":false,"error":"deadline exceeded after 40 ms"}"#
        );
        // Fault injection is advertised exactly when it is compiled in
        // (debug builds or the `faults` feature).
        assert_eq!(
            capabilities(false).contains(&"faults".to_owned()),
            crate::faults::FAULTS_COMPILED_IN
        );
        assert!(capabilities(false).contains(&"overload-control".to_owned()));
        assert!(capabilities(false).contains(&"deadlines".to_owned()));
    }

    #[test]
    fn bounds_updates_translate_to_cache_actions() {
        let update = BoundsUpdate::default();
        assert!(update.is_empty());
        assert_eq!(update.entries_action(), None);
        assert_eq!(update.bytes_action(), None);
        let update = BoundsUpdate {
            max_entries: Some(0),
            max_bytes: Some(4096),
        };
        assert!(!update.is_empty());
        assert_eq!(update.entries_action(), Some(None)); // cleared
        assert_eq!(update.bytes_action(), Some(Some(4096)));
    }
}
