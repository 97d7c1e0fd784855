//! The worker-pool execution engine.
//!
//! Layer-wise DSE is embarrassingly parallel: a network job decomposes
//! into independent per-layer explorations. The pool exploits that by
//! sharding every submitted job into layer tasks on one shared queue,
//! so a batch of jobs keeps all workers busy end-to-end — small jobs
//! don't wait for big ones and a single straggler layer cannot idle the
//! rest of the pool (contrast with
//! [`DseEngine::explore_network`](drmap_core::dse::DseEngine::explore_network),
//! which runs a bounded worker crew inside one process-wide call).
//!
//! ## Intra-layer sharding
//!
//! A single huge layer (AlexNet FC6, say) used to be one indivisible
//! task — one worker ground through its whole tiling × scheme × mapping
//! sweep while the rest of the pool idled. Now a worker that picks up a
//! layer whose tiling enumeration crosses [`ShardPolicy::min_tilings`]
//! splits the range into chunks, posts *help tokens* onto the shared
//! queue, and claims chunks itself from a shared counter. Idle workers
//! that pick up a token join in; each chunk becomes a
//! [`DseEngine::explore_layer_range`] partial, and the leader merges
//! them in range order — an exact merge, so the assembled
//! [`LayerDseResult`](drmap_core::dse::LayerDseResult) is bit-identical
//! to a sequential `explore_layer`. The scheme is deadlock-free by
//! construction: the leader only ever *waits* for chunks that some
//! worker has already claimed and is actively computing (unclaimed
//! chunks it claims itself), and help tokens arriving after the shard
//! drained are no-ops.
//!
//! ## Completion
//!
//! Each submitted job owns a completion record: one slot per layer, a
//! remaining-layers counter and an on-done callback. A worker that
//! finishes a layer fills its slot and decrements the counter; the one
//! that takes the counter to zero assembles the [`JobResult`] and runs
//! the callback on its own thread. No thread waits on a job: the TCP
//! front-end's callback queues the response straight to the
//! connection's writer, and [`PendingJob::wait`] is the same mechanism
//! with a callback that sends on a one-shot channel. A layer task that
//! is dropped without running (the queue was already shut down) fills
//! its slot with an error, so every job completes exactly once.
//!
//! A job whose every layer is already resident never reaches the
//! queue. [`DsePool::submit_then`] renders the job's layer keys once,
//! probes the resident tier for all of them under one cache lock, and
//! on a full hit assembles the result and runs the callback on the
//! submitting thread (counted in `jobs_resident_total`). The probe is
//! all or nothing: a partially resident job, a `bypass` or `refresh`
//! job, and a fault plan's panic victim queue their layers as above,
//! reusing the keys, and count exactly as if no probe had happened.
//!
//! Determinism: workers may *compute* layers (and chunks) in any order,
//! but results are reassembled in layer (and range) order and totals
//! are accumulated exactly as the direct engine does, so a job's
//! [`JobResult`] is bit-identical to a sequential run — cached, pooled,
//! sharded, or direct.

use std::ops::Range;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, sync_channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use drmap_cnn::layer::Layer;
use drmap_core::dse::{DseEngine, LayerDseResult, LayerPartial, SharedEngine};
use drmap_core::edp::EdpEstimate;
use drmap_core::error::DseError;
use drmap_core::tiling::{enumerate_tilings, Tiling};
use drmap_telemetry::{Histogram, Span, Trace};

use crate::cache::CacheOutcome;
use crate::engine::{layer_keys, outcome_from_result, ServiceState};
use crate::error::{panic_message, ServiceError, DEADLINE_MARKER};
use crate::spec::{CacheMode, JobOptions, JobResult, JobSpec};
use crate::sync::lock_recovered;

type LayerReply = Result<(LayerDseResult, CacheOutcome), DseError>;

/// What a finished job hands its completion callback.
pub type JobOutcome = Result<JobResult, ServiceError>;

type OnDone = Box<dyn FnOnce(JobOutcome) + Send>;

/// One submitted job's completion record: a slot per layer, the count
/// of layers still unreported, and the callback to run once, when the
/// last layer reports.
struct Completion {
    id: u64,
    workload: String,
    t_ck_ns: f64,
    slots: Vec<Mutex<Option<LayerReply>>>,
    remaining: AtomicUsize,
    on_done: Mutex<Option<OnDone>>,
}

impl Completion {
    fn new(spec: &JobSpec, t_ck_ns: f64, on_done: OnDone) -> Self {
        let layers = spec.workload.layers().len();
        Completion {
            id: spec.id,
            workload: spec.workload.name().to_owned(),
            t_ck_ns,
            slots: (0..layers).map(|_| Mutex::new(None)).collect(),
            remaining: AtomicUsize::new(layers),
            on_done: Mutex::new(Some(on_done)),
        }
    }

    /// Record layer `index`'s outcome. The call that reports the last
    /// layer assembles the job and runs the callback.
    fn fill(&self, index: usize, reply: LayerReply) {
        *lock_recovered(&self.slots[index]) = Some(reply);
        // ordering: AcqRel — the Release half publishes this slot write
        // to whichever thread takes the counter to zero; the Acquire
        // half makes that thread see every other layer's slot write
        // before it assembles. Exactly one decrement observes 1, so
        // exactly one thread finishes the job.
        if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.finish();
        }
    }

    /// Assemble the result and run the callback.
    fn finish(&self) {
        let outcome = self.assemble();
        if let Some(on_done) = lock_recovered(&self.on_done).take() {
            run_on_done(on_done, outcome);
        }
    }

    /// The job's result from its slots; the lowest-indexed layer
    /// failure wins.
    fn assemble(&self) -> JobOutcome {
        let replies = self.slots.iter().map(|slot| {
            lock_recovered(slot)
                .take()
                .ok_or_else(|| ServiceError::protocol("a layer never received its reply"))?
                .map_err(ServiceError::from)
        });
        assemble(self.id, self.workload.clone(), self.t_ck_ns, replies)
    }
}

/// Fold a job's per-layer results into its [`JobResult`] in layer
/// order, totals accumulated exactly as the direct engine does; the
/// first failure wins.
fn assemble(
    id: u64,
    workload: String,
    t_ck_ns: f64,
    replies: impl ExactSizeIterator<Item = Result<(LayerDseResult, CacheOutcome), ServiceError>>,
) -> JobOutcome {
    let mut total = EdpEstimate::zero(t_ck_ns);
    let mut outcomes = Vec::with_capacity(replies.len());
    for reply in replies {
        let (result, outcome) = reply?;
        total.accumulate(&result.best.estimate);
        outcomes.push(outcome_from_result(result, outcome));
    }
    Ok(JobResult {
        id,
        workload,
        total,
        layers: outcomes,
    })
}

/// Run a job's completion callback, containing a panic so the thread
/// that finished the job (a pool worker, or the submitter) survives.
fn run_on_done(on_done: impl FnOnce(JobOutcome), outcome: JobOutcome) {
    let _ = std::panic::catch_unwind(AssertUnwindSafe(|| on_done(outcome)));
}

/// A layer task's claim on its slot of the job's [`Completion`].
/// [`LayerSlot::fill`] consumes it; a claim dropped unfilled (its task
/// never ran) reports an error instead, so the job still completes.
struct LayerSlot {
    job: Option<Arc<Completion>>,
    index: usize,
}

impl LayerSlot {
    fn fill(mut self, reply: LayerReply) {
        if let Some(job) = self.job.take() {
            job.fill(self.index, reply);
        }
    }
}

impl Drop for LayerSlot {
    fn drop(&mut self) {
        if let Some(job) = self.job.take() {
            job.fill(
                self.index,
                Err(DseError::new(
                    "worker pool is shut down; layer not scheduled",
                )),
            );
        }
    }
}

/// A job's absolute latency budget, captured at submission. Workers
/// check it at dequeue (a queued layer whose budget lapsed is never
/// computed) and between claimed shard chunks; an expired check raises
/// a [`DEADLINE_MARKER`]-tagged [`DseError`] that
/// [`PendingJob::wait`] lifts back into the typed
/// [`ServiceError::DeadlineExceeded`](crate::error::ServiceError).
#[derive(Debug, Clone, Copy)]
struct Deadline {
    at: Instant,
    ms: u64,
}

impl Deadline {
    fn of(options: &JobOptions) -> Option<Deadline> {
        options.deadline_ms.map(|ms| Deadline {
            at: Instant::now() + Duration::from_millis(ms),
            ms,
        })
    }

    fn expired(&self) -> bool {
        Instant::now() >= self.at
    }

    fn error(&self) -> DseError {
        DseError::new(format!("{DEADLINE_MARKER}{} ms", self.ms))
    }
}

struct LayerTask {
    state: Arc<ServiceState>,
    engine: SharedEngine,
    /// The layer's cache key, rendered once at submission.
    key: String,
    layer: Layer,
    options: JobOptions,
    deadline: Option<Deadline>,
    /// An armed fault plan chose this task's job as its panic victim:
    /// the worker panics instead of exploring, and the existing
    /// catch-everything reply path must surface a typed job error.
    inject_panic: bool,
    /// The submitting request's trace, when the front-end attached one:
    /// the worker's cache-lookup/explore spans add themselves to its
    /// per-stage breakdown.
    trace: Option<Arc<Trace>>,
    /// When the task went onto the queue: pickup records the wait.
    enqueued: Instant,
    slot: LayerSlot,
}

/// What travels on the pool's shared queue: a whole-layer exploration,
/// or an invitation to help with another worker's sharded layer.
// Boxing `LayerTask` would trade the size skew for a heap allocation on
// every layer enqueue; tasks are short-lived and the queue shallow.
#[allow(clippy::large_enum_variant)]
enum Task {
    Layer(LayerTask),
    Help(Arc<Shard>),
}

/// When and how finely the pool shards one layer's tiling range.
///
/// The policy is **live**: [`DsePool::set_shard_policy`] retunes it on
/// a running pool (the `set-shard-policy` admin verb), taking effect on
/// the next layer a worker picks up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardPolicy {
    /// Only layers with at least this many feasible tilings shard;
    /// below it, chunking overhead outweighs the parallelism.
    pub min_tilings: usize,
    /// Target chunks per pool worker. Over-decomposing (the default is
    /// 3) keeps the chunks short enough that late-joining helpers still
    /// find work and stragglers don't serialize the merge.
    pub chunks_per_worker: usize,
    /// Explicit chunk size (tilings per chunk), overriding the
    /// `chunks_per_worker` derivation when set. `None` (the default)
    /// derives the chunk size from the worker count; jobs can override
    /// either with their own hint
    /// ([`JobOptions::shard_chunk`](crate::spec::JobOptions)).
    pub chunk_tilings: Option<usize>,
}

impl Default for ShardPolicy {
    fn default() -> Self {
        ShardPolicy {
            min_tilings: 64,
            chunks_per_worker: 3,
            chunk_tilings: None,
        }
    }
}

impl ShardPolicy {
    /// The chunk size (in tilings) this policy yields for a layer with
    /// `count` feasible tilings on a `workers`-worker pool, after
    /// applying an optional per-job override: the job's hint wins, then
    /// the policy's explicit [`ShardPolicy::chunk_tilings`], then the
    /// `chunks_per_worker` derivation. Always at least 1.
    pub fn chunk_size(&self, count: usize, workers: usize, job_hint: Option<usize>) -> usize {
        job_hint
            .or(self.chunk_tilings)
            .unwrap_or_else(|| count.div_ceil(workers.max(1) * self.chunks_per_worker.max(1)))
            .max(1)
    }
}

/// State the pool shares with its workers: the sharding knobs and a
/// re-entrant handle to the task queue for posting help tokens. The
/// handle lives in an `Option` so [`DsePool::drop`] can sever it —
/// workers holding permanent `Sender` clones would keep the channel
/// open and the shutdown join would hang.
struct PoolShared {
    workers: usize,
    /// The live sharding policy — a mutex, not a plain field, so
    /// `set-shard-policy` can retune a running pool. Read once per
    /// layer (never held across exploration work).
    policy: Mutex<ShardPolicy>,
    helper: Mutex<Option<Sender<Task>>>,
}

impl PoolShared {
    fn policy(&self) -> ShardPolicy {
        *lock_recovered(&self.policy)
    }
}

/// One sharded layer exploration in flight: chunked tiling ranges
/// claimed from a shared counter by the leader and any helpers. The
/// leader enumerates the tilings **once**; every chunk sweeps a
/// subrange of that shared enumeration.
struct Shard {
    engine: SharedEngine,
    layer: Layer,
    tilings: Vec<Tiling>,
    chunks: Vec<Range<usize>>,
    next: AtomicUsize,
    progress: Mutex<ShardProgress>,
    done: Condvar,
    /// Per-claimed-chunk sweep durations — the signal `ShardPolicy`
    /// auto-tuning will feed on.
    chunk_ns: Arc<Histogram>,
    /// Leader-side partial-merge duration.
    merge_ns: Arc<Histogram>,
    /// The submitting job's latency budget: checked before computing
    /// each claimed chunk, so a lapsed job stops burning workers
    /// between chunks (an in-progress sweep still runs to completion).
    deadline: Option<Deadline>,
}

struct ShardProgress {
    partials: Vec<Option<Result<LayerPartial, DseError>>>,
    finished: usize,
}

impl Shard {
    fn new(
        engine: SharedEngine,
        layer: Layer,
        tilings: Vec<Tiling>,
        chunks: Vec<Range<usize>>,
        chunk_ns: Arc<Histogram>,
        merge_ns: Arc<Histogram>,
        deadline: Option<Deadline>,
    ) -> Self {
        let progress = ShardProgress {
            partials: (0..chunks.len()).map(|_| None).collect(),
            finished: 0,
        };
        Shard {
            engine,
            layer,
            tilings,
            chunks,
            next: AtomicUsize::new(0),
            progress: Mutex::new(progress),
            done: Condvar::new(),
            chunk_ns,
            merge_ns,
            deadline,
        }
    }

    /// Claim and explore chunks until none remain. Run by the leader
    /// and by every helper; returns immediately when the shard has
    /// already drained. A chunk that panics records an error so the
    /// leader never waits on a chunk nobody will finish.
    fn work(&self) {
        loop {
            // ordering: Relaxed — `next` is a pure claim ticket; the
            // chunk data it indexes is immutable, and result slots are
            // published under the shard's mutex, not through this atomic.
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.chunks.len() {
                return;
            }
            let range = self.chunks[i].clone();
            // Between-chunk deadline check: the claim/publish protocol
            // stays intact (the expired chunk still publishes a
            // partial — an error one — so the leader never waits on a
            // slot nobody will fill).
            if let Some(deadline) = self.deadline.filter(Deadline::expired) {
                let mut progress = lock_recovered(&self.progress);
                progress.partials[i] = Some(Err(deadline.error()));
                progress.finished += 1;
                if progress.finished == self.chunks.len() {
                    self.done.notify_all();
                }
                continue;
            }
            let chunk_span = Span::enter("shard_chunk", &self.chunk_ns);
            let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
                self.engine
                    .explore_tilings_range(&self.layer, &self.tilings, range)
            }))
            .unwrap_or_else(|payload| {
                Err(DseError::new(format!(
                    "worker panicked exploring a tiling range of layer {:?}: {}",
                    self.layer.name,
                    panic_message(payload.as_ref())
                )))
            });
            // Close the chunk span before publishing: contention on the
            // progress lock is not sweep time.
            drop(chunk_span);
            let mut progress = lock_recovered(&self.progress);
            progress.partials[i] = Some(result);
            progress.finished += 1;
            if progress.finished == self.chunks.len() {
                self.done.notify_all();
            }
        }
    }

    /// Leader-side completion: block until every chunk has reported
    /// (each is being actively computed by some worker, so this cannot
    /// deadlock), then merge the partials in range order.
    fn wait_and_merge(&self) -> Result<LayerDseResult, DseError> {
        let mut progress = lock_recovered(&self.progress);
        while progress.finished < self.chunks.len() {
            progress = self.done.wait(progress).unwrap_or_else(|e| e.into_inner());
        }
        let _merge = Span::enter("merge", &self.merge_ns);
        let mut merged: Option<LayerPartial> = None;
        for slot in progress.partials.iter_mut() {
            let partial = slot.take().expect("a finished shard has every partial")?;
            merged = Some(match merged {
                None => partial,
                Some(mut earlier) => {
                    earlier.merge(partial);
                    earlier
                }
            });
        }
        Ok(merged
            .expect("a shard has at least two chunks")
            .into_result(self.layer.name.clone()))
    }
}

/// Explore one layer, sharding its tiling range across the pool when
/// the policy says it is big enough to be worth it. Falls back to the
/// plain sequential sweep for small layers, single-worker pools, and
/// enumerations too short to split.
fn explore_maybe_sharded(
    engine: &SharedEngine,
    layer: &Layer,
    shared: &PoolShared,
    chunk_hint: Option<usize>,
    state: &ServiceState,
    deadline: Option<Deadline>,
) -> Result<LayerDseResult, DseError> {
    if shared.workers <= 1 {
        return engine.explore_layer(layer);
    }
    // One consistent snapshot of the live policy per layer: a
    // concurrent `set-shard-policy` affects the *next* layer, never a
    // half-chunked one.
    let policy = shared.policy();
    // Enumerate once; sharded chunks sweep subranges of this one list,
    // and the unsharded fallback sweeps it whole — either way the
    // candidate domain is walked a single time.
    let acc = *engine.model().traffic_model().accelerator();
    let tilings = enumerate_tilings(layer, &acc)?;
    let count = tilings.len();
    let whole = |engine: &SharedEngine| {
        Ok(engine
            .explore_tilings_range(layer, &tilings, 0..count)?
            .into_result(layer.name.clone()))
    };
    if count < policy.min_tilings.max(2) {
        return whole(engine);
    }
    let chunk = policy.chunk_size(count, shared.workers, chunk_hint);
    let chunks: Vec<Range<usize>> = (0..count)
        .step_by(chunk)
        .map(|start| start..(start + chunk).min(count))
        .collect();
    if chunks.len() < 2 {
        return whole(engine);
    }
    let invites = (shared.workers - 1).min(chunks.len() - 1);
    let stages = state.stages();
    let shard = Arc::new(Shard::new(
        Arc::clone(engine),
        layer.clone(),
        tilings,
        chunks,
        Arc::clone(&stages.shard_chunk_ns),
        Arc::clone(&stages.merge_ns),
        deadline,
    ));
    // Invite idle workers. Tokens are requests, not assignments: one
    // arriving after the shard drained is a no-op, and if the queue is
    // already severed (pool shutting down) the leader simply does every
    // chunk itself.
    if let Some(helper) = lock_recovered(&shared.helper).clone() {
        for _ in 0..invites {
            if helper.send(Task::Help(Arc::clone(&shard))).is_err() {
                break;
            }
        }
    }
    shard.work();
    shard.wait_and_merge()
}

/// A submitted job, counted and keyed, before it is answered or queued.
struct Admitted {
    /// An armed fault plan chose this job as its panic victim.
    inject_panic: bool,
    engine: DseEngine,
    /// One cache key per layer, in layer order ([`layer_keys`]).
    keys: Vec<String>,
}

/// A multi-threaded DSE job pool over shared [`ServiceState`].
#[derive(Debug)]
pub struct DsePool {
    state: Arc<ServiceState>,
    workers: usize,
    queue: Option<Sender<Task>>,
    shared: Arc<PoolShared>,
    handles: Vec<JoinHandle<()>>,
    /// Jobs submitted so far — the 1-based ordinal a fault plan's
    /// `panic-job` targets.
    submitted: AtomicU64,
}

impl std::fmt::Debug for PoolShared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PoolShared")
            .field("workers", &self.workers)
            .field("policy", &self.policy)
            .finish_non_exhaustive()
    }
}

impl DsePool {
    /// Spawn `workers` worker threads over the shared state, sharding
    /// oversized layers per the default [`ShardPolicy`].
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero.
    pub fn new(state: Arc<ServiceState>, workers: usize) -> Self {
        Self::with_shard_policy(state, workers, ShardPolicy::default())
    }

    /// Spawn `workers` worker threads with an explicit [`ShardPolicy`].
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero.
    pub fn with_shard_policy(
        state: Arc<ServiceState>,
        workers: usize,
        policy: ShardPolicy,
    ) -> Self {
        assert!(workers > 0, "a pool needs at least one worker");
        let (queue, rx) = channel::<Task>();
        let rx = Arc::new(Mutex::new(rx));
        let shared = Arc::new(PoolShared {
            workers,
            policy: Mutex::new(policy),
            helper: Mutex::new(Some(queue.clone())),
        });
        let handles = (0..workers)
            .map(|_| {
                let rx = Arc::clone(&rx);
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&rx, &shared))
            })
            .collect();
        DsePool {
            state,
            workers,
            queue: Some(queue),
            shared,
            handles,
            submitted: AtomicU64::new(0),
        }
    }

    /// The sharding policy currently in force.
    pub fn shard_policy(&self) -> ShardPolicy {
        self.shared.policy()
    }

    /// Retune the sharding policy on the running pool, effective for
    /// the next layer any worker picks up — in-flight layers finish
    /// under the snapshot they started with. Returns the policy that
    /// was previously in force. This is the `set-shard-policy` admin
    /// verb's backing operation.
    pub fn set_shard_policy(&self, policy: ShardPolicy) -> ShardPolicy {
        std::mem::replace(&mut lock_recovered(&self.shared.policy), policy)
    }

    /// The shared state this pool executes against.
    pub fn state(&self) -> &Arc<ServiceState> {
        &self.state
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Submit a job and return a handle to await the result.
    /// Submission never blocks on exploration work. The job's
    /// [`JobOptions`] travel with every layer task: the cache mode and
    /// shard-chunk hint steer the worker's leader path, and
    /// `keep_points` selects a Pareto-retaining engine (cache-keyed
    /// separately from point-free sweeps).
    pub fn submit(&self, spec: &JobSpec) -> PendingJob {
        self.submit_traced(spec, None)
    }

    /// [`DsePool::submit`] with an optional per-request [`Trace`] (the
    /// TCP front-end creates one per submitted job, keyed by the wire
    /// `id`): every layer task carries it, so worker-side spans land in
    /// the request's stage breakdown as well as the global histograms.
    pub fn submit_traced(&self, spec: &JobSpec, trace: Option<Arc<Trace>>) -> PendingJob {
        let (done, outcome) = sync_channel(1);
        self.submit_then(spec, trace, move |result| {
            // A dropped PendingJob just discards the result.
            let _ = done.send(result);
        });
        PendingJob { outcome }
    }

    /// Submit a job and return at once; `on_done` runs exactly once
    /// with the job's outcome, on the worker that finishes its last
    /// layer, or on the calling thread if the job completes during
    /// submission. Keep the callback short: it holds that thread until
    /// it returns.
    ///
    /// A [`CacheMode::Default`] job whose every layer is resident
    /// completes during submission: one cache probe answers it, and no
    /// layer is queued. Any other job has its layers queued.
    pub fn submit_then(
        &self,
        spec: &JobSpec,
        trace: Option<Arc<Trace>>,
        on_done: impl FnOnce(JobOutcome) + Send + 'static,
    ) {
        let job = self.admit(spec);
        if spec.options.cache == CacheMode::Default && !job.inject_panic {
            if let Some(outcome) = self.answer_resident(spec, &job, trace.as_ref()) {
                self.state.stages().jobs_resident_total.inc();
                run_on_done(on_done, outcome);
                return;
            }
        }
        self.enqueue(spec, job, trace, Box::new(on_done));
    }

    /// Count a submitted job, take its fault-plan ordinal ticket, and
    /// build its engine and layer keys.
    fn admit(&self, spec: &JobSpec) -> Admitted {
        self.state.stages().jobs_total.inc();
        // ordering: Relaxed — a pure submission ticket; the fault
        // plan's panic-job match needs uniqueness, not ordering.
        let ordinal = self.submitted.fetch_add(1, Ordering::Relaxed) + 1;
        let factory = self.state.factory();
        let engine = factory.engine_with(&spec.engine, spec.options.keep_points);
        let keys = layer_keys(
            &factory.engine_tag(&spec.engine),
            engine.model().traffic_model().accelerator(),
            engine.config(),
            spec.workload.layers(),
            &spec.options,
        );
        Admitted {
            inject_panic: self.state.faults().job_panics(ordinal),
            engine,
            keys,
        }
    }

    /// The job's result when every layer is resident, taken under one
    /// cache lock; `None` (nothing counted) otherwise.
    fn answer_resident(
        &self,
        spec: &JobSpec,
        job: &Admitted,
        trace: Option<&Arc<Trace>>,
    ) -> Option<JobOutcome> {
        let results = self
            .state
            .resident_layers(spec.workload.layers(), &job.keys, trace)?;
        Some(assemble(
            spec.id,
            spec.workload.name().to_owned(),
            job.engine.model().table().t_ck_ns,
            results
                .into_iter()
                .map(|result| Ok((result, CacheOutcome::Hit))),
        ))
    }

    /// Queue one task per layer; the worker that finishes the last one
    /// runs `on_done`.
    fn enqueue(&self, spec: &JobSpec, job: Admitted, trace: Option<Arc<Trace>>, on_done: OnDone) {
        let deadline = Deadline::of(&spec.options);
        let engine = job.engine.into_shared();
        let t_ck_ns = engine.model().table().t_ck_ns;
        // Every workload has at least one layer (`Network::new` rejects
        // empty networks), so some slot's report always finishes the job.
        let completion = Arc::new(Completion::new(spec, t_ck_ns, on_done));
        let queue = self
            .queue
            .as_ref()
            .expect("queue lives as long as the pool");
        let layers = spec.workload.layers().iter().zip(job.keys);
        for (index, (layer, key)) in layers.enumerate() {
            let task = LayerTask {
                state: Arc::clone(&self.state),
                engine: Arc::clone(&engine),
                key,
                layer: layer.clone(),
                options: spec.options,
                deadline,
                // An armed plan's chosen job panics in exactly one of
                // its layer tasks (the first): one injected panic per
                // plan, and the job still exercises the full reply path
                // for the rest.
                inject_panic: job.inject_panic && index == 0,
                trace: trace.clone(),
                enqueued: Instant::now(),
                slot: LayerSlot {
                    job: Some(Arc::clone(&completion)),
                    index,
                },
            };
            // The queue lives as long as the pool and workers never
            // exit while it is open, but if a send fails anyway, the
            // returned task is dropped here and its slot reports an
            // error for this layer instead of panicking the submitter.
            let _ = queue.send(Task::Layer(task));
        }
    }

    /// Submit every job, then await every result: jobs and their layers
    /// execute concurrently across the pool, results come back in
    /// submission order.
    pub fn run_batch(&self, specs: &[JobSpec]) -> Vec<Result<JobResult, ServiceError>> {
        let pending: Vec<PendingJob> = specs.iter().map(|s| self.submit(s)).collect();
        pending.into_iter().map(PendingJob::wait).collect()
    }
}

impl Drop for DsePool {
    fn drop(&mut self) {
        // Sever the workers' helper handle first — otherwise their
        // clones would keep the channel open forever — then close our
        // own sender so every worker's recv loop ends once the queue
        // drains. A leader mid-shard holds a transient clone; it
        // finishes its layer, drops the clone, and exits normally.
        lock_recovered(&self.shared.helper).take();
        self.queue.take();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(rx: &Mutex<Receiver<Task>>, shared: &PoolShared) {
    loop {
        // Hold the lock only while waiting for the next task; execution
        // happens with the queue free for other workers.
        let task = match lock_recovered(rx).recv() {
            Ok(task) => task,
            Err(_) => return, // pool dropped, queue closed
        };
        let task = match task {
            Task::Layer(task) => task,
            Task::Help(shard) => {
                // Chunk panics are converted inside `work`, and a stale
                // token finds the shard drained and returns at once.
                shard.work();
                continue;
            }
        };
        let waited = u64::try_from(task.enqueued.elapsed().as_nanos()).unwrap_or(u64::MAX);
        task.state.stages().queue_wait_ns.record(waited);
        if let Some(trace) = &task.trace {
            trace.add("queue_wait", waited);
        }
        // Dequeue-time deadline check: a layer that waited out its
        // job's whole budget in the queue is answered (with the typed
        // error) instead of computed — the submitter has given up.
        if let Some(deadline) = task.deadline.filter(Deadline::expired) {
            task.slot.fill(Err(deadline.error()));
            continue;
        }
        // Catch panics so the slot is *always* filled: a worker that
        // unwound without reporting would leave the job incomplete
        // forever. (The cache lookup already converts panics
        // inside the exploration itself; this guards everything else —
        // and is exactly the mechanism an injected fault-plan panic
        // probes.)
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            if task.inject_panic {
                task.state.stages().fault_pool_total.inc();
                // check:allow(no-unwrap-hot-path): deliberate, counted fault injection
                panic!("injected fault-plan worker panic");
            }
            let range = task.options.tiling_range;
            task.state.explore_layer_cached_traced(
                &task.layer,
                &task.key,
                task.options.cache,
                task.trace.as_ref(),
                || {
                    if range.is_some() {
                        // A ranged job *is* a shard (the router's
                        // scatter unit); sharding it again would
                        // re-chunk someone else's chunk.
                        crate::engine::explore_layer_ranged(&task.engine, &task.layer, range)
                    } else {
                        explore_maybe_sharded(
                            &task.engine,
                            &task.layer,
                            shared,
                            task.options.shard_chunk,
                            &task.state,
                            task.deadline,
                        )
                    }
                },
            )
        }))
        .unwrap_or_else(|payload| {
            Err(DseError::new(format!(
                "worker panicked exploring layer {:?}: {}",
                task.layer.name,
                panic_message(payload.as_ref())
            )))
        });
        task.slot.fill(result);
    }
}

/// A submitted job whose layers are in flight.
#[derive(Debug)]
pub struct PendingJob {
    outcome: Receiver<JobOutcome>,
}

impl PendingJob {
    /// Block until every layer finishes and return the result,
    /// assembled in layer order.
    ///
    /// # Errors
    ///
    /// Returns the lowest-indexed layer failure, or a protocol error if
    /// the pool dropped the job without completing it.
    pub fn wait(self) -> Result<JobResult, ServiceError> {
        self.outcome
            .recv()
            .map_err(|_| ServiceError::protocol("worker pool shut down mid-job"))?
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::EngineSpec;
    use drmap_cnn::network::Network;

    #[test]
    fn pool_matches_sequential_path_bit_exactly() {
        let state = ServiceState::new().unwrap();
        let pool = DsePool::new(Arc::clone(&state), 4);
        let spec = JobSpec::network(7, EngineSpec::default(), Network::tiny());
        let pooled = pool.submit(&spec).wait().unwrap();

        let fresh = ServiceState::new().unwrap();
        let sequential = fresh.run_job(&spec).unwrap();
        assert_eq!(pooled.id, 7);
        assert_eq!(pooled.layers.len(), sequential.layers.len());
        assert_eq!(
            pooled.total.energy.to_bits(),
            sequential.total.energy.to_bits()
        );
        assert_eq!(
            pooled.total.cycles.to_bits(),
            sequential.total.cycles.to_bits()
        );
        for (p, s) in pooled.layers.iter().zip(&sequential.layers) {
            assert_eq!(p.name, s.name);
            assert_eq!(p.mapping, s.mapping);
            assert_eq!(p.scheme, s.scheme);
            assert_eq!(p.tiling, s.tiling);
            assert_eq!(p.estimate.energy.to_bits(), s.estimate.energy.to_bits());
        }
    }

    #[test]
    fn single_layer_jobs_and_errors_propagate() {
        let state = ServiceState::new().unwrap();
        let pool = DsePool::new(state, 2);
        let layer = drmap_cnn::layer::Layer::conv("C", 8, 8, 16, 8, 3, 3, 1);
        let job = JobSpec::layer(3, EngineSpec::default(), layer.clone());
        let result = pool.submit(&job).wait().unwrap();
        assert_eq!(result.layers.len(), 1);
        assert_eq!(result.layers[0].name, "C");

        // A layer whose smallest tile cannot fit the buffers fails.
        let huge = drmap_cnn::layer::Layer::conv("HUGE", 1, 1, 1, 1, 4096, 4096, 1);
        let bad = JobSpec::layer(4, EngineSpec::default(), huge);
        assert!(matches!(
            pool.submit(&bad).wait(),
            Err(ServiceError::Dse(_))
        ));
    }

    #[test]
    fn resubmission_is_served_from_cache() {
        let state = ServiceState::new().unwrap();
        let pool = DsePool::new(Arc::clone(&state), 4);
        let spec = JobSpec::network(1, EngineSpec::default(), Network::tiny());
        // Waiting between submissions guarantees the cache is warm for
        // the resubmission (a concurrent batch may interleave misses).
        let first = pool.submit(&spec).wait().unwrap();
        let second = pool.submit(&spec).wait().unwrap();
        assert_eq!(first.cache_hits(), 0);
        assert_eq!(second.cache_hits(), second.layers.len());
        assert!(state.cache().stats().hits >= second.layers.len() as u64);
        for (a, b) in first.layers.iter().zip(&second.layers) {
            assert_eq!(a.estimate.energy.to_bits(), b.estimate.energy.to_bits());
            assert_eq!(a.tiling, b.tiling);
        }
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_is_rejected() {
        let state = ServiceState::new().unwrap();
        let _ = DsePool::new(state, 0);
    }

    /// Shard every layer, however small, into 2-per-worker chunks.
    fn always_shard() -> ShardPolicy {
        ShardPolicy {
            min_tilings: 2,
            chunks_per_worker: 2,
            chunk_tilings: None,
        }
    }

    #[test]
    fn forced_sharding_is_bit_identical_to_sequential() {
        let state = ServiceState::new().unwrap();
        let pool = DsePool::with_shard_policy(Arc::clone(&state), 4, always_shard());
        let spec = JobSpec::network(11, EngineSpec::default(), Network::tiny());
        let sharded = pool.submit(&spec).wait().unwrap();

        let fresh = ServiceState::new().unwrap();
        let sequential = fresh.run_job(&spec).unwrap();
        assert_eq!(sharded.layers.len(), sequential.layers.len());
        assert_eq!(
            sharded.total.energy.to_bits(),
            sequential.total.energy.to_bits()
        );
        assert_eq!(
            sharded.total.cycles.to_bits(),
            sequential.total.cycles.to_bits()
        );
        for (p, s) in sharded.layers.iter().zip(&sequential.layers) {
            assert_eq!(p.name, s.name);
            assert_eq!(p.mapping, s.mapping);
            assert_eq!(p.scheme, s.scheme);
            assert_eq!(p.tiling, s.tiling);
            assert_eq!(p.evaluations, s.evaluations);
            assert_eq!(p.estimate.energy.to_bits(), s.estimate.energy.to_bits());
            assert_eq!(p.estimate.cycles.to_bits(), s.estimate.cycles.to_bits());
        }
    }

    #[test]
    fn sharded_single_layer_job_matches_direct_exploration() {
        // One layer on an otherwise idle multi-worker pool: exactly the
        // case intra-layer sharding exists for.
        let state = ServiceState::new().unwrap();
        let pool = DsePool::with_shard_policy(Arc::clone(&state), 4, always_shard());
        let layer = drmap_cnn::layer::Layer::conv("BIG", 13, 13, 64, 32, 3, 3, 1);
        let spec = JobSpec::layer(21, EngineSpec::default(), layer.clone());
        let result = pool.submit(&spec).wait().unwrap();

        let engine = state.factory().engine(&spec.engine);
        assert!(
            engine.tiling_count(&layer).unwrap() >= 2,
            "the layer must actually shard"
        );
        let direct = engine.explore_layer(&layer).unwrap();
        assert_eq!(result.layers.len(), 1);
        assert_eq!(result.layers[0].evaluations as usize, direct.evaluations);
        assert_eq!(result.layers[0].tiling, direct.best.tiling);
        assert_eq!(
            result.layers[0].estimate.energy.to_bits(),
            direct.best.estimate.energy.to_bits()
        );
        assert_eq!(
            result.layers[0].estimate.cycles.to_bits(),
            direct.best.estimate.cycles.to_bits()
        );
    }

    #[test]
    fn chunk_size_prefers_job_hint_then_policy_override_then_derivation() {
        let derived = ShardPolicy::default();
        // 4 workers x 3 chunks/worker over 120 tilings -> chunks of 10.
        assert_eq!(derived.chunk_size(120, 4, None), 10);
        assert_eq!(derived.chunk_size(120, 4, Some(7)), 7, "job hint wins");
        let pinned = ShardPolicy {
            chunk_tilings: Some(25),
            ..ShardPolicy::default()
        };
        assert_eq!(pinned.chunk_size(120, 4, None), 25);
        assert_eq!(pinned.chunk_size(120, 4, Some(7)), 7, "hint beats override");
        // Degenerate inputs still yield a workable chunk.
        assert_eq!(derived.chunk_size(0, 0, None), 1);
    }

    #[test]
    fn live_shard_policy_retune_applies_and_stays_bit_identical() {
        let state = ServiceState::new().unwrap();
        let pool = DsePool::new(Arc::clone(&state), 4);
        let previous = pool.set_shard_policy(always_shard());
        assert_eq!(previous, ShardPolicy::default());
        assert_eq!(pool.shard_policy(), always_shard());

        // A job sharded under the retuned policy still merges exactly.
        let layer = drmap_cnn::layer::Layer::conv("BIG", 13, 13, 64, 32, 3, 3, 1);
        let spec = JobSpec::layer(31, EngineSpec::default(), layer.clone());
        let retuned = pool.submit(&spec).wait().unwrap();
        let direct = state
            .factory()
            .engine(&spec.engine)
            .explore_layer(&layer)
            .unwrap();
        assert_eq!(
            retuned.layers[0].estimate.energy.to_bits(),
            direct.best.estimate.energy.to_bits()
        );
        assert_eq!(retuned.layers[0].evaluations as usize, direct.evaluations);
    }

    #[test]
    fn per_job_chunk_hint_is_bit_identical_to_sequential() {
        let state = ServiceState::new().unwrap();
        let pool = DsePool::with_shard_policy(Arc::clone(&state), 4, always_shard());
        let layer = drmap_cnn::layer::Layer::conv("BIG", 13, 13, 64, 32, 3, 3, 1);
        let spec = JobSpec::layer(41, EngineSpec::default(), layer.clone()).with_options(
            crate::spec::JobOptions {
                shard_chunk: Some(3),
                ..Default::default()
            },
        );
        let hinted = pool.submit(&spec).wait().unwrap();
        let direct = state
            .factory()
            .engine(&spec.engine)
            .explore_layer(&layer)
            .unwrap();
        assert_eq!(
            hinted.layers[0].estimate.energy.to_bits(),
            direct.best.estimate.energy.to_bits()
        );
        assert_eq!(hinted.layers[0].evaluations as usize, direct.evaluations);
    }

    #[test]
    fn queued_jobs_past_their_deadline_answer_typed_errors() {
        let state = ServiceState::new().unwrap();
        let pool = DsePool::new(Arc::clone(&state), 1);
        // Occupy the single worker so the deadlined job waits in queue
        // past its (tiny) budget; the dequeue check then answers it
        // without computing anything. The blocker is a whole VGG-16
        // (16 layer tasks ahead of the deadlined job's), so even a
        // release build's sweep keeps the queue busy far past 1 ms.
        let blocker = JobSpec::network(1, EngineSpec::default(), Network::vgg16());
        let deadlined = JobSpec::network(2, EngineSpec::default(), Network::tiny()).with_options(
            crate::spec::JobOptions {
                deadline_ms: Some(1),
                ..Default::default()
            },
        );
        let blocking = pool.submit(&blocker);
        let pending = pool.submit(&deadlined);
        assert!(matches!(
            pending.wait(),
            Err(ServiceError::DeadlineExceeded { deadline_ms: 1 })
        ));
        // The blocker itself is unharmed.
        blocking.wait().unwrap();
        // And an undeadlined resubmission completes normally.
        let again = JobSpec::network(3, EngineSpec::default(), Network::tiny());
        assert_eq!(pool.submit(&again).wait().unwrap().layers.len(), 3);
    }

    #[test]
    fn armed_panic_job_surfaces_a_typed_error_and_is_counted() {
        let state = ServiceState::new().unwrap();
        let armed = state.faults().set_plan(Some(
            crate::faults::FaultPlan::parse("seed=1,panic-job=2").unwrap(),
        ));
        if !crate::faults::FAULTS_COMPILED_IN {
            // Release builds without the `faults` feature refuse to arm
            // a plan, with a typed error.
            let err = armed.unwrap_err();
            assert!(matches!(err, ServiceError::Protocol(_)), "{err:?}");
            assert!(err.to_string().contains("not compiled into this build"));
            return;
        }
        armed.unwrap();
        let pool = DsePool::new(Arc::clone(&state), 2);
        let spec = JobSpec::network(9, EngineSpec::default(), Network::tiny());
        // Job 1 is not the chosen ordinal.
        pool.submit(&spec).wait().unwrap();
        // Job 2 is fully resident, yet as the plan's victim it is queued
        // and panics a worker; the reply path converts it to a typed
        // job error instead of hanging the submitter.
        let err = pool.submit(&spec).wait().unwrap_err();
        assert!(err.to_string().contains("injected fault-plan worker panic"));
        assert_eq!(
            state.metrics().snapshot().counter("fault_pool_total"),
            Some(1)
        );
        assert_eq!(state.stages().jobs_resident_total.get(), 0);
        // The plan fires once: job 3 (same spec, warm cache) succeeds,
        // answered from the resident tier.
        pool.submit(&spec).wait().unwrap();
        assert_eq!(state.stages().jobs_resident_total.get(), 1);
    }

    #[test]
    fn a_resident_job_completes_on_the_calling_thread_during_submission() {
        let state = ServiceState::new().unwrap();
        let pool = DsePool::new(Arc::clone(&state), 2);
        let spec = JobSpec::network(1, EngineSpec::default(), Network::tiny());
        pool.submit(&spec).wait().unwrap();
        let stages = state.stages();
        assert_eq!(stages.jobs_resident_total.get(), 0, "a cold job is queued");
        let queued = stages.queue_wait_ns.count();
        let lookups = stages.cache_lookup_ns.count();

        let trace = Trace::new(1);
        let answered = Arc::new(Mutex::new(None));
        let slot = Arc::clone(&answered);
        pool.submit_then(&spec, Some(Arc::clone(&trace)), move |outcome| {
            *lock_recovered(&slot) = Some((std::thread::current().id(), outcome));
        });
        let (thread, outcome) = lock_recovered(&answered)
            .take()
            .expect("on_done ran before submit_then returned");
        assert_eq!(thread, std::thread::current().id());
        let result = outcome.unwrap();
        assert_eq!(result.cache_hits(), result.layers.len());
        assert_eq!(stages.jobs_resident_total.get(), 1);
        // Never queued, yet one lookup sample per layer, in the
        // histogram and in the request's trace.
        assert_eq!(stages.queue_wait_ns.count(), queued);
        let layers = result.layers.len() as u64;
        assert_eq!(stages.cache_lookup_ns.count(), lookups + layers);
        let traced: Vec<&str> = trace.stages().iter().map(|(name, _)| *name).collect();
        assert_eq!(traced, ["cache_lookup"]);
    }

    /// Everything a client can see of a job's answer, floats by bits;
    /// only the per-layer cache flags may differ.
    fn assert_same_answer(got: &JobResult, want: &JobResult) {
        assert_eq!((got.id, &got.workload), (want.id, &want.workload));
        assert_eq!(got.total.energy.to_bits(), want.total.energy.to_bits());
        assert_eq!(got.total.cycles.to_bits(), want.total.cycles.to_bits());
        assert_eq!(got.layers.len(), want.layers.len());
        for (g, w) in got.layers.iter().zip(&want.layers) {
            assert_eq!(g.name, w.name);
            assert_eq!(
                (&g.mapping, &g.scheme, g.tiling),
                (&w.mapping, &w.scheme, w.tiling)
            );
            assert_eq!(g.evaluations, w.evaluations);
            assert_eq!(g.estimate.energy.to_bits(), w.estimate.energy.to_bits());
            assert_eq!(g.estimate.cycles.to_bits(), w.estimate.cycles.to_bits());
            assert_eq!(g.pareto.len(), w.pareto.len());
            for (gp, wp) in g.pareto.iter().zip(&w.pareto) {
                assert_eq!(gp.label, wp.label);
                assert_eq!(gp.estimate.energy.to_bits(), wp.estimate.energy.to_bits());
                assert_eq!(gp.estimate.cycles.to_bits(), wp.estimate.cycles.to_bits());
            }
        }
    }

    #[test]
    fn resident_answers_are_bit_identical_to_the_sequential_path() {
        let state = ServiceState::new().unwrap();
        let pool = DsePool::new(Arc::clone(&state), 2);
        let reference = ServiceState::new().unwrap();
        let big = drmap_cnn::layer::Layer::conv("BIG", 13, 13, 64, 32, 3, 3, 1);
        let specs = [
            JobSpec::network(1, EngineSpec::default(), Network::tiny()),
            JobSpec::network(2, EngineSpec::default(), Network::tiny()).with_options(JobOptions {
                keep_points: true,
                ..JobOptions::default()
            }),
            JobSpec::layer(3, EngineSpec::default(), big).with_options(JobOptions {
                tiling_range: Some((1, 5)),
                ..JobOptions::default()
            }),
        ];
        for (answered, spec) in (1..).zip(&specs) {
            pool.submit(spec).wait().unwrap();
            let warm = pool.submit(spec).wait().unwrap();
            assert_eq!(state.stages().jobs_resident_total.get(), answered);
            assert!(warm.layers.iter().all(|layer| layer.cached));
            let want = reference.run_job(spec).unwrap();
            assert_same_answer(&warm, &want);
        }
        let pareto = &reference.run_job(&specs[1]).unwrap().layers[0].pareto;
        assert!(!pareto.is_empty(), "the keep_points job carries a front");
    }

    /// Submit through the queued path alone, as a pool without the
    /// resident probe would, and wait for the outcome.
    fn submit_queued(pool: &DsePool, spec: &JobSpec) -> JobOutcome {
        let (tx, rx) = channel();
        let on_done = Box::new(move |outcome| {
            let _ = tx.send(outcome);
        });
        pool.enqueue(spec, pool.admit(spec), None, on_done);
        rx.recv().unwrap()
    }

    /// The counters the resident probe must leave as per-layer lookups
    /// would leave them.
    fn lookup_counters(state: &ServiceState) -> [u64; 5] {
        let stats = state.cache().stats();
        let stages = state.stages();
        [
            stats.hits,
            stats.misses,
            stages.cache_hits_total.get(),
            stages.layers_total.get(),
            stages.jobs_total.get(),
        ]
    }

    #[test]
    fn probes_count_exactly_like_a_pool_that_only_queues() {
        // One worker each, so in-job layer order is deterministic.
        let probed = ServiceState::new().unwrap();
        let probing = DsePool::new(Arc::clone(&probed), 1);
        let queued = ServiceState::new().unwrap();
        let queuing = DsePool::new(Arc::clone(&queued), 1);
        let tiny = Network::tiny();
        let first = JobSpec::layer(1, EngineSpec::default(), tiny.layers()[0].clone());
        let network = JobSpec::network(2, EngineSpec::default(), tiny);
        // Warm one layer, then submit the half-resident network (the
        // probe misses and the job is queued), then the network again
        // (fully resident now: the probe answers it).
        for (round, spec) in [&first, &network, &network].into_iter().enumerate() {
            let got = probing.submit(spec).wait().unwrap();
            let want = submit_queued(&queuing, spec).unwrap();
            assert_same_answer(&got, &want);
            assert_eq!(
                lookup_counters(&probed),
                lookup_counters(&queued),
                "round {round}"
            );
        }
        assert_eq!(probed.stages().jobs_resident_total.get(), 1);
        assert_eq!(queued.stages().jobs_resident_total.get(), 0);
    }

    #[test]
    fn bypass_and_refresh_jobs_never_take_the_resident_path() {
        let state = ServiceState::new().unwrap();
        let pool = DsePool::new(Arc::clone(&state), 2);
        let spec = JobSpec::network(1, EngineSpec::default(), Network::tiny());
        let layers = spec.workload.layers().len() as u64;
        pool.submit(&spec).wait().unwrap();
        for cache in [CacheMode::Bypass, CacheMode::Refresh] {
            let job = spec.clone().with_options(JobOptions {
                cache,
                ..JobOptions::default()
            });
            let before = state.cache().stats();
            let result = pool.submit(&job).wait().unwrap();
            assert_eq!(result.cache_hits(), 0, "{cache:?}");
            let after = state.cache().stats();
            assert_eq!(
                after.bypasses - before.bypasses,
                if cache == CacheMode::Bypass {
                    layers
                } else {
                    0
                }
            );
            assert_eq!(
                after.refreshes - before.refreshes,
                if cache == CacheMode::Refresh {
                    layers
                } else {
                    0
                }
            );
        }
        assert_eq!(state.stages().jobs_resident_total.get(), 0);
    }

    /// Submit through the completion callback, counting its calls.
    fn submit_counted(pool: &DsePool, spec: &JobSpec) -> (Arc<AtomicUsize>, Receiver<JobOutcome>) {
        let calls = Arc::new(AtomicUsize::new(0));
        let (tx, rx) = channel();
        let counted = Arc::clone(&calls);
        pool.submit_then(spec, None, move |outcome| {
            counted.fetch_add(1, Ordering::SeqCst);
            let _ = tx.send(outcome);
        });
        (calls, rx)
    }

    /// Dropping the pool joins every worker, so a second call (from a
    /// late layer) would have landed by the time this returns.
    fn assert_fired_once(pool: DsePool, calls: &AtomicUsize, rx: &Receiver<JobOutcome>) {
        drop(pool);
        assert_eq!(
            calls.load(Ordering::SeqCst),
            1,
            "the callback must fire exactly once"
        );
        assert!(rx.try_recv().is_err(), "no second outcome may arrive");
    }

    #[test]
    fn completion_fires_once_on_success_with_the_sequential_result() {
        let state = ServiceState::new().unwrap();
        let pool = DsePool::with_shard_policy(Arc::clone(&state), 4, always_shard());
        let spec = JobSpec::network(12, EngineSpec::default(), Network::tiny());
        let (calls, rx) = submit_counted(&pool, &spec);
        let result = rx.recv().unwrap().unwrap();
        assert_fired_once(pool, &calls, &rx);
        let sequential = ServiceState::new().unwrap().run_job(&spec).unwrap();
        assert_eq!(result.id, 12);
        assert_eq!(result.layers.len(), sequential.layers.len());
        assert_eq!(
            result.total.energy.to_bits(),
            sequential.total.energy.to_bits()
        );
    }

    #[test]
    fn completion_fires_once_when_a_deadline_lapses_in_the_queue() {
        let state = ServiceState::new().unwrap();
        let pool = DsePool::new(Arc::clone(&state), 1);
        // As in `queued_jobs_past_their_deadline_answer_typed_errors`: a
        // whole VGG-16 keeps the single worker busy far past 1 ms.
        let blocker = JobSpec::network(1, EngineSpec::default(), Network::vgg16());
        let blocking = pool.submit(&blocker);
        let deadlined = JobSpec::network(2, EngineSpec::default(), Network::tiny()).with_options(
            crate::spec::JobOptions {
                deadline_ms: Some(1),
                ..Default::default()
            },
        );
        let (calls, rx) = submit_counted(&pool, &deadlined);
        assert!(matches!(
            rx.recv().unwrap(),
            Err(ServiceError::DeadlineExceeded { deadline_ms: 1 })
        ));
        blocking.wait().unwrap();
        assert_fired_once(pool, &calls, &rx);
    }

    #[test]
    fn completion_fires_once_when_a_worker_panics() {
        let state = ServiceState::new().unwrap();
        if state
            .faults()
            .set_plan(Some(
                crate::faults::FaultPlan::parse("seed=1,panic-job=1").unwrap(),
            ))
            .is_err()
        {
            // Release build without the `faults` feature: nothing to
            // inject.
            return;
        }
        let pool = DsePool::new(Arc::clone(&state), 2);
        let spec = JobSpec::network(13, EngineSpec::default(), Network::tiny());
        let (calls, rx) = submit_counted(&pool, &spec);
        let err = rx.recv().unwrap().unwrap_err();
        assert!(err.to_string().contains("injected fault-plan worker panic"));
        assert_fired_once(pool, &calls, &rx);
    }

    /// A pool whose workers are all gone: every layer send fails.
    fn severed_pool(state: Arc<ServiceState>) -> DsePool {
        let (queue, rx) = channel::<Task>();
        drop(rx);
        DsePool {
            state,
            workers: 1,
            queue: Some(queue),
            shared: Arc::new(PoolShared {
                workers: 1,
                policy: Mutex::new(ShardPolicy::default()),
                helper: Mutex::new(None),
            }),
            handles: Vec::new(),
            submitted: AtomicU64::new(0),
        }
    }

    #[test]
    fn completion_fires_once_when_the_queue_is_shut_down() {
        // Each task the failed send hands back is dropped on the
        // submitter, and its slot reports the failure.
        let state = ServiceState::new().unwrap();
        let pool = severed_pool(Arc::clone(&state));
        let spec = JobSpec::network(14, EngineSpec::default(), Network::tiny());
        let (calls, rx) = submit_counted(&pool, &spec);
        let err = rx.recv().unwrap().unwrap_err();
        assert!(err.to_string().contains("shut down"), "{err}");
        assert_fired_once(pool, &calls, &rx);
        // `wait` surfaces the same failure through the same mechanism.
        let err = severed_pool(state).submit(&spec).wait().unwrap_err();
        assert!(err.to_string().contains("shut down"), "{err}");
    }

    #[test]
    fn sharding_failures_propagate_and_single_worker_pools_never_shard() {
        let state = ServiceState::new().unwrap();
        let pool = DsePool::with_shard_policy(Arc::clone(&state), 4, always_shard());
        let huge = drmap_cnn::layer::Layer::conv("HUGE", 1, 1, 1, 1, 4096, 4096, 1);
        assert!(matches!(
            pool.submit(&JobSpec::layer(5, EngineSpec::default(), huge))
                .wait(),
            Err(ServiceError::Dse(_))
        ));

        // A single-worker pool takes the sequential path (and still
        // agrees, of course).
        let solo_state = ServiceState::new().unwrap();
        let solo = DsePool::with_shard_policy(Arc::clone(&solo_state), 1, always_shard());
        let spec = JobSpec::network(6, EngineSpec::default(), Network::tiny());
        let a = solo.submit(&spec).wait().unwrap();
        let b = state.run_job(&spec).unwrap();
        assert_eq!(a.total.energy.to_bits(), b.total.energy.to_bits());
    }
}
