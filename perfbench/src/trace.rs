//! The traced run: a seeded sample of a workload's requests replayed
//! down the stack's layers, with a span around each call into a layer's
//! public entry point.
//!
//! Each sampled request is first sent to the live stack
//! (`Client::submit_with`, the `client.submit` span). The same request
//! is then replayed in process, one layer at a time:
//! `DsePool::submit().wait()` on state A, `ServiceState::run_job` on
//! state B, `DseEngine::explore_layer` for each layer the live request
//! missed, `Store::get`/`put` on the request's layer results, and the
//! `wire::` codecs on its request and response frames. A and B are kept
//! in the cache state the live request saw: layers that hit stay
//! resident, layers the store served are evicted from the resident tier
//! first, and layers that missed are absent from both tiers. A span's
//! parent is the span of the next layer up; a layer's self time is its
//! span minus its child's.
//!
//! Spans stay in memory and are written out as JSON lines at the end.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use drmap_cnn::layer::Layer;
use drmap_core::bytes::encode_stored_result;
use drmap_core::dse::layer_cache_key;
use drmap_dram::profiler::Profiler;
use drmap_dram::timing::DramArch;
use drmap_service::cache::{CacheConfig, CacheOutcome, CacheStats};
use drmap_service::client::Client;
use drmap_service::engine::ServiceState;
use drmap_service::pool::DsePool;
use drmap_service::prelude::MetricsSnapshot;
use drmap_service::proto::{Dialect, Request, Response};
use drmap_service::spec::{JobResult, JobSpec, LayerOutcome};
use drmap_service::wire::{self, Encoding};
use drmap_store::store::Store;

use crate::stats::{mean, median, quantile};
use crate::verify::Answer;

/// One timed call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    /// Entry point, e.g. `pool.submit_wait`.
    pub name: &'static str,
    /// The request it served.
    pub request: u64,
    /// Index of the parent span (the next layer up), if any.
    pub parent: Option<usize>,
    /// Start, in ns since the trace began.
    pub start_ns: u64,
    /// End, in ns since the trace began.
    pub end_ns: u64,
}

impl Span {
    fn us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// The in-memory span log.
pub struct Tracer {
    epoch: Instant,
    /// Every span recorded, in order.
    pub spans: Vec<Span>,
}

impl Tracer {
    /// An empty log starting now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Time `call` as a span of `name` for `request` under `parent`.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<usize>,
        call: impl FnOnce() -> T,
    ) -> (T, usize) {
        let start = Instant::now();
        let out = call();
        let end = Instant::now();
        self.spans.push(Span {
            name,
            request,
            parent,
            start_ns: (start - self.epoch).as_nanos() as u64,
            end_ns: (end - self.epoch).as_nanos() as u64,
        });
        (out, self.spans.len() - 1)
    }

    fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::us)
            .collect()
    }

    /// Self time of every `name` span: its duration minus its children's.
    fn self_us(&self, name: &str) -> Vec<f64> {
        let mut child_us: HashMap<usize, f64> = HashMap::new();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                *child_us.entry(parent).or_default() += span.us();
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| s.us() - child_us.get(&i).copied().unwrap_or(0.0))
            .collect()
    }

    /// Write every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"span\":{i},\"name\":\"{}\",\"request\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name,
                s.request,
                s.parent.map_or("null".to_owned(), |p| p.to_string()),
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

/// How the live stack served one layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Served {
    Resident,
    Store,
    Computed,
}

fn served(outcome: &LayerOutcome) -> Served {
    if outcome.cached || outcome.coalesced {
        Served::Resident
    } else if outcome.store_hit {
        Served::Store
    } else {
        Served::Computed
    }
}

/// A request replayed in process, with what the live stack answered.
pub struct Sample {
    /// The request.
    pub spec: JobSpec,
    /// The live answer.
    pub live: JobResult,
    /// Index of its `client.submit` span.
    pub root: usize,
    /// Part of the measured workload (not its preparation traffic).
    pub measured: bool,
}

/// Send `spec` through `client` as a traced live request.
pub fn live(
    tracer: &mut Tracer,
    client: &mut Client,
    spec: &JobSpec,
    measured: bool,
) -> Result<Sample, String> {
    let (result, root) = tracer.span("client.submit", spec.id, None, || {
        client.submit_with(spec, spec.options)
    });
    let live = result.map_err(|e| format!("traced job {}: {e}", spec.id))?;
    Ok(Sample {
        spec: spec.clone(),
        live,
        root,
        measured,
    })
}

/// The in-process replica of the served stack: state A behind a pool,
/// state B called directly, both with the served cache bound and, when
/// the server has one, a store of their own.
pub struct Replica {
    pool: DsePool,
    state_b: Arc<ServiceState>,
    scratch: Store,
    /// Layers whose in-process outcome matched the live one, and all
    /// layers replayed.
    pub matched: (u64, u64),
}

fn open_state(config: CacheConfig, store: Option<&Path>) -> Result<Arc<ServiceState>, String> {
    let store = match store {
        Some(path) => Some(Arc::new(
            Store::open(path).map_err(|e| format!("{}: {e}", path.display()))?,
        )),
        None => None,
    };
    ServiceState::with_cache_and_store(config, store).map_err(|e| e.to_string())
}

impl Replica {
    /// Fresh replica states; stores (if `with_store`) under `dir`.
    pub fn new(
        dir: &Path,
        config: CacheConfig,
        with_store: bool,
        workers: usize,
    ) -> Result<Replica, String> {
        let store = |name: &str| with_store.then(|| dir.join(name));
        let state_a = open_state(config, store("replica-a.wal").as_deref())?;
        let state_b = open_state(config, store("replica-b.wal").as_deref())?;
        let scratch_path = dir.join("trace-scratch.wal");
        Ok(Replica {
            pool: DsePool::new(state_a, workers),
            state_b,
            scratch: Store::open(&scratch_path)
                .map_err(|e| format!("{}: {e}", scratch_path.display()))?,
            matched: (0, 0),
        })
    }

    fn states(&self) -> [&Arc<ServiceState>; 2] {
        [self.pool.state(), &self.state_b]
    }

    /// Drop both resident tiers and warm them from their stores, as a
    /// restarted `drmap-serve --store` does.
    pub fn restart(&self, warm: Option<usize>) {
        for state in self.states() {
            state.cache().clear();
            state.warm_start(warm);
        }
    }

    /// Put A and B in the cache state `sample`'s live request saw.
    fn match_state(&self, sample: &Sample) -> Result<(), String> {
        let layers = sample.spec.workload.layers();
        // Cache keys ignore layer names: a layer repeating an earlier
        // shape of the same job is served by that earlier lookup.
        let shape = |l: &Layer| (l.h, l.w, l.j, l.i, l.p, l.q, l.stride, l.groups);
        let first_seen = |k: usize| !layers[..k].iter().any(|l| shape(l) == shape(&layers[k]));
        let outcomes = &sample.live.layers;
        if (0..layers.len()).any(|k| first_seen(k) && served(&outcomes[k]) == Served::Store) {
            for state in self.states() {
                state.cache().clear();
            }
        }
        for (k, layer) in layers.iter().enumerate() {
            if first_seen(k) && served(&outcomes[k]) == Served::Resident {
                let prime = JobSpec::layer(sample.spec.id, sample.spec.engine, layer.clone())
                    .with_options(sample.spec.options);
                for state in self.states() {
                    state.run_job(&prime).map_err(|e| e.to_string())?;
                }
            }
        }
        Ok(())
    }

    /// Replay one sample down the layers, recording spans under its
    /// `client.submit` span.
    pub fn replay(&mut self, tracer: &mut Tracer, sample: &Sample) -> Result<Replay, String> {
        self.match_state(sample)?;
        let spec = &sample.spec;
        let id = spec.id;
        let (pooled, pool_span) = tracer.span("pool.submit_wait", id, Some(sample.root), || {
            self.pool.submit(spec).wait()
        });
        pooled.map_err(|e| format!("replayed job {id}: {e}"))?;
        let state_b = Arc::clone(&self.state_b);
        let (direct, job_span) = tracer.span("state.run_job", id, Some(pool_span), || {
            state_b.run_job(spec)
        });
        let direct = direct.map_err(|e| format!("replayed job {id}: {e}"))?;
        for (replayed, live) in direct.layers.iter().zip(&sample.live.layers) {
            self.matched.1 += 1;
            self.matched.0 += u64::from(served(replayed) == served(live));
        }

        let engine = state_b
            .factory()
            .engine_with(&spec.engine, spec.options.keep_points);
        let tag = state_b.factory().engine_tag(&spec.engine);
        let acc = state_b.factory().accelerator();
        let mut explored = Vec::new();
        let mut value_bytes = Vec::new();
        for (layer, live) in spec.workload.layers().iter().zip(&sample.live.layers) {
            if served(live) == Served::Computed {
                let (result, _) = tracer.span("core.explore_layer", id, Some(job_span), || {
                    engine.explore_layer(layer)
                });
                let result = result.map_err(|e| e.to_string())?;
                let tilings = engine.tiling_count(layer).map_err(|e| e.to_string())?;
                explored.push((result.evaluations as f64, tilings as f64));
            }
            let key = layer_cache_key(&tag, layer, acc, engine.config());
            if let Some(result) = state_b.cache().get(&key) {
                let value = encode_stored_result(&result, 0).map_err(|e| e.to_string())?;
                let (put, _) = tracer.span("store.put", id, Some(job_span), || {
                    self.scratch.put(&key, &value)
                });
                put.map_err(|e| e.to_string())?;
                let (got, _) =
                    tracer.span("store.get", id, Some(job_span), || self.scratch.get(&key));
                got.map_err(|e| e.to_string())?;
                value_bytes.push(value.len() as f64);
            }
        }

        let request = Request::Submit(spec.clone());
        let response = Response::Job {
            result: sample.live.clone(),
        };
        let mut request_frame = Vec::new();
        let mut response_frame = Vec::new();
        let (encoded, enc_req) = tracer.span("wire.encode_request", id, Some(sample.root), || {
            wire::write_request(&mut request_frame, &request, Encoding::Text)
        });
        encoded.map_err(|e| e.to_string())?;
        let (decoded, dec_req) = tracer.span("wire.decode_request", id, Some(sample.root), || {
            wire::read_request(&mut &request_frame[..])
        });
        decoded.map_err(|e| e.to_string())?;
        let (encoded, enc_resp) =
            tracer.span("wire.encode_response", id, Some(sample.root), || {
                wire::write_response(&mut response_frame, &response, Dialect::V1, Encoding::Text)
            });
        encoded.map_err(|e| e.to_string())?;
        let (decoded, dec_resp) =
            tracer.span("wire.decode_response", id, Some(sample.root), || {
                wire::read_response(&mut &response_frame[..])
            });
        decoded.map_err(|e| e.to_string())?;

        // The resident hit path, on a layer now certainly resident in B.
        let first = &spec.workload.layers()[0];
        let started = Instant::now();
        let lookup = state_b
            .explore_layer_cached(&engine, &tag, first)
            .map_err(|e| e.to_string())?;
        let lookup_us =
            (lookup.1 == CacheOutcome::Hit).then(|| started.elapsed().as_secs_f64() * 1e6);

        let spans = &tracer.spans;
        Ok(Replay {
            explored,
            lookup_hit_us: lookup_us,
            encode_us: spans[enc_req].us() + spans[enc_resp].us(),
            decode_us: spans[dec_req].us() + spans[dec_resp].us(),
            response_bytes: response_frame.len() as f64,
            value_bytes,
        })
    }

    /// Median shard-chunk time the replica pool recorded, in ms, and
    /// the number of chunks (the pool's own histogram: chunks run
    /// inside the pool, out of reach of the benchmark's spans).
    pub fn shard_chunk_ms_p50(&self) -> (f64, u64) {
        let snapshot = self.pool.state().metrics().snapshot();
        snapshot
            .histogram("shard_chunk_ns")
            .map_or((0.0, 0), |h| (h.p50() as f64 / 1e6, h.count))
    }
}

/// What replaying one sample measured besides its spans.
pub struct Replay {
    /// `(evaluations, tilings)` of each layer explored.
    pub explored: Vec<(f64, f64)>,
    /// A resident lookup of the request's first layer, in µs.
    pub lookup_hit_us: Option<f64>,
    /// Request plus response frame encode time, in µs.
    pub encode_us: f64,
    /// Request plus response frame decode time, in µs.
    pub decode_us: f64,
    /// Size of the response frame.
    pub response_bytes: f64,
    /// Size of each stored layer value.
    pub value_bytes: Vec<f64>,
}

/// A named metric, its unit, and how many samples it rests on.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// The value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
    /// Samples behind it (0 when the layer saw no work here).
    pub count: usize,
}

impl Metric {
    /// A metric from an optional statistic over `count` samples; a layer
    /// that saw no work reports 0 with a count of 0.
    pub fn of(name: &'static str, value: Option<f64>, unit: &'static str, count: usize) -> Metric {
        Metric {
            name,
            value: value.unwrap_or(0.0),
            unit,
            count,
        }
    }
}

/// Median time to profile one architecture's access-cost table
/// (`Profiler::cost_table`), over `reps` runs of each of `archs`.
pub fn profile_ms(archs: &[DramArch], reps: usize) -> Result<Vec<f64>, String> {
    let profiler = Profiler::table_ii().map_err(|e| e.to_string())?;
    let mut times = Vec::new();
    for _ in 0..reps {
        for &arch in archs {
            let started = Instant::now();
            std::hint::black_box(profiler.cost_table(std::hint::black_box(arch)));
            times.push(started.elapsed().as_secs_f64() * 1e3);
        }
    }
    Ok(times)
}

/// Server-side counters scraped over the public `stats` and `metrics`
/// verbs, as the difference between two scrapes.
#[derive(Debug, Clone, Default)]
pub struct Scrape {
    /// Cache counters.
    pub cache: CacheStats,
    /// Every registered counter and histogram.
    pub metrics: MetricsSnapshot,
}

impl Scrape {
    /// Scrape `addr` now.
    pub fn take(addr: &str) -> Result<Scrape, String> {
        let mut client = crate::load::connect(addr).map_err(|e| e.to_string())?;
        Ok(Scrape {
            cache: client.stats_report().map_err(|e| e.to_string())?.cache,
            metrics: client.metrics().map_err(|e| e.to_string())?.snapshot,
        })
    }

    /// What happened between `earlier` and this scrape.
    pub fn since(&self, earlier: &Scrape) -> Scrape {
        let (now, then) = (&self.cache, &earlier.cache);
        Scrape {
            cache: CacheStats {
                hits: now.hits.saturating_sub(then.hits),
                misses: now.misses.saturating_sub(then.misses),
                coalesced: now.coalesced.saturating_sub(then.coalesced),
                evictions: now.evictions.saturating_sub(then.evictions),
                store_hits: now.store_hits.saturating_sub(then.store_hits),
                store_misses: now.store_misses.saturating_sub(then.store_misses),
                ..CacheStats::default()
            },
            metrics: self.metrics.diff(&earlier.metrics),
        }
    }

    fn histogram_sum(&self, name: &str) -> f64 {
        self.metrics.histogram(name).map_or(0.0, |h| h.sum as f64)
    }
}

/// Time one live round trip of `spec` through `client`, in µs.
fn round_trip_us(client: &mut Client, spec: &JobSpec) -> Result<(f64, JobResult), String> {
    let started = Instant::now();
    let result = client
        .submit_with(spec, spec.options)
        .map_err(|e| format!("probe job {}: {e}", spec.id))?;
    Ok((started.elapsed().as_secs_f64() * 1e6, result))
}

/// Pairs of round trips of the same resident job, direct to the server
/// and through a router in front of it. Returns routed minus direct, in
/// µs, per pair, and every answer.
pub fn router_hop_us(
    router: &mut Client,
    direct: &mut Client,
    jobs: &[JobSpec],
) -> Result<(Vec<f64>, Vec<Answer>), String> {
    let mut hops = Vec::with_capacity(jobs.len());
    let mut answers = Vec::with_capacity(2 * jobs.len());
    for spec in jobs {
        let (direct_us, direct_result) = round_trip_us(direct, spec)?;
        let (routed_us, routed_result) = round_trip_us(router, spec)?;
        hops.push(routed_us - direct_us);
        answers.push((spec.clone(), direct_result));
        answers.push((spec.clone(), routed_result));
    }
    Ok((hops, answers))
}

/// Tracing overhead of a live request, in percent: each resident job is
/// sent once untraced and once as a traced [`live`] request (into a
/// throwaway span log), alternating which goes first, both timed from
/// outside the call. The result is the median of the per-pair
/// differences over the median untraced round trip. Returns it with
/// every answer.
pub fn overhead_pct(client: &mut Client, jobs: &[JobSpec]) -> Result<(f64, Vec<Answer>), String> {
    let mut untraced_us = Vec::with_capacity(jobs.len());
    let mut differences_us = Vec::with_capacity(jobs.len());
    let mut answers = Vec::with_capacity(2 * jobs.len());
    let mut spans = Tracer::new();
    for (k, spec) in jobs.iter().enumerate() {
        let traced = |spans: &mut Tracer, client: &mut Client| -> Result<_, String> {
            let started = Instant::now();
            let sample = live(spans, client, spec, true)?;
            Ok((started.elapsed().as_secs_f64() * 1e6, sample.live))
        };
        let ((plain_us, plain), (traced_us, with_spans)) = if k % 2 == 0 {
            let plain = round_trip_us(client, spec)?;
            (plain, traced(&mut spans, client)?)
        } else {
            let with_spans = traced(&mut spans, client)?;
            (round_trip_us(client, spec)?, with_spans)
        };
        untraced_us.push(plain_us);
        differences_us.push(traced_us - plain_us);
        answers.push((spec.clone(), plain));
        answers.push((spec.clone(), with_spans));
    }
    let pct = match (median(&differences_us), median(&untraced_us)) {
        (Some(difference), Some(untraced)) if untraced > 0.0 => difference / untraced * 100.0,
        _ => 0.0,
    };
    Ok((pct, answers))
}

/// Everything the per-layer metrics are computed from.
pub struct LayerInputs<'a> {
    /// The span log.
    pub tracer: &'a Tracer,
    /// Replays of the samples, with whether each was measured traffic.
    pub replays: &'a [(bool, Replay)],
    /// The replica that replayed them.
    pub replica: &'a Replica,
    /// Ids of measured (not preparation) samples.
    pub measured: &'a [u64],
    /// Scraped over the measured phases.
    pub phases: &'a Scrape,
    /// Scraped from the router over the hop probe.
    pub router: &'a Scrape,
    /// Router failovers over the whole run.
    pub failover_total: u64,
    /// `Profiler::cost_table` times, in ms.
    pub profile_ms: &'a [f64],
    /// Routed minus direct round trips, in µs.
    pub hop_us: &'a [f64],
    /// Open-phase send lateness, in ms.
    pub lateness_ms: &'a [f64],
    /// Open-phase backlog when its schedule ended.
    pub backlog_end: u64,
    /// Tracing overhead of a live request, in percent ([`overhead_pct`]).
    pub overhead_pct: f64,
}

/// The per-layer metrics of the traced run.
pub fn layer_metrics(i: &LayerInputs) -> Vec<Metric> {
    let t = i.tracer;
    let measured = |name: &str, self_time: bool| -> Vec<f64> {
        let values = if self_time {
            t.self_us(name)
        } else {
            t.durations_us(name)
        };
        t.spans
            .iter()
            .filter(|s| s.name == name)
            .zip(values)
            .filter(|(s, _)| i.measured.contains(&s.request))
            .map(|(_, v)| v)
            .collect()
    };
    let p50 = |v: &[f64], scale: f64| median(v).map(|x| x * scale);
    let explore_ms: Vec<f64> = t
        .durations_us("core.explore_layer")
        .iter()
        .map(|us| us / 1e3)
        .collect();
    let explored: Vec<(f64, f64)> = i
        .replays
        .iter()
        .flat_map(|(_, r)| r.explored.iter().copied())
        .collect();
    let evaluations: f64 = explored.iter().map(|(e, _)| e).sum();
    let tilings: Vec<f64> = explored.iter().map(|(_, t)| *t).collect();
    let put_us = t.durations_us("store.put");
    let get_us = t.durations_us("store.get");
    let value_bytes: Vec<f64> = i
        .replays
        .iter()
        .flat_map(|(_, r)| r.value_bytes.iter().copied())
        .collect();
    let measured_replays: Vec<&Replay> = i
        .replays
        .iter()
        .filter(|(m, _)| *m)
        .map(|(_, r)| r)
        .collect();
    let lookup_us: Vec<f64> = measured_replays
        .iter()
        .filter_map(|r| r.lookup_hit_us)
        .collect();
    let encode_us: Vec<f64> = measured_replays.iter().map(|r| r.encode_us).collect();
    let decode_us: Vec<f64> = measured_replays.iter().map(|r| r.decode_us).collect();
    let response_bytes: Vec<f64> = measured_replays.iter().map(|r| r.response_bytes).collect();
    let rtt_us = measured("client.submit", false);
    let server_self_us = measured("client.submit", true);
    let pool_us = measured("pool.submit_wait", false);
    let pool_self_us = measured("pool.submit_wait", true);
    let (chunk_ms, chunks) = i.replica.shard_chunk_ms_p50();

    let cache = &i.phases.cache;
    let lookups = cache.hits + cache.misses + cache.coalesced;
    let ratio = |n: u64| (lookups > 0).then(|| n as f64 / lookups as f64);
    let request_ns = i.phases.histogram_sum("request_ns");
    let covered =
        i.phases.histogram_sum("frame_decode_ns") + i.phases.histogram_sum("cache_lookup_ns");
    let pick = i.router.metrics.histogram("route_pick_ns");
    let (matched, replayed) = i.replica.matched;

    vec![
        Metric::of(
            "dram.profile_ms",
            median(i.profile_ms),
            "ms",
            i.profile_ms.len(),
        ),
        Metric::of(
            "core.explore_ms_p50",
            median(&explore_ms),
            "ms",
            explore_ms.len(),
        ),
        Metric::of(
            "core.explore_ms_p99",
            quantile(&explore_ms, 0.99),
            "ms",
            explore_ms.len(),
        ),
        Metric::of(
            "core.evals_per_s",
            (!explore_ms.is_empty()).then(|| evaluations / (explore_ms.iter().sum::<f64>() / 1e3)),
            "1/s",
            explore_ms.len(),
        ),
        Metric::of(
            "core.tilings_per_layer",
            mean(&tilings),
            "count",
            tilings.len(),
        ),
        Metric::of("store.put_us_p50", median(&put_us), "us", put_us.len()),
        Metric::of("store.get_us_p50", median(&get_us), "us", get_us.len()),
        Metric::of(
            "store.value_bytes_mean",
            mean(&value_bytes),
            "bytes",
            value_bytes.len(),
        ),
        Metric::of(
            "cache.hit_ratio",
            ratio(cache.hits),
            "ratio",
            lookups as usize,
        ),
        Metric::of(
            "cache.store_hit_ratio",
            ratio(cache.store_hits),
            "ratio",
            lookups as usize,
        ),
        Metric::of(
            "cache.evictions",
            Some(cache.evictions as f64),
            "count",
            lookups as usize,
        ),
        Metric::of(
            "cache.coalesced",
            Some(cache.coalesced as f64),
            "count",
            lookups as usize,
        ),
        Metric::of(
            "cache.lookup_hit_us_p50",
            median(&lookup_us),
            "us",
            lookup_us.len(),
        ),
        Metric::of(
            "pool.roundtrip_us_p50",
            median(&pool_us),
            "us",
            pool_us.len(),
        ),
        Metric::of(
            "pool.self_us_p50",
            median(&pool_self_us),
            "us",
            pool_self_us.len(),
        ),
        Metric::of(
            "pool.shard_chunk_ms_p50",
            (chunks > 0).then_some(chunk_ms),
            "ms",
            chunks as usize,
        ),
        Metric::of(
            "wire.encode_us_p50",
            median(&encode_us),
            "us",
            encode_us.len(),
        ),
        Metric::of(
            "wire.decode_us_p50",
            median(&decode_us),
            "us",
            decode_us.len(),
        ),
        Metric::of(
            "wire.response_bytes_p50",
            median(&response_bytes),
            "bytes",
            response_bytes.len(),
        ),
        Metric::of(
            "wire.response_bytes_p99",
            quantile(&response_bytes, 0.99),
            "bytes",
            response_bytes.len(),
        ),
        Metric::of("server.rtt_us_p50", median(&rtt_us), "us", rtt_us.len()),
        Metric::of(
            "server.self_us_p50",
            median(&server_self_us),
            "us",
            server_self_us.len(),
        ),
        Metric::of(
            "server.stage_coverage",
            (request_ns > 0.0).then(|| covered / request_ns),
            "ratio",
            i.phases
                .metrics
                .histogram("request_ns")
                .map_or(0, |h| h.count as usize),
        ),
        Metric::of(
            "router.hop_us_p50",
            p50(i.hop_us, 1.0),
            "us",
            i.hop_us.len(),
        ),
        Metric::of(
            "router.route_pick_ns_p50",
            pick.filter(|h| h.count > 0).map(|h| h.p50() as f64),
            "ns",
            pick.map_or(0, |h| h.count as usize),
        ),
        Metric::of(
            "router.failover_total",
            Some(i.failover_total as f64),
            "count",
            1,
        ),
        Metric::of(
            "loadgen.lateness_p99_ms",
            quantile(i.lateness_ms, 0.99),
            "ms",
            i.lateness_ms.len(),
        ),
        Metric::of(
            "loadgen.backlog_end",
            Some(i.backlog_end as f64),
            "count",
            1,
        ),
        Metric::of(
            "trace.overhead_pct",
            Some(i.overhead_pct),
            "%",
            rtt_us.len(),
        ),
        Metric::of(
            "trace.matched_frac",
            (replayed > 0).then(|| matched as f64 / replayed as f64),
            "ratio",
            replayed as usize,
        ),
    ]
}
