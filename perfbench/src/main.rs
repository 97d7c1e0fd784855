//! `perfbench` — the end-to-end and per-layer benchmark of the DSE
//! service stack.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//!           --bin-dir DIR --scratch DIR
//! ```
//!
//! Starts the stack from the built `drmap-serve`/`drmap-router` binaries
//! in `--bin-dir`, generates the workload's requests from `--seed`, runs
//! 10 rounds of a closed phase then an open phase of `S/20` seconds
//! each, checks every answer against an in-process reference, and
//! prints the end-to-end metrics (`--trace 0`) or, after a traced
//! replay, the per-layer metrics (`--trace 1`). The last line of stdout
//! is the JSON result. See `perfbench/README.md`.

mod load;
mod stack;
mod stats;
mod trace;
mod verify;
mod workload;

use std::io::ErrorKind;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use drmap_dram::timing::DramArch;
use drmap_service::cache::CacheConfig;
use drmap_service::spec::JobSpec;

use crate::load::Phase;
use crate::stack::{RunDir, Stack, StackSpec};
use crate::stats::{median, quantile};
use crate::trace::{Metric, Replica, Scrape, Tracer};
use crate::verify::{Answer, Verifier};
use crate::workload::{probe_jobs, Stream, Workload, CHURN_CACHE_ENTRIES};

/// Pool workers serving the workload in total (the box's cores).
const WORKERS: usize = 2;
/// Stack starts per setup block. One block runs before the first round
/// and one after each round, so `setup_s` is the median of 99 starts
/// spread over the whole run, and a slow spell of the shared machine
/// weighs on it no more than on the rounds.
const SETUP_PER_BLOCK: usize = 9;
/// Closed/open phase pairs per run; throughput and every latency
/// percentile are reported as the median over the rounds.
const ROUNDS: usize = 10;
/// Measured requests replayed by the traced run.
const TRACE_SAMPLES: usize = 200;
/// Preparation jobs per pipelined batch.
const PREPARE_BATCH: usize = 64;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    bin_dir: PathBuf,
    scratch: PathBuf,
}

const USAGE: &str = "usage: perfbench --workload zipf_hits|cold_layers|store_churn \
                     --seed N --seconds S --trace 0|1 --bin-dir DIR --scratch DIR";

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut bin_dir, mut scratch) = (None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("bad {flag} {value:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value:?}"))?);
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(2)),
            "--trace" => trace = Some(number()? != 0),
            "--bin-dir" => bin_dir = Some(PathBuf::from(value)),
            "--scratch" => scratch = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        bin_dir: bin_dir.ok_or("--bin-dir is required")?,
        scratch: scratch.ok_or("--scratch is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(report) => {
            let correct = report.correct;
            report.print();
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The run's result.
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    notes: Vec<String>,
}

impl Report {
    fn print(&self) {
        for note in &self.notes {
            println!("# {note}");
        }
        for m in &self.metrics {
            println!(
                "{:<26} {:>16.6} {:<6} (n={})",
                m.name, m.value, m.unit, m.count
            );
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

/// `value` as a JSON number with every digit Rust prints (shortest
/// round-trip form); non-finite values, which JSON cannot carry, as 0.
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "0.0".to_owned()
    }
}

/// Send `jobs` through the stack in pipelined batches.
fn submit_all(addr: &str, jobs: &[JobSpec]) -> Result<Vec<Answer>, String> {
    let mut client = load::connect(addr).map_err(|e| e.to_string())?;
    let mut answers = Vec::with_capacity(jobs.len());
    for batch in jobs.chunks(PREPARE_BATCH) {
        let results = client.submit_batch(batch).map_err(|e| e.to_string())?;
        for (spec, result) in batch.iter().zip(results) {
            let result = result.map_err(|e| format!("job {}: {e}", spec.id))?;
            answers.push((spec.clone(), result));
        }
    }
    Ok(answers)
}

/// Send `jobs` one at a time as traced live requests.
fn submit_traced(
    addr: &str,
    jobs: &[JobSpec],
    tracer: &mut Tracer,
    samples: &mut Vec<trace::Sample>,
) -> Result<(), String> {
    let mut client = load::connect(addr).map_err(|e| e.to_string())?;
    for spec in jobs {
        samples.push(trace::live(tracer, &mut client, spec, false)?);
    }
    Ok(())
}

fn check(verifier: &Verifier, answers: &[Answer], what: &str) -> Result<(), String> {
    match verifier.check_all(answers, WORKERS) {
        (0, _) => Ok(()),
        (wrong, first) => Err(format!(
            "{wrong} wrong answers during {what}; first: {}",
            first.unwrap_or_default()
        )),
    }
}

fn run(args: &Args) -> Result<Report, String> {
    let workload = args.workload;
    let dir = RunDir::create(&args.scratch).map_err(|e| format!("run directory: {e}"))?;
    let stream = Stream::new(workload, args.seed);
    let verifier = Verifier::new()?;
    let archs = stream.archs();
    let prepare = stream.prepare_jobs();
    let store = dir.path().join("serve.wal");
    let with_store = matches!(workload, Workload::ColdLayers | Workload::StoreChurn);
    let cache_config = match workload {
        Workload::StoreChurn => CacheConfig::unbounded().with_max_entries(CHURN_CACHE_ENTRIES),
        _ => CacheConfig::unbounded(),
    };
    let stack_spec = |store: &Path| {
        let mut serve_args = Vec::new();
        if with_store {
            serve_args.extend(["--store".to_owned(), store.display().to_string()]);
        }
        if let Some(entries) = cache_config.max_entries {
            serve_args.extend(["--cache-entries".to_owned(), entries.to_string()]);
        }
        StackSpec {
            bin_dir: args.bin_dir.clone(),
            log_dir: dir.path().to_owned(),
            serve_args,
        }
    };
    let spec = stack_spec(&store);
    let mut tracer = Tracer::new();
    let mut samples = Vec::new();

    // store_churn: fill the store through a server before the stack
    // that is measured opens it.
    if workload == Workload::StoreChurn {
        let populate = Stack::start(&spec, "populate")?;
        if args.trace {
            submit_traced(&populate.addr, &prepare, &mut tracer, &mut samples)?;
        } else {
            check(
                &verifier,
                &submit_all(&populate.addr, &prepare)?,
                "store population",
            )?;
        }
        populate.stop();
    }

    // Each setup start opens a fresh copy of the store as the measured
    // stack finds it: empty for cold_layers, fully populated for
    // store_churn.
    let setup_store = dir.path().join("setup.wal");
    let setup = Setup {
        spec: stack_spec(&setup_store),
        store: setup_store,
        template: store
            .exists()
            .then(|| {
                let template = dir.path().join("template.wal");
                std::fs::copy(&store, &template).map(|_| template)
            })
            .transpose()
            .map_err(|e| format!("store copy: {e}"))?,
        archs: &archs,
        verifier: &verifier,
    };
    let mut setup_s = Vec::with_capacity(SETUP_PER_BLOCK * (ROUNDS + 1));
    setup.block(&mut setup_s)?;
    let stack = Stack::start(&spec, "measured")?;

    if workload == Workload::ZipfHits {
        if args.trace {
            submit_traced(&stack.addr, &prepare, &mut tracer, &mut samples)?;
        } else {
            check(
                &verifier,
                &submit_all(&stack.addr, &prepare)?,
                "cache warm-up",
            )?;
        }
    }

    let before = if args.trace {
        Some(Scrape::take(&stack.addr)?)
    } else {
        None
    };
    // Closed and open phases alternate over several rounds, so that a
    // disturbance of the shared machine falls on both alike and moves
    // the median round little; each open round starts a fresh
    // connection.
    let round_time = Duration::from_secs_f64(args.seconds as f64 / 2.0 / ROUNDS as f64);
    let rate = workload.open_rate_rps();
    let stream = Mutex::new(stream);
    let mut rounds = Vec::with_capacity(ROUNDS);
    for _ in 0..ROUNDS {
        let closed = load::closed(&stack.addr, &stream, round_time);
        let specs: Vec<JobSpec> = {
            let mut stream = stream.lock().expect("stream lock poisoned");
            (0..(rate * round_time.as_secs_f64()) as usize)
                .map(|_| stream.next_spec())
                .collect()
        };
        rounds.push((closed, load::open(&stack.addr, &specs, rate)));
        setup.block(&mut setup_s)?;
    }
    let rss_mb = stack.peak_rss_mb()?;

    let phases = match before {
        Some(before) => Some(Scrape::take(&stack.addr)?.since(&before)),
        None => None,
    };

    // Check every answer, then summarize each round.
    let mut closed = Phase::default();
    let mut open = Phase::default();
    let mut wrong = 0;
    let mut first_wrong = None;
    let mut per_round = Rounds::default();
    for (c, o) in rounds {
        let (closed_wrong, first) = verifier.check_all(&c.answers, WORKERS);
        let (open_wrong, open_first) = verifier.check_all(&o.answers, WORKERS);
        wrong += closed_wrong + open_wrong;
        first_wrong = first_wrong.or(first).or(open_first);
        per_round.add(&c, closed_wrong, &o);
        closed.merge(c);
        open.merge(o);
    }
    let layer_metrics = match phases {
        Some(phases) => {
            let mut stream = stream.into_inner().expect("stream lock poisoned");
            Some(traced(
                args,
                &dir,
                &stack,
                &mut stream,
                &mut tracer,
                samples,
                &phases,
                with_store,
                cache_config,
                &archs,
                &open,
                &verifier,
            )?)
        }
        None => None,
    };
    stack.stop();
    let attempted = closed.attempted + open.attempted;
    let failed = closed.failed + open.failed + wrong;
    let mut notes = vec![format!(
        "workload {} seed {} seconds {} trace {}: cores {}, workers {}, connections {}, \
         encoding text, open rate {rate}/s, {ROUNDS} closed/open rounds",
        workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, usize::from),
        WORKERS,
        load::CONNECTIONS,
    )];
    notes.extend(per_round.describe());
    notes.push(format!(
        "setup_s per start: {}",
        setup_s
            .iter()
            .map(|v| format!("{v:.5}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    for (what, error) in [
        ("closed phase", closed.first_error.as_ref()),
        ("open phase", open.first_error.as_ref()),
        ("wrong answer", first_wrong.as_ref()),
    ] {
        if let Some(error) = error {
            notes.push(format!("{what}: {error}"));
        }
    }
    let metrics = match layer_metrics {
        Some(mut metrics) => {
            metrics.push(Metric::of(
                "loadgen.failed_frac",
                Some(failed as f64 / attempted.max(1) as f64),
                "ratio",
                attempted as usize,
            ));
            let (nc, no) = (closed.latencies_ms.len(), open.latencies_ms.len());
            for (name, rounds, n) in [
                ("loadgen.closed_p50_ms", &per_round.closed_p50_ms, nc),
                ("loadgen.closed_p99_ms", &per_round.closed_p99_ms, nc),
                ("loadgen.open_p50_ms", &per_round.open_p50_ms, no),
                ("loadgen.open_p99_ms", &per_round.open_p99_ms, no),
            ] {
                metrics.push(Metric::of(name, median(rounds), "ms", n));
            }
            metrics
        }
        None => per_round.end_to_end(&closed, &setup_s, rss_mb, attempted, failed),
    };
    Ok(Report {
        correct: wrong == 0,
        attempted,
        failed,
        metrics,
        notes,
    })
}

/// How `setup_s` is measured.
struct Setup<'a> {
    /// The stack, on a store file of its own.
    spec: StackSpec,
    /// That store file.
    store: PathBuf,
    /// The store the measured stack opens, as it was before it started.
    template: Option<PathBuf>,
    archs: &'a [DramArch],
    verifier: &'a Verifier,
}

impl Setup<'_> {
    /// Start and stop the stack [`SETUP_PER_BLOCK`] times, timing each
    /// start until one probe per architecture has been answered
    /// correctly.
    fn block(&self, setup_s: &mut Vec<f64>) -> Result<(), String> {
        for _ in 0..SETUP_PER_BLOCK {
            let start = setup_s.len();
            let mut probes = probe_jobs(self.archs);
            for probe in &mut probes {
                probe.id += (start * self.archs.len()) as u64;
            }
            match std::fs::remove_file(&self.store) {
                Err(e) if e.kind() != ErrorKind::NotFound => {
                    return Err(format!("{}: {e}", self.store.display()));
                }
                _ => {}
            }
            if let Some(template) = &self.template {
                std::fs::copy(template, &self.store).map_err(|e| format!("store copy: {e}"))?;
            }
            let started = Instant::now();
            let up = Stack::start(&self.spec, &format!("setup{start}"))?;
            let answers = submit_all(&up.addr, &probes)?;
            setup_s.push(started.elapsed().as_secs_f64());
            up.stop();
            check(self.verifier, &answers, "setup")?;
        }
        Ok(())
    }
}

/// Per-round figures; each reported timing is their median.
#[derive(Default)]
struct Rounds {
    throughput_rps: Vec<f64>,
    closed_p50_ms: Vec<f64>,
    closed_p99_ms: Vec<f64>,
    open_p50_ms: Vec<f64>,
    open_p99_ms: Vec<f64>,
}

impl Rounds {
    fn add(&mut self, closed: &Phase, closed_wrong: u64, open: &Phase) {
        if closed.elapsed_s > 0.0 {
            let ok = closed.answers.len() as u64 - closed_wrong;
            self.throughput_rps.push(ok as f64 / closed.elapsed_s);
        }
        let lat = |samples: &[f64], q: f64, into: &mut Vec<f64>| {
            into.extend(quantile(samples, q));
        };
        lat(&closed.latencies_ms, 0.5, &mut self.closed_p50_ms);
        lat(&closed.latencies_ms, 0.99, &mut self.closed_p99_ms);
        lat(&open.latencies_ms, 0.5, &mut self.open_p50_ms);
        lat(&open.latencies_ms, 0.99, &mut self.open_p99_ms);
    }

    fn describe(&self) -> Vec<String> {
        let row = |name: &str, values: &[f64]| {
            let values: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
            format!("per round {name}: {}", values.join(" "))
        };
        vec![
            row("throughput_rps", &self.throughput_rps),
            row("closed_p50_ms", &self.closed_p50_ms),
            row("closed_p99_ms", &self.closed_p99_ms),
            row("open_p50_ms", &self.open_p50_ms),
            row("open_p99_ms", &self.open_p99_ms),
        ]
    }

    fn end_to_end(
        &self,
        closed: &Phase,
        setup_s: &[f64],
        rss_mb: f64,
        attempted: u64,
        failed: u64,
    ) -> Vec<Metric> {
        vec![
            Metric::of("setup_s", median(setup_s), "s", setup_s.len()),
            Metric::of(
                "throughput_rps",
                median(&self.throughput_rps),
                "1/s",
                closed.latencies_ms.len(),
            ),
            Metric::of(
                "ok_frac",
                Some(1.0 - failed as f64 / attempted.max(1) as f64),
                "ratio",
                attempted as usize,
            ),
            Metric::of("rss_peak_mb", Some(rss_mb), "MiB", 1),
        ]
    }
}

/// The traced run, after the untraced phases: a live traced sample, its
/// in-process replay, and the router-hop probe.
#[allow(clippy::too_many_arguments)]
fn traced(
    args: &Args,
    dir: &RunDir,
    stack: &Stack,
    stream: &mut Stream,
    tracer: &mut Tracer,
    mut samples: Vec<trace::Sample>,
    phases: &Scrape,
    with_store: bool,
    cache_config: CacheConfig,
    archs: &[DramArch],
    open: &Phase,
    verifier: &Verifier,
) -> Result<Vec<Metric>, String> {
    // Live: the traced sample, on one connection.
    let mut client = load::connect(&stack.addr).map_err(|e| e.to_string())?;
    let prepared = samples.len();
    for _ in 0..TRACE_SAMPLES {
        samples.push(trace::live(tracer, &mut client, &stream.next_spec(), true)?);
    }
    let answers: Vec<Answer> = samples
        .iter()
        .map(|s| (s.spec.clone(), s.live.clone()))
        .collect();
    check(verifier, &answers, "the traced sample")?;

    // In process: preparation traffic first (it built the served cache
    // or store), then the measured sample.
    let mut replica = Replica::new(dir.path(), cache_config, with_store, WORKERS)?;
    let mut replays = Vec::with_capacity(samples.len());
    for (k, sample) in samples.iter().enumerate() {
        if k == prepared && args.workload == Workload::StoreChurn {
            replica.restart(None);
        }
        replays.push((sample.measured, replica.replay(tracer, sample)?));
    }
    let measured: Vec<u64> = samples[prepared..].iter().map(|s| s.spec.id).collect();

    // The measured jobs again, now resident: the tracing overhead, then
    // the router hop, direct to the server and through a router put in
    // front of it for this probe only.
    let resident: Vec<JobSpec> = samples[prepared..].iter().map(|s| s.spec.clone()).collect();
    let (overhead_pct, answers) = trace::overhead_pct(&mut client, &resident)?;
    check(verifier, &answers, "the tracing-overhead probe")?;
    let probe_router = stack::start_router(&args.bin_dir, dir.path(), "hop", &stack.addr)?;
    let mut router = load::connect(&probe_router.addr).map_err(|e| e.to_string())?;
    let router_before = Scrape::take(&probe_router.addr)?;
    let (hop_us, answers) = trace::router_hop_us(&mut router, &mut client, &resident)?;
    let router_after = Scrape::take(&probe_router.addr)?;
    check(verifier, &answers, "the router-hop probe")?;
    let failover_total = router_after.metrics.counter("failover_total").unwrap_or(0);
    drop(router);
    probe_router.stop();

    let profile_ms = trace::profile_ms(archs, 5)?;
    let spans_path = args.scratch.join(format!(
        "trace-{}-seed{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    tracer
        .write(&spans_path)
        .map_err(|e| format!("{}: {e}", spans_path.display()))?;

    Ok(trace::layer_metrics(&trace::LayerInputs {
        tracer,
        replays: &replays,
        replica: &replica,
        measured: &measured,
        phases,
        router: &router_after.since(&router_before),
        failover_total,
        profile_ms: &profile_ms,
        hop_us: &hop_us,
        lateness_ms: &open.lateness_ms,
        backlog_end: open.backlog_end,
        overhead_pct,
    }))
}
