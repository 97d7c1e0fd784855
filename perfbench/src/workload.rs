//! The three workloads and their seeded request generators.
//!
//! Every request the benchmark sends comes from a [`Stream`] built from
//! the workload and the `--seed`; the program under test only ever sees
//! the generated [`JobSpec`]s. The same seed yields the same request
//! sequence.

use std::collections::HashSet;

use drmap_cnn::layer::Layer;
use drmap_cnn::network::Network;
use drmap_dram::timing::DramArch;
use drmap_service::engine::job_route_key;
use drmap_service::loadgen::{default_catalog, SplitMix64, DEFAULT_ZIPF_EXPONENT};
use drmap_service::spec::{CacheMode, EngineSpec, JobOptions, JobSpec};

/// Synthetic layers in the `store_churn` catalog.
pub const CHURN_CATALOG_LAYERS: usize = 512;
/// Resident-cache bound (`--cache-entries`) of the `store_churn` server:
/// a quarter of the catalog's layer count and an eighth of its keys
/// (every layer is stored with and without `keep_points`).
pub const CHURN_CACHE_ENTRIES: usize = 128;
/// Zipf exponent over the churn catalog: flat enough that requests
/// split between resident hits and store reads.
const CHURN_ZIPF_EXPONENT: f64 = 0.9;
/// Share of `store_churn` requests that set `keep_points`.
const CHURN_KEEP_POINTS_SHARE: f64 = 0.25;
/// Tail index and cap of the Pareto-distributed layer count of a
/// `store_churn` request (mean about 2.5 layers, at most 24).
const CHURN_PARETO_ALPHA: f64 = 1.3;
const CHURN_MAX_LAYERS: usize = 24;
/// Draws per stratified block (see [`Stratified`]).
const MIX_BLOCK: usize = 1000;
const CHURN_LAYER_BLOCK: usize = 4096;

/// Job ids of preparation traffic (warm-up, store population) start
/// here, far above any id the measured streams reach.
pub const PREPARE_ID_BASE: u64 = 1 << 40;
/// Job ids of setup probes start here.
pub const PROBE_ID_BASE: u64 = 1 << 41;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The seeded zipf-1.1 mix over `loadgen::default_catalog()`, cache
    /// warmed: the server, wire, pool and hit path do the work.
    ZipfHits,
    /// Fresh synthetic conv layers whose cache keys never repeat, across
    /// every DRAM architecture, on a store-backed server: every lookup
    /// misses, so the DSE sweep and store writes do the work.
    ColdLayers,
    /// A zipf mix over a synthetic catalog larger than the resident
    /// cache, fully stored: hits, store reads and evictions all occur.
    StoreChurn,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::ZipfHits,
        Workload::ColdLayers,
        Workload::StoreChurn,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ZipfHits => "zipf_hits",
            Workload::ColdLayers => "cold_layers",
            Workload::StoreChurn => "store_churn",
        }
    }

    /// Parse a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The fixed offered rate of the open phase, in requests per
    /// second. A constant, never derived from the run's own capacity;
    /// for `cold_layers`, whose sweeps take milliseconds, a light load.
    pub fn open_rate_rps(self) -> f64 {
        match self {
            Workload::ZipfHits | Workload::StoreChurn => 1000.0,
            Workload::ColdLayers => 100.0,
        }
    }
}

/// A seeded request stream for one workload.
#[derive(Debug)]
pub enum Stream {
    /// `zipf_hits`.
    Mix(Mix),
    /// `cold_layers`.
    Cold(ColdLayers),
    /// `store_churn`.
    Churn(Churn),
}

impl Stream {
    /// The stream of `workload` for `seed`.
    pub fn new(workload: Workload, seed: u64) -> Stream {
        match workload {
            Workload::ZipfHits => Stream::Mix(Mix::new(seed)),
            Workload::ColdLayers => Stream::Cold(ColdLayers::new(seed)),
            Workload::StoreChurn => Stream::Churn(Churn::new(seed)),
        }
    }

    /// The next request.
    pub fn next_spec(&mut self) -> JobSpec {
        match self {
            Stream::Mix(mix) => mix.next_spec(),
            Stream::Cold(cold) => cold.next_spec(),
            Stream::Churn(churn) => churn.next_spec(),
        }
    }

    /// Jobs sent before measuring: the whole catalog for `zipf_hits`
    /// (so the cache is warm), every churn layer in both `keep_points`
    /// variants (so the store is fully populated), nothing for
    /// `cold_layers`.
    pub fn prepare_jobs(&self) -> Vec<JobSpec> {
        let templates = match self {
            Stream::Mix(_) => default_catalog(),
            Stream::Cold(_) => Vec::new(),
            Stream::Churn(churn) => churn.population(),
        };
        templates
            .into_iter()
            .zip(PREPARE_ID_BASE..)
            .map(|(mut spec, id)| {
                spec.id = id;
                spec
            })
            .collect()
    }

    /// The DRAM architectures this stream's requests use.
    pub fn archs(&self) -> Vec<DramArch> {
        match self {
            Stream::Cold(_) => DramArch::ALL.to_vec(),
            Stream::Mix(_) | Stream::Churn(_) => vec![EngineSpec::default().arch],
        }
    }
}

/// One cheap single-layer probe per architecture, bypassing the cache so
/// probing leaves the cache and store exactly as they were.
pub fn probe_jobs(archs: &[DramArch]) -> Vec<JobSpec> {
    let layer = Network::tiny().layers()[2].clone();
    archs
        .iter()
        .zip(PROBE_ID_BASE..)
        .map(|(&arch, id)| {
            JobSpec::layer(id, EngineSpec::for_arch(arch), layer.clone()).with_options(JobOptions {
                cache: CacheMode::Bypass,
                ..JobOptions::default()
            })
        })
        .collect()
}

fn pick<T: Copy>(rng: &mut SplitMix64, choices: &[T]) -> T {
    choices[(rng.next_u64() % choices.len() as u64) as usize]
}

/// Zipf weights `1 / (rank + 1)^exponent` over `n` ranks.
fn zipf_weights(n: usize, exponent: f64) -> Vec<f64> {
    (0..n)
        .map(|r| 1.0 / ((r + 1) as f64).powf(exponent))
        .collect()
}

/// Stratified sampling over weighted outcomes: every block of draws
/// holds each outcome exactly in proportion to its weight (largest
/// remainder rounding), in a seeded random order. How many rare,
/// expensive requests a run happens to draw then cannot move its
/// figures; only their order varies with the seed.
#[derive(Debug)]
struct Stratified {
    block: Vec<usize>,
    next: usize,
}

impl Stratified {
    fn new(weights: &[f64], block: usize) -> Self {
        let total: f64 = weights.iter().sum();
        let exact: Vec<f64> = weights.iter().map(|w| w / total * block as f64).collect();
        let mut counts: Vec<usize> = exact.iter().map(|e| e.floor() as usize).collect();
        let mut by_remainder: Vec<usize> = (0..weights.len()).collect();
        by_remainder.sort_by(|&a, &b| {
            (exact[b] - exact[b].floor()).total_cmp(&(exact[a] - exact[a].floor()))
        });
        let short = block - counts.iter().sum::<usize>();
        for &outcome in by_remainder.iter().take(short) {
            counts[outcome] += 1;
        }
        let block: Vec<usize> = counts
            .iter()
            .enumerate()
            .flat_map(|(outcome, &n)| std::iter::repeat_n(outcome, n))
            .collect();
        let next = block.len();
        Stratified { block, next }
    }

    fn sample(&mut self, rng: &mut SplitMix64) -> usize {
        if self.next == self.block.len() {
            // Fisher-Yates shuffle of the next block.
            for i in (1..self.block.len()).rev() {
                let j = (rng.next_u64() % (i as u64 + 1)) as usize;
                self.block.swap(i, j);
            }
            self.next = 0;
        }
        self.next += 1;
        self.block[self.next - 1]
    }
}

/// `zipf_hits`: the zipf-1.1 mix over
/// `loadgen::default_catalog()` (single layers first, whole networks in
/// the tail), stratified in blocks of [`MIX_BLOCK`] requests.
#[derive(Debug)]
pub struct Mix {
    catalog: Vec<JobSpec>,
    ranks: Stratified,
    rng: SplitMix64,
    next_id: u64,
}

impl Mix {
    fn new(seed: u64) -> Self {
        let catalog = default_catalog();
        let weights = zipf_weights(catalog.len(), DEFAULT_ZIPF_EXPONENT);
        Mix {
            catalog,
            ranks: Stratified::new(&weights, MIX_BLOCK),
            rng: SplitMix64::new(seed),
            next_id: 1,
        }
    }

    fn next_spec(&mut self) -> JobSpec {
        let mut spec = self.catalog[self.ranks.sample(&mut self.rng)].clone();
        spec.id = self.next_id;
        self.next_id += 1;
        spec
    }
}

/// A `store_churn` catalog layer: a random conv layer with output up to
/// 20 by 20, up to 80 channels, 1x1 to 5x5 kernels and stride 1 or 2.
fn churn_layer(rng: &mut SplitMix64, name: &str) -> Layer {
    let k = pick(rng, &[1, 3, 3, 5]);
    let stride = pick(rng, &[1, 1, 1, 2]);
    let hw = 4 + (rng.next_u64() % 17) as usize;
    let j = 8 * (1 + (rng.next_u64() % 10) as usize);
    let wide = 8 * (1 + (rng.next_u64() % 10) as usize);
    let i = pick(rng, &[3, wide]);
    Layer::conv(name, hw, hw, j, i, k, k, stride)
}

/// `cold_layers` shapes: 3x3 conv layers, stride 1, output 6..=20 by
/// 6..=20, 16..=64 channels in and out, on one of the DRAM
/// architectures. The ranges keep the sweep cost within a narrow band
/// (the middle 80% took 1.5 to 3.3 ms on one core of a 2-vCPU VM), so a
/// run's tail does not hinge on a few outsized layers.
const COLD_EXTENT: u64 = 15;
const COLD_CHANNELS: u64 = 49;
/// Distinct `cold_layers` cache keys: every shape on every architecture,
/// about 2.2 million, several times more than any run can send.
const COLD_KEYS: u64 =
    DramArch::ALL.len() as u64 * COLD_EXTENT * COLD_EXTENT * COLD_CHANNELS * COLD_CHANNELS;

/// The `index`-th point of the `cold_layers` shape x architecture space.
fn cold_spec(id: u64, index: u64) -> JobSpec {
    let archs = DramArch::ALL.len() as u64;
    let arch = DramArch::ALL[(index % archs) as usize];
    let mut rest = index / archs;
    let mut digit = |radix: u64, low: u64| {
        let d = rest % radix;
        rest /= radix;
        (low + d) as usize
    };
    let (h, w) = (digit(COLD_EXTENT, 6), digit(COLD_EXTENT, 6));
    let (j, i) = (digit(COLD_CHANNELS, 16), digit(COLD_CHANNELS, 16));
    let layer = Layer::conv(&format!("cold{id}"), h, w, j, i, 3, 3, 1);
    JobSpec::layer(id, EngineSpec::for_arch(arch), layer)
}

/// A seeded permutation of `0..n`: a four-round Feistel network over
/// the smallest power of four not below `n`, cycle-walked back into
/// range. The walk ends because the network is a bijection, so the
/// cycle through an index below `n` returns below `n`; the domain is
/// less than 4n, so it takes under four steps on average.
#[derive(Debug)]
struct Permutation {
    n: u64,
    half_bits: u32,
    keys: [u64; 4],
}

impl Permutation {
    fn new(n: u64, rng: &mut SplitMix64) -> Self {
        let mut half_bits = 1;
        while 1u64 << (2 * half_bits) < n {
            half_bits += 1;
        }
        Permutation {
            n,
            half_bits,
            keys: std::array::from_fn(|_| rng.next_u64()),
        }
    }

    fn feistel(&self, x: u64) -> u64 {
        let mask = (1u64 << self.half_bits) - 1;
        let (mut left, mut right) = (x >> self.half_bits, x & mask);
        for key in self.keys {
            let round = SplitMix64::new(right ^ key).next_u64() & mask;
            (left, right) = (right, left ^ round);
        }
        (left << self.half_bits) | right
    }

    /// The image of `index`, which must be below `n`.
    fn get(&self, index: u64) -> u64 {
        let mut x = self.feistel(index);
        while x >= self.n {
            x = self.feistel(x);
        }
        x
    }
}

/// `cold_layers`: every request is a fresh synthetic layer on an
/// architecture from `DramArch::ALL`, the shape x architecture space
/// walked in a seeded order, so no cache key repeats in a run.
#[derive(Debug)]
pub struct ColdLayers {
    order: Permutation,
    next_id: u64,
}

impl ColdLayers {
    fn new(seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed ^ 0xc01d_1a7e_5eed);
        ColdLayers {
            order: Permutation::new(COLD_KEYS, &mut rng),
            next_id: 1,
        }
    }

    fn next_spec(&mut self) -> JobSpec {
        let drawn = self.next_id - 1;
        assert!(
            drawn < COLD_KEYS,
            "cold_layers used up all {COLD_KEYS} distinct cache keys"
        );
        let spec = cold_spec(self.next_id, self.order.get(drawn));
        self.next_id += 1;
        spec
    }
}

/// `store_churn`: inline networks of zipf-drawn catalog layers, a
/// Pareto-distributed number of them per request, a share with
/// `keep_points` set; all three draws stratified.
#[derive(Debug)]
pub struct Churn {
    catalog: Vec<Layer>,
    layers: Stratified,
    counts: Stratified,
    keep_points: Stratified,
    rng: SplitMix64,
    next_id: u64,
}

impl Churn {
    fn new(seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed ^ 0xc4a2_0057_04e5);
        let mut catalog = Vec::with_capacity(CHURN_CATALOG_LAYERS);
        let mut seen = HashSet::new();
        while catalog.len() < CHURN_CATALOG_LAYERS {
            let layer = churn_layer(&mut rng, &format!("c{}", catalog.len()));
            let key = job_route_key(&JobSpec::layer(0, EngineSpec::default(), layer.clone()));
            if seen.insert(key) {
                catalog.push(layer);
            }
        }
        // P(count = k) of the Pareto law floor(u^(-1/alpha)), the tail
        // folded into the cap.
        let survival = |k: usize| (k as f64).powf(-CHURN_PARETO_ALPHA);
        let count_weights: Vec<f64> = (1..=CHURN_MAX_LAYERS)
            .map(|k| {
                survival(k)
                    - if k < CHURN_MAX_LAYERS {
                        survival(k + 1)
                    } else {
                        0.0
                    }
            })
            .collect();
        Churn {
            catalog,
            layers: Stratified::new(
                &zipf_weights(CHURN_CATALOG_LAYERS, CHURN_ZIPF_EXPONENT),
                CHURN_LAYER_BLOCK,
            ),
            counts: Stratified::new(&count_weights, MIX_BLOCK),
            keep_points: Stratified::new(
                &[1.0 - CHURN_KEEP_POINTS_SHARE, CHURN_KEEP_POINTS_SHARE],
                MIX_BLOCK,
            ),
            rng,
            next_id: 1,
        }
    }

    /// Every catalog layer as a single-layer job, once without and once
    /// with `keep_points`.
    fn population(&self) -> Vec<JobSpec> {
        [false, true]
            .into_iter()
            .flat_map(|keep_points| {
                self.catalog.iter().map(move |layer| {
                    JobSpec::layer(0, EngineSpec::default(), layer.clone()).with_options(
                        JobOptions {
                            keep_points,
                            ..JobOptions::default()
                        },
                    )
                })
            })
            .collect()
    }

    fn next_spec(&mut self) -> JobSpec {
        let count = 1 + self.counts.sample(&mut self.rng);
        let layers: Vec<Layer> = (0..count)
            .map(|_| self.catalog[self.layers.sample(&mut self.rng)].clone())
            .collect();
        let keep_points = self.keep_points.sample(&mut self.rng) == 1;
        let network = Network::new(&format!("churn{}", self.next_id), layers)
            .expect("catalog layers are valid");
        let spec = JobSpec::network(self.next_id, EngineSpec::default(), network).with_options(
            JobOptions {
                keep_points,
                ..JobOptions::default()
            },
        );
        self.next_id += 1;
        spec
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drmap_cnn::accelerator::AcceleratorConfig;
    use drmap_core::dse::{layer_cache_key, DseConfig};
    use drmap_service::engine::SUBSTRATE;

    fn draws(workload: Workload, seed: u64, n: usize) -> Vec<JobSpec> {
        let mut stream = Stream::new(workload, seed);
        (0..n).map(|_| stream.next_spec()).collect()
    }

    #[test]
    fn the_same_seed_gives_an_identical_request_stream() {
        for workload in Workload::ALL {
            assert_eq!(draws(workload, 7, 300), draws(workload, 7, 300));
            assert_ne!(draws(workload, 7, 300), draws(workload, 8, 300));
            assert_eq!(
                Stream::new(workload, 7).prepare_jobs(),
                Stream::new(workload, 7).prepare_jobs()
            );
        }
    }

    #[test]
    fn cold_layers_never_repeat_a_cache_key() {
        let acc = AcceleratorConfig::table_ii();
        let mut keys = HashSet::new();
        let mut archs = HashSet::new();
        for spec in draws(Workload::ColdLayers, 3, 50_000) {
            let tag = format!("{}@{SUBSTRATE}", spec.engine.arch.label());
            let [layer] = spec.workload.layers() else {
                panic!("cold_layers sends single-layer jobs");
            };
            let key = layer_cache_key(&tag, layer, &acc, &DseConfig::default());
            assert!(keys.insert(key), "repeated key in request {}", spec.id);
            archs.insert(spec.engine.arch);
        }
        assert_eq!(archs.len(), DramArch::ALL.len());
    }

    #[test]
    fn the_cold_layers_order_is_a_permutation() {
        for n in [1, 2, 5, 64, 1000, 4097] {
            let order = Permutation::new(n, &mut SplitMix64::new(n));
            let mut images: Vec<u64> = (0..n).map(|k| order.get(k)).collect();
            images.sort_unstable();
            assert!(images.iter().copied().eq(0..n), "n = {n}");
        }
        // Distinct indices give distinct shapes, so distinct keys.
        let first = cold_spec(1, 0);
        let last = cold_spec(1, COLD_KEYS - 1);
        assert_ne!(job_route_key(&first), job_route_key(&last));
        let [layer] = last.workload.layers() else {
            panic!("cold_layers sends single-layer jobs");
        };
        assert_eq!((layer.h, layer.w, layer.j, layer.i), (20, 20, 64, 64));
    }

    #[test]
    #[should_panic(expected = "used up all")]
    fn cold_layers_fail_rather_than_repeat_once_the_keys_run_out() {
        let mut cold = ColdLayers::new(1);
        cold.next_id = COLD_KEYS + 1;
        cold.next_spec();
    }

    #[test]
    fn the_store_churn_catalog_exceeds_the_resident_bound() {
        let stream = Stream::new(Workload::StoreChurn, 11);
        let population = stream.prepare_jobs();
        let distinct: HashSet<String> = population.iter().map(job_route_key).collect();
        assert_eq!(distinct.len(), 2 * CHURN_CATALOG_LAYERS);
        assert!(distinct.len() >= 4 * CHURN_CACHE_ENTRIES);
        // The requests themselves reach far beyond the resident bound.
        let mut touched = HashSet::new();
        let mut keep_points = 0;
        let mut multi_layer = 0;
        for spec in draws(Workload::StoreChurn, 11, 5_000) {
            keep_points += usize::from(spec.options.keep_points);
            multi_layer += usize::from(spec.workload.layers().len() > 1);
            for layer in spec.workload.layers() {
                touched.insert((layer.clone(), spec.options.keep_points));
            }
        }
        assert!(touched.len() > 2 * CHURN_CACHE_ENTRIES, "{}", touched.len());
        assert!((1_000..1_500).contains(&keep_points), "{keep_points}");
        assert!(multi_layer > 1_000, "{multi_layer}");
    }

    #[test]
    fn stratified_blocks_hold_exact_zipf_proportions() {
        let weights = zipf_weights(default_catalog().len(), DEFAULT_ZIPF_EXPONENT);
        let mut strata = Stratified::new(&weights, MIX_BLOCK);
        let mut rng = SplitMix64::new(9);
        let total: f64 = weights.iter().sum();
        for _ in 0..3 {
            let mut counts = vec![0usize; weights.len()];
            for _ in 0..MIX_BLOCK {
                counts[strata.sample(&mut rng)] += 1;
            }
            for (count, w) in counts.iter().zip(&weights) {
                let exact = w / total * MIX_BLOCK as f64;
                assert!((*count as f64 - exact).abs() < 1.0, "{count} vs {exact}");
            }
        }
        // The rarest, most expensive entry (a whole network) keeps a
        // share above 1%, so it sets the p99.
        let rarest = weights.last().unwrap() / total;
        assert!(rarest > 0.01, "{rarest}");
    }

    #[test]
    fn probes_cover_each_architecture_and_bypass_the_cache() {
        let stream = Stream::new(Workload::ColdLayers, 1);
        let probes = probe_jobs(&stream.archs());
        assert_eq!(probes.len(), DramArch::ALL.len());
        assert!(probes.iter().all(|p| p.options.cache == CacheMode::Bypass));
    }
}
