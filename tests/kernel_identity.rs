//! The hoisted DSE kernel against its naive oracle.
//!
//! [`DseEngine::explore_layer`] and [`DseEngine::best_over_tilings`]
//! run one sweep with every per-tiling invariant (trip counts, tile
//! traffic, adaptive-reuse's pick, access costs) computed once per
//! tiling. The naive oracle below evaluates every configuration from
//! scratch through [`DseEngine::evaluate`]. On random conv, grouped,
//! stride-2 and fully-connected layers, on the profiled tables of every
//! DRAM architecture, for every objective, with and without the Pareto
//! cloud, the two must agree bit for bit, and partials merged at random
//! cuts must equal the whole sweep.

use std::sync::OnceLock;

use drmap::prelude::*;
use proptest::prelude::*;

/// Table II's profiled cost table for every architecture, profiled once.
fn tables() -> &'static [AccessCostTable] {
    static TABLES: OnceLock<Vec<AccessCostTable>> = OnceLock::new();
    TABLES.get_or_init(|| {
        let profiler = Profiler::table_ii().expect("Table II profiles");
        DramArch::ALL
            .iter()
            .map(|&arch| profiler.cost_table(arch))
            .collect()
    })
}

fn engine(arch: usize, objective: Objective, keep_points: bool) -> DseEngine {
    DseEngine::new(
        EdpModel::new(
            Geometry::salp_2gb_x8(),
            tables()[arch].clone(),
            AcceleratorConfig::table_ii(),
        ),
        DseConfig {
            objective,
            keep_points,
            ..DseConfig::default()
        },
    )
}

/// Strategy: a small layer of one of four shapes the model treats
/// differently — dense conv, grouped conv, stride-2 conv, and FC.
fn layer_strategy() -> impl Strategy<Value = Layer> {
    prop_oneof![
        (2usize..14, 2usize..14, 1usize..80, 1usize..80, 1usize..4)
            .prop_map(|(h, w, j, i, p)| Layer::conv("conv", h, w, j, i, p, p, 1)),
        (2usize..14, 1usize..24, 1usize..24, 1usize..5).prop_map(|(h, jg, ig, groups)| {
            Layer::conv_grouped("grouped", h, h, jg * groups, ig * groups, 3, 3, 1, groups)
        }),
        (2usize..10, 2usize..10, 1usize..64, 1usize..64, 1usize..6)
            .prop_map(|(h, w, j, i, p)| Layer::conv("stride2", h, w, j, i, p, p, 2)),
        (1usize..3000, 1usize..3000).prop_map(|(i, j)| Layer::fully_connected("fc", i, j)),
    ]
}

/// Fold `better` over the sweep exactly as Algorithm 1 does: strict
/// improvement on the objective, so the first of equals wins.
fn fold_best(best: &mut Option<DseCandidate>, objective: Objective, candidate: DseCandidate) {
    if best
        .as_ref()
        .is_none_or(|b| objective.score(&candidate.estimate) < objective.score(&b.estimate))
    {
        *best = Some(candidate);
    }
}

/// The naive sweep: every configuration evaluated from scratch.
fn naive_explore(e: &DseEngine, layer: &Layer) -> LayerDseResult {
    let tilings = enumerate_tilings(layer, e.model().traffic_model().accelerator()).unwrap();
    let config = e.config();
    let mut best = None;
    let mut evaluations = 0usize;
    let mut points = Vec::new();
    for tiling in &tilings {
        for &scheme in &config.schemes {
            for mapping in &config.mappings {
                let estimate = e.evaluate(layer, tiling, scheme, mapping);
                evaluations += 1;
                if config.keep_points {
                    points.push(DesignPoint::new(
                        format!("{} | {} | {}", mapping.name(), scheme, tiling),
                        estimate,
                    ));
                }
                let candidate = DseCandidate {
                    mapping: *mapping,
                    tiling: *tiling,
                    scheme,
                    estimate,
                };
                fold_best(&mut best, config.objective, candidate);
            }
        }
    }
    LayerDseResult {
        layer_name: layer.name.clone(),
        best: best.expect("non-empty sweep"),
        evaluations,
        pareto: pareto_front(&points),
    }
}

/// The naive Fig. 9 bar: one `(scheme, mapping)` over every tiling.
fn naive_bar(
    e: &DseEngine,
    layer: &Layer,
    scheme: ReuseScheme,
    mapping: &MappingPolicy,
) -> DseCandidate {
    let tilings = enumerate_tilings(layer, e.model().traffic_model().accelerator()).unwrap();
    let mut best = None;
    for tiling in tilings {
        let estimate = e.evaluate(layer, &tiling, scheme, mapping);
        let candidate = DseCandidate {
            mapping: *mapping,
            tiling,
            scheme,
            estimate,
        };
        fold_best(&mut best, e.config().objective, candidate);
    }
    best.expect("non-empty sweep")
}

fn assert_candidates_bit_identical(a: &DseCandidate, b: &DseCandidate, context: &str) {
    assert_eq!(
        (a.mapping, a.scheme, a.tiling),
        (b.mapping, b.scheme, b.tiling),
        "{context}"
    );
    assert_eq!(
        a.estimate.cycles.to_bits(),
        b.estimate.cycles.to_bits(),
        "{context}"
    );
    assert_eq!(
        a.estimate.energy.to_bits(),
        b.estimate.energy.to_bits(),
        "{context}"
    );
}

fn assert_bit_identical(a: &LayerDseResult, b: &LayerDseResult, context: &str) {
    assert_candidates_bit_identical(&a.best, &b.best, context);
    assert_eq!(a.evaluations, b.evaluations, "{context}");
    assert_eq!(a.pareto.len(), b.pareto.len(), "{context}");
    for (p, q) in a.pareto.iter().zip(&b.pareto) {
        assert_eq!(p.label, q.label, "{context}");
        assert_eq!(
            p.estimate.cycles.to_bits(),
            q.estimate.cycles.to_bits(),
            "{context}"
        );
        assert_eq!(
            p.estimate.energy.to_bits(),
            q.estimate.energy.to_bits(),
            "{context}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The hoisted sweep, and the hoisted Fig. 9 bar, equal their naive
    /// oracles bit for bit.
    #[test]
    fn hoisted_sweep_matches_the_naive_sweep_bit_exactly(
        layer in layer_strategy(),
        arch in 0usize..4,
        objective in 0usize..4,
        keep_points in prop::bool::ANY,
        bar in (0usize..4, 0usize..6),
    ) {
        let objective = Objective::ALL[objective];
        let e = engine(arch, objective, keep_points);
        let context = format!("{layer:?} on {} under {objective:?}", DramArch::ALL[arch]);
        assert_bit_identical(&e.explore_layer(&layer).unwrap(), &naive_explore(&e, &layer), &context);

        let scheme = ReuseScheme::ALL[bar.0];
        let mapping = MappingPolicy::table_i()[bar.1];
        assert_candidates_bit_identical(
            &e.best_over_tilings(&layer, scheme, &mapping).unwrap(),
            &naive_bar(&e, &layer, scheme, &mapping),
            &format!("{context}, bar {scheme} / {mapping}"),
        );
    }

    /// Partials over random contiguous cuts of the tiling enumeration
    /// merge into exactly the whole sweep.
    #[test]
    fn partials_merged_at_random_cuts_equal_the_whole_sweep(
        layer in layer_strategy(),
        arch in 0usize..4,
        objective in 0usize..4,
        keep_points in prop::bool::ANY,
        cut_fracs in prop::collection::vec(0.0f64..1.0, 0..6),
    ) {
        let e = engine(arch, Objective::ALL[objective], keep_points);
        let whole = e.explore_layer(&layer).unwrap();
        let n = e.tiling_count(&layer).unwrap();
        let mut bounds: Vec<usize> = cut_fracs.iter().map(|f| ((n as f64) * f) as usize).collect();
        bounds.extend([0, n]);
        bounds.sort_unstable();
        bounds.dedup();
        let mut merged: Option<LayerPartial> = None;
        for pair in bounds.windows(2) {
            let partial = e.explore_layer_range(&layer, pair[0]..pair[1]).unwrap();
            merged = Some(match merged {
                None => partial,
                Some(mut earlier) => {
                    earlier.merge(partial);
                    earlier
                }
            });
        }
        let merged = merged.expect("bounds cover 0..n").into_result(layer.name.clone());
        assert_bit_identical(&merged, &whole, &format!("{layer:?} cut at {bounds:?}"));
    }
}

/// Metamorphic check: Algorithm 1's winner sweeps a superset of every
/// Fig. 9 bar, so its score can be no worse than any bar's — for every
/// AlexNet layer on every DRAM architecture.
#[test]
fn the_algorithm_1_winner_scores_no_worse_than_every_fig9_bar() {
    for arch in 0..DramArch::ALL.len() {
        let e = engine(arch, Objective::Edp, false);
        for layer in Network::alexnet().layers() {
            let winner = e.explore_layer(layer).unwrap().best;
            let score = Objective::Edp.score(&winner.estimate);
            for scheme in ReuseScheme::ALL {
                for mapping in MappingPolicy::table_i() {
                    let bar = e.best_over_tilings(layer, scheme, &mapping).unwrap();
                    assert!(
                        score <= Objective::Edp.score(&bar.estimate),
                        "{} {}: winner {} scores worse than bar {scheme} / {mapping} ({})",
                        DramArch::ALL[arch],
                        layer.name,
                        winner,
                        bar
                    );
                }
            }
        }
    }
}
