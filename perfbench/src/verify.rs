//! The correctness gate: every response is compared bit for bit with a
//! reference from `ServiceState::run_job` on a private in-process state,
//! computed once per distinct job key.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use drmap_core::edp::EdpEstimate;
use drmap_service::engine::{job_route_key, ServiceState};
use drmap_service::spec::{CacheMode, JobResult, JobSpec, LayerOutcome};

/// A request and the result the server answered it with.
pub type Answer = (JobSpec, JobResult);

/// Reference results, keyed by [`job_route_key`] (layer shapes,
/// architecture, objective and `keep_points`).
pub struct Verifier {
    state: Arc<ServiceState>,
    references: Mutex<HashMap<String, Arc<JobResult>>>,
}

impl Verifier {
    /// A verifier over a fresh private state with an unbounded cache.
    pub fn new() -> Result<Self, String> {
        Ok(Verifier {
            state: ServiceState::new().map_err(|e| format!("reference state: {e}"))?,
            references: Mutex::new(HashMap::new()),
        })
    }

    fn reference(&self, spec: &JobSpec) -> Result<Arc<JobResult>, String> {
        let key = job_route_key(spec);
        let known = self
            .references
            .lock()
            .expect("reference map lock poisoned")
            .get(&key)
            .cloned();
        if let Some(known) = known {
            return Ok(known);
        }
        let mut plain = spec.clone();
        plain.options.cache = CacheMode::Default;
        let computed = Arc::new(
            self.state
                .run_job(&plain)
                .map_err(|e| format!("reference for job {}: {e}", spec.id))?,
        );
        self.references
            .lock()
            .expect("reference map lock poisoned")
            .insert(key, Arc::clone(&computed));
        Ok(computed)
    }

    /// Check one answer; the error names the first difference.
    pub fn check(&self, spec: &JobSpec, got: &JobResult) -> Result<(), String> {
        let want = self.reference(spec)?;
        compare(spec, got, &want).map_err(|e| format!("job {}: {e}", spec.id))
    }

    /// Check every answer on `threads` threads. Returns the number of
    /// wrong answers and the first difference found.
    pub fn check_all(&self, answers: &[Answer], threads: usize) -> (u64, Option<String>) {
        let chunk = answers.len().div_ceil(threads.max(1)).max(1);
        let outcomes: Vec<(u64, Option<String>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = answers
                .chunks(chunk)
                .map(|part| {
                    scope.spawn(move || {
                        let mut wrong = 0;
                        let mut first = None;
                        for (spec, got) in part {
                            if let Err(e) = self.check(spec, got) {
                                wrong += 1;
                                first.get_or_insert(e);
                            }
                        }
                        (wrong, first)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("verifier thread panicked"))
                .collect()
        });
        outcomes
            .into_iter()
            .fold((0, None), |(wrong, first), (w, f)| (wrong + w, first.or(f)))
    }
}

fn same_estimate(a: &EdpEstimate, b: &EdpEstimate) -> bool {
    a.cycles.to_bits() == b.cycles.to_bits()
        && a.energy.to_bits() == b.energy.to_bits()
        && a.t_ck_ns.to_bits() == b.t_ck_ns.to_bits()
}

fn compare_layer(got: &LayerOutcome, want: &LayerOutcome) -> Result<(), String> {
    if got.mapping != want.mapping || got.scheme != want.scheme || got.tiling != want.tiling {
        return Err(format!(
            "winner {}/{}/{:?}, expected {}/{}/{:?}",
            got.mapping, got.scheme, got.tiling, want.mapping, want.scheme, want.tiling
        ));
    }
    if got.evaluations != want.evaluations {
        return Err(format!(
            "{} evaluations, expected {}",
            got.evaluations, want.evaluations
        ));
    }
    if !same_estimate(&got.estimate, &want.estimate) {
        return Err(format!(
            "estimate {:?}, expected {:?}",
            got.estimate, want.estimate
        ));
    }
    let same_front = got.pareto.len() == want.pareto.len()
        && got
            .pareto
            .iter()
            .zip(&want.pareto)
            .all(|(g, w)| g.label == w.label && same_estimate(&g.estimate, &w.estimate));
    if !same_front {
        return Err("Pareto front differs".to_owned());
    }
    Ok(())
}

/// Compare `got` with the reference `want` for request `spec`. Layer
/// names come from the request (cache keys ignore names), and the
/// cache-provenance flags are not part of the answer.
fn compare(spec: &JobSpec, got: &JobResult, want: &JobResult) -> Result<(), String> {
    if got.id != spec.id || got.workload != spec.workload.name() {
        return Err(format!("answered id {} / {:?}", got.id, got.workload));
    }
    let layers = spec.workload.layers();
    if got.layers.len() != layers.len() || want.layers.len() != layers.len() {
        return Err(format!(
            "{} layers, expected {}",
            got.layers.len(),
            layers.len()
        ));
    }
    for ((g, w), layer) in got.layers.iter().zip(&want.layers).zip(layers) {
        if g.name != layer.name {
            return Err(format!(
                "layer named {:?}, expected {:?}",
                g.name, layer.name
            ));
        }
        compare_layer(g, w).map_err(|e| format!("layer {}: {e}", layer.name))?;
    }
    if !same_estimate(&got.total, &want.total) {
        return Err(format!("total {:?}, expected {:?}", got.total, want.total));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{Stream, Workload};

    #[test]
    fn a_correct_answer_passes_and_a_flipped_bit_fails() {
        let verifier = Verifier::new().unwrap();
        let server = ServiceState::new().unwrap();
        let mut stream = Stream::new(Workload::StoreChurn, 5);
        let spec = stream.next_spec();
        let mut got = server.run_job(&spec).unwrap();
        assert_eq!(verifier.check(&spec, &got), Ok(()));
        got.layers[0].estimate.energy = f64::from_bits(got.layers[0].estimate.energy.to_bits() ^ 1);
        assert!(verifier.check(&spec, &got).is_err());
        let (wrong, first) = verifier.check_all(&[(spec, got)], 2);
        assert_eq!(wrong, 1);
        assert!(first.unwrap().contains("estimate"));
    }
}
