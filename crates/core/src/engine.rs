//! The reusable explanation engine: one (dataset, detector) pair, one
//! persistent [`ScoreCache`], many runs.
//!
//! [`crate::pipeline::Pipeline::run`] is the one-shot entry point: build
//! a scorer, explain, throw the cache away. That is wasteful for the
//! paper's real workloads — a Figure 9/11-style sweep explains the same
//! points at dimensionalities 2→5 against the *same* detector, and every
//! dimensionality revisits the subspaces the previous one already scored.
//! [`ExplanationEngine`] keeps the cache alive across those runs:
//!
//! ```
//! use anomex_core::engine::{ExplanationEngine, RunSpec};
//! use anomex_core::pipeline::ExplainerKind;
//! use anomex_core::Beam;
//! use anomex_dataset::gen::hics::{generate_hics, HicsPreset};
//! use anomex_detectors::Lof;
//!
//! let g = generate_hics(HicsPreset::D14, 42);
//! let lof = Lof::new(15).unwrap();
//! let engine = ExplanationEngine::new(&g.dataset, &lof);
//! let beam = ExplainerKind::Point(Box::new(Beam::new()));
//!
//! let points = g.ground_truth.points_explained_at_dim(2);
//! let run = engine.run(&beam, &RunSpec::new(&points[..1], [2usize, 3]));
//! // The 3d pass re-uses every 2d subspace the 2d pass scored:
//! assert!(run.dims[1].stats.cache_hits > 0);
//! ```
//!
//! Points are explained one after another. The parallelism lives one
//! level down, in [`SubspaceScorer::score_batch`]: each explainer stage
//! serves its cache hits on the calling thread and spreads only its
//! misses over every core, so no worker waits on another's in-flight
//! miss and the machine is never oversubscribed. Every per-dimension
//! pass returns a [`RunStats`] telemetry record: wall time, detector
//! evaluations, cache hits and peak cache residency.

use crate::cache::ScoreCache;
use crate::explainer::RankedSubspaces;
use crate::pipeline::ExplainerKind;
use crate::scoring::SubspaceScorer;
use anomex_dataset::Dataset;
use anomex_detectors::Detector;
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Process-wide run/pass meters (see `core.scorer.*` in
/// [`crate::scoring`] for the companion evaluation counters). Spans in
/// this crate are logical-sequence only: wall clocks stay confined to
/// `RunStats` telemetry and the serving layer.
fn obs_dim_passes() -> &'static anomex_obs::Counter {
    static C: OnceLock<&'static anomex_obs::Counter> = OnceLock::new();
    C.get_or_init(|| anomex_obs::counter("core.engine.dim_passes"))
}

fn obs_points_explained() -> &'static anomex_obs::Counter {
    static C: OnceLock<&'static anomex_obs::Counter> = OnceLock::new();
    C.get_or_init(|| anomex_obs::counter("core.engine.points_explained"))
}

/// What one engine run should do: which points, at which explanation
/// dimensionalities. Points are explained in order; each explainer stage
/// parallelizes its own cache misses (see the [module docs](self)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunSpec {
    /// Points of interest (row indices) to explain.
    pub points: Vec<usize>,
    /// Target explanation dimensionalities, executed in order against
    /// the same warm cache.
    pub dims: Vec<usize>,
}

impl RunSpec {
    /// A spec explaining `points` at each of `dims`.
    #[must_use]
    pub fn new(points: impl Into<Vec<usize>>, dims: impl Into<Vec<usize>>) -> Self {
        RunSpec {
            points: points.into(),
            dims: dims.into(),
        }
    }
}

/// Telemetry of one per-dimension pass. Serving-layer responses carry
/// it verbatim (the wire encoding lives in `anomex-serve`'s protocol).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RunStats {
    /// Wall-clock time of the pass.
    pub elapsed: Duration,
    /// Detector invocations the pass performed (unique subspaces; the
    /// in-flight guard keeps this exact under concurrent misses).
    pub evaluations: usize,
    /// Requests served from cache — including entries left warm by
    /// earlier dimensionalities or earlier runs on the same engine.
    pub cache_hits: usize,
    /// Peak number of score vectors resident in the engine's cache at
    /// the end of the pass (cumulative over the cache's lifetime).
    pub peak_cache_entries: usize,
}

impl RunStats {
    /// Fraction of subspace-score requests served from cache, in `[0,1]`.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.evaluations + self.cache_hits;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

/// The output of one per-dimension pass.
#[derive(Debug, Clone)]
pub struct DimRun {
    /// The explanation dimensionality of this pass.
    pub dim: usize,
    /// Per-point ranked explanations (`EXP_a(p)`), keyed by point id.
    /// Summary explainers assign every point the shared summary.
    pub explanations: BTreeMap<usize, RankedSubspaces>,
    /// Telemetry of the pass.
    pub stats: RunStats,
}

/// The output of a whole engine run: one [`DimRun`] per requested
/// dimensionality, in spec order.
#[derive(Debug, Clone)]
pub struct EngineRun {
    /// Per-dimensionality outputs, in the order the spec listed them.
    pub dims: Vec<DimRun>,
}

impl EngineRun {
    /// The pass for one dimensionality, if it was requested.
    #[must_use]
    pub fn for_dim(&self, dim: usize) -> Option<&DimRun> {
        self.dims.iter().find(|d| d.dim == dim)
    }

    /// Total detector evaluations across every pass.
    #[must_use]
    pub fn total_evaluations(&self) -> usize {
        self.dims.iter().map(|d| d.stats.evaluations).sum()
    }

    /// Total cache hits across every pass.
    #[must_use]
    pub fn total_cache_hits(&self) -> usize {
        self.dims.iter().map(|d| d.stats.cache_hits).sum()
    }

    /// Consumes a single-dimensionality run.
    ///
    /// # Panics
    /// Panics when the run holds more than one pass.
    #[must_use]
    pub fn into_single(mut self) -> DimRun {
        assert_eq!(self.dims.len(), 1, "run holds more than one dim pass");
        self.dims.pop().expect("one pass") // anomex: allow(panic-path) guarded by the assert above
    }
}

/// A reusable execution engine binding one dataset to one detector, with
/// a persistent, shareable score cache — see the [module docs](self).
pub struct ExplanationEngine<'a> {
    dataset: &'a Dataset,
    detector: &'a dyn Detector,
    cache: Arc<ScoreCache>,
}

impl<'a> ExplanationEngine<'a> {
    /// An engine with a fresh, unbounded, sharded cache.
    #[must_use]
    pub fn new(dataset: &'a Dataset, detector: &'a dyn Detector) -> Self {
        Self::with_cache(dataset, detector, Arc::new(ScoreCache::new()))
    }

    /// An engine over an existing cache — the handle that lets several
    /// engines (e.g. one per explainer) share the score vectors of one
    /// (dataset, detector) pair. The caller is responsible for only
    /// pairing a cache with the dataset and detector it was filled from.
    #[must_use]
    pub fn with_cache(
        dataset: &'a Dataset,
        detector: &'a dyn Detector,
        cache: Arc<ScoreCache>,
    ) -> Self {
        ExplanationEngine {
            dataset,
            detector,
            cache,
        }
    }

    /// The engine's dataset.
    #[must_use]
    pub fn dataset(&self) -> &'a Dataset {
        self.dataset
    }

    /// The engine's detector.
    #[must_use]
    pub fn detector(&self) -> &'a dyn Detector {
        self.detector
    }

    /// The engine's persistent cache handle.
    #[must_use]
    pub fn cache(&self) -> &Arc<ScoreCache> {
        &self.cache
    }

    /// A scorer over the engine's dataset, detector and shared cache.
    /// Useful for driving explainers directly while still contributing
    /// to (and profiting from) the engine's cache.
    #[must_use]
    pub fn scorer(&self) -> SubspaceScorer<'a> {
        SubspaceScorer::with_cache(self.dataset, self.detector, Arc::clone(&self.cache))
    }

    /// Executes `spec` with `explainer`: one pass per requested
    /// dimensionality, all passes sharing the engine's warm cache.
    ///
    /// Results are deterministic: identical to the cold-cache run of the
    /// same spec, at top level or inside a `par_map` worker (batches
    /// preserve candidate order, and cached score vectors are
    /// bit-identical to recomputed ones).
    ///
    /// # Panics
    /// Panics when the spec has no points or no dims, or when a point /
    /// dimensionality is out of range for the dataset (propagated from
    /// the explainer).
    #[must_use]
    pub fn run(&self, explainer: &ExplainerKind, spec: &RunSpec) -> EngineRun {
        assert!(
            !spec.points.is_empty(),
            "engine run needs at least one point of interest"
        );
        assert!(
            !spec.dims.is_empty(),
            "engine run needs at least one target dim"
        );
        let _run_span = anomex_obs::span!(
            "core.engine.run",
            points = spec.points.len(),
            dims = spec.dims.len()
        );
        let scorer = self.scorer();
        let mut dims = Vec::with_capacity(spec.dims.len());
        for &dim in &spec.dims {
            let _dim_span = anomex_obs::span!("core.engine.dim_pass", dim = dim);
            let evals_before = scorer.evaluations();
            let hits_before = scorer.cache_hits();
            // anomex: allow(nondeterminism) RunStats telemetry; never feeds scores or rankings
            let start = Instant::now();
            let explanations = self.explain_at(explainer, &scorer, spec, dim);
            obs_dim_passes().incr();
            obs_points_explained().add(spec.points.len() as u64);
            let stats = RunStats {
                elapsed: start.elapsed(),
                evaluations: scorer.evaluations() - evals_before,
                cache_hits: scorer.cache_hits() - hits_before,
                peak_cache_entries: self.cache.stats().peak_entries,
            };
            dims.push(DimRun {
                dim,
                explanations,
                stats,
            });
        }
        EngineRun { dims }
    }

    fn explain_at(
        &self,
        explainer: &ExplainerKind,
        scorer: &SubspaceScorer<'a>,
        spec: &RunSpec,
        dim: usize,
    ) -> BTreeMap<usize, RankedSubspaces> {
        match explainer {
            ExplainerKind::Point(e) => spec
                .points
                .iter()
                .map(|&p| (p, e.explain(scorer, p, dim)))
                .collect(),
            ExplainerKind::Summary(e) => {
                let summary = e.summarize(scorer, &spec.points, dim);
                spec.points.iter().map(|&p| (p, summary.clone())).collect()
            }
        }
    }
}

#[cfg(test)]
mod unit_tests {
    use super::*;
    use crate::beam::Beam;
    use crate::lookout::LookOut;
    use crate::refout::RefOut;
    use anomex_dataset::gen::hics::{generate_hics, HicsPreset};
    use anomex_detectors::Lof;
    use anomex_parallel::par_map;
    use anomex_stats::rng::{Rng, SeedableRng, StdRng};

    fn planted() -> (Dataset, Vec<usize>) {
        let mut rng = StdRng::seed_from_u64(3);
        let n = 150;
        let mut rows: Vec<Vec<f64>> = Vec::with_capacity(n + 2);
        for _ in 0..n {
            let t: f64 = rng.gen_range(0.1..0.9);
            rows.push(vec![
                t + rng.gen_range(-0.02..0.02),
                t + rng.gen_range(-0.02..0.02),
                rng.gen_range(0.0..1.0),
                rng.gen_range(0.0..1.0),
            ]);
        }
        let a = rows.len();
        rows.push(vec![0.3, 0.7, 0.5, 0.5]);
        let b = rows.len();
        rows.push(vec![0.7, 0.3, 0.5, 0.5]);
        (Dataset::from_rows(rows).unwrap(), vec![a, b])
    }

    fn beam() -> ExplainerKind {
        ExplainerKind::Point(Box::new(Beam::new()))
    }

    #[test]
    fn multi_dim_sweep_reuses_the_cache() {
        let (ds, pois) = planted();
        let lof = Lof::new(10).unwrap();
        let engine = ExplanationEngine::new(&ds, &lof);
        let run = engine.run(&beam(), &RunSpec::new(pois.clone(), [2usize, 3]));
        assert_eq!(run.dims.len(), 2);
        // The 2d pass computes all C(4,2) pairs once.
        assert_eq!(run.dims[0].stats.evaluations, 6);
        // The 3d pass re-enumerates the 2d stage purely from cache.
        assert!(run.dims[1].stats.cache_hits >= 6);

        // Two independent single-dim engines must spend strictly more.
        let cold2 =
            ExplanationEngine::new(&ds, &lof).run(&beam(), &RunSpec::new(pois.clone(), [2usize]));
        let cold3 = ExplanationEngine::new(&ds, &lof).run(&beam(), &RunSpec::new(pois, [3usize]));
        assert!(
            run.total_evaluations() < cold2.total_evaluations() + cold3.total_evaluations(),
            "sweep must evaluate strictly less than independent runs"
        );
    }

    #[test]
    fn nested_batches_match_fanned_out_batches() {
        // At top level every stage's misses fan out over the cores; inside
        // a `par_map` worker every batch runs inline. Neither may move a
        // ranking or a count. RefOut's pool repeats subspaces within one
        // batch, so its batches also race on the in-flight guard.
        let g = generate_hics(HicsPreset::D14, 42);
        let lof = Lof::new(15).unwrap();
        let pois = g.ground_truth.points_explained_at_dim(2);
        let spec = RunSpec::new(pois, [2usize, 3]);
        let explainers = [beam(), ExplainerKind::Point(Box::new(RefOut::new()))];
        for explainer in &explainers {
            let cold_run = || ExplanationEngine::new(&g.dataset, &lof).run(explainer, &spec);
            let top = cold_run();
            let nested = par_map(&[true, false], |&go| {
                assert_eq!(anomex_parallel::is_nested(), anomex_parallel::cores() > 1);
                go.then(cold_run)
            })
            .remove(0)
            .expect("the first item runs the engine");
            for (t, n) in top.dims.iter().zip(&nested.dims) {
                assert_eq!(t.dim, n.dim);
                assert_eq!(t.explanations, n.explanations, "rankings at {}d", t.dim);
                assert_eq!(t.stats.evaluations, n.stats.evaluations, "{}d", t.dim);
                assert_eq!(t.stats.cache_hits, n.stats.cache_hits, "{}d", t.dim);
            }
        }
    }

    #[test]
    fn warm_cache_preserves_results() {
        let (ds, pois) = planted();
        let lof = Lof::new(10).unwrap();
        let engine = ExplanationEngine::new(&ds, &lof);
        let spec = RunSpec::new(pois, [2usize]);
        let cold = engine.run(&beam(), &spec);
        let warm = engine.run(&beam(), &spec);
        assert_eq!(cold.dims[0].explanations, warm.dims[0].explanations);
        assert_eq!(
            warm.dims[0].stats.evaluations, 0,
            "warm run must be all hits"
        );
        assert!(warm.dims[0].stats.cache_hits > 0);
    }

    #[test]
    fn engines_share_an_external_cache() {
        let (ds, pois) = planted();
        let lof = Lof::new(10).unwrap();
        let cache = Arc::new(ScoreCache::new());
        let first = ExplanationEngine::with_cache(&ds, &lof, Arc::clone(&cache));
        let _ = first.run(&beam(), &RunSpec::new(pois.clone(), [2usize]));
        // A different explainer over the same (dataset, detector) pair
        // profits from the same cache.
        let lookout = ExplainerKind::Summary(Box::new(LookOut::new().budget(3)));
        let second = ExplanationEngine::with_cache(&ds, &lof, Arc::clone(&cache));
        let run = second.run(&lookout, &RunSpec::new(pois, [2usize]));
        assert_eq!(run.dims[0].stats.evaluations, 0);
        assert!(run.dims[0].stats.cache_hits >= 6);
    }

    #[test]
    fn summary_explainer_shares_one_summary() {
        let (ds, pois) = planted();
        let lof = Lof::new(10).unwrap();
        let engine = ExplanationEngine::new(&ds, &lof);
        let lookout = ExplainerKind::Summary(Box::new(LookOut::new().budget(5)));
        let run = engine.run(&lookout, &RunSpec::new(pois.clone(), [2usize]));
        assert_eq!(
            run.dims[0].explanations[&pois[0]],
            run.dims[0].explanations[&pois[1]]
        );
    }

    #[test]
    fn run_stats_telemetry_is_consistent() {
        let (ds, pois) = planted();
        let lof = Lof::new(10).unwrap();
        let engine = ExplanationEngine::new(&ds, &lof);
        let run = engine.run(&beam(), &RunSpec::new(pois, [2usize]));
        let stats = run.dims[0].stats;
        assert_eq!(stats.evaluations, 6);
        assert!(stats.hit_rate() > 0.0, "second point must hit the cache");
        assert_eq!(stats.peak_cache_entries, 6);
        assert_eq!(engine.cache().stats().evaluations, 6);
        assert_eq!(run.total_evaluations(), 6);
    }

    #[test]
    #[should_panic(expected = "at least one point")]
    fn rejects_empty_points() {
        let (ds, _) = planted();
        let lof = Lof::new(10).unwrap();
        let _ = ExplanationEngine::new(&ds, &lof)
            .run(&beam(), &RunSpec::new(Vec::<usize>::new(), [2usize]));
    }

    #[test]
    #[should_panic(expected = "at least one target dim")]
    fn rejects_empty_dims() {
        let (ds, pois) = planted();
        let lof = Lof::new(10).unwrap();
        let _ = ExplanationEngine::new(&ds, &lof)
            .run(&beam(), &RunSpec::new(pois, Vec::<usize>::new()));
    }
}
