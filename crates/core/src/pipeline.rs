//! Detector × explainer pipelines — the paper's Figure 7.
//!
//! A [`Pipeline`] binds one detector to one explanation algorithm and
//! runs it over a dataset and a set of points of interest at a requested
//! explanation dimensionality, producing per-point ranked subspace lists
//! (`EXP_a(p)`). Point explainers run once per point; summarizers run
//! once and their summary stands as the explanation of *every* point —
//! exactly how the paper evaluates them with the same per-point MAP.

use crate::beam::Beam;
use crate::cache::ScoreCache;
use crate::engine::{ExplanationEngine, RunSpec};
use crate::explainer::{PointExplainer, RankedSubspaces, SummaryExplainer};
use crate::hics::Hics;
use crate::lookout::LookOut;
use crate::refout::RefOut;
use anomex_dataset::Dataset;
use anomex_detectors::Detector;
use anomex_spec::{ExplainerSpec, PipelineSpec};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

/// The explanation side of a pipeline.
pub enum ExplainerKind {
    /// A per-point explainer (Beam, RefOut).
    Point(Box<dyn PointExplainer>),
    /// A set-level summarizer (LookOut, HiCS).
    Summary(Box<dyn SummaryExplainer>),
}

impl ExplainerKind {
    /// The explainer's display name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            ExplainerKind::Point(e) => e.name(),
            ExplainerKind::Summary(e) => e.name(),
        }
    }

    /// Builds the explainer an [`ExplainerSpec`] describes, validating
    /// the spec's numeric ranges up front so builder assertions never
    /// fire on wire-supplied values.
    ///
    /// # Errors
    /// When a count parameter is out of range (zero width/results/
    /// budget, RefOut pool below 4).
    pub fn from_spec(spec: &ExplainerSpec) -> Result<Self, String> {
        match *spec {
            ExplainerSpec::Beam {
                width,
                results,
                fixed_dim,
            } => {
                require(width > 0, "beam width must be positive")?;
                require(results > 0, "beam results must be positive")?;
                Ok(ExplainerKind::Point(Box::new(
                    Beam::new()
                        .beam_width(width)
                        .result_size(results)
                        .fixed_dim(fixed_dim),
                )))
            }
            ExplainerSpec::RefOut {
                pool,
                width,
                results,
                seed,
            } => {
                require(pool >= 4, "refout pool must be at least 4")?;
                require(width > 0, "refout width must be positive")?;
                require(results > 0, "refout results must be positive")?;
                Ok(ExplainerKind::Point(Box::new(
                    RefOut::new()
                        .pool_size(pool)
                        .beam_width(width)
                        .result_size(results)
                        .seed(seed),
                )))
            }
            ExplainerSpec::LookOut { budget } => {
                require(budget > 0, "lookout budget must be positive")?;
                Ok(ExplainerKind::Summary(Box::new(
                    LookOut::new().budget(budget),
                )))
            }
            ExplainerSpec::Hics {
                mc,
                cutoff,
                results,
                fixed_dim,
                seed,
            } => {
                require(mc > 0, "hics mc must be positive")?;
                require(cutoff > 0, "hics cutoff must be positive")?;
                require(results > 0, "hics results must be positive")?;
                Ok(ExplainerKind::Summary(Box::new(
                    Hics::new()
                        .monte_carlo_iterations(mc)
                        .candidate_cutoff(cutoff)
                        .result_size(results)
                        .fixed_dim(fixed_dim)
                        .seed(seed),
                )))
            }
        }
    }
}

fn require(ok: bool, message: &str) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(message.to_string())
    }
}

/// One detector × explainer pairing.
pub struct Pipeline {
    detector: Box<dyn Detector>,
    explainer: ExplainerKind,
}

/// Everything a pipeline run produces.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineOutput {
    /// Per-point ranked explanations (`EXP_a(p)`), keyed by point id.
    pub explanations: BTreeMap<usize, RankedSubspaces>,
    /// Wall-clock time of the whole run.
    pub elapsed: Duration,
    /// Number of detector invocations (subspace evaluations).
    pub subspace_evaluations: usize,
    /// Score-cache hits during the run.
    pub cache_hits: usize,
}

impl Pipeline {
    /// Builds a pipeline from a detector and a point explainer.
    #[must_use]
    pub fn point<D, E>(detector: D, explainer: E) -> Self
    where
        D: Detector + 'static,
        E: PointExplainer + 'static,
    {
        Pipeline {
            detector: Box::new(detector),
            explainer: ExplainerKind::Point(Box::new(explainer)),
        }
    }

    /// Builds a pipeline from a detector and a summarizer.
    #[must_use]
    pub fn summary<D, E>(detector: D, explainer: E) -> Self
    where
        D: Detector + 'static,
        E: SummaryExplainer + 'static,
    {
        Pipeline {
            detector: Box::new(detector),
            explainer: ExplainerKind::Summary(Box::new(explainer)),
        }
    }

    /// Builds the pipeline a canonical [`PipelineSpec`] describes —
    /// the single constructor core, eval and serve all share, so a
    /// spec means the same live pipeline everywhere.
    ///
    /// # Errors
    /// When the detector or explainer half carries an out-of-range
    /// hyper-parameter.
    pub fn from_spec(spec: &PipelineSpec) -> Result<Self, String> {
        let detector =
            anomex_detectors::build_detector(&spec.detector).map_err(|e| e.to_string())?;
        let explainer = ExplainerKind::from_spec(&spec.explainer)?;
        Ok(Pipeline {
            detector,
            explainer,
        })
    }

    /// The detector's display name.
    #[must_use]
    pub fn detector_name(&self) -> &'static str {
        self.detector.name()
    }

    /// The explainer's display name.
    #[must_use]
    pub fn explainer_name(&self) -> &'static str {
        self.explainer.name()
    }

    /// A `"Explainer+Detector"` label for reports.
    #[must_use]
    pub fn label(&self) -> String {
        format!("{}+{}", self.explainer_name(), self.detector_name())
    }

    /// The pipeline's explainer.
    #[must_use]
    pub fn explainer(&self) -> &ExplainerKind {
        &self.explainer
    }

    /// The pipeline's detector.
    #[must_use]
    pub fn detector(&self) -> &dyn Detector {
        self.detector.as_ref()
    }

    /// An [`ExplanationEngine`] binding this pipeline's detector to
    /// `dataset`, with a fresh cache.
    #[must_use]
    pub fn engine<'a>(&'a self, dataset: &'a Dataset) -> ExplanationEngine<'a> {
        ExplanationEngine::new(dataset, self.detector.as_ref())
    }

    /// An [`ExplanationEngine`] over an existing shared cache — the hook
    /// the evaluation harness uses to reuse one cache across every
    /// pipeline pairing the same (dataset, detector).
    #[must_use]
    pub fn engine_with_cache<'a>(
        &'a self,
        dataset: &'a Dataset,
        cache: Arc<ScoreCache>,
    ) -> ExplanationEngine<'a> {
        ExplanationEngine::with_cache(dataset, self.detector.as_ref(), cache)
    }

    /// Runs the pipeline: explains every point of interest at
    /// `target_dim`.
    ///
    /// This is a compatibility wrapper over [`ExplanationEngine`]: one
    /// single-dimensionality engine run with a throwaway cache, each
    /// stage's cache misses scored in parallel. Use [`Pipeline::engine`]
    /// directly to keep the cache warm across dimensionalities or runs.
    ///
    /// # Panics
    /// Panics when `points` is empty or out of range, or `target_dim` is
    /// invalid for the dataset (propagated from the explainer).
    #[must_use]
    pub fn run(&self, dataset: &Dataset, points: &[usize], target_dim: usize) -> PipelineOutput {
        assert!(
            !points.is_empty(),
            "pipeline needs at least one point of interest"
        );
        let engine = self.engine(dataset);
        let run = engine.run(&self.explainer, &RunSpec::new(points, [target_dim]));
        let pass = run.into_single();
        PipelineOutput {
            explanations: pass.explanations,
            elapsed: pass.stats.elapsed,
            subspace_evaluations: pass.stats.evaluations,
            cache_hits: pass.stats.cache_hits,
        }
    }
}

#[cfg(test)]
mod unit_tests {
    use super::*;
    use crate::beam::Beam;
    use crate::lookout::LookOut;
    use anomex_detectors::Lof;
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

    #[test]
    fn point_pipeline_explains_each_point() {
        let (ds, pois) = planted();
        let pipe = Pipeline::point(Lof::new(10).unwrap(), Beam::new());
        let out = pipe.run(&ds, &pois, 2);
        assert_eq!(out.explanations.len(), 2);
        for p in &pois {
            assert!(!out.explanations[p].is_empty());
        }
        assert!(out.subspace_evaluations > 0);
        assert_eq!(pipe.label(), "Beam_FX+LOF");
    }

    #[test]
    fn summary_pipeline_shares_one_summary() {
        let (ds, pois) = planted();
        let pipe = Pipeline::summary(Lof::new(10).unwrap(), LookOut::new().budget(5));
        let out = pipe.run(&ds, &pois, 2);
        assert_eq!(out.explanations[&pois[0]], out.explanations[&pois[1]]);
        assert_eq!(pipe.label(), "LookOut+LOF");
    }

    #[test]
    fn point_pipeline_caches_across_points() {
        let (ds, pois) = planted();
        let pipe = Pipeline::point(Lof::new(10).unwrap(), Beam::new());
        let out = pipe.run(&ds, &pois, 2);
        // Stage-1 enumeration is identical for both points: the second
        // point must be served entirely from cache.
        assert_eq!(out.subspace_evaluations, 6); // C(4,2)
        assert!(out.cache_hits >= 6);
    }

    #[test]
    fn wrapper_matches_direct_engine_run() {
        let (ds, pois) = planted();
        let pipe = Pipeline::point(Lof::new(10).unwrap(), Beam::new());
        let out = pipe.run(&ds, &pois, 2);
        let direct = pipe
            .engine(&ds)
            .run(pipe.explainer(), &RunSpec::new(pois.as_slice(), [2usize]))
            .into_single();
        assert_eq!(out.explanations, direct.explanations);
        assert_eq!(out.subspace_evaluations, direct.stats.evaluations);
    }

    #[test]
    fn spec_built_pipeline_matches_hand_built_output() {
        let (ds, pois) = planted();
        let hand = Pipeline::point(Lof::new(10).unwrap(), Beam::new());
        let spec = Pipeline::from_spec(&PipelineSpec::parse("beam+lof:k=10").unwrap()).unwrap();
        assert_eq!(spec.label(), hand.label());
        let out_hand = hand.run(&ds, &pois, 2);
        let out_spec = spec.run(&ds, &pois, 2);
        assert_eq!(out_spec.explanations, out_hand.explanations);
    }

    #[test]
    fn spec_built_summary_pipeline_matches_hand_built_output() {
        let (ds, pois) = planted();
        let hand = Pipeline::summary(Lof::new(10).unwrap(), LookOut::new().budget(5));
        let spec = Pipeline::from_spec(&PipelineSpec::parse("lookout:budget=5+lof:k=10").unwrap())
            .unwrap();
        assert_eq!(spec.label(), hand.label());
        let out_hand = hand.run(&ds, &pois, 2);
        let out_spec = spec.run(&ds, &pois, 2);
        assert_eq!(out_spec.explanations, out_hand.explanations);
    }

    #[test]
    fn from_spec_rejects_out_of_range_parameters() {
        use anomex_spec::{DetectorSpec, ExplainerSpec};
        let bad = PipelineSpec::new(
            DetectorSpec::Lof {
                k: 0,
                backend: anomex_spec::NeighborBackend::Exact,
            },
            ExplainerSpec::beam(),
        );
        assert!(Pipeline::from_spec(&bad).is_err());
        let bad = PipelineSpec::new(
            DetectorSpec::lof(),
            ExplainerSpec::Beam {
                width: 0,
                results: 100,
                fixed_dim: true,
            },
        );
        assert!(Pipeline::from_spec(&bad).is_err());
        let bad = PipelineSpec::new(
            DetectorSpec::lof(),
            ExplainerSpec::RefOut {
                pool: 3,
                width: 100,
                results: 100,
                seed: 0,
            },
        );
        assert!(Pipeline::from_spec(&bad).is_err());
    }

    #[test]
    #[should_panic(expected = "at least one point")]
    fn rejects_empty_poi_set() {
        let (ds, _) = planted();
        let pipe = Pipeline::point(Lof::new(10).unwrap(), Beam::new());
        let _ = pipe.run(&ds, &[], 2);
    }
}
