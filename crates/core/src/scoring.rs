//! The shared subspace-scoring engine: project → detect → standardize →
//! memoize.
//!
//! Every explainer evaluates the same primitive thousands to millions of
//! times: *"how outlying is point p (or point set P) in subspace s
//! according to detector D?"*. [`SubspaceScorer`] centralizes that
//! primitive, applying the paper's per-subspace z-score standardization
//! (§2.2) and memoizing full score vectors in a [`ScoreCache`] so
//! stage-wise searches never re-run the detector on a subspace they have
//! already visited.
//!
//! The cache is a separate, `Arc`-shared [`ScoreCache`]: a scorer built
//! with [`SubspaceScorer::new`] owns a private one (the old per-run
//! behaviour), while [`SubspaceScorer::with_cache`] attaches an external
//! cache that outlives the run — the mechanism behind
//! [`crate::engine::ExplanationEngine`]'s cross-dimension reuse.

use crate::cache::{Fetch, ScoreCache};
use anomex_dataset::{Dataset, Subspace};
use anomex_detectors::zscore::standardize_scores;
use anomex_detectors::Detector;
use anomex_parallel::par_map;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// Process-wide work meters, in addition to the per-scorer counters: the
/// scorer is the sole owner of the hit/miss classification, so the
/// global `core.scorer.*` counters reconcile exactly with every
/// [`crate::engine::RunStats`] summed over a region (the obs test suite
/// pins this). Handles are cached so the hot path pays one relaxed
/// `fetch_add`, never a registry lookup.
fn obs_evaluations() -> &'static anomex_obs::Counter {
    static C: OnceLock<&'static anomex_obs::Counter> = OnceLock::new();
    C.get_or_init(|| anomex_obs::counter("core.scorer.evaluations"))
}

fn obs_cache_hits() -> &'static anomex_obs::Counter {
    static C: OnceLock<&'static anomex_obs::Counter> = OnceLock::new();
    C.get_or_init(|| anomex_obs::counter("core.scorer.cache_hits"))
}

/// Caching subspace scorer binding one dataset to one detector.
///
/// Cheap to share by reference across threads; all interior mutability is
/// synchronized. The `evaluations` / `cache_hits` counters are **local to
/// this scorer** (they meter one run even when the underlying cache is
/// shared across many).
pub struct SubspaceScorer<'a> {
    dataset: &'a Dataset,
    detector: &'a dyn Detector,
    cache: Option<Arc<ScoreCache>>,
    evaluations: AtomicUsize,
    cache_hits: AtomicUsize,
    standardize: bool,
}

impl<'a> SubspaceScorer<'a> {
    /// Creates a scorer with a private, unbounded cache.
    #[must_use]
    pub fn new(dataset: &'a Dataset, detector: &'a dyn Detector) -> Self {
        Self::with_cache(dataset, detector, Arc::new(ScoreCache::new()))
    }

    /// Creates a scorer backed by an external, shareable cache. The cache
    /// outlives the scorer, so score vectors computed here are visible to
    /// every later scorer attached to the same cache.
    ///
    /// Only share a cache between scorers with identical score semantics:
    /// same dataset, same detector (same configuration and seed), same
    /// standardization setting.
    #[must_use]
    pub fn with_cache(
        dataset: &'a Dataset,
        detector: &'a dyn Detector,
        cache: Arc<ScoreCache>,
    ) -> Self {
        SubspaceScorer {
            dataset,
            detector,
            cache: Some(cache),
            evaluations: AtomicUsize::new(0),
            cache_hits: AtomicUsize::new(0),
            standardize: true,
        }
    }

    /// Disables the per-subspace z-score standardization (paper §2.2),
    /// exposing the detector's raw scores. Exists for the ablation
    /// benches that quantify how much the standardization matters;
    /// production explainers should keep it on.
    #[must_use]
    pub fn with_raw_scores(mut self) -> Self {
        self.standardize = false;
        self
    }

    /// Creates a scorer that never caches — appropriate for exhaustive
    /// single-pass enumerations (LookOut over millions of subspaces)
    /// where a cache would only consume memory. (A bounded shared cache
    /// — [`ScoreCache::with_capacity`] — is the middle ground.)
    #[must_use]
    pub fn without_cache(dataset: &'a Dataset, detector: &'a dyn Detector) -> Self {
        SubspaceScorer {
            dataset,
            detector,
            cache: None,
            evaluations: AtomicUsize::new(0),
            cache_hits: AtomicUsize::new(0),
            standardize: true,
        }
    }

    /// The underlying dataset.
    #[must_use]
    pub fn dataset(&self) -> &'a Dataset {
        self.dataset
    }

    /// The underlying detector.
    #[must_use]
    pub fn detector(&self) -> &'a dyn Detector {
        self.detector
    }

    /// The backing cache, when caching is enabled.
    #[must_use]
    pub fn cache(&self) -> Option<&Arc<ScoreCache>> {
        self.cache.as_ref()
    }

    /// Number of features of the underlying dataset.
    #[must_use]
    pub fn n_features(&self) -> usize {
        self.dataset.n_features()
    }

    /// Number of rows of the underlying dataset.
    #[must_use]
    pub fn n_rows(&self) -> usize {
        self.dataset.n_rows()
    }

    /// Detector invocations performed *through this scorer* (unique
    /// cache misses; concurrent misses of the same subspace count once).
    #[must_use]
    pub fn evaluations(&self) -> usize {
        self.evaluations.load(Ordering::Relaxed)
    }

    /// Cache hits observed by this scorer — including requests served by
    /// entries a previous run left in a shared cache.
    #[must_use]
    pub fn cache_hits(&self) -> usize {
        self.cache_hits.load(Ordering::Relaxed)
    }

    /// Computes (or retrieves) the **standardized** score vector of every
    /// row in `subspace`: detector scores z-scored against the subspace's
    /// own score population.
    #[must_use]
    pub fn scores(&self, subspace: &Subspace) -> Arc<Vec<f64>> {
        assert!(!subspace.is_empty(), "cannot score the empty subspace");
        match &self.cache {
            Some(cache) => {
                let (scores, fetch) = cache.get_or_compute(subspace, || self.compute(subspace));
                match fetch {
                    Fetch::Computed => {
                        self.evaluations.fetch_add(1, Ordering::Relaxed);
                        obs_evaluations().incr();
                    }
                    Fetch::Hit => {
                        self.cache_hits.fetch_add(1, Ordering::Relaxed);
                        obs_cache_hits().incr();
                    }
                }
                scores
            }
            None => {
                self.evaluations.fetch_add(1, Ordering::Relaxed);
                obs_evaluations().incr();
                Arc::new(self.compute(subspace))
            }
        }
    }

    /// The standardized score of one point in one subspace — the
    /// `score(p_s)'` of the paper's §2.2.
    #[must_use]
    pub fn point_score(&self, subspace: &Subspace, point: usize) -> f64 {
        self.scores(subspace)[point]
    }

    /// Scores a batch of subspaces (order preserved). Cache hits are
    /// served on the calling thread; only the misses (every key, for an
    /// uncached scorer) fan out across cores through [`par_map`], so a
    /// batch of all hits spawns no thread. The
    /// parallelism lives here, where detector work happens, so detectors
    /// and explainers stay single-threaded and simple. A batch nested
    /// inside another [`par_map`] worker runs inline instead of
    /// oversubscribing the machine.
    #[must_use]
    pub fn score_batch(&self, subspaces: &[Subspace]) -> Vec<Arc<Vec<f64>>> {
        // A key still in flight on another thread reads as a miss here;
        // `scores` then waits on it and counts the hit.
        let found: Vec<Option<Arc<Vec<f64>>>> = subspaces
            .iter()
            .map(|s| self.cache.as_ref().and_then(|c| c.get(s)))
            .collect();
        let hits = found.iter().filter(|f| f.is_some()).count();
        self.cache_hits.fetch_add(hits, Ordering::Relaxed);
        obs_cache_hits().add(hits as u64);
        let misses: Vec<&Subspace> = subspaces
            .iter()
            .zip(&found)
            .filter(|(_, f)| f.is_none())
            .map(|(s, _)| s)
            .collect();
        let mut computed = par_map(&misses, |s| self.scores(s)).into_iter();
        found
            .into_iter()
            .filter_map(|f| f.or_else(|| computed.next()))
            .collect()
    }

    /// Convenience: the standardized scores of a fixed set of points in a
    /// batch of subspaces — `out[i][j]` is the score of `points[j]` in
    /// `subspaces[i]`. Uses [`Self::score_batch`].
    #[must_use]
    pub fn point_scores_batch(&self, subspaces: &[Subspace], points: &[usize]) -> Vec<Vec<f64>> {
        self.score_batch(subspaces)
            .into_iter()
            .map(|v| points.iter().map(|&p| v[p]).collect())
            .collect()
    }

    fn compute(&self, subspace: &Subspace) -> Vec<f64> {
        let raw = self.detector.score_all(&self.dataset.project(subspace));
        debug_assert_eq!(raw.len(), self.dataset.n_rows());
        if self.standardize {
            standardize_scores(&raw)
        } else {
            raw
        }
    }
}

#[cfg(test)]
mod unit_tests {
    use super::*;
    use anomex_dataset::Dataset;
    use anomex_detectors::Lof;

    fn toy() -> Dataset {
        // A tight cluster with one planted outlier in feature pair {0,1};
        // feature 2 is uniform noise.
        let mut rows: Vec<Vec<f64>> = (0..30)
            .map(|i| {
                let t = i as f64 / 30.0;
                vec![t * 0.01, t * 0.01, t]
            })
            .collect();
        rows.push(vec![0.8, 0.9, 0.5]);
        Dataset::from_rows(rows).unwrap()
    }

    #[test]
    fn scores_are_standardized() {
        let ds = toy();
        let lof = Lof::new(5).unwrap();
        let scorer = SubspaceScorer::new(&ds, &lof);
        let z = scorer.scores(&Subspace::new([0usize, 1]));
        let mean: f64 = z.iter().sum::<f64>() / z.len() as f64;
        assert!(mean.abs() < 1e-9);
        // Planted outlier dominates.
        let top = (0..z.len()).max_by(|&a, &b| z[a].total_cmp(&z[b])).unwrap();
        assert_eq!(top, 30);
    }

    #[test]
    fn caching_avoids_recomputation() {
        let ds = toy();
        let lof = Lof::new(5).unwrap();
        let scorer = SubspaceScorer::new(&ds, &lof);
        let s = Subspace::new([0usize, 2]);
        let a = scorer.scores(&s);
        let b = scorer.scores(&s);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(scorer.evaluations(), 1);
        assert_eq!(scorer.cache_hits(), 1);
    }

    #[test]
    fn uncached_scorer_recomputes() {
        let ds = toy();
        let lof = Lof::new(5).unwrap();
        let scorer = SubspaceScorer::without_cache(&ds, &lof);
        let s = Subspace::new([1usize, 2]);
        let a = scorer.scores(&s);
        let b = scorer.scores(&s);
        assert_eq!(*a, *b); // same values
        assert_eq!(scorer.evaluations(), 2); // but computed twice
        assert_eq!(scorer.cache_hits(), 0);
        assert!(scorer.cache().is_none());
    }

    #[test]
    fn shared_cache_is_warm_for_the_next_scorer() {
        let ds = toy();
        let lof = Lof::new(5).unwrap();
        let cache = Arc::new(ScoreCache::new());
        let s = Subspace::new([0usize, 1]);

        let first = SubspaceScorer::with_cache(&ds, &lof, Arc::clone(&cache));
        let a = first.scores(&s);
        assert_eq!(first.evaluations(), 1);

        // A second run over the same (dataset, detector) reuses the work.
        let second = SubspaceScorer::with_cache(&ds, &lof, Arc::clone(&cache));
        let b = second.scores(&s);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(second.evaluations(), 0);
        assert_eq!(second.cache_hits(), 1);
        assert_eq!(cache.stats().evaluations, 1);
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn batch_matches_sequential() {
        let ds = toy();
        let lof = Lof::new(5).unwrap();
        let scorer = SubspaceScorer::new(&ds, &lof);
        let subs: Vec<Subspace> = vec![
            Subspace::new([0usize]),
            Subspace::new([1usize]),
            Subspace::new([0usize, 1]),
            Subspace::new([0usize, 1, 2]),
        ];
        let batch = scorer.score_batch(&subs);
        for (s, b) in subs.iter().zip(&batch) {
            let direct = scorer.scores(s);
            assert_eq!(**b, *direct);
        }
    }

    #[test]
    fn batch_counts_hits_once_and_computes_each_miss_once() {
        let ds = toy();
        let lof = Lof::new(5).unwrap();
        let scorer = SubspaceScorer::new(&ds, &lof);
        let (a, b, c) = (
            Subspace::new([0usize, 1]),
            Subspace::new([2usize]),
            Subspace::new([0usize, 1, 2]),
        );
        let subs = vec![a.clone(), b, a, c];
        let cold = scorer.score_batch(&subs);
        assert_eq!(scorer.evaluations(), 3, "the repeated key computes once");
        assert_eq!(scorer.cache_hits(), 1);
        let warm = scorer.score_batch(&subs);
        assert_eq!(scorer.evaluations(), 3, "a warm batch computes nothing");
        assert_eq!(scorer.cache_hits(), 5);
        for ((s, x), y) in subs.iter().zip(&cold).zip(&warm) {
            assert!(Arc::ptr_eq(x, y));
            assert_eq!(**x, *scorer.scores(s));
        }
    }

    #[test]
    fn concurrent_misses_count_one_evaluation() {
        let ds = toy();
        let lof = Lof::new(5).unwrap();
        let scorer = SubspaceScorer::new(&ds, &lof);
        let s = Subspace::new([0usize, 1, 2]);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    let _ = scorer.scores(&s);
                });
            }
        });
        assert_eq!(scorer.evaluations(), 1, "duplicated detector work");
        assert_eq!(scorer.cache_hits(), 7);
    }

    #[test]
    fn point_scores_batch_shape() {
        let ds = toy();
        let lof = Lof::new(5).unwrap();
        let scorer = SubspaceScorer::new(&ds, &lof);
        let subs = vec![Subspace::new([0usize, 1]), Subspace::new([2usize])];
        let pts = vec![30usize, 0];
        let m = scorer.point_scores_batch(&subs, &pts);
        assert_eq!(m.len(), 2);
        assert_eq!(m[0].len(), 2);
        assert_eq!(m[0][0], scorer.point_score(&subs[0], 30));
    }

    #[test]
    fn raw_scores_skip_standardization() {
        let ds = toy();
        let lof = Lof::new(5).unwrap();
        let raw = SubspaceScorer::new(&ds, &lof).with_raw_scores();
        let s = Subspace::new([0usize, 1]);
        let v = raw.scores(&s);
        // Raw LOF scores hover around 1, never zero-mean.
        let mean: f64 = v.iter().sum::<f64>() / v.len() as f64;
        assert!(mean > 0.5, "raw LOF mean = {mean}");
    }

    #[test]
    #[should_panic(expected = "empty subspace")]
    fn rejects_empty_subspace() {
        let ds = toy();
        let lof = Lof::new(5).unwrap();
        let scorer = SubspaceScorer::new(&ds, &lof);
        let _ = scorer.scores(&Subspace::new(Vec::<usize>::new()));
    }
}
