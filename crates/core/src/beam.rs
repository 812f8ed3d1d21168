//! Beam — stage-wise greedy point explanation (Nguyen et al., *Discovering
//! outlying aspects in large datasets*, DAMI 2016; paper §2.2).
//!
//! Beam explains one point by climbing dimensionalities:
//!
//! 1. **Stage 1** scores the point in *every* 2d subspace (exhaustive).
//! 2. Each later stage extends the `beam_width` best subspaces of the
//!    previous stage with every remaining feature, scores the candidates,
//!    and keeps the best `beam_width` again (the *stage list*), while a
//!    *global list* accumulates the best subspaces seen at any stage.
//! 3. At the requested dimensionality the search stops.
//!
//! The paper compares two outputs: classic Beam returns the *global list*
//! (subspaces of varying dimensionality); the fairness variant `Beam_FX`
//! returns only final-stage subspaces of exactly the requested
//! dimensionality. [`Beam::fixed_dim`] selects between them.

use crate::explainer::{PointExplainer, RankedSubspaces};
use crate::fxhash::FxHashSet;
use crate::scoring::SubspaceScorer;
use anomex_dataset::subspace::enumerate_subspaces;
use anomex_dataset::Subspace;

/// The Beam point explainer. Defaults to the paper's hyper-parameters:
/// `beam_width = 100`, `result_size = 100`, fixed-dimensionality output
/// (`Beam_FX`, the variant the paper's Figure 9 evaluates).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Beam {
    beam_width: usize,
    result_size: usize,
    fixed_dim: bool,
}

impl Default for Beam {
    fn default() -> Self {
        Beam {
            beam_width: 100,
            result_size: 100,
            fixed_dim: true,
        }
    }
}

impl Beam {
    /// Paper-default Beam (`beam_width = 100`, top-100 results, `FX`).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the number of subspaces carried between stages.
    ///
    /// # Panics
    /// Panics when `w == 0`.
    #[must_use]
    pub fn beam_width(mut self, w: usize) -> Self {
        assert!(w > 0, "beam width must be positive");
        self.beam_width = w;
        self
    }

    /// Sets the number of subspaces returned.
    ///
    /// # Panics
    /// Panics when `n == 0`.
    #[must_use]
    pub fn result_size(mut self, n: usize) -> Self {
        assert!(n > 0, "result size must be positive");
        self.result_size = n;
        self
    }

    /// Chooses between `Beam_FX` (`true`, default: only final-stage
    /// subspaces of exactly the requested dimensionality) and classic
    /// Beam (`false`: the global list across stages, mixed
    /// dimensionality).
    #[must_use]
    pub fn fixed_dim(mut self, fx: bool) -> Self {
        self.fixed_dim = fx;
        self
    }
}

impl PointExplainer for Beam {
    fn explain(
        &self,
        scorer: &SubspaceScorer<'_>,
        point: usize,
        target_dim: usize,
    ) -> RankedSubspaces {
        let d = scorer.n_features();
        assert!(point < scorer.n_rows(), "point {point} out of range");
        assert!(
            (1..=d).contains(&target_dim),
            "target dimensionality {target_dim} out of range 1..={d}"
        );

        // Stage 1: exhaustive over min(2, target) dimensional subspaces.
        let first_dim = target_dim.min(2);
        let mut stage: Vec<(Subspace, f64)> = {
            let cands: Vec<Subspace> = enumerate_subspaces(d, first_dim).collect();
            score_candidates(scorer, point, cands)
        };
        truncate_ranked(&mut stage, self.beam_width);
        // The stages before `stage`, kept whole for classic Beam's global list.
        let mut earlier: Vec<Vec<(Subspace, f64)>> = Vec::new();

        // Later stages: extend the beam with every remaining feature.
        let mut dim = first_dim;
        while dim < target_dim {
            dim += 1;
            let mut seen = FxHashSet::default();
            let mut cands: Vec<Subspace> = Vec::new();
            for (s, _) in &stage {
                for f in 0..d {
                    if let Some(ext) = s.extended_with(f) {
                        if seen.insert(ext.clone()) {
                            cands.push(ext);
                        }
                    }
                }
            }
            let mut next = score_candidates(scorer, point, cands);
            truncate_ranked(&mut next, self.beam_width);
            earlier.push(std::mem::replace(&mut stage, next));
        }

        let pool = if self.fixed_dim {
            stage
        } else {
            earlier.into_iter().flatten().chain(stage).collect()
        };
        RankedSubspaces::from_scored(pool).truncated(self.result_size)
    }

    fn name(&self) -> &'static str {
        if self.fixed_dim {
            "Beam_FX"
        } else {
            "Beam"
        }
    }
}

/// Scores `point` in every candidate (misses in parallel) and returns
/// the pairs.
fn score_candidates(
    scorer: &SubspaceScorer<'_>,
    point: usize,
    cands: Vec<Subspace>,
) -> Vec<(Subspace, f64)> {
    let scores = scorer.score_batch(&cands);
    cands
        .into_iter()
        .zip(scores)
        .map(|(s, v)| (s, v[point]))
        .collect()
}

/// Keeps the `k` best pairs, sorted descending (deterministic ties).
fn truncate_ranked(v: &mut Vec<(Subspace, f64)>, k: usize) {
    v.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    v.truncate(k);
}

#[cfg(test)]
mod unit_tests {
    use super::*;
    use anomex_dataset::Dataset;
    use anomex_detectors::Lof;
    use anomex_stats::rng::{Rng, SeedableRng, StdRng};

    /// 6-feature dataset where the last point deviates ONLY in features
    /// {1, 4} jointly (correlated tube construction, masked in 1d).
    fn planted() -> (Dataset, usize, Subspace) {
        let mut rng = StdRng::seed_from_u64(77);
        let n = 200;
        let mut rows: Vec<Vec<f64>> = Vec::with_capacity(n + 1);
        for _ in 0..n {
            let t: f64 = rng.gen_range(0.1..0.9);
            let mut r = vec![0.0; 6];
            for (f, slot) in r.iter_mut().enumerate() {
                *slot = match f {
                    1 | 4 => t + rng.gen_range(-0.02..0.02),
                    _ => rng.gen_range(0.0..1.0),
                };
            }
            rows.push(r);
        }
        // Outlier: off the {1,4} diagonal, valid marginals elsewhere.
        let mut out = vec![0.0; 6];
        for (f, slot) in out.iter_mut().enumerate() {
            *slot = match f {
                1 => 0.3,
                4 => 0.7, // jointly inconsistent with the tube
                _ => rng.gen_range(0.0..1.0),
            };
        }
        rows.push(out);
        (
            Dataset::from_rows(rows).unwrap(),
            n,
            Subspace::new([1usize, 4]),
        )
    }

    #[test]
    fn finds_planted_2d_subspace() {
        let (ds, point, truth) = planted();
        let lof = Lof::new(10).unwrap();
        let scorer = SubspaceScorer::new(&ds, &lof);
        let ranked = Beam::new().explain(&scorer, point, 2);
        assert_eq!(
            ranked.best(),
            Some(&truth),
            "top: {:?}",
            ranked.entries()[0]
        );
    }

    #[test]
    fn fx_returns_only_target_dim() {
        let (ds, point, _) = planted();
        let lof = Lof::new(10).unwrap();
        let scorer = SubspaceScorer::new(&ds, &lof);
        let ranked = Beam::new().fixed_dim(true).explain(&scorer, point, 3);
        assert!(ranked.entries().iter().all(|(s, _)| s.dim() == 3));
    }

    #[test]
    fn classic_returns_mixed_dims_including_best_2d() {
        let (ds, point, truth) = planted();
        let lof = Lof::new(10).unwrap();
        let scorer = SubspaceScorer::new(&ds, &lof);
        let ranked = Beam::new().fixed_dim(false).explain(&scorer, point, 3);
        let dims: Vec<usize> = ranked.entries().iter().map(|(s, _)| s.dim()).collect();
        assert!(dims.contains(&2) && dims.contains(&3));
        // The planted 2d subspace should still rank at the very top.
        assert_eq!(ranked.best(), Some(&truth));
    }

    #[test]
    fn beam_width_one_still_works() {
        let (ds, point, _) = planted();
        let lof = Lof::new(10).unwrap();
        let scorer = SubspaceScorer::new(&ds, &lof);
        let ranked = Beam::new()
            .beam_width(1)
            .result_size(5)
            .explain(&scorer, point, 3);
        assert!(!ranked.is_empty());
        assert!(ranked.len() <= 5);
    }

    #[test]
    fn target_dim_one_enumerates_singles() {
        let (ds, point, _) = planted();
        let lof = Lof::new(10).unwrap();
        let scorer = SubspaceScorer::new(&ds, &lof);
        let ranked = Beam::new().explain(&scorer, point, 1);
        assert!(ranked.entries().iter().all(|(s, _)| s.dim() == 1));
        assert_eq!(ranked.len(), 6);
    }

    #[test]
    fn stage_one_is_exhaustive() {
        let (ds, point, _) = planted();
        let lof = Lof::new(10).unwrap();
        let scorer = SubspaceScorer::new(&ds, &lof);
        let ranked = Beam::new().result_size(100).explain(&scorer, point, 2);
        assert_eq!(ranked.len(), 15); // C(6,2)
        assert_eq!(scorer.evaluations(), 15);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_bad_target_dim() {
        let (ds, point, _) = planted();
        let lof = Lof::new(10).unwrap();
        let scorer = SubspaceScorer::new(&ds, &lof);
        let _ = Beam::new().explain(&scorer, point, 7);
    }

    #[test]
    fn deterministic() {
        let (ds, point, _) = planted();
        let lof = Lof::new(10).unwrap();
        let scorer = SubspaceScorer::new(&ds, &lof);
        let a = Beam::new().explain(&scorer, point, 3);
        let b = Beam::new().explain(&scorer, point, 3);
        assert_eq!(a, b);
    }
}
