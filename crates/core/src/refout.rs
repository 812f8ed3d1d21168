//! RefOut — adaptive subspace refinement via random projections (Keller,
//! Müller, Wixler, Böhm — *Flexible and adaptive subspace search for
//! outlier analysis*, CIKM 2013; paper §2.2).
//!
//! RefOut draws a **pool** of random subspace projections (dimensionality
//! a fixed fraction of the dataset's), scores the to-be-explained point
//! in every pool member, and then asks, stage by stage: *which feature
//! (set) makes the point's score distribution differ most between pool
//! members that contain it and those that don't?* The discrepancy is
//! Welch's t statistic over the two score populations. The best
//! candidates of each stage are extended feature-by-feature until the
//! requested dimensionality; finally the surviving candidates are scored
//! *directly* with the detector and ranked.

use crate::explainer::{PointExplainer, RankedSubspaces};
use crate::fxhash::FxHashSet;
use crate::scoring::SubspaceScorer;
use anomex_dataset::Subspace;
use anomex_stats::rng::{SeedableRng, SliceRandom, StdRng};
use anomex_stats::tests::TwoSampleTest;

/// The RefOut point explainer. Defaults to the paper's §3.1 settings:
/// `pool_size = 100`, `beam_width = 100`, pool dimensionality 70 % of the
/// dataset's, Welch's t-test as the discrepancy measure, top-100 results.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RefOut {
    pool_size: usize,
    beam_width: usize,
    result_size: usize,
    pool_dim_fraction: f64,
    seed: u64,
}

impl Default for RefOut {
    fn default() -> Self {
        RefOut {
            pool_size: 100,
            beam_width: 100,
            result_size: 100,
            pool_dim_fraction: 0.7,
            seed: 0,
        }
    }
}

impl RefOut {
    /// Paper-default RefOut.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the number of random projections in the pool.
    ///
    /// # Panics
    /// Panics when `n < 4` (the Welch test needs both partitions
    /// populated).
    #[must_use]
    pub fn pool_size(mut self, n: usize) -> Self {
        assert!(n >= 4, "pool size must be at least 4");
        self.pool_size = n;
        self
    }

    /// Sets the number of candidates carried between stages.
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

    /// Sets the pool projection dimensionality as a fraction of the
    /// dataset dimensionality (paper: 0.7).
    ///
    /// # Panics
    /// Panics unless `0 < frac <= 1`.
    #[must_use]
    pub fn pool_dim_fraction(mut self, frac: f64) -> Self {
        assert!(frac > 0.0 && frac <= 1.0, "fraction must lie in (0, 1]");
        self.pool_dim_fraction = frac;
        self
    }

    /// Seeds the random pool construction (deterministic given the seed).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Draws the random projection pool for a `d`-feature dataset. The
    /// pool dimensionality is clamped so it can contain `target_dim`
    /// features and still leave the partition informative.
    fn draw_pool(&self, d: usize, target_dim: usize, rng: &mut StdRng) -> Vec<Subspace> {
        let raw = (self.pool_dim_fraction * d as f64).ceil() as usize;
        // At least `target_dim` (a pool member must be able to contain a
        // candidate) and ideally below `d` (a full-space member is
        // uninformative); when `target_dim = d` the pool degenerates to
        // the full space and the discrepancy test neutralizes itself.
        let lo = target_dim.max(1).min(d);
        let hi = d.saturating_sub(1).max(lo);
        let pool_dim = raw.clamp(lo, hi);
        let mut features: Vec<usize> = (0..d).collect();
        let mut pool = Vec::with_capacity(self.pool_size);
        for _ in 0..self.pool_size {
            features.shuffle(rng);
            pool.push(Subspace::new(features[..pool_dim].to_vec()));
        }
        pool
    }
}

impl PointExplainer for RefOut {
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

        let mut rng = StdRng::seed_from_u64(self.seed ^ (point as u64).wrapping_mul(0x9E37));
        let pool = self.draw_pool(d, target_dim, &mut rng);
        // Score the point in every pool projection (misses in parallel,
        // z-scored).
        let pool_scores: Vec<f64> = scorer.score_batch(&pool).iter().map(|v| v[point]).collect();

        // Stage 1: assess every single feature by the discrepancy of the
        // score populations of pool members containing vs not containing it.
        let mut stage: Vec<(Subspace, f64)> = (0..d)
            .map(|f| {
                let s = Subspace::single(f);
                let disc = discrepancy(&pool, &pool_scores, &s);
                (s, disc)
            })
            .collect();
        truncate_ranked(&mut stage, self.beam_width);

        // Later stages: Cartesian-extend the best candidates with single
        // features and re-assess the (now subset-based) partitions.
        let mut dim = 1;
        while dim < target_dim {
            dim += 1;
            let mut seen = FxHashSet::default();
            let mut next: Vec<(Subspace, f64)> = Vec::new();
            for (s, _) in &stage {
                for f in 0..d {
                    let Some(ext) = s.extended_with(f) else {
                        continue;
                    };
                    if !seen.insert(ext.clone()) {
                        continue;
                    }
                    let disc = discrepancy(&pool, &pool_scores, &ext);
                    next.push((ext, disc));
                }
            }
            stage = next;
            truncate_ranked(&mut stage, self.beam_width);
        }

        // Refinement: score the point directly in the surviving candidates
        // and rank by the detector's standardized score.
        stage.truncate(self.result_size);
        let cands: Vec<Subspace> = stage.into_iter().map(|(s, _)| s).collect();
        let refined = scorer.score_batch(&cands);
        RankedSubspaces::from_scored(
            cands
                .into_iter()
                .zip(refined)
                .map(|(s, v)| (s, v[point]))
                .collect(),
        )
        .truncated(self.result_size)
    }

    fn name(&self) -> &'static str {
        "RefOut"
    }
}

/// Welch-t discrepancy between the point's scores in pool members that
/// contain `candidate` as a subset and those that do not. Degenerate
/// partitions (one side smaller than 2) yield 0 — "no evidence".
fn discrepancy(pool: &[Subspace], pool_scores: &[f64], candidate: &Subspace) -> f64 {
    let mut with: Vec<f64> = Vec::new();
    let mut without: Vec<f64> = Vec::new();
    for (member, &score) in pool.iter().zip(pool_scores) {
        if member.is_superset_of(candidate) {
            with.push(score);
        } else {
            without.push(score);
        }
    }
    if with.len() < 2 || without.len() < 2 {
        return 0.0;
    }
    let (stat, _p) = TwoSampleTest::Welch.run(&with, &without);
    // One-sided intent: features matter when they *raise* the score.
    let mean_with = with.iter().sum::<f64>() / with.len() as f64;
    let mean_without = without.iter().sum::<f64>() / without.len() as f64;
    if mean_with >= mean_without {
        stat
    } else {
        0.0
    }
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
    use anomex_stats::rng::Rng;

    /// 8-feature dataset; the last point deviates only in {2, 5} jointly.
    fn planted() -> (Dataset, usize, Subspace) {
        let mut rng = StdRng::seed_from_u64(5);
        let n = 250;
        let mut rows: Vec<Vec<f64>> = Vec::with_capacity(n + 1);
        for _ in 0..n {
            let t: f64 = rng.gen_range(0.1..0.9);
            let mut r = vec![0.0; 8];
            for (f, slot) in r.iter_mut().enumerate() {
                *slot = match f {
                    2 | 5 => t + rng.gen_range(-0.02..0.02),
                    _ => rng.gen_range(0.0..1.0),
                };
            }
            rows.push(r);
        }
        let mut out = vec![0.0; 8];
        for (f, slot) in out.iter_mut().enumerate() {
            *slot = match f {
                2 => 0.25,
                5 => 0.75,
                _ => rng.gen_range(0.0..1.0),
            };
        }
        rows.push(out);
        (
            Dataset::from_rows(rows).unwrap(),
            n,
            Subspace::new([2usize, 5]),
        )
    }

    #[test]
    fn finds_planted_2d_subspace() {
        let (ds, point, truth) = planted();
        let lof = Lof::new(10).unwrap();
        let scorer = SubspaceScorer::new(&ds, &lof);
        let ranked = RefOut::new()
            .pool_size(80)
            .seed(3)
            .explain(&scorer, point, 2);
        let rank = ranked.rank_of(&truth);
        assert!(
            matches!(rank, Some(r) if r < 5),
            "planted subspace ranked {rank:?}; top: {:?}",
            &ranked.entries()[..ranked.len().min(3)]
        );
    }

    #[test]
    fn output_has_requested_dim() {
        let (ds, point, _) = planted();
        let lof = Lof::new(10).unwrap();
        let scorer = SubspaceScorer::new(&ds, &lof);
        let ranked = RefOut::new().pool_size(40).explain(&scorer, point, 3);
        assert!(ranked.entries().iter().all(|(s, _)| s.dim() == 3));
        assert!(!ranked.is_empty());
    }

    #[test]
    fn deterministic_given_seed() {
        let (ds, point, _) = planted();
        let lof = Lof::new(10).unwrap();
        let scorer = SubspaceScorer::new(&ds, &lof);
        let a = RefOut::new()
            .seed(11)
            .pool_size(30)
            .explain(&scorer, point, 2);
        let b = RefOut::new()
            .seed(11)
            .pool_size(30)
            .explain(&scorer, point, 2);
        assert_eq!(a, b);
    }

    #[test]
    fn pool_dim_clamped_for_high_targets() {
        let (ds, point, _) = planted();
        let lof = Lof::new(10).unwrap();
        let scorer = SubspaceScorer::new(&ds, &lof);
        // target dim 7 of 8 features: pool dim must be ≥ 7 (clamped).
        let ranked = RefOut::new().pool_size(20).explain(&scorer, point, 7);
        assert!(ranked.entries().iter().all(|(s, _)| s.dim() == 7));
    }

    #[test]
    fn discrepancy_neutral_on_degenerate_partition() {
        let pool = vec![Subspace::new([0usize, 1]), Subspace::new([0usize, 2])];
        let scores = vec![1.0, 2.0];
        // Feature 0 is in every member → empty "without" partition.
        assert_eq!(discrepancy(&pool, &scores, &Subspace::single(0)), 0.0);
    }

    #[test]
    fn discrepancy_detects_separated_populations() {
        // Members containing feature 3 score high, others low.
        let pool: Vec<Subspace> = (0..20)
            .map(|i| {
                if i % 2 == 0 {
                    Subspace::new([3usize, i % 5 + 4])
                } else {
                    Subspace::new([1usize, i % 5 + 4])
                }
            })
            .collect();
        let scores: Vec<f64> = (0..20)
            .map(|i| {
                if i % 2 == 0 {
                    5.0 + (i as f64) * 0.01
                } else {
                    0.0 + (i as f64) * 0.01
                }
            })
            .collect();
        let d3 = discrepancy(&pool, &scores, &Subspace::single(3));
        let d1 = discrepancy(&pool, &scores, &Subspace::single(1));
        assert!(d3 > 5.0, "d3 = {d3}");
        assert_eq!(d1, 0.0, "feature 1 lowers the score → clamped to 0");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_bad_point() {
        let (ds, _, _) = planted();
        let lof = Lof::new(10).unwrap();
        let scorer = SubspaceScorer::new(&ds, &lof);
        let _ = RefOut::new().explain(&scorer, 10_000, 2);
    }
}
