//! Engine & score-cache benchmarks.
//!
//! Two questions the `ExplanationEngine` refactor raises:
//!
//! 1. How much does keeping the cache warm across a multi-dimensionality
//!    sweep actually save? (`engine_sweep`: cold vs warm.)
//! 2. Does sharding the cache matter under concurrent hits, or would a
//!    single mutex do? (`cache_hit_path`: 1 shard vs 16 under one
//!    pre-warmed `score_batch` per core.)

use anomex_bench::{bench_dataset, bench_pois};
use anomex_core::cache::ScoreCache;
use anomex_core::engine::{ExplanationEngine, RunSpec};
use anomex_core::pipeline::ExplainerKind;
use anomex_core::scoring::SubspaceScorer;
use anomex_core::Beam;
use anomex_dataset::gen::hics::HicsPreset;
use anomex_dataset::subspace::enumerate_subspaces;
use anomex_dataset::Subspace;
use anomex_detectors::Lof;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::sync::Arc;
use std::time::Duration;

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(5))
}

/// Cold vs warm multi-dimensionality sweeps: the cold variant builds a
/// fresh engine per iteration (every subspace recomputed), the warm one
/// reuses a pre-filled cache and pays only the cache-lookup cost.
fn engine_sweep(c: &mut Criterion) {
    let lof = Lof::new(15).unwrap();
    let ds = bench_dataset(HicsPreset::D14);
    let pois = bench_pois(HicsPreset::D14, 2, 3);
    let beam = ExplainerKind::Point(Box::new(Beam::new().beam_width(10)));
    let spec = RunSpec::new(pois, [2usize, 3]);

    let mut group = c.benchmark_group("engine_sweep");
    group.bench_function("cold/D14-2d3d", |b| {
        b.iter(|| ExplanationEngine::new(&ds, &lof).run(&beam, &spec))
    });

    let warm_cache = Arc::new(ScoreCache::new());
    let warm = ExplanationEngine::with_cache(&ds, &lof, Arc::clone(&warm_cache));
    let _ = warm.run(&beam, &spec); // fill once, outside measurement
    group.bench_function("warm/D14-2d3d", |b| b.iter(|| warm.run(&beam, &spec)));
    group.finish();
}

/// Sharded vs single-lock cache under the concurrent all-hits path: one
/// thread per core runs `score_batch` over all 2d pairs of the
/// 23-feature dataset against a fully pre-warmed cache, as concurrent
/// serve requests on one cache do. A warm batch serves its hits on the
/// calling thread, so the measurement is lock traffic plus the spawns.
fn cache_hit_path(c: &mut Criterion) {
    let lof = Lof::new(15).unwrap();
    let ds = bench_dataset(HicsPreset::D23);
    let pairs: Vec<Subspace> = enumerate_subspaces(ds.n_features(), 2).collect();
    let threads = std::thread::available_parallelism().map_or(2, |n| n.get());

    let mut group = c.benchmark_group("cache_hit_path");
    for shards in [1usize, 16] {
        let cache = Arc::new(ScoreCache::builder().shards(shards).build());
        let scorer = SubspaceScorer::with_cache(&ds, &lof, Arc::clone(&cache));
        let _ = scorer.score_batch(&pairs); // pre-warm: all misses paid here
        group.bench_with_input(
            BenchmarkId::new("score_batch_warm", format!("{shards}-shard")),
            &shards,
            |b, _| {
                b.iter(|| {
                    std::thread::scope(|scope| {
                        for _ in 0..threads {
                            scope.spawn(|| scorer.score_batch(&pairs));
                        }
                    });
                });
            },
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = config();
    targets = engine_sweep, cache_hit_path
}
criterion_main!(benches);
