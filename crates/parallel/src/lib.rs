//! # anomex-parallel
//!
//! Minimal fork-join parallel map over a slice, built on
//! `std::thread::scope` and one shared atomic work cursor.
//!
//! Subspace search is embarrassingly parallel at the candidate level
//! (each candidate is scored independently), and the detectors'
//! per-row loops (kNN scans, ABOD variance, iForest path lengths) are
//! embarrassingly parallel at the row level — so a chunked
//! self-scheduling map is all the framework needs, with no external
//! thread-pool dependency. The crate sits below both `anomex-core`
//! (a scoring batch's cache misses) and `anomex-detectors` (per-row
//! kernels) so the two layers share one [`is_nested`] oversubscription
//! guard: a detector row loop running on a worker that scores a miss
//! automatically degrades to sequential instead of spawning
//! workers × workers threads.

#![warn(missing_docs)]
#![deny(unsafe_code)]

use std::cell::Cell;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

thread_local! {
    /// Set for the lifetime of a [`par_map`] worker thread. A nested
    /// `par_map` call from such a thread would spawn workers × workers
    /// threads (e.g. a detector's row loop inside `score_batch`'s miss
    /// workers, or an explanation inside a serve batch worker), so
    /// nested calls detect the flag and run sequentially on the worker
    /// instead.
    static INSIDE_PAR_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Whether the current thread is already a [`par_map`] worker — i.e. a
/// `par_map` call here would nest.
#[must_use]
pub fn is_nested() -> bool {
    INSIDE_PAR_WORKER.with(Cell::get)
}

/// The machine's available parallelism, read once per process: std
/// reads cgroup files on every `available_parallelism` call, which
/// costs tens of microseconds — as much as a small detector call.
/// [`par_map`] spreads its items over this many workers, and callers
/// that size their own splits or shards read it here.
#[must_use]
pub fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, NonZeroUsize::get))
}

/// Applies `f` to every item, in parallel, preserving input order in the
/// output. `f` runs on multiple threads, so it must be `Sync`.
///
/// Workers claim small index ranges from one shared cursor, which
/// balances workloads whose per-item cost varies wildly (e.g. scoring
/// 2d vs 5d subspaces).
///
/// # Panics
/// When `f` panics on a worker, that worker's own panic payload is
/// re-raised on the calling thread once every worker has stopped.
///
/// ```
/// use anomex_parallel::par_map;
/// let squares = par_map(&[1u64, 2, 3, 4], |&x| x * x);
/// assert_eq!(squares, vec![1, 4, 9, 16]);
/// ```
pub fn par_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    let n = items.len();
    // The cheap checks go first: nested and one-item calls never need
    // the core count.
    let workers = if n <= 1 || is_nested() {
        1
    } else {
        cores().min(n)
    };
    if workers == 1 {
        return items.iter().map(&f).collect();
    }

    // Batched claims amortize cursor traffic while keeping load balance.
    let batch = (n / (workers * 8)).max(1);
    let cursor = AtomicUsize::new(0);
    let (cursor, f) = (&cursor, &f);
    let joined: Vec<std::thread::Result<Vec<(usize, U)>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(move || {
                    INSIDE_PAR_WORKER.with(|flag| flag.set(true));
                    let mut local: Vec<(usize, U)> = Vec::new();
                    loop {
                        // The cursor only hands out disjoint ranges; it
                        // publishes no other data.
                        let start = cursor.fetch_add(batch, Ordering::Relaxed);
                        if start >= n {
                            return local;
                        }
                        let end = (start + batch).min(n);
                        local.extend((start..end).zip(&items[start..end]).map(|(i, x)| (i, f(x))));
                    }
                })
            })
            .collect();
        // Joining every handle here keeps the scope from replacing a
        // worker's panic with its generic "a scoped thread panicked".
        handles.into_iter().map(|h| h.join()).collect()
    });

    let mut out: Vec<Option<U>> = (0..n).map(|_| None).collect();
    for local in joined {
        let local = local.unwrap_or_else(|payload| std::panic::resume_unwind(payload));
        for (i, v) in local {
            debug_assert!(out[i].is_none(), "index {i} produced twice");
            out[i] = Some(v);
        }
    }
    out.into_iter()
        // anomex: allow(panic-path) the cursor hands out 0..n exactly once by construction
        .map(|o| o.expect("every index produced exactly once"))
        .collect()
}

/// Applies `f` to every row chunk `[start, end)` of `0..n_rows`, in
/// parallel, and concatenates the per-chunk outputs in row order.
///
/// This is the shape of the detectors' per-row loops: each chunk owns
/// its scratch buffers (allocated once per chunk, not once per row) and
/// emits one output per row. `chunk_rows` trades scratch reuse against
/// load balance; the row order of the concatenated output is identical
/// to the sequential loop's.
///
/// ```
/// use anomex_parallel::par_chunk_flat_map;
/// let doubled = par_chunk_flat_map(5, 2, |start, end| {
///     (start..end).map(|i| i * 2).collect::<Vec<_>>()
/// });
/// assert_eq!(doubled, vec![0, 2, 4, 6, 8]);
/// ```
pub fn par_chunk_flat_map<U, F>(n_rows: usize, chunk_rows: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(usize, usize) -> Vec<U> + Sync,
{
    let chunk = chunk_rows.max(1);
    let ranges: Vec<(usize, usize)> = (0..n_rows)
        .step_by(chunk)
        .map(|start| (start, (start + chunk).min(n_rows)))
        .collect();
    let parts = par_map(&ranges, |&(start, end)| f(start, end));
    let mut out = Vec::with_capacity(n_rows);
    for part in parts {
        out.extend(part);
    }
    out
}

#[cfg(test)]
mod unit_tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn preserves_order() {
        let items: Vec<usize> = (0..1000).collect();
        let out = par_map(&items, |&x| x * 2);
        assert_eq!(out, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_single() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(&empty, |&x| x).is_empty());
        assert_eq!(par_map(&[7u32], |&x| x + 1), vec![8]);
    }

    #[test]
    fn runs_every_item_exactly_once() {
        let count = AtomicUsize::new(0);
        let items: Vec<usize> = (0..357).collect();
        let out = par_map(&items, |&x| {
            count.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(count.load(Ordering::Relaxed), 357);
        assert_eq!(out.len(), 357);
    }

    #[test]
    fn works_with_non_default_types() {
        #[derive(Debug, PartialEq)]
        struct NoDefault(String);
        let items = vec![1, 2, 3];
        let out = par_map(&items, |&x| NoDefault(format!("v{x}")));
        assert_eq!(out[2], NoDefault("v3".into()));
    }

    #[test]
    fn nested_par_map_runs_sequentially() {
        // Each inner par_map must stay on the worker thread that called
        // it — nesting would otherwise oversubscribe the machine with
        // workers × workers threads.
        let outer: Vec<usize> = (0..4).collect();
        let reports = par_map(&outer, |_| {
            let inner: Vec<usize> = (0..16).collect();
            let ids = par_map(&inner, |_| std::thread::current().id());
            let first = ids[0];
            ids.iter().all(|&id| id == first)
        });
        assert!(
            reports.iter().all(|&on_one_thread| on_one_thread),
            "inner par_map escaped its worker thread"
        );
    }

    #[test]
    fn nesting_flag_is_only_set_on_workers() {
        assert!(!is_nested(), "caller thread must not be marked as worker");
        let observed = par_map(&[0usize, 1, 2, 3], |_| is_nested());
        // On a multi-core machine the items run on flagged workers; on a
        // single core par_map degenerates to the caller's thread.
        if cores() > 1 {
            assert!(observed.iter().all(|&flagged| flagged));
        }
        assert!(!is_nested(), "flag must not leak back to the caller");
    }

    #[test]
    fn worker_panic_reaches_the_caller_with_its_message() {
        // Callers such as the serve registry turn a caught panic into a
        // typed error carrying its text; on a multi-core machine the
        // panic happens on a worker and must keep that text.
        let items: Vec<usize> = (0..64).collect();
        let caught = std::panic::catch_unwind(|| {
            par_map(&items, |&x| {
                assert!(x != 7, "boom at {x}");
                x
            })
        });
        let Err(payload) = caught else {
            panic!("a panicking item must fail the map");
        };
        let message = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or_default();
        assert!(message.contains("boom at 7"), "{message:?}");
    }

    #[test]
    fn uneven_workloads_balance() {
        // Mix trivially cheap and artificially expensive items.
        let items: Vec<u64> = (0..64).collect();
        let out = par_map(&items, |&x| {
            if x % 7 == 0 {
                (0..50_000u64).fold(x, |a, b| a.wrapping_add(b % 13))
            } else {
                x
            }
        });
        assert_eq!(out.len(), 64);
        assert_eq!(out[1], 1);
    }

    #[test]
    fn chunked_map_concatenates_in_order() {
        let out = par_chunk_flat_map(103, 7, |start, end| {
            (start..end).map(|i| i + 1).collect::<Vec<_>>()
        });
        assert_eq!(out, (1..=103).collect::<Vec<_>>());
    }

    #[test]
    fn chunked_map_handles_empty_and_oversized_chunks() {
        let empty = par_chunk_flat_map(0, 4, |_, _| Vec::<usize>::new());
        assert!(empty.is_empty());
        let one_chunk = par_chunk_flat_map(3, 100, |start, end| {
            assert_eq!((start, end), (0, 3));
            vec![start, end]
        });
        assert_eq!(one_chunk, vec![0, 3]);
    }
}
