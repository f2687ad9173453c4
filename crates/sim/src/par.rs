//! A minimal scoped-thread worker pool.
//!
//! The one primitive the bench and chaos drivers need, on
//! `std::thread::scope` alone: a **deterministic-order parallel map**
//! over independent jobs.
//!
//! `par_map` fans the items of a `Vec` across `jobs` scoped threads and
//! returns the results *in input order*, so a driver that renders results
//! sequentially afterwards produces byte-identical output to a sequential
//! run — parallelism never reorders anything observable. Work is handed
//! out through a shared atomic cursor (work stealing by index), so
//! uneven job costs still load-balance.
//!
//! ```
//! let squares = dmem_sim::par::par_map(4, (0u64..100).collect(), |_, n| n * n);
//! assert_eq!(squares[7], 49);
//! ```

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Number of worker threads worth spawning on this machine.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// Maps `f` over `items` on up to `jobs` scoped threads, returning the
/// results in input order. `f` receives `(index, item)` so callers can
/// label work without capturing per-item state.
///
/// With `jobs <= 1` (or a single item) everything runs inline on the
/// caller's thread — no threads are spawned, which keeps single-core and
/// `--jobs 1` runs exactly as cheap as the pre-pool sequential code.
///
/// # Panics
///
/// Propagates the first worker panic (after all workers have stopped).
pub fn par_map<I, R, F>(jobs: usize, items: Vec<I>, f: F) -> Vec<R>
where
    I: Send,
    R: Send,
    F: Fn(usize, I) -> R + Sync,
{
    let n = items.len();
    if jobs <= 1 || n <= 1 {
        return items.into_iter().enumerate().map(|(i, x)| f(i, x)).collect();
    }
    let workers = jobs.min(n);
    // Items move into per-slot cells a worker can take from; results land
    // in per-slot cells read back in order afterwards. Per-slot mutexes
    // are uncontended (each slot is touched by exactly one worker).
    let work: Vec<Mutex<Option<I>>> = items.into_iter().map(|x| Mutex::new(Some(x))).collect();
    let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            handles.push(scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let item = work[i]
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .take()
                    .expect("slot taken once");
                let r = f(i, item);
                *results[i]
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(r);
            }));
        }
        for handle in handles {
            if let Err(panic) = handle.join() {
                std::panic::resume_unwind(panic);
            }
        }
    });

    results
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .expect("worker filled every slot")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let out = par_map(8, (0u64..1000).collect(), |i, x| {
            assert_eq!(i as u64, x);
            x * 3
        });
        assert_eq!(out, (0u64..1000).map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn matches_sequential_run() {
        let work = |_: usize, x: u64| -> u64 {
            // Uneven per-item cost to exercise the shared cursor.
            (0..(x % 7) * 100).fold(x, |acc, k| acc.wrapping_mul(31).wrapping_add(k))
        };
        let items: Vec<u64> = (0..257).collect();
        assert_eq!(par_map(1, items.clone(), work), par_map(5, items, work));
    }

    #[test]
    fn empty_and_single() {
        assert_eq!(par_map(4, Vec::<u8>::new(), |_, x| x), Vec::<u8>::new());
        assert_eq!(par_map(4, vec![9u8], |_, x| x + 1), vec![10]);
    }

    #[test]
    fn parallelism_is_positive() {
        assert!(available_parallelism() >= 1);
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panic_propagates() {
        par_map(2, vec![0u8, 1, 2, 3], |_, x| {
            if x == 2 {
                panic!("boom");
            }
            x
        });
    }
}
