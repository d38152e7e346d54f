//! Deterministic parallel execution of independent experiment cells.
//!
//! Every sweep in this crate is a map over *independent* cells — a
//! (scheme, load, seed) triple, a failure regime at one strength — whose
//! RNG state is derived from the master seed and the cell's own identity,
//! never from execution order. That makes the sweep embarrassingly
//! parallel *and* lets the parallel run promise byte-identical output to
//! the serial one: results are placed by input index, so merge order is
//! canonical no matter which worker finished first.
//!
//! [`parallel_map`] is a barrier: workers are `std::thread::scope`
//! threads — no dependencies involved — pulling cells from one queue, and
//! the scope join collects their results. The mapped closure is `Fn +
//! Sync` and gets nothing but its cell, so state shared across cells is
//! read-only: a closure that draws from a captured RNG does not compile,
//! and a per-worker RNG has nowhere to live. Interior mutability gets
//! past that bound, so workers also take cells in the reverse of the
//! serial order: a cell that draws from an RNG behind a captured `Mutex`
//! then draws something else at `jobs > 1`, and the byte-identity tests
//! see it.

use std::sync::Mutex;

/// Clamps a user-requested worker count to something sane.
fn effective_jobs(jobs: usize, cells: usize) -> usize {
    jobs.max(1).min(cells.max(1))
}

/// Maps `f` over `items` on `jobs` workers, returning results in input
/// order (byte-identical to a serial map). `jobs <= 1` runs inline on the
/// calling thread.
///
/// A cell that needs randomness derives its own stream from its identity
/// inside `f`:
///
/// ```
/// use drt_experiments::par::parallel_map;
/// use rand::Rng;
///
/// let jittered = |jobs| {
///     parallel_map(jobs, (0..8u64).collect(), |i| {
///         let rng = &mut drt_sim::rng::indexed_stream(7, "jitter", i);
///         i + rng.gen_range(0..10u64)
///     })
/// };
/// assert_eq!(jittered(2), jittered(1));
/// ```
///
/// Drawing from one captured `&mut StdRng` instead would make each
/// cell's draws depend on which worker reached the stream first; `f`
/// being `Fn` makes that a compile error (E0596):
///
/// ```compile_fail,E0596
/// use drt_experiments::par::parallel_map;
/// use rand::{rngs::StdRng, Rng, SeedableRng};
///
/// let shared = &mut StdRng::seed_from_u64(7);
/// let jittered = |jobs| {
///     parallel_map(jobs, (0..8u64).collect(), |i| {
///         let rng = &mut *shared;
///         i + rng.gen_range(0..10u64)
///     })
/// };
/// ```
///
/// # Panics
///
/// Propagates panics from `f` (the driving thread re-raises them when it
/// joins the worker).
pub fn parallel_map<T, R>(jobs: usize, items: Vec<T>, f: impl Fn(T) -> R + Sync) -> Vec<R>
where
    T: Send,
    R: Send,
{
    let n = items.len();
    let jobs = effective_jobs(jobs, n);
    if jobs <= 1 {
        return items.into_iter().map(f).collect();
    }

    let queue = Mutex::new(items.into_iter().enumerate());
    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..jobs)
            .map(|_| {
                s.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        // The queue lock is held for the pop only; popping
                        // last-first is deliberate (see the module docs).
                        let next = queue.lock().expect("work queue").next_back();
                        let Some((i, item)) = next else {
                            return done;
                        };
                        done.push((i, f(item)));
                    }
                })
            })
            .collect();
        for worker in workers {
            let done = worker
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            for (i, r) in done {
                slots[i] = Some(r);
            }
        }
    });
    slots
        .into_iter()
        .map(|r| r.expect("every cell ran"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_serial_order_for_any_job_count() {
        let items: Vec<u64> = (0..37).collect();
        let serial = parallel_map(1, items.clone(), |x| x * x);
        for jobs in [2, 3, 8, 64] {
            let par = parallel_map(jobs, items.clone(), |x| x * x);
            assert_eq!(par, serial, "jobs={jobs}");
        }
    }

    #[test]
    fn empty_and_single_item() {
        let none: Vec<u8> = parallel_map(8, Vec::<u8>::new(), |x| x);
        assert!(none.is_empty());
        let one = parallel_map(8, vec![9u8], |x| x);
        assert_eq!(one, vec![9]);
    }

    #[test]
    fn effective_jobs_clamps() {
        assert_eq!(effective_jobs(0, 10), 1);
        assert_eq!(effective_jobs(8, 3), 3);
        assert_eq!(effective_jobs(4, 100), 4);
        assert_eq!(effective_jobs(2, 0), 1);
    }

    #[test]
    fn worker_panic_propagates() {
        let result = std::panic::catch_unwind(|| {
            parallel_map(2, vec![1u32, 2, 3, 4], |x| {
                assert!(x != 3, "boom");
                x
            })
        });
        assert!(result.is_err());
    }
}
