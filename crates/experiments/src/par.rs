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
//! the scope join collects their results. Each worker gets a context
//! built once by a caller-supplied factory (the hoisting point for
//! per-worker scheme instances).

use std::sync::Mutex;

/// Clamps a user-requested worker count to something sane.
fn effective_jobs(jobs: usize, cells: usize) -> usize {
    jobs.max(1).min(cells.max(1))
}

/// Maps `f` over `items` on `jobs` workers, returning results in input
/// order (byte-identical to a serial map). `ctx` builds one per-worker
/// context, constructed once per worker and reused across all cells that
/// worker pulls — hoist per-worker state (scheme instances, scratch
/// buffers) there instead of rebuilding it per cell.
///
/// `jobs <= 1` runs inline on the calling thread with a single context.
///
/// # Panics
///
/// Propagates panics from `f` (the driving thread re-raises them when it
/// joins the worker).
pub fn parallel_map<T, R, C>(
    jobs: usize,
    items: Vec<T>,
    ctx: impl Fn() -> C + Sync,
    f: impl Fn(&mut C, T) -> R + Sync,
) -> Vec<R>
where
    T: Send,
    R: Send,
{
    let n = items.len();
    let jobs = effective_jobs(jobs, n);
    if jobs <= 1 {
        let mut c = ctx();
        return items.into_iter().map(|item| f(&mut c, item)).collect();
    }

    let queue = Mutex::new(items.into_iter().enumerate());
    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..jobs)
            .map(|_| {
                s.spawn(|| {
                    let mut c = ctx();
                    let mut done = Vec::new();
                    loop {
                        // The queue lock is held for the pop only.
                        let next = queue.lock().expect("work queue").next();
                        let Some((i, item)) = next else {
                            return done;
                        };
                        done.push((i, f(&mut c, item)));
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
        let serial = parallel_map(1, items.clone(), || (), |_, x| x * x);
        for jobs in [2, 3, 8, 64] {
            let par = parallel_map(jobs, items.clone(), || (), |_, x| x * x);
            assert_eq!(par, serial, "jobs={jobs}");
        }
    }

    #[test]
    fn context_is_per_worker_and_reused() {
        // Each worker's context counts the cells it processed; the total
        // must equal the number of items regardless of distribution.
        let totals = Mutex::new(0usize);
        struct Ctx<'a> {
            local: usize,
            totals: &'a Mutex<usize>,
        }
        impl Drop for Ctx<'_> {
            fn drop(&mut self) {
                *self.totals.lock().expect("totals") += self.local;
            }
        }
        let out = parallel_map(
            3,
            (0..50u32).collect(),
            || Ctx {
                local: 0,
                totals: &totals,
            },
            |c, x| {
                c.local += 1;
                x
            },
        );
        assert_eq!(out.len(), 50);
        assert_eq!(*totals.lock().expect("totals"), 50);
    }

    #[test]
    fn empty_and_single_item() {
        let none: Vec<u8> = parallel_map(8, Vec::<u8>::new(), || (), |_, x| x);
        assert!(none.is_empty());
        let one = parallel_map(8, vec![9u8], || (), |_, x| x);
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
            parallel_map(
                2,
                vec![1u32, 2, 3, 4],
                || (),
                |_, x| {
                    assert!(x != 3, "boom");
                    x
                },
            )
        });
        assert!(result.is_err());
    }
}
