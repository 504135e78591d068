//! The scoped work pool shared by the cluster drain and the bench
//! matrices.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Computes `f(0), …, f(total - 1)` on up to `jobs` scoped threads and
/// returns the results in index order.
///
/// Workers claim indices from a shared counter, but every result lands
/// in its own slot, so the output is the same at any job count. With
/// `jobs <= 1` (or fewer than two items) this is a plain loop on the
/// calling thread that spawns nothing.
///
/// # Panics
///
/// Panics if `f` panics; on the pool, once every worker has stopped.
pub fn map_indexed<T, F>(total: usize, jobs: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = jobs.min(total);
    if workers <= 1 {
        return (0..total).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..total).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= total {
                    break;
                }
                let value = f(i);
                *slots[i]
                    .lock()
                    .expect("slot is never locked across a panic") = Some(value);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("slot is never locked across a panic")
                .expect("every index is claimed exactly once")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_index_order_at_any_job_count() {
        let expected: Vec<usize> = (0..37).map(|i| i * i).collect();
        for jobs in [0, 1, 2, 5, 64] {
            assert_eq!(map_indexed(37, jobs, |i| i * i), expected, "jobs = {jobs}");
        }
        assert!(map_indexed(0, 4, |i| i).is_empty());
    }

    #[test]
    fn one_job_runs_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let ids = map_indexed(3, 1, |_| std::thread::current().id());
        assert!(ids.iter().all(|&id| id == caller));
    }
}
