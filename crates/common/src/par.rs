//! The workspace's one parallel primitive: an ordered map over a slice on
//! scoped workers that claim items from an atomic counter.
//!
//! The experiment engine maps simulation cells and fold jobs through it,
//! and the fleet maps each routed window's shards through it. Results come
//! back in item order whatever the worker count, so a caller that folds
//! them in order is byte-identical at any `--threads`.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

thread_local! {
    /// Workers of the [`map`] this thread is running a job for; 1 on any
    /// thread that is not a map worker.
    static MAP_WORKERS: Cell<usize> = const { Cell::new(1) };
}

/// How many map workers, this thread included, are busy alongside the
/// current job: 1 outside [`map`]. The cycle model's trace pipeline reads
/// it to leave helper threads out when the workers already fill every core.
pub fn map_workers() -> usize {
    MAP_WORKERS.with(Cell::get)
}

/// Cores the process may run threads on. Read once: it is the affinity
/// mask (and cgroup quota) at first use.
pub fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Workers a [`map`] of `items` items runs on when `threads` are asked
/// for: at least 1, and never more than the items or the cores, so no
/// thread count a caller passes can ask the OS for more threads than
/// there is work or hardware for.
pub fn workers(threads: usize, items: usize) -> usize {
    threads.min(items).min(cores()).max(1)
}

/// Sets this thread's [`map_workers`] for one map and restores it after,
/// also when a job panics.
struct WorkerScope(usize);

impl WorkerScope {
    fn enter(workers: usize) -> WorkerScope {
        WorkerScope(MAP_WORKERS.with(|w| w.replace(workers)))
    }
}

impl Drop for WorkerScope {
    fn drop(&mut self) {
        MAP_WORKERS.with(|w| w.set(self.0));
    }
}

/// Applies `job` to every item on [`workers`]`(threads, items.len())`
/// workers and returns the results in item order.
///
/// Each worker claims the next unclaimed item index from an atomic
/// counter, so uneven job costs balance across workers; each result is
/// placed by its index, so the output is independent of which worker ran
/// what. The calling thread is one of the workers; with one worker every
/// job runs inline on it and no thread is started.
///
/// `job` must be a pure function of its item: callers' determinism rests
/// on it. Fallible jobs return `Result`s; collecting them yields the first
/// error in item order, the one a serial loop would have stopped at.
pub fn map<T, R, F>(threads: usize, items: &[T], job: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let workers = workers(threads, items.len());
    if workers == 1 {
        return items.iter().map(job).collect();
    }
    let next = AtomicUsize::new(0);
    let claim = || {
        let _scope = WorkerScope::enter(workers);
        let mut out = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(i) else { break };
            out.push((i, job(item)));
        }
        out
    };
    let mut results: Vec<(usize, R)> = std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..workers).map(|_| scope.spawn(claim)).collect();
        let mut results = claim();
        for helper in helpers {
            let claimed = helper
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            results.extend(claimed);
        }
        results
    });
    results.sort_unstable_by_key(|&(i, _)| i);
    results.into_iter().map(|(_, result)| result).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    /// A job whose cost varies with the item: later items often finish
    /// before earlier ones.
    fn uneven(i: &u64) -> u64 {
        std::thread::sleep(std::time::Duration::from_micros((i * 7 % 5) * 200));
        i * i
    }

    #[test]
    fn map_returns_results_in_item_order() {
        let items: Vec<u64> = (0..23).collect();
        let expected: Vec<u64> = items.iter().map(|i| i * i).collect();
        for threads in [1, 2, 3, 8] {
            assert_eq!(map(threads, &items, uneven), expected, "threads={threads}");
        }
    }

    #[test]
    fn map_with_more_workers_than_items_or_none() {
        assert_eq!(map(8, &[3u64, 1, 2], uneven), vec![9, 1, 4]);
        assert_eq!(map(8, &[] as &[u64], uneven), Vec::<u64>::new());
    }

    #[test]
    fn single_thread_map_runs_inline() {
        let caller = std::thread::current().id();
        let ran_on = map(1, &[0u8; 5], |_| std::thread::current().id());
        assert_eq!(ran_on, vec![caller; 5]);
    }

    #[test]
    fn map_errors_resolve_to_the_first_in_item_order() {
        let items: Vec<u64> = (0..8).collect();
        for threads in [1, 2, 3, 8] {
            // With workers to spare, item 2 fails only after item 5 has.
            let parallel = workers(threads, items.len()) > 1;
            let five_failed = AtomicBool::new(false);
            let job = |&i: &u64| -> Result<u64, String> {
                match i {
                    2 => {
                        while parallel && !five_failed.load(Ordering::SeqCst) {
                            std::thread::yield_now();
                        }
                        Err("item 2".to_string())
                    }
                    5 => {
                        five_failed.store(true, Ordering::SeqCst);
                        Err("item 5".to_string())
                    }
                    _ => Ok(i),
                }
            };
            let collected: Result<Vec<u64>, String> =
                map(threads, &items, job).into_iter().collect();
            assert_eq!(collected, Err("item 2".to_string()), "threads={threads}");
        }
    }

    #[test]
    fn workers_are_capped_by_items_and_cores() {
        // Pure arithmetic: asking for any number of threads starts none.
        assert_eq!(workers(usize::MAX, usize::MAX), cores());
        assert_eq!(workers(usize::MAX, 3), cores().min(3));
        assert_eq!(workers(usize::MAX, 0), 1);
        assert_eq!(workers(0, 5), 1);
        assert_eq!(workers(1, usize::MAX), 1);
    }

    #[test]
    fn map_workers_is_set_inside_a_map_and_restored_after() {
        assert_eq!(map_workers(), 1);
        let threads = cores().min(4);
        let seen = map(threads, &[(); 16], |_| map_workers());
        assert_eq!(seen, vec![workers(threads, 16); 16]);
        assert_eq!(map_workers(), 1, "the calling thread's count is restored");
    }
}
