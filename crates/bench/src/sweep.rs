//! Parallel parameter sweeps.
//!
//! Experiments are embarrassingly parallel over `(parameter, seed)` pairs;
//! this module fans the jobs out over scoped threads with a shared work
//! index (simple self-balancing work stealing), preserving input order in
//! the output.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Apply `f` to every item on `threads` worker threads, returning results
/// in input order. `f` must be `Sync` (it is shared, not cloned).
pub fn parallel_map<T, R, F>(items: Vec<T>, threads: usize, f: F) -> Vec<R>
where
    T: Send + Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let threads = threads.clamp(1, n);
    if threads == 1 {
        return items.iter().map(&f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    // A worker's panic propagates when the scope ends.
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let k = next.fetch_add(1, Ordering::Relaxed);
                if k >= n {
                    break;
                }
                let r = f(&items[k]);
                *slots[k].lock().expect("result slot poisoned") = Some(r);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| m.into_inner().expect("slot poisoned").expect("slot filled"))
        .collect()
}

/// Default worker count: the machine's parallelism, capped to leave the
/// system responsive.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(4)
        .min(16)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        let items: Vec<u64> = (0..100).collect();
        let out = parallel_map(items.clone(), 8, |&x| x * 2);
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn single_thread_path() {
        let out = parallel_map(vec![1, 2, 3], 1, |&x| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn empty_input() {
        let out: Vec<i32> = parallel_map(Vec::<i32>::new(), 4, |&x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn uneven_work_is_balanced() {
        // Heavier items early; order must still match.
        let items: Vec<u64> = (0..40).rev().collect();
        let out = parallel_map(items.clone(), 4, |&x| {
            let mut acc = 0u64;
            for i in 0..(x * 1000) {
                acc = acc.wrapping_add(i);
            }
            (x, acc).0
        });
        assert_eq!(out, items);
    }

    #[test]
    fn threads_capped_by_items() {
        let out = parallel_map(vec![7], 64, |&x| x);
        assert_eq!(out, vec![7]);
    }
}
