//! The workspace's one worker pool: an order-preserving parallel map.
//!
//! Every parallel stage in the workspace — sweep jobs, archive query
//! misses, figure parameter points — runs through [`map_ordered`]. Its
//! determinism argument is written once, here: each item is a pure
//! function of its input, workers share nothing mutable except a job
//! cursor, and results are returned in *input* order. The worker count
//! therefore decides only which thread computes an item and when, never
//! what the caller sees.

use std::sync::atomic::{AtomicUsize, Ordering};

/// The default worker count of every parallel driver: one per available
/// core, or 1 when the core count cannot be read.
#[must_use]
pub fn default_workers() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The number of worker threads [`map_ordered`] uses for `len` items when
/// asked for `workers`: clamped to `[1, len]` (and 1 for no items).
#[must_use]
pub fn pool_size(workers: usize, len: usize) -> usize {
    workers.clamp(1, len.max(1))
}

/// Applies `f` to every item on [`pool_size`]`(workers, items.len())`
/// scoped threads and returns the results in input order.
///
/// Dispatch is one atomic increment per item: idle workers claim the
/// next unclaimed index from a shared cursor and keep their results
/// locally, and the results are scattered back by index after the join.
/// A single worker runs inline on the calling thread.
///
/// # Panics
///
/// Re-raises the panic of any call to `f`, after the other workers have
/// finished.
///
/// # Examples
///
/// ```
/// use enviromic_types::map_ordered;
///
/// let squares = map_ordered(&[1u64, 2, 3, 4], 3, |x| x * x);
/// assert_eq!(squares, vec![1, 4, 9, 16]);
/// ```
pub fn map_ordered<T, R, F>(items: &[T], workers: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let workers = pool_size(workers, items.len());
    if workers == 1 {
        return items.iter().map(f).collect();
    }
    let cursor = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = items.iter().map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else {
                            return done;
                        };
                        done.push((i, f(item)));
                    }
                })
            })
            .collect();
        for handle in handles {
            let done = handle
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            for (i, r) in done {
                slots[i] = Some(r);
            }
        }
    });
    slots
        .into_iter()
        .map(|r| r.expect("every index is claimed exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_serial_map_for_every_pool_and_input_size() {
        for len in [0usize, 1, 37] {
            let items: Vec<u64> = (0..len as u64).map(|i| i * 7 + 3).collect();
            let serial: Vec<u64> = items.iter().map(|x| x * x + 1).collect();
            for workers in [0usize, 1, 2, 3, 64] {
                let pooled = map_ordered(&items, workers, |x| x * x + 1);
                assert_eq!(pooled, serial, "len {len}, workers {workers}");
            }
        }
    }

    #[test]
    fn pool_size_is_clamped_to_item_count() {
        assert_eq!(pool_size(0, 5), 1);
        assert_eq!(pool_size(64, 2), 2);
        assert_eq!(pool_size(3, 0), 1);
        assert_eq!(pool_size(2, 10), 2);
    }

    #[test]
    fn worker_panic_propagates() {
        for workers in [1usize, 3] {
            let caught = std::panic::catch_unwind(|| {
                map_ordered(&[1u32, 2, 3, 4, 5], workers, |&x| {
                    assert!(x != 4, "item {x} failed");
                    x
                })
            });
            let payload = caught.expect_err("the panic reaches the caller");
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .unwrap_or_default();
            assert!(
                msg.contains("item 4 failed"),
                "original payload kept: {msg}"
            );
        }
    }
}
