//! The workspace's one thread fan-out.
//!
//! [`par_map`] maps a function over a slice on scoped threads and returns
//! the results in input order. It runs the items *inline on the calling
//! thread* when the process has one thread or there are fewer than two
//! items, and on fresh worker threads otherwise — which is why counts from
//! inside a fan-out must be [`shield`](crate::shield)ed.

use std::sync::OnceLock;

/// Maps `f(index, item)` over `items` and returns the results in input
/// order.
///
/// The thread count is `RAYON_NUM_THREADS` when that is a positive integer
/// and [`std::thread::available_parallelism`] otherwise, read once per
/// process. With at most one thread or fewer than two items, every item
/// runs inline on the calling thread; otherwise the items are split into
/// one contiguous chunk per thread on [`std::thread::scope`]. A worker's
/// panic is re-raised on the caller with its own payload, and when several
/// items panic the earliest one's payload wins, as it would inline.
pub fn par_map<T: Sync, U: Send>(items: &[T], f: impl Fn(usize, &T) -> U + Sync) -> Vec<U> {
    static THREADS: OnceLock<usize> = OnceLock::new();
    let threads = *THREADS.get_or_init(|| {
        std::env::var("RAYON_NUM_THREADS")
            .ok()
            .and_then(|s| s.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
    });
    par_map_on(threads, items, &f)
}

/// [`par_map`] at an explicit thread count.
fn par_map_on<T: Sync, U: Send>(
    threads: usize,
    items: &[T],
    f: &(impl Fn(usize, &T) -> U + Sync),
) -> Vec<U> {
    if threads <= 1 || items.len() < 2 {
        return items.iter().enumerate().map(|(i, x)| f(i, x)).collect();
    }
    let chunk = items.len().div_ceil(threads);
    std::thread::scope(|scope| {
        let workers: Vec<_> = items
            .chunks(chunk)
            .enumerate()
            .map(|(c, part)| {
                scope.spawn(move || {
                    let start = c * chunk;
                    part.iter()
                        .enumerate()
                        .map(|(k, x)| f(start + k, x))
                        .collect::<Vec<U>>()
                })
            })
            .collect();
        let mut out = Vec::with_capacity(items.len());
        for worker in workers {
            match worker.join() {
                Ok(part) => out.extend(part),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const THREADS: [usize; 3] = [1, 2, 7];

    #[test]
    fn results_keep_input_order_and_indices() {
        for threads in THREADS {
            for len in [0usize, 1, 2, 1000] {
                let items: Vec<usize> = (0..len).map(|x| x * 3).collect();
                let out = par_map_on(threads, &items, &|i, &x| (i, x + 1));
                let want: Vec<(usize, usize)> = (0..len).map(|i| (i, i * 3 + 1)).collect();
                assert_eq!(out, want, "{len} items at {threads} threads");
            }
        }
    }

    /// The panic message `par_map_on` re-raises when items 5 and 9 panic.
    fn panic_message(threads: usize, owned: bool) -> String {
        let items: Vec<usize> = (0..12).collect();
        let payload = std::panic::catch_unwind(|| {
            par_map_on(threads, &items, &|i, _| {
                if i == 5 || i == 9 {
                    if owned {
                        std::panic::panic_any(format!("owned boom at {i}"));
                    }
                    std::panic::panic_any(if i == 5 { "boom at 5" } else { "boom at 9" });
                }
                i
            })
        })
        .err();
        let Some(payload) = payload else {
            return "no panic".to_string();
        };
        match payload.downcast::<&str>() {
            Ok(s) => (*s).to_string(),
            Err(payload) => payload
                .downcast::<String>()
                .map_or_else(|_| "non-string payload".to_string(), |s| *s),
        }
    }

    #[test]
    fn a_worker_panic_keeps_its_own_message_at_every_thread_count() {
        for threads in THREADS {
            assert_eq!(panic_message(threads, false), "boom at 5", "{threads}");
            assert_eq!(panic_message(threads, true), "owned boom at 5", "{threads}");
        }
    }
}
