//! The parallel sweep engine behind the experiment binaries.
//!
//! Every figure/table experiment is a map over a parameter grid: enumerate
//! the grid points, evaluate an independent function at each, emit the
//! results in grid order. [`par_map`] runs that map over a scoped thread
//! pool — workers pull indices from a shared atomic cursor, so load
//! balances even when grid points differ wildly in cost (a chain solve at
//! `p = 0` is trivial; at `p = 0.5` with ten disturbing readers it is
//! not) — and returns results **in input order**, so CSV output is
//! byte-identical to a serial run.
//!
//! The pool has one worker per [`std::thread::available_parallelism`];
//! on one CPU (e.g. under `taskset -c 0`) that is the serial path, no
//! thread spawns. Each binary ends with a one-line summary:
//!
//! ```text
//! sweep[exp-fig6]: 1764 points in 1.35 s (1308 points/s, 2 threads)
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Sweep worker count: available parallelism, else 1.
fn worker_count() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Map `f` over `items` on the sweep thread pool, returning results in
/// input order. `f` receives `(index, item)`; it must be deterministic
/// for the serial/parallel byte-identity guarantee to hold.
///
/// Panics in `f` propagate (the pool is scoped, so no work is leaked).
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    par_map_with(items, f, worker_count())
}

/// [`par_map`] with an explicit worker count (the engine core; also the
/// hook the determinism tests use to pin pool sizes).
pub fn par_map_with<T, R, F>(items: &[T], f: F, workers: usize) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let workers = workers.min(items.len().max(1));
    if workers <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let next = AtomicUsize::new(0);
    let mut indexed: Vec<(usize, R)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            break;
                        }
                        out.push((i, f(i, &items[i])));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("sweep worker panicked"))
            .collect()
    });
    indexed.sort_by_key(|(i, _)| *i);
    indexed.into_iter().map(|(_, r)| r).collect()
}

/// Cartesian product of two axes as a flat work list, row-major
/// (`a` outer, `b` inner) — the grid order every experiment CSV uses.
pub fn grid2<A: Copy, B: Copy>(a: &[A], b: &[B]) -> Vec<(A, B)> {
    a.iter()
        .flat_map(|&x| b.iter().map(move |&y| (x, y)))
        .collect()
}

/// Wall-clock timer for one experiment's sweeps; prints the standard
/// one-line summary on [`finish`](SweepTimer::finish).
pub struct SweepTimer {
    label: String,
    start: Instant,
    points: usize,
}

impl SweepTimer {
    /// Start timing the experiment `label` (by convention the binary
    /// name, e.g. `exp-fig5`).
    pub fn begin(label: &str) -> SweepTimer {
        SweepTimer {
            label: label.to_string(),
            start: Instant::now(),
            points: 0,
        }
    }

    /// Record `n` evaluated grid points (accumulates across sweeps).
    pub fn add_points(&mut self, n: usize) {
        self.points += n;
    }

    /// Print the one-line timing summary.
    pub fn finish(self) {
        let secs = self.start.elapsed().as_secs_f64();
        let rate = if secs > 0.0 {
            self.points as f64 / secs
        } else {
            f64::INFINITY
        };
        println!(
            "sweep[{}]: {} points in {:.2} s ({:.0} points/s, {} threads)",
            self.label,
            self.points,
            secs,
            rate,
            worker_count()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_input_order() {
        let items: Vec<usize> = (0..500).collect();
        let out = par_map(&items, |i, &x| {
            assert_eq!(i, x);
            x * x
        });
        let serial: Vec<usize> = items.iter().map(|&x| x * x).collect();
        assert_eq!(out, serial);
    }

    #[test]
    fn par_map_handles_empty_and_single() {
        let empty: Vec<u32> = vec![];
        assert!(par_map(&empty, |_, &x| x).is_empty());
        assert_eq!(par_map(&[7u32], |_, &x| x + 1), vec![8]);
    }

    #[test]
    fn grid2_is_row_major() {
        let g = grid2(&[1, 2], &['a', 'b', 'c']);
        assert_eq!(
            g,
            vec![(1, 'a'), (1, 'b'), (1, 'c'), (2, 'a'), (2, 'b'), (2, 'c')]
        );
    }
}
