//! The program's one data-parallel primitive: ordered maps and ordered
//! block results over `std::thread::scope`.
//!
//! Both forms return what a sequential loop would, for every thread
//! count. [`map`] puts per-item results back in input order. [`blocks`]
//! is for reductions: it cuts `0..n` at boundaries that depend on `n`
//! alone and returns one result per block, in block order, for the caller
//! to combine serially — so a float sum associates the same way on one
//! core and on sixty-four, and PCA, k-means and logistic outputs are a
//! function of their inputs, not of the host.
//!
//! There is no pool, no thread-local and no global: the thread count is
//! an argument (`*_on`) or [`threads`]. Long-lived workers that own state
//! across calls (the Hogwild trainer, the store's prefetch thread, the
//! server's request threads) are not maps and do not go through here.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Inputs shorter than this run on the calling thread.
pub const MIN_ITEMS: usize = 32;

/// [`blocks`] cuts `0..n` into at most this many blocks, which bounds the
/// accumulators a reduction holds at once.
const MAX_BLOCKS: usize = 64;

/// The default thread count: the CPUs this process may run on.
pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `(0..n).map(f).collect()` on [`threads`] threads.
pub fn map<R: Send>(n: usize, f: impl Fn(usize) -> R + Sync) -> Vec<R> {
    map_on(threads(), n, f)
}

/// [`map`] on a given number of threads; the result is the same for every
/// count.
pub fn map_on<R: Send>(threads: usize, n: usize, f: impl Fn(usize) -> R + Sync) -> Vec<R> {
    map_with_on(threads, n, || (), |_, i| f(i))
}

/// [`map_on`] where every thread that runs items makes one `S` with
/// `init` and lends it to each item it runs: scratch buffers that an
/// item would otherwise allocate afresh. An item must leave nothing in
/// `S` that changes what a later item returns.
pub fn map_with_on<S, R: Send>(
    threads: usize,
    n: usize,
    init: impl Fn() -> S + Sync,
    f: impl Fn(&mut S, usize) -> R + Sync,
) -> Vec<R> {
    if threads < 2 || n < MIN_ITEMS {
        let mut state = init();
        return (0..n).map(|i| f(&mut state, i)).collect();
    }
    // Items cost what they cost (a beam search, a walk that dead-ends), so
    // equal shares would not be equal work: many small blocks per thread.
    let block = (n / (threads * 8)).max(1);
    let parts = run(threads, n, block, init, |state, range| {
        range.map(|i| f(state, i)).collect::<Vec<R>>()
    });
    parts.into_iter().flatten().collect()
}

/// Cuts `0..n` into consecutive blocks, runs `f` on each on [`threads`]
/// threads and returns the results in block order. Empty for `n == 0`.
pub fn blocks<R: Send>(n: usize, f: impl Fn(Range<usize>) -> R + Sync) -> Vec<R> {
    blocks_on(threads(), n, f)
}

/// [`blocks`] on a given number of threads; the blocks, and so the
/// results, are the same for every count.
pub fn blocks_on<R: Send>(
    threads: usize,
    n: usize,
    f: impl Fn(Range<usize>) -> R + Sync,
) -> Vec<R> {
    let block = n.div_ceil(MAX_BLOCKS).max(1);
    if threads < 2 || n < MIN_ITEMS {
        return (0..n).step_by(block).map(|lo| f(lo..(lo + block).min(n))).collect();
    }
    run(threads, n, block, || (), |_, range| f(range))
}

/// Runs `f` over `0..n` in blocks of `block`; results in block order.
/// Workers claim blocks off a shared counter (`Relaxed`: it publishes
/// nothing but block numbers), so the result never depends on scheduling.
/// Each worker makes its own state with `init` and hands it to every
/// block it claims.
fn run<S, R: Send>(
    threads: usize,
    n: usize,
    block: usize,
    init: impl Fn() -> S + Sync,
    f: impl Fn(&mut S, Range<usize>) -> R + Sync,
) -> Vec<R> {
    let next = AtomicUsize::new(0);
    let mut done: Vec<(usize, R)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads.min(n.div_ceil(block)))
            .map(|_| {
                scope.spawn(|| {
                    let mut state = init();
                    let mut mine = Vec::new();
                    loop {
                        let lo = next.fetch_add(block, Ordering::Relaxed);
                        if lo >= n {
                            return mine;
                        }
                        mine.push((lo, f(&mut state, lo..(lo + block).min(n))));
                    }
                })
            })
            .collect();
        workers.into_iter().flat_map(|w| w.join().expect("par worker panicked")).collect()
    });
    done.sort_unstable_by_key(|&(lo, _)| lo);
    done.into_iter().map(|(_, out)| out).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sizes on both sides of the inline threshold, off and on a block
    /// boundary, and empty.
    const SIZES: [usize; 6] = [0, 5, 31, 64, 1000, 4099];

    #[test]
    fn map_keeps_input_order() {
        for n in SIZES {
            let want: Vec<usize> = (0..n).map(|i| i * 3).collect();
            for threads in [1, 2, 5, 64] {
                assert_eq!(map_on(threads, n, |i| i * 3), want, "n {n}, {threads} threads");
            }
            assert_eq!(map(n, |i| i * 3), want);
        }
    }

    /// Each thread's state serves every item that thread runs; the items
    /// come back in input order whatever the count.
    #[test]
    fn map_with_lends_one_state_per_thread() {
        let inits = AtomicUsize::new(0);
        for n in SIZES {
            let want: Vec<usize> = (0..n).map(|i| i * 3).collect();
            for threads in [1, 2, 5] {
                inits.store(0, Ordering::Relaxed);
                let got = map_with_on(
                    threads,
                    n,
                    || {
                        inits.fetch_add(1, Ordering::Relaxed);
                        Vec::<usize>::new()
                    },
                    |seen, i| {
                        seen.push(i);
                        i * 3
                    },
                );
                assert_eq!(got, want, "n {n}, {threads} threads");
                let made = inits.load(Ordering::Relaxed);
                assert!(made <= threads.max(1), "n {n}, {threads} threads: {made} states");
            }
        }
    }

    #[test]
    fn blocks_cover_the_range_in_order_whatever_the_thread_count() {
        for n in SIZES {
            let one = blocks_on(1, n, |r| r);
            let covered: Vec<usize> = one.iter().flat_map(|r| r.clone()).collect();
            assert_eq!(covered, (0..n).collect::<Vec<_>>());
            assert!(one.len() <= MAX_BLOCKS);
            for threads in [2, 5, 64] {
                assert_eq!(blocks_on(threads, n, |r| r), one, "n {n}, {threads} threads");
            }
            assert_eq!(blocks(n, |r| r), one);
        }
    }

    #[test]
    fn a_float_sum_over_blocks_has_the_same_bits_on_every_thread_count() {
        // Terms whose sum depends on how it associates: a plain running
        // sum of the same values differs from the blocked one.
        let term = |i: usize| if i.is_multiple_of(3) { -1e6 } else { 1e-3 } / (1.0 + i as f64);
        for n in SIZES {
            let sum = |threads| -> f64 {
                blocks_on(threads, n, |r| r.map(term).sum::<f64>()).into_iter().sum()
            };
            let one = sum(1);
            for threads in [2, 5, 64] {
                assert_eq!(sum(threads).to_bits(), one.to_bits(), "n {n}, {threads} threads");
            }
        }
        let blocked: f64 = blocks_on(1, 4099, |r| r.map(term).sum::<f64>()).into_iter().sum();
        assert_ne!(blocked.to_bits(), (0..4099).map(term).sum::<f64>().to_bits());
    }
}
