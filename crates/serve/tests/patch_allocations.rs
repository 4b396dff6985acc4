//! Allocation guard for the live refresh's index patch.
//!
//! A streamed refresh moves a few dozen rows of a large index. The link
//! lists live in two flat tables, so copying the graph for the patch is a
//! couple of `memcpy`s and validating it a linear scan: the allocations a
//! patch makes follow the rows it moves, not the rows it holds (a `Vec`
//! per list would cost more than two allocations per row held to copy).
//! This binary counts every allocation in the process (it holds this one
//! test, so nothing else runs beside it); it measures no time.
//!
//! Every thread `par` starts brings its own scratch buffers, about a
//! hundred allocations a patch, so the test confines itself to two CPUs:
//! the count then reads the same on a laptop and on a 64-core host.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use v2v_base::rng::Rng;
use v2v_serve::{HnswConfig, HnswIndex, Metric};

struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Keeps the calling thread, and the threads it starts, on the first two
/// CPUs it may use (`par::threads()` then reads 2).
#[cfg(target_os = "linux")]
fn use_two_cpus() {
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; 16];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: both calls read or write at most `size` bytes of `mask`;
    // pid 0 is the calling thread.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return;
    }
    let mut keep = 2;
    for word in &mut mask {
        for bit in 0..64 {
            if *word & (1 << bit) != 0 {
                if keep > 0 {
                    keep -= 1;
                } else {
                    *word &= !(1 << bit);
                }
            }
        }
    }
    // SAFETY: as above.
    unsafe { sched_setaffinity(0, size, mask.as_ptr()) };
}

#[cfg(not(target_os = "linux"))]
fn use_two_cpus() {}

#[test]
fn patching_40_rows_allocates_by_the_rows_moved_not_the_rows_held() {
    use_two_cpus();
    let (n, dims, clusters) = (6000, 8, 24);
    let mut rng = Rng::seed_from_u64(0xA110C);
    let centers: Vec<f32> = (0..clusters * dims)
        .map(|_| rng.gen_range(-1.0f32..1.0))
        .collect();
    let data: Vec<f32> = (0..n * dims)
        .map(|i| centers[(i / dims) % clusters * dims + i % dims] + rng.gen_range(-0.15f32..0.15))
        .collect();
    let config = HnswConfig {
        brute_force_threshold: 0,
        metric: Metric::Cosine,
        ..Default::default()
    };
    let base = HnswIndex::build(dims, data.clone(), config);
    assert!(base.is_graph());
    // Fine-tuning nudges rows: 40 moved rows, spread over the graph.
    let updates: Vec<(usize, Vec<f32>)> = (0..40)
        .map(|i| {
            let id = i * 149 % n;
            let row = data[id * dims..(id + 1) * dims]
                .iter()
                .map(|x| x + rng.gen_range(-0.05f32..0.05))
                .collect();
            (id, row)
        })
        .collect();

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let patched = base.patched(&updates, &[]);
    patched.validate().unwrap();
    let made = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert!(
        made < n / 10,
        "patching 40 of {n} rows made {made} allocations"
    );
}
