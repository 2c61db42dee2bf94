//! Host-speed calibration.
//!
//! On a shared or virtualised host, the speed a process gets drifts by
//! tens of percent over seconds to minutes, so raw wall times of two runs
//! of the same code disagree by more than any useful regression bound.
//! The benchmark therefore times a fixed calibration loop right before and
//! right after every batch and reports each batch's wall time as a
//! multiple of its neighbouring calibration time, scaled back to seconds
//! by [`REFERENCE_S`]. The figures read as "seconds on the reference
//! host", and host drift cancels out of them.
//!
//! The loop uses only the standard library, so a change to the simulator
//! can never move it: it exercises the same kinds of work as the
//! simulator's hot path (a binary heap of timed events, a hash map of
//! per-key state, short-lived small allocations).

use std::collections::{BinaryHeap, HashMap};
use std::hint::black_box;
use std::time::Instant;

/// Median time of [`run`] on the reference host: a 2-vCPU Intel Xeon
/// virtual machine, the host this benchmark's figures were defined on.
pub const REFERENCE_S: f64 = 0.033;

/// Runs the calibration loop once, on the calling thread, and returns its
/// wall time in seconds. One thread also calibrates the 2-shard workload:
/// its shards run mostly in turn (barrier-bound), and a two-thread loop,
/// which waits for the slower core, tracked its batch times worse.
pub fn run() -> f64 {
    let t0 = Instant::now();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = || {
        x ^= x >> 30;
        x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x ^= x >> 27;
        x
    };
    let mut heap: BinaryHeap<(u64, u32)> = (0..4096).map(|i| (next() >> 20, i)).collect();
    let mut map: HashMap<u64, u64> = HashMap::new();
    let mut acc = 0u64;
    for i in 0..150_000u64 {
        let (t, k) = heap.pop().expect("the heap never drains");
        heap.push((t + (next() >> 44), k));
        *map.entry(next() & 0xffff).or_insert(0) += i;
        acc = acc.wrapping_add(map.get(&(next() & 0xffff)).copied().unwrap_or(0));
        if i % 16 == 0 {
            let v: Vec<u64> = (0..(next() & 63)).collect();
            acc = acc.wrapping_add(v.len() as u64);
        }
    }
    black_box((acc, heap.len(), map.len()));
    t0.elapsed().as_secs_f64()
}

/// Times `f` between two calibration runs; returns its result and its
/// wall time in reference-host seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let before = run();
    let t0 = Instant::now();
    let out = f();
    let wall = t0.elapsed().as_secs_f64();
    let after = run();
    (out, wall / (0.5 * (before + after)) * REFERENCE_S)
}
