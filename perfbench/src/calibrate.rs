//! A fixed reference kernel that measures how fast the host runs right now.
//!
//! On a shared host the same `run_scenario` call can take 1.8 s or 3.7 s a
//! minute apart, and the slow stretches last from seconds to minutes. The
//! kernel does a fixed amount of work of the same kinds the simulator does
//! (random reads and writes over a table larger than the private caches, an
//! event heap, ordered-map churn with small allocations), using only `std`,
//! so no change to the repository's crates can change its time. `run.py`
//! times it before and after every measured run and rescales the run's wall
//! time by how slow the host was around it.

use std::collections::{BTreeMap, BinaryHeap};
use std::hint::black_box;
use std::time::Instant;

/// Seconds one pass of [`kernel`] took.
pub fn time_kernel() -> f64 {
    let start = Instant::now();
    black_box(kernel());
    start.elapsed().as_secs_f64()
}

fn kernel() -> u64 {
    let mut state: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };

    // 32 MiB of random reads and writes.
    let mut table = vec![0u64; 1 << 22];
    let mask = table.len() - 1;
    let mut acc = 0u64;
    for _ in 0..3_000_000 {
        let i = next() as usize & mask;
        table[i] = table[i].wrapping_add(acc);
        acc = acc.rotate_left(5) ^ table[i.wrapping_mul(7) & mask];
    }

    // An event queue: pop the earliest, push two later ones, bounded size.
    let mut heap = BinaryHeap::new();
    for _ in 0..1_000_000 {
        heap.push(std::cmp::Reverse(next() >> 20));
        if heap.len() > 50_000 {
            if let Some(std::cmp::Reverse(t)) = heap.pop() {
                acc ^= t;
            }
        }
    }

    // Ordered-map churn with a small allocation per entry.
    let mut map = BTreeMap::new();
    for _ in 0..300_000 {
        let key = next() % 200_000;
        map.entry(key).or_insert_with(|| vec![0u8; 24])[0] ^= key as u8;
        map.remove(&(next() % 200_000));
    }
    acc ^ map.len() as u64 ^ heap.len() as u64
}
