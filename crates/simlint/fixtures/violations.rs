//! Seeded violation fixture for simlint's own tests and for CI sanity:
//! `cargo run -p simlint crates/simlint/fixtures` must exit non-zero.
//!
//! This file is NOT compiled into any crate (it lives outside src/); it
//! exists purely as lint input. One violation per rule, plus a bare
//! allow directive.

use std::collections::HashMap; // hash-collection
use std::sync::Mutex; // std-sync
use std::thread; // host-thread
use std::time::Instant; // wall-clock

fn entropy() -> u64 {
    let r = rand::thread_rng(); // external-rng
    r.gen()
}

struct PacketRng {
    state: u64,
}

impl PacketRng {
    // unseeded-rng: constructor of an RNG type with no seed parameter.
    pub fn new() -> Self {
        PacketRng { state: 4 }
    }
}

// bare-allow: directive with no justification after the parenthesis.
// simlint: allow(hash-collection)
fn scratch() -> HashMap<u64, u64> {
    HashMap::new()
}
