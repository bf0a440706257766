//! The calibration workload that host times are normalized by.
//!
//! On a shared machine the speed of this process drifts by 15 % and more
//! over minutes as neighbours contend for caches and memory bandwidth.
//! The benchmark times a fixed, allocation- and hash-heavy workload that
//! no change to the repository can alter between segments of a run, and
//! reports host times scaled to the speed at which that workload takes
//! [`NOMINAL_NS`]. A change that makes the simulator faster moves the
//! scaled figure exactly as it moves the raw one.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::Instant;

/// The calibration workload's nominal duration: host times are reported
/// as if it had taken exactly this long.
pub const NOMINAL_NS: f64 = 10e6;

/// Inserts per calibration pass.
const OPS: u64 = 30_000;

/// Runs the calibration workload once and returns its host ns.
pub fn reference_ns() -> u64 {
    let start = Instant::now();
    let mut map: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    let mut tree = BTreeMap::new();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut acc = 0u64;
    for i in 0..black_box(OPS) {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        map.insert(x >> 16, i);
        tree.insert(x >> 44, vec![i as u8; 24]);
        acc = acc.wrapping_add(map.get(&((x >> 16) ^ 1)).copied().unwrap_or(i));
    }
    black_box((acc, map.len(), tree.len()));
    start.elapsed().as_nanos() as u64
}

/// The factor that scales raw host times measured alongside `samples`
/// calibration passes to the nominal speed.
pub fn scale(samples: &[u64]) -> f64 {
    let raw: Vec<f64> = samples.iter().map(|&ns| ns as f64).collect();
    NOMINAL_NS / crate::measure::median(&raw)
}
