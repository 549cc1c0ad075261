//! A fixed reference computation that measures the host's current speed.
//!
//! On a shared host the speed of a core moves by tens of percent over
//! seconds to minutes (busy neighbours on a shared core, cache or memory
//! bus). A timing taken in one minute is then not comparable with one
//! taken in the next. The benchmark therefore runs a short probe of this
//! kernel right after every lap of a simulated phase and reports host
//! time in *reference seconds*: the lap's time divided by the probes'
//! mean time and multiplied by [`REFERENCE_PROBE_S`]. When the host slows
//! down, lap and probe slow down together and the ratio stays.
//!
//! The kernel is the benchmark's own code and never changes with the
//! program. It does the kinds of work the simulator does: a binary-heap
//! event queue, a hash map and small allocations, and dependent loads.
//! Its working set (about 1.5 MB) is small, and each probe first runs an
//! untimed warm-up, so that what the lap before it left in the caches
//! does not change the probe's time: the probe sees the host, not the
//! program.

use crate::cpu::Stopwatch;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

/// Words in the kernel's table (1 MB).
const TABLE: usize = 1 << 17;
/// Keys of the kernel's hash map.
const KEYS: u64 = 1 << 12;
/// Untimed steps that warm the working set before each probe.
const WARM_STEPS: u64 = 3000;
/// Timed steps of one probe: about 1.3 ms on a 2-vCPU shared x86-64 VM.
const PROBE_STEPS: u64 = 6000;
/// Nominal time of one probe: the unit a reference second is made of. It
/// is a fixed constant (a round figure near a probe's time on that VM),
/// so a reference second means the same on every run.
pub const REFERENCE_PROBE_S: f64 = 1.5e-3;

fn mix(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    x ^ (x >> 33)
}

/// The kernel's state, kept across probes so that every probe does the
/// same kind of work on the same working set.
pub struct Calib {
    table: Vec<u64>,
    map: HashMap<u64, Vec<u64>>,
    heap: BinaryHeap<Reverse<(u64, u64)>>,
    at: u64,
    step: u64,
}

impl Calib {
    /// Allocates and fills the working set.
    pub fn new() -> Calib {
        Calib {
            table: (0..TABLE as u64).map(mix).collect(),
            map: (0..KEYS).map(|k| (k, vec![k])).collect(),
            heap: (0..4096u64)
                .map(|i| Reverse((mix(i ^ 0x5a5a), i)))
                .collect(),
            at: 1,
            step: 0,
        }
    }

    /// Runs one probe and returns the host seconds of its timed part.
    pub fn probe(&mut self) -> f64 {
        self.run(WARM_STEPS);
        let watch = Stopwatch::start();
        self.run(PROBE_STEPS);
        watch.elapsed()
    }

    fn run(&mut self, steps: u64) {
        for _ in 0..steps {
            self.step += 1;
            let i = (self.at as usize) & (TABLE - 1);
            let v = self.table[i];
            self.table[i] = mix(v ^ self.step);
            self.at = v;
            if let Some(Reverse((t, j))) = self.heap.pop() {
                self.heap.push(Reverse((t.wrapping_add(v >> 40), j ^ v)));
            }
            let list = self.map.entry(v % KEYS).or_default();
            if list.len() >= 4 {
                *list = vec![v];
            } else {
                list.push(v);
            }
        }
        std::hint::black_box(self.at);
    }
}

/// Host seconds in reference seconds, given the mean time of the probes
/// taken alongside them.
pub fn to_reference(host_s: f64, mean_probe_s: f64) -> f64 {
    if mean_probe_s > 0.0 {
        host_s * REFERENCE_PROBE_S / mean_probe_s
    } else {
        host_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_seconds_scale_with_the_probe() {
        // A host twice as slow as the reference: both the work and the
        // probe take twice as long, and the reference time is unchanged.
        let work_at_reference = 0.9;
        let slow = to_reference(2.0 * work_at_reference, 2.0 * REFERENCE_PROBE_S);
        assert!((slow - work_at_reference).abs() < 1e-12);
        assert_eq!(to_reference(1.0, 0.0), 1.0);
    }

    #[test]
    fn probes_take_time_and_repeat_the_same_work() {
        let mut c = Calib::new();
        let a = c.probe();
        let b = c.probe();
        assert!(a > 0.0 && b > 0.0);
        assert_eq!(c.step, 2 * (WARM_STEPS + PROBE_STEPS));
    }
}
