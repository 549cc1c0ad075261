//! Host time of the simulator thread.
//!
//! A simulated workload runs on one thread. On a shared host the wall
//! time of that thread also counts time it spent waiting for a CPU: other
//! processes on the same machine, and time the hypervisor gave the vCPU
//! to another guest (steal). The thread's on-CPU time,
//! `clock_gettime(CLOCK_THREAD_CPUTIME_ID)`, leaves both out: a Linux
//! guest with paravirtual time accounting subtracts steal from it. Host
//! timings of the simulated workloads therefore use it, and fall back to
//! wall time where the clock cannot be read.
//!
//! A simulated phase is cut into *laps* at fixed points of the
//! simulation, and a calibration probe runs after each lap, so that the
//! phase's host time can also be given in reference seconds.

use crate::calib::Calib;
use std::time::Instant;

#[cfg(target_os = "linux")]
fn thread_cpu_s() -> Option<f64> {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec for the C library
    // (64-bit `time_t` and `long` on the 64-bit Linux targets).
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    (rc == 0).then(|| ts.sec as f64 + ts.nsec as f64 / 1e9)
}

#[cfg(not(target_os = "linux"))]
fn thread_cpu_s() -> Option<f64> {
    None
}

/// A stopwatch on the calling thread's on-CPU time, or on wall time where
/// that is unavailable.
pub struct Stopwatch {
    cpu0: Option<f64>,
    wall0: Instant,
}

impl Stopwatch {
    /// Starts the stopwatch.
    pub fn start() -> Stopwatch {
        Stopwatch {
            cpu0: thread_cpu_s(),
            wall0: Instant::now(),
        }
    }

    /// Host seconds since the start: on-CPU if available, else wall.
    pub fn elapsed(&self) -> f64 {
        match (self.cpu0, thread_cpu_s()) {
            (Some(a), Some(b)) => b - a,
            _ => self.wall(),
        }
    }

    /// Wall seconds since the start.
    pub fn wall(&self) -> f64 {
        self.wall0.elapsed().as_secs_f64()
    }

    /// Which clock [`Stopwatch::elapsed`] reads.
    pub fn clock(&self) -> &'static str {
        if self.cpu0.is_some() {
            "thread on-CPU time"
        } else {
            "wall time"
        }
    }
}

/// Host time of each lap of a simulated phase, each followed by a
/// calibration probe (see [`crate::calib`]) that is not part of the lap,
/// when a calibration kernel is given.
pub struct Laps<'a> {
    watch: Stopwatch,
    last: f64,
    calib: Option<&'a mut Calib>,
    /// Host seconds of each finished lap.
    pub laps: Vec<f64>,
    /// Host seconds of the probe after each lap.
    pub probes: Vec<f64>,
}

impl<'a> Laps<'a> {
    /// Starts the first lap.
    pub fn start(calib: Option<&'a mut Calib>) -> Laps<'a> {
        Laps {
            watch: Stopwatch::start(),
            last: 0.0,
            calib,
            laps: Vec::new(),
            probes: Vec::new(),
        }
    }

    /// Ends the current lap, probes the host's speed, and starts the next
    /// lap.
    pub fn lap(&mut self) {
        let now = self.watch.elapsed();
        self.laps.push(now - self.last);
        self.last = now;
        if let Some(calib) = &mut self.calib {
            self.probes.push(calib.probe());
            self.last = self.watch.elapsed();
        }
    }

    /// The phase's timings.
    pub fn timing(&self) -> Timing {
        let host_s: f64 = self.laps.iter().sum();
        // Without probes the mean is 0 and reference seconds are host
        // seconds.
        let mean_probe = self.probes.iter().sum::<f64>() / self.probes.len().max(1) as f64;
        Timing {
            host_s,
            reference_s: crate::calib::to_reference(host_s, mean_probe),
            wall_s: self.watch.wall(),
        }
    }
}

/// Timings of one simulated phase.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    /// Host seconds of the laps, probes excluded.
    pub host_s: f64,
    /// [`Timing::host_s`] in reference seconds (host seconds when the
    /// phase ran without probes).
    pub reference_s: f64,
    /// Wall seconds of the phase, probes included.
    pub wall_s: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Keeps the thread on a CPU for 5 ms of its own time.
    fn busy() {
        let w = Stopwatch::start();
        while w.elapsed() < 0.005 {}
    }

    #[test]
    fn laps_without_probes_are_successive_intervals() {
        let mut laps = Laps::start(None);
        busy();
        laps.lap();
        busy();
        laps.lap();
        assert!(laps.probes.is_empty());
        let t = laps.timing();
        assert!(laps.laps.iter().all(|&l| l > 0.0));
        assert!(t.host_s <= t.wall_s + 1e-3, "{t:?}");
        assert_eq!(t.reference_s, t.host_s);
    }

    #[test]
    fn laps_exclude_the_probes() {
        let mut calib = Calib::new();
        let mut laps = Laps::start(Some(&mut calib));
        busy();
        laps.lap();
        laps.lap();
        assert_eq!((laps.laps.len(), laps.probes.len()), (2, 2));
        assert!(laps.laps[0] > 0.0 && laps.probes[0] > 0.0);
        let t = laps.timing();
        assert!((t.host_s - laps.laps.iter().sum::<f64>()).abs() < 1e-12);
        assert!(t.host_s + laps.probes.iter().sum::<f64>() <= t.wall_s + 1e-3);
        assert!(t.reference_s > 0.0);
    }
}
