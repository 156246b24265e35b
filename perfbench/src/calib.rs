//! CPU times at reference speed.
//!
//! The benchmark's machine is a share of a host that takes a varying
//! part of the wall clock away from it (steal time) and whose speed for
//! CPU-bound code swings by up to 1.7x over seconds (a fixed op took
//! 167 ms in one stretch of a run and 280 ms a few seconds later), so
//! raw wall times of the same code on the same seed differ by a quarter
//! from run to run. Every end-to-end time is therefore the process's
//! CPU time, which leaves steal time out, at reference speed: the run
//! times a fixed kernel of its own (sorting, hashing and tree inserts,
//! no code of the repository) at the start and end of every window of
//! about [`WINDOW`], and scales each CPU time measured in the window by
//! [`NOMINAL_MS`] over the mean of those two kernel CPU times. A slow
//! phase of the host slows the kernel and the op alike and cancels out;
//! a slower program does not slow the kernel and shows in full.

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The kernel's CPU time at reference speed: about its median on the
/// 2-vCPU Intel Xeon virtual machine the benchmark was tuned on.
pub const NOMINAL_MS: f64 = 2.0;

/// How long a window runs before the next kernel sample closes it.
pub const WINDOW: Duration = Duration::from_millis(100);

/// Keys the kernel sorts and inserts.
const KERNEL_KEYS: usize = 24_000;

/// The fixed kernel: fill, sort, hash and tree inserts over
/// [`KERNEL_KEYS`] pseudo-random keys. Its result only keeps the work
/// from being optimised away.
fn kernel() -> u64 {
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut keys = Vec::with_capacity(KERNEL_KEYS);
    for _ in 0..KERNEL_KEYS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        keys.push(x);
    }
    keys.sort_unstable();
    let mut hashed: HashMap<u64, usize> = HashMap::new();
    for (i, &k) in keys.iter().enumerate().step_by(2) {
        hashed.insert(k % 10_007, i);
    }
    let mut tree = BTreeMap::new();
    for (i, &k) in keys.iter().enumerate().step_by(3) {
        tree.insert(k >> 44, i);
    }
    hashed.values().map(|&v| v as u64).sum::<u64>() + tree.len() as u64 + keys[KERNEL_KEYS / 2]
}

/// CPU time the process has used so far, in ms: every thread's, so the
/// server thread of `serve-edit` counts too.
#[cfg(target_os = "linux")]
pub fn process_cpu_ms() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut t = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` writes one `timespec` (two 64-bit fields
    // on the 64-bit Linux targets) through a valid pointer.
    unsafe {
        clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut t);
    }
    t.tv_sec as f64 * 1e3 + t.tv_nsec as f64 / 1e6
}

/// Where no process CPU clock is wired up, wall time stands in for it.
#[cfg(not(target_os = "linux"))]
pub fn process_cpu_ms() -> f64 {
    use std::sync::OnceLock;
    static START: OnceLock<Instant> = OnceLock::new();
    START.get_or_init(Instant::now).elapsed().as_secs_f64() * 1e3
}

/// A point in wall and CPU time.
#[derive(Clone, Copy)]
pub struct Stamp {
    wall: Instant,
    cpu_ms: f64,
}

impl Stamp {
    /// Now.
    pub fn now() -> Stamp {
        Stamp {
            wall: Instant::now(),
            cpu_ms: process_cpu_ms(),
        }
    }

    /// Wall and CPU time since `self`.
    pub fn elapsed(&self) -> Cost {
        Cost {
            wall_ms: self.wall.elapsed().as_secs_f64() * 1e3,
            cpu_ms: process_cpu_ms() - self.cpu_ms,
        }
    }
}

/// What a stretch of work took, in ms.
#[derive(Clone, Copy, Default)]
pub struct Cost {
    /// Wall-clock time.
    pub wall_ms: f64,
    /// CPU time of the whole process.
    pub cpu_ms: f64,
}

impl std::ops::AddAssign for Cost {
    fn add_assign(&mut self, other: Cost) {
        self.wall_ms += other.wall_ms;
        self.cpu_ms += other.cpu_ms;
    }
}

/// One timed run of the kernel.
pub fn kernel_cost() -> Cost {
    let t0 = Stamp::now();
    black_box(kernel());
    t0.elapsed()
}

/// `cpu_ms` at reference speed, given kernel CPU times taken just
/// before and just after it was measured.
pub fn scale(cpu_ms: f64, before: Cost, after: Cost) -> f64 {
    cpu_ms * NOMINAL_MS / ((before.cpu_ms + after.cpu_ms) / 2.0)
}

/// Runs `f` between two kernel samples and returns its result with its
/// CPU time in seconds at reference speed.
pub fn time_s<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let before = kernel_cost();
    let t0 = Stamp::now();
    let value = f();
    let cost = t0.elapsed();
    (value, scale(cost.cpu_ms, before, kernel_cost()) / 1e3)
}

/// Op times and busy time of a measured loop, scaled to reference
/// speed window by window.
pub struct Meter {
    last_kernel: Cost,
    window_start: Instant,
    pending: Vec<Cost>,
    pending_busy: Cost,
    /// Op CPU times at reference speed, in ms.
    pub lat_ms: Vec<f64>,
    /// Busy CPU time at reference speed, in s.
    pub busy_s: f64,
    /// Raw op wall times, in ms, for the table.
    pub wall_ms: Vec<f64>,
    /// Raw busy wall time, in s, for the table.
    pub busy_wall_s: f64,
    /// Raw kernel times, for the table.
    pub kernel: Vec<Cost>,
}

impl Default for Meter {
    fn default() -> Self {
        Meter::new()
    }
}

impl Meter {
    /// A meter whose first window starts now. The kernel runs once
    /// untimed first, so its allocations are warm.
    pub fn new() -> Meter {
        black_box(kernel());
        let k = kernel_cost();
        Meter {
            last_kernel: k,
            window_start: Instant::now(),
            pending: Vec::new(),
            pending_busy: Cost::default(),
            lat_ms: Vec::new(),
            busy_s: 0.0,
            wall_ms: Vec::new(),
            busy_wall_s: 0.0,
            kernel: vec![k],
        }
    }

    /// Records one op, which also counts as busy time.
    pub fn op(&mut self, cost: Cost) {
        self.pending.push(cost);
        self.pending_busy += cost;
    }

    /// Records one op without counting it as busy time (the caller adds
    /// the loop's own time with [`Meter::busy`]).
    pub fn latency(&mut self, cost: Cost) {
        self.pending.push(cost);
    }

    /// Adds busy time that is not an op's.
    pub fn busy(&mut self, cost: Cost) {
        self.pending_busy += cost;
    }

    /// Starts a fresh window now, after a pause the meter did not see
    /// (a set-up between two measured segments).
    pub fn open(&mut self) {
        self.last_kernel = kernel_cost();
        self.kernel.push(self.last_kernel);
        self.window_start = Instant::now();
    }

    /// Closes the window if it has run for [`WINDOW`].
    pub fn tick(&mut self) {
        if self.window_start.elapsed() >= WINDOW {
            self.close();
        }
    }

    /// Samples the kernel and scales the window's CPU times by the mean
    /// of the kernel's CPU times at its two ends.
    pub fn close(&mut self) {
        let k = kernel_cost();
        let per_ms = scale(1.0, self.last_kernel, k);
        for c in self.pending.drain(..) {
            self.lat_ms.push(c.cpu_ms * per_ms);
            self.wall_ms.push(c.wall_ms);
        }
        self.busy_s += self.pending_busy.cpu_ms * per_ms / 1e3;
        self.busy_wall_s += self.pending_busy.wall_ms / 1e3;
        self.pending_busy = Cost::default();
        self.kernel.push(k);
        self.last_kernel = k;
        self.window_start = Instant::now();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cpu(cpu_ms: f64) -> Cost {
        Cost {
            wall_ms: 0.0,
            cpu_ms,
        }
    }

    #[test]
    fn scale_divides_out_the_kernels_speed() {
        assert_eq!(scale(10.0, cpu(NOMINAL_MS), cpu(NOMINAL_MS)), 10.0);
        assert_eq!(
            scale(10.0, cpu(2.0 * NOMINAL_MS), cpu(2.0 * NOMINAL_MS)),
            5.0
        );
        assert_eq!(scale(9.0, cpu(NOMINAL_MS), cpu(2.0 * NOMINAL_MS)), 6.0);
    }

    #[test]
    fn meter_scales_every_window_and_keeps_wall_times() {
        let mut meter = Meter::new();
        for i in 1..=3 {
            meter.op(Cost {
                wall_ms: 2.0 * f64::from(i),
                cpu_ms: f64::from(i),
            });
            meter.close();
        }
        assert_eq!(meter.wall_ms, vec![2.0, 4.0, 6.0]);
        assert_eq!(meter.kernel.len(), 4);
        for (i, &v) in meter.lat_ms.iter().enumerate() {
            let want = scale(i as f64 + 1.0, meter.kernel[i], meter.kernel[i + 1]);
            assert!((v - want).abs() < 1e-9);
        }
        assert!((meter.busy_s * 1e3 - meter.lat_ms.iter().sum::<f64>()).abs() < 1e-9);
        assert!((meter.busy_wall_s - 0.012).abs() < 1e-12);
    }

    #[test]
    fn process_cpu_time_advances_with_work() {
        let t0 = Stamp::now();
        black_box(kernel());
        let c = t0.elapsed();
        assert!(c.cpu_ms > 0.0 && c.wall_ms > 0.0);
    }
}
