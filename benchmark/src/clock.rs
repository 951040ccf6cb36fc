//! CPU time of the benchmark process, the clock the end-to-end timings use.
//!
//! Untraced runs execute on the main thread, or for `observed_shard` on the
//! one worker thread `Shard::run` hands its cells to, so the process's CPU
//! time over a run is the time the program actually ran. Unlike wall time
//! it leaves out the time the process waited for a core: on a shared
//! virtual machine the kernel accounts the time the hypervisor gives other
//! guests as steal time, not as any process's run time.

#![allow(unsafe_code)]

use std::os::raw::{c_int, c_long};
use std::time::Duration;

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

/// `CLOCK_PROCESS_CPUTIME_ID` from `<time.h>`.
const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;

extern "C" {
    fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
}

/// CPU time the process's threads have used so far.
///
/// # Panics
///
/// Panics if the kernel refuses the clock, which Linux never does for the
/// calling process's own clock.
#[must_use]
pub fn process_cpu() -> Duration {
    let mut t = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `t` is a valid, writable `timespec` for the duration of the
    // call, and the C library's `clock_gettime` writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut t) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    let secs = u64::try_from(t.tv_sec).expect("non-negative seconds");
    let nanos = u32::try_from(t.tv_nsec).expect("nanoseconds below 1e9");
    Duration::new(secs, nanos)
}

/// Iterations of the speed probe's loop (~4.6 ms on the reference host).
const PROBE_ITERATIONS: u64 = 150_000;

/// The speed probe's time on the reference host, s: the median of 5,868
/// probes taken around workload runs over twelve minutes on a shared
/// two-vCPU Xeon at 2.1 GHz. Timings scaled by it read in seconds at that
/// host's typical speed.
pub const PROBE_REFERENCE_S: f64 = 0.004_62;

/// CPU time of one pass of a fixed loop, s: the benchmark's reading of the
/// host's momentary speed. The host's speed swings by up to 1.7× within
/// seconds as neighbouring guests load the shared cores, and holds a slow
/// level for minutes; a timing divided by the probes taken just before and
/// after it cancels most of that. The loop is xorshift, `exp`, `ln_1p` and
/// `sqrt`, the instruction mix of the simulator's foveal integrals, and no
/// part of the program: a change to the program never moves it.
#[must_use]
pub fn probe_s() -> f64 {
    let start = process_cpu();
    let mut x = 0x9E37_79B9_7F4A_7C15_u64;
    let mut acc = 0.0_f64;
    for k in 0..PROBE_ITERATIONS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let f = (x >> 11) as f64 / (1_u64 << 53) as f64;
        acc += (f * 3.0 + k as f64 * 1e-9).exp().ln_1p().sqrt();
    }
    std::hint::black_box((x, acc));
    (process_cpu() - start).as_secs_f64()
}
