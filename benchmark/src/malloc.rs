//! Fixed allocator settings for the benchmark process, so that
//! `peak_rss_mib` repeats.
//!
//! Two glibc `malloc` behaviours made `observed_shard`'s peak resident set
//! after the same reference run read either ~9.2 or ~13.3 MiB:
//!
//! - Each thread allocates from an arena of its own. `Shard::run`'s worker
//!   exits when its cells are done, but its arena returns to glibc's free
//!   list only as the thread ends, after the scoped join has already
//!   returned; the next run's worker then sometimes finds no free arena
//!   and maps a fresh one. One arena for every thread removes the race
//!   (the shard runs one worker, so nothing contends for it).
//! - The mmap threshold for large blocks, and the trim threshold with it,
//!   rise each time an mmapped block is freed, by an amount that depends
//!   on the order blocks are freed in. They are fixed at the ceiling that
//!   adjustment moves toward (32 MiB, and twice that for trimming).
//!
//! With both fixed, twelve reference runs read 8.8 to 9.8 MiB.

#![allow(unsafe_code)]

use std::os::raw::c_int;

/// `M_TRIM_THRESHOLD` from `<malloc.h>`.
const M_TRIM_THRESHOLD: c_int = -1;
/// `M_MMAP_THRESHOLD` from `<malloc.h>`.
const M_MMAP_THRESHOLD: c_int = -3;
/// `M_ARENA_MAX` from `<malloc.h>`.
const M_ARENA_MAX: c_int = -8;

/// glibc's ceiling for the dynamic mmap threshold on 64-bit targets.
const MMAP_THRESHOLD: c_int = 32 << 20;

extern "C" {
    fn mallopt(param: c_int, value: c_int) -> c_int;
}

/// Fixes the arena count and the mmap and trim thresholds. Call before
/// the process starts a thread; returns whether the C library accepted
/// every setting.
pub fn fix_settings() -> bool {
    // SAFETY: `mallopt` takes two integers and touches only the
    // allocator's own settings.
    unsafe {
        mallopt(M_ARENA_MAX, 1) == 1
            && mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD) == 1
            && mallopt(M_TRIM_THRESHOLD, 2 * MMAP_THRESHOLD) == 1
    }
}
