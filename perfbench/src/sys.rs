//! Process resource usage: CPU time summed over every thread of the
//! process (the in-process server's worker included), from
//! `clock_gettime(2)`, and the peak resident set size, from
//! `getrusage(2)`.

use std::os::raw::{c_int, c_long};

#[repr(C)]
struct Timeval {
    sec: c_long,
    usec: c_long,
}

/// `struct rusage` as Linux lays it out: two `timeval`s followed by
/// fourteen `long` counters, of which only `ru_maxrss` is read.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: c_long,
    rest: [c_long; 13],
}

#[repr(C)]
struct Timespec {
    sec: c_long,
    nsec: c_long,
}

const RUSAGE_SELF: c_int = 0;
const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;

extern "C" {
    fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
    fn clock_gettime(clock: c_int, ts: *mut Timespec) -> c_int;
}

/// CPU seconds the process has used so far, to the nanosecond.
///
/// # Panics
///
/// Panics if the process CPU clock cannot be read, which it always
/// can on Linux.
pub fn cpu_s() -> f64 {
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a live, writable `struct timespec`, and
    // `clock_gettime` writes only within it.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

/// The process's peak resident set size so far, in MiB.
///
/// # Panics
///
/// Panics if `getrusage` fails, which it cannot for `RUSAGE_SELF`
/// and a valid buffer.
pub fn peak_rss_mb() -> f64 {
    let mut ru = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `ru` is a live, writable `struct rusage` with the
    // Linux layout, and `getrusage` writes only within it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    // `ru_maxrss` is in KiB on Linux.
    ru.maxrss as f64 / 1024.0
}
