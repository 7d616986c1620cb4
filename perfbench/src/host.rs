//! The host clock: CPU, context switches and memory of this process.

use std::time::Duration;

/// `struct timeval` as `getrusage(2)` fills it on 64-bit Linux.
#[repr(C)]
#[derive(Clone, Copy, Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals then fourteen longs.
#[repr(C)]
#[derive(Clone, Copy, Default)]
struct RawUsage {
    utime: Timeval,
    stime: Timeval,
    longs: [i64; 14],
}

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
#[derive(Clone, Copy, Default)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RawUsage) -> i32;
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    fn malloc_trim(pad: usize) -> i32;
}

const RUSAGE_SELF: i32 = 0;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

const MAXRSS: usize = 0;
const NVCSW: usize = 12;
const NIVCSW: usize = 13;

/// CPU time the calling thread has used. A simulated thread blocked in
/// the sim kernel uses none, so the difference across a call is the
/// call's own host cost even while other simulated threads ran.
pub fn thread_cpu() -> Duration {
    let mut ts = Timespec::default();
    // SAFETY: `ts` is a live, writable `struct timespec` and
    // CLOCK_THREAD_CPUTIME_ID is a clock every Linux kernel provides.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) cannot fail");
    Duration::new(ts.sec as u64, ts.nsec as u32)
}

/// Whole-process resource counters. Threads that have exited are
/// included, so a delta across a phase covers every simulated thread the
/// phase spawned and joined.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Usage {
    /// User CPU.
    pub user: Duration,
    /// System CPU.
    pub sys: Duration,
    /// Voluntary context switches (a thread blocked: the sim kernel's
    /// condvar handoff between simulated threads).
    pub vcsw: u64,
    /// Involuntary context switches (preempted by the OS scheduler).
    pub ivcsw: u64,
    /// Peak resident set of the process so far, in MB.
    pub maxrss_mb: f64,
}

impl Usage {
    /// Counters now.
    pub fn now() -> Usage {
        let mut raw = RawUsage::default();
        // SAFETY: `raw` is a live, writable `struct rusage` with the
        // layout the kernel writes on 64-bit Linux, and RUSAGE_SELF is a
        // valid `who`.
        let rc = unsafe { getrusage(RUSAGE_SELF, &mut raw) };
        assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
        let tv = |t: Timeval| Duration::new(t.sec as u64, (t.usec * 1000) as u32);
        Usage {
            user: tv(raw.utime),
            sys: tv(raw.stime),
            vcsw: raw.longs[NVCSW] as u64,
            ivcsw: raw.longs[NIVCSW] as u64,
            maxrss_mb: raw.longs[MAXRSS] as f64 / 1024.0,
        }
    }

    /// User + system CPU.
    pub fn cpu(&self) -> Duration {
        self.user + self.sys
    }

    /// Counter growth from `earlier` to `self` (peak RSS is kept as is).
    pub fn since(&self, earlier: &Usage) -> Usage {
        Usage {
            user: self.user.saturating_sub(earlier.user),
            sys: self.sys.saturating_sub(earlier.sys),
            vcsw: self.vcsw - earlier.vcsw,
            ivcsw: self.ivcsw - earlier.ivcsw,
            maxrss_mb: self.maxrss_mb,
        }
    }
}

/// A numeric field of `/proc/self/status` (`VmRSS`, `Threads`, ...).
fn status_field(name: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(':'))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Resident set size now, in MB, after the allocator has handed its
/// free memory back to the OS: what the process still holds.
pub fn retained_rss_mb() -> f64 {
    // SAFETY: malloc_trim takes no pointers and only releases free heap
    // memory; it is safe to call at any time.
    unsafe { malloc_trim(0) };
    status_field("VmRSS").map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// OS threads of this process now.
pub fn threads() -> u64 {
    status_field("Threads").unwrap_or(0)
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
