//! Process/thread CPU clocks and peak resident memory, read straight
//! from the OS (no crate: `clock_gettime` via `extern "C"`, VmHWM from
//! `/proc/self/status`).

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, ts: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_seconds(clock_id: i32) -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on every 64-bit Linux target) and `clock_gettime` writes
    // nothing else; both clock ids are defined by POSIX on Linux.
    let rc = unsafe { clock_gettime(clock_id, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock_id}) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// CPU seconds consumed so far by every thread of this process.
pub fn process_cpu_s() -> f64 {
    cpu_seconds(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU seconds consumed so far by the calling thread.
pub fn thread_cpu_s() -> f64 {
    cpu_seconds(CLOCK_THREAD_CPUTIME_ID)
}

/// Peak resident set size of this process (VmHWM), MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clocks_advance_and_rss_is_positive() {
        let (p0, t0) = (process_cpu_s(), thread_cpu_s());
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        assert!(process_cpu_s() > p0);
        assert!(thread_cpu_s() > t0);
        assert!(peak_rss_mb() > 0.0);
    }
}
