//! The benchmark's only contact with the host: the wall clock, the
//! calibration loop that says how fast the host ran while we measured,
//! and the process's own memory high-water mark.

use std::time::Instant;

/// The single wall-clock read of the benchmark. Everything timed — spans,
/// latencies, set-up, calibration — goes through here, so the waiver
/// below is the only one the benchmark carries.
#[inline]
pub fn now() -> Instant {
    Instant::now() // lint:allow(nondet) — the benchmark measures the implementation, not the simulated system
}

/// Nanoseconds elapsed since `t0`.
#[inline]
pub fn ns_since(t0: Instant) -> u64 {
    now().duration_since(t0).as_nanos() as u64
}

/// Iterations of the calibration loop (≈ 10 ms on the reference host).
const CALIB_ITERS: u64 = 4_000_000;

/// Times a fixed, pure-integer loop (an xorshift chain the optimiser
/// cannot shorten) and returns its wall time in nanoseconds. Run before
/// and after a workload: the two readings differ when the host slowed
/// down or sped up underneath the measurement.
pub fn calibrate() -> u64 {
    let t0 = now();
    let mut x = std::hint::black_box(0x9E37_79B9_7F4A_7C15u64);
    for _ in 0..CALIB_ITERS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x);
    ns_since(t0)
}

/// One `kB` field of `/proc/self/status` (`VmHWM`, `VmRSS`), in MiB.
/// Zero where the file or the field is missing (non-Linux hosts).
pub fn status_mb(field: &str) -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
