//! Host fingerprint, interference check and peak-memory probe.

use std::hint::black_box;
use std::time::Instant;

/// The CPU model string, `unknown` where the kernel does not report one.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .and_then(|rest| rest.split_once(':'))
                .map(|(_, model)| model.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Runs a fixed single-thread kernel (integer mixing plus a strided walk
/// over 16 MiB) nine times and returns the median repeat's wall time in
/// seconds; the nine take about 0.2 s on a current x86 core. The
/// benchmark runs it before and after the workload: when the two differ
/// by more than [`NOISY_RATIO`], something else competed for the machine.
pub fn calibrate() -> f64 {
    const WORDS: usize = 2 << 20;
    let mut buf = vec![1u64; WORDS];
    let repeats: Vec<f64> = (0..9u64)
        .map(|rep| {
            let started = Instant::now();
            let mut x = black_box(0x9E37_79B9_7F4A_7C15_u64 ^ rep);
            let mut acc = 0u64;
            for _ in 0..3_000_000 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                acc = acc.wrapping_add(x >> 11);
            }
            let mut i = 0;
            for _ in 0..WORDS / 2 {
                buf[i] = buf[i].wrapping_add(acc);
                i = (i + 4099) % WORDS;
            }
            black_box(&buf);
            started.elapsed().as_secs_f64()
        })
        .collect();
    crate::stats::median(&repeats)
}

/// Calibration times differing by more than this ratio flag a run noisy.
pub const NOISY_RATIO: f64 = 0.10;

/// Whether the two calibration times disagree by more than [`NOISY_RATIO`].
pub fn noisy(before_s: f64, after_s: f64) -> bool {
    (after_s / before_s - 1.0).abs() > NOISY_RATIO
}

/// Pins glibc's mmap threshold at its default, 128 KiB. Left dynamic, the
/// threshold rises with the sizes the process happens to free, and the
/// memory that retains makes the resident peak of identical `serve-small`
/// runs differ by 15% (26 to 31 MiB); pinned, they agree within 2%.
/// `kraftwerk place` and `kraftwerk serve` keep the dynamic threshold, so
/// the peak measured here is not theirs. Call before any other thread
/// starts.
pub fn pin_malloc_policy() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        const M_MMAP_THRESHOLD: i32 = -3;
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        // SAFETY: `mallopt` is glibc's documented tuning entry point; the
        // parameter is a valid constant and no other thread allocates yet.
        unsafe {
            mallopt(M_MMAP_THRESHOLD, 128 * 1024);
        }
    }
}

/// Resets the kernel's peak-RSS mark (`VmHWM`) so the peak read later
/// excludes the benchmark's own input generation. Best effort: without
/// `/proc` the peak covers the whole process.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size in MiB since the last [`reset_peak_rss`];
/// NaN where `/proc/self/status` is unavailable.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}
