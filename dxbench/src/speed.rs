//! Host speed reference: a fixed CPU kernel timed next to the measured
//! work, so CPU-bound operations lasting tens of milliseconds or more
//! (cold detection runs, ingests, set-up) can be stated at one nominal
//! host speed.
//!
//! On the shared 2-vCPU VM this benchmark was sized on, the host ran
//! identical work at speeds that switched every half second to every few
//! minutes: one 150 ms cold detection run took anywhere from 137 to over
//! 300 ms. Over 15-second windows the median run time spread 8–10%
//! (interquartile range over median); the median of each run's time
//! divided by the kernel time measured next to it on a busy CPU spread
//! 1.5–2%. The kernel must run on a busy CPU: timed right after a sleep
//! it read two to three times slower and tracked nothing.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// The kernel's time, in milliseconds, on a quiet host; adjusted times
/// are stated at this speed.
pub const NOMINAL_MS: f64 = 4.0;

/// Kernel runs around each set-up start: about 25 ms.
pub const BURST: usize = 6;

/// Fixed work: the Levenshtein DP over two fixed 400-letter strings,
/// twenty times. Independent of the program under test.
fn kernel() -> u32 {
    let a: Vec<u8> = (0..400u32)
        .map(|i| b'a' + ((i * 7 + i / 3) % 26) as u8)
        .collect();
    let b: Vec<u8> = (0..400u32)
        .map(|i| b'a' + ((i * 5 + i / 7) % 26) as u8)
        .collect();
    let mut total = 0;
    for _ in 0..20 {
        let mut prev: Vec<u32> = (0..=b.len() as u32).collect();
        let mut cur = vec![0u32; b.len() + 1];
        for (i, &ca) in a.iter().enumerate() {
            cur[0] = i as u32 + 1;
            for (j, &cb) in b.iter().enumerate() {
                let substitute = prev[j] + u32::from(ca != cb);
                cur[j + 1] = substitute.min(prev[j + 1] + 1).min(cur[j] + 1);
            }
            std::mem::swap(&mut prev, &mut cur);
        }
        total += prev[b.len()];
    }
    total
}

/// Times one kernel run, in milliseconds.
pub fn kernel_ms() -> f64 {
    let began = Instant::now();
    std::hint::black_box(kernel());
    began.elapsed().as_secs_f64() * 1e3
}

/// The kernel time of a thread that may have been idle: runs the kernel
/// `runs` times back to back and takes the median of the second half,
/// once the CPU is busy.
pub fn busy_kernel_ms(runs: usize) -> f64 {
    let times: Vec<f64> = (0..runs.max(2)).map(|_| kernel_ms()).collect();
    crate::stats::median(&times[times.len() / 2..])
}

/// States `ms`, measured while the kernel took `kernel_ms`, at the
/// nominal host speed.
pub fn adjust(ms: f64, kernel_ms: f64) -> f64 {
    ms * NOMINAL_MS / kernel_ms
}

#[repr(C)]
struct SchedParam {
    sched_priority: i32,
}

const SCHED_IDLE: i32 = 5;

extern "C" {
    // libc is linked by std; sched_setscheduler(2).
    fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
}

/// Kernel timings `(seconds since start, ms)` taken without pause by one
/// lowest-priority thread per vCPU while `work` runs.
///
/// The threads run under `SCHED_IDLE`, so they only get a CPU that would
/// otherwise idle and yield it at once to the server and the load
/// generator; a side effect is that the vCPUs stop halting between
/// requests. Samples taken while a thread was preempted read slow, so
/// [`window_ms`] takes medians.
pub fn sample_during<T>(start: Instant, work: impl FnOnce() -> T) -> (T, Vec<(f64, f64)>) {
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        let samplers: Vec<_> = (0..cpus)
            .map(|_| {
                scope.spawn(|| {
                    let param = SchedParam { sched_priority: 0 };
                    // SAFETY: `param` is a live, properly laid-out
                    // `sched_param` for the call; pid 0 names this thread.
                    // A failure leaves the thread at normal priority,
                    // which only makes it compete for CPU.
                    unsafe { sched_setscheduler(0, SCHED_IDLE, &param) };
                    let mut samples = Vec::new();
                    while !stop.load(Ordering::Relaxed) {
                        let at = start.elapsed().as_secs_f64();
                        samples.push((at, kernel_ms()));
                    }
                    samples
                })
            })
            .collect();
        let out = work();
        stop.store(true, Ordering::Relaxed);
        let mut samples: Vec<(f64, f64)> = samplers
            .into_iter()
            .flat_map(|h| h.join().expect("speed sampler panicked"))
            .collect();
        samples.sort_by(|a, b| a.0.total_cmp(&b.0));
        (out, samples)
    })
}

/// Median kernel time of the samples (sorted by time) taken between
/// `from` and `to` seconds.
pub fn window_ms(samples: &[(f64, f64)], from: f64, to: f64) -> Option<f64> {
    let lo = samples.partition_point(|s| s.0 < from);
    let hi = samples.partition_point(|s| s.0 <= to);
    let times: Vec<f64> = samples[lo..hi].iter().map(|s| s.1).collect();
    (!times.is_empty()).then(|| crate::stats::median(&times))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_is_fixed_work() {
        assert_eq!(kernel(), kernel());
        assert!(kernel_ms() > 0.0);
        assert_eq!(adjust(10.0, 2.0 * NOMINAL_MS), 5.0);
    }

    #[test]
    fn samplers_run_while_the_work_does() {
        let start = Instant::now();
        let (value, samples) = sample_during(start, || {
            std::thread::sleep(std::time::Duration::from_millis(50));
            7
        });
        assert_eq!(value, 7);
        assert!(!samples.is_empty());
        assert!(samples.windows(2).all(|w| w[0].0 <= w[1].0));
        assert!(window_ms(&samples, 0.0, 10.0).is_some());
        assert!(window_ms(&samples, 10.0, 20.0).is_none());
    }
}
