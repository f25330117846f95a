//! Small measurement helpers: medians, percentiles and resident-memory
//! sampling.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Median of `values` (mean of the middle pair for even lengths); 0 for
/// an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `q` (0–100) of `values`; 0 for an empty
/// slice.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// A `/proc/<pid>/status` field in kB (`VmRSS`, `VmHWM`).
fn status_kb(pid: &str, field: &str) -> Option<u64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    text.lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| rest.trim_start_matches(':').split_whitespace().next())
        .and_then(|kb| kb.parse().ok())
}

/// Peak resident memory of a job: this process's high-water mark (each
/// job runs in a fresh process, so it covers that job alone) plus the
/// peak of the largest worker process registered through
/// [`RssSampler::pids`], sampled every 5 ms while the workers live.
pub struct RssSampler {
    stop: Arc<AtomicBool>,
    pids: Arc<Mutex<Vec<u32>>>,
    thread: Option<JoinHandle<u64>>,
}

impl RssSampler {
    /// Starts sampling.
    pub fn start() -> RssSampler {
        let stop = Arc::new(AtomicBool::new(false));
        let pids: Arc<Mutex<Vec<u32>>> = Arc::new(Mutex::new(Vec::new()));
        let thread = {
            let stop = stop.clone();
            let pids = pids.clone();
            std::thread::spawn(move || {
                let mut worker = 0u64;
                loop {
                    for pid in pids.lock().unwrap().iter() {
                        if let Some(kb) = status_kb(&pid.to_string(), "VmHWM") {
                            worker = worker.max(kb);
                        }
                    }
                    if stop.load(Ordering::Relaxed) {
                        return worker;
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
            })
        };
        RssSampler {
            stop,
            pids,
            thread: Some(thread),
        }
    }

    /// Worker process ids to include (the largest worker's peak counts).
    pub fn pids(&self) -> Arc<Mutex<Vec<u32>>> {
        self.pids.clone()
    }

    /// Stops sampling; returns this process's peak plus the largest
    /// worker's peak, in MB (10^6 bytes).
    pub fn finish(mut self) -> f64 {
        self.stop.store(true, Ordering::Relaxed);
        let worker = self.thread.take().and_then(|t| t.join().ok()).unwrap_or(0);
        let own = status_kb("self", "VmHWM").unwrap_or(0);
        (own + worker) as f64 * 1024.0 / 1e6
    }
}

impl Drop for RssSampler {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}
