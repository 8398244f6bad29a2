//! Process CPU accounting from `/proc`, for the paper's Fig. 11
//! (CPU utilization of the three systems).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Lock `m`, re-entering it if a panicking holder poisoned it: a sample is
/// one `push`, so the list is whole at every step.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A snapshot of this process's cumulative CPU time (user + system, all
/// threads), read from `/proc/self/stat`.
#[derive(Debug, Clone, Copy)]
pub struct ProcessCpu {
    /// Cumulative CPU time consumed by the process.
    pub cpu_time: Duration,
    /// Wall-clock instant the snapshot was taken.
    pub at: Instant,
}

fn ticks_per_second() -> u64 {
    // SAFETY: sysconf is always safe to call.
    let t = unsafe { libc::sysconf(libc::_SC_CLK_TCK) };
    if t <= 0 {
        100
    } else {
        t as u64
    }
}

impl ProcessCpu {
    /// Take a snapshot now. Returns `None` if `/proc` is unavailable.
    pub fn snapshot() -> Option<ProcessCpu> {
        let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
        // Field 2 (comm) may contain spaces; skip past the closing paren.
        let rest = stat.rsplit_once(')')?.1;
        let fields: Vec<&str> = rest.split_whitespace().collect();
        // After comm: field[0]=state, ... utime is the 12th field after
        // comm (index 11), stime the 13th (index 12).
        let utime: u64 = fields.get(11)?.parse().ok()?;
        let stime: u64 = fields.get(12)?.parse().ok()?;
        let tps = ticks_per_second();
        let secs = (utime + stime) as f64 / tps as f64;
        Some(ProcessCpu {
            cpu_time: Duration::from_secs_f64(secs),
            at: Instant::now(),
        })
    }

    /// CPU utilization between `self` (earlier) and `later`, expressed in
    /// *cores* (e.g. `3.5` means the process kept 3.5 cores busy on
    /// average).
    pub fn cores_used_until(&self, later: &ProcessCpu) -> f64 {
        let wall = later.at.duration_since(self.at).as_secs_f64();
        if wall <= 0.0 {
            return 0.0;
        }
        (later.cpu_time.saturating_sub(self.cpu_time)).as_secs_f64() / wall
    }
}

/// Result of a monitored interval.
#[derive(Debug, Clone, Copy)]
pub struct CpuReport {
    /// Mean number of cores the process kept busy.
    pub mean_cores: f64,
    /// Peak cores observed over any sampling interval.
    pub peak_cores: f64,
    /// Mean utilization as a fraction of the whole machine (0.0–1.0).
    pub mean_machine_frac: f64,
    /// Number of logical CPUs used as the denominator.
    pub n_cpus: usize,
    /// Wall time monitored.
    pub wall: Duration,
}

/// Samples process CPU usage on a background thread until stopped.
pub struct CpuMonitor {
    stop: Arc<AtomicBool>,
    samples: Arc<Mutex<Vec<f64>>>,
    start: ProcessCpu,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl CpuMonitor {
    /// Start sampling every `interval`.
    pub fn start(interval: Duration) -> Option<CpuMonitor> {
        let start = ProcessCpu::snapshot()?;
        let stop = Arc::new(AtomicBool::new(false));
        let samples = Arc::new(Mutex::new(Vec::new()));
        let stop2 = stop.clone();
        let samples2 = samples.clone();
        let handle = std::thread::Builder::new()
            .name("cpu-monitor".into())
            .spawn(move || {
                let mut prev = match ProcessCpu::snapshot() {
                    Some(s) => s,
                    None => return,
                };
                while !stop2.load(Ordering::Relaxed) {
                    std::thread::sleep(interval);
                    if let Some(now) = ProcessCpu::snapshot() {
                        lock(&samples2).push(prev.cores_used_until(&now));
                        prev = now;
                    }
                }
            })
            .ok()?;
        Some(CpuMonitor {
            stop,
            samples,
            start,
            handle: Some(handle),
        })
    }

    /// Stop sampling and summarize.
    pub fn finish(mut self) -> CpuReport {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
        let end = ProcessCpu::snapshot().unwrap_or(ProcessCpu {
            cpu_time: self.start.cpu_time,
            at: Instant::now(),
        });
        let mean_cores = self.start.cores_used_until(&end);
        let samples = lock(&self.samples);
        let peak = samples.iter().cloned().fold(mean_cores, f64::max);
        let n_cpus = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        CpuReport {
            mean_cores,
            peak_cores: peak,
            mean_machine_frac: mean_cores / n_cpus as f64,
            n_cpus,
            wall: end.at.duration_since(self.start.at),
        }
    }
}

impl Drop for CpuMonitor {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_is_readable_on_linux() {
        let s = ProcessCpu::snapshot().expect("/proc/self/stat readable");
        assert!(s.cpu_time >= Duration::ZERO);
    }

    #[test]
    fn busy_loop_registers_cpu_usage() {
        let a = ProcessCpu::snapshot().unwrap();
        // Burn ~50ms of CPU.
        let t = Instant::now();
        let mut x = 0u64;
        while t.elapsed() < Duration::from_millis(50) {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
        }
        std::hint::black_box(x);
        let b = ProcessCpu::snapshot().unwrap();
        let cores = a.cores_used_until(&b);
        assert!(cores > 0.2, "busy loop should register, got {cores}");
        assert!(
            cores < 8.0,
            "single thread cannot exceed a few cores: {cores}"
        );
    }

    #[test]
    fn monitor_reports_sane_numbers() {
        let mon = CpuMonitor::start(Duration::from_millis(10)).unwrap();
        let t = Instant::now();
        let mut x = 1u64;
        while t.elapsed() < Duration::from_millis(60) {
            x = x.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
        }
        std::hint::black_box(x);
        let rep = mon.finish();
        assert!(rep.n_cpus >= 1);
        assert!(rep.mean_cores > 0.1, "mean {}", rep.mean_cores);
        assert!(rep.peak_cores >= rep.mean_cores * 0.5);
        assert!(rep.mean_machine_frac <= 1.5);
        assert!(rep.wall >= Duration::from_millis(50));
    }
}
