//! Host fingerprint recorded with every result. Two results are only
//! compared when their fingerprints agree; otherwise the comparison is
//! reported as a host mismatch, never as a regression or a gain.

use std::process::Command;

#[derive(Debug, Clone, PartialEq)]
pub struct Fingerprint {
    /// Online CPUs (`/proc/cpuinfo` processor entries).
    pub nproc: usize,
    pub available_parallelism: usize,
    pub rayon_num_threads_set: bool,
    pub cpu_model: String,
    pub l2: String,
    pub l3: String,
    pub rustc: String,
}

/// The commit the run was built from, when the checkout is a git
/// repository. Recorded with the result but not part of the host
/// fingerprint: comparing two commits is the point of a comparison.
pub fn commit() -> String {
    Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn cache_size(level: &str, kind: &str) -> String {
    for idx in 0..8 {
        let base = format!("/sys/devices/system/cpu/cpu0/cache/index{idx}");
        let read = |f: &str| std::fs::read_to_string(format!("{base}/{f}")).ok();
        if read("level").as_deref().map(str::trim) == Some(level)
            && read("type").as_deref().map(str::trim) == Some(kind)
        {
            return read("size").map_or_else(|| "unknown".into(), |s| s.trim().to_string());
        }
    }
    "unknown".to_string()
}

impl Fingerprint {
    pub fn probe() -> Self {
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let nproc = cpuinfo
            .lines()
            .filter(|l| l.starts_with("processor"))
            .count();
        let cpu_model = cpuinfo
            .lines()
            .find(|l| l.starts_with("model name"))
            .and_then(|l| l.split_once(':'))
            .map_or_else(|| "unknown".into(), |(_, v)| v.trim().to_string());
        let rustc = Command::new(std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into()))
            .arg("--version")
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".to_string());
        Fingerprint {
            nproc,
            available_parallelism: std::thread::available_parallelism().map_or(0, |n| n.get()),
            rayon_num_threads_set: std::env::var_os("RAYON_NUM_THREADS").is_some(),
            cpu_model,
            l2: cache_size("2", "Unified"),
            l3: cache_size("3", "Unified"),
            rustc,
        }
    }

    pub fn fields(&self) -> Vec<(&'static str, String)> {
        vec![
            ("nproc", self.nproc.to_string()),
            (
                "available_parallelism",
                self.available_parallelism.to_string(),
            ),
            (
                "rayon_num_threads_set",
                self.rayon_num_threads_set.to_string(),
            ),
            ("cpu_model", self.cpu_model.clone()),
            ("l2", self.l2.clone()),
            ("l3", self.l3.clone()),
            ("rustc", self.rustc.clone()),
        ]
    }
}

/// Cumulative `(steal, total)` CPU ticks of the host, from `/proc/stat`.
/// Steal is time a virtual machine's CPUs were runnable but held by the
/// hypervisor; a run with a high steal share measured a loaded host.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|x| x.parse().ok())
        .collect();
    Some((*fields.get(7)?, fields.iter().sum()))
}

/// Steal share of the CPU ticks between two [`cpu_ticks`] readings.
pub fn steal_frac(a: Option<(u64, u64)>, b: Option<(u64, u64)>) -> f64 {
    match (a, b) {
        (Some(a), Some(b)) if b.1 > a.1 => (b.0 - a.0) as f64 / (b.1 - a.1) as f64,
        _ => 0.0,
    }
}
