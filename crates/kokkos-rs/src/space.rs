//! Execution spaces: where a kernel runs.
//!
//! Four backends, matching the paper's Table I coverage:
//!
//! * [`Space::Serial`] — reference loop; baseline for bitwise comparisons
//!   (plays the role of the original Fortran code path).
//! * [`Space::Threads`] — tiles on the process executor (the `rayon`
//!   shim); the OpenMP analogue used on the ARM Taishan server.
//! * [`Space::DeviceSim`] — a CUDA/HIP-like device: kernels execute as a
//!   grid of tile-blocks, launches are counted and carry a fixed overhead,
//!   and data is expected to live in [`MemSpace::Device`] views that must
//!   be staged over PCIe with `deep_copy` (the counters in
//!   [`crate::memspace`] make the staging visible).
//! * [`Space::SwAthread`] — the Sunway backend (this work): launches go
//!   through the functor registry to a pre-registered trampoline executed
//!   by a simulated CPE cluster, with LDM/DMA cycle accounting.
//!
//! A `Space` is chosen at runtime (`Space::from_name`), so the *same model
//! binary* runs on every backend — the heart of the portability claim.
//!
//! Every parallel space carries a **core share**: how many of the
//! process's cores one launch on it may use, the launching thread
//! included. A new space may use all of them; [`Space::partitioned`] caps
//! the share at one equal part of the host, which is how `licom::Model`
//! gives each rank of a world its own cores and licom-server each of its
//! workers (ranks × share ≤ cores, as with MPI + OpenMP pinning).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use sunway_sim::{CgConfig, CgCounters, CoreGroup, CpeKernel};

use crate::memspace::MemSpace;

/// The host-parallel space: tiles on the process executor.
#[derive(Clone, Debug)]
pub struct ThreadsSpace {
    share: usize,
}

/// Simulated discrete accelerator.
#[derive(Clone)]
pub struct DeviceSpace {
    /// Threads per block — metadata mirroring CUDA launch geometry.
    pub threads_per_block: usize,
    launches: Arc<AtomicU64>,
    share: usize,
}

impl DeviceSpace {
    pub fn new() -> Self {
        Self {
            threads_per_block: 256,
            launches: Arc::new(AtomicU64::new(0)),
            share: rayon::cores(),
        }
    }

    pub(crate) fn record_launch(&self) {
        self.launches.fetch_add(1, Ordering::Relaxed);
    }

    /// Kernel launches issued on this device so far.
    pub fn launches(&self) -> u64 {
        self.launches.load(Ordering::Relaxed)
    }
}

impl Default for DeviceSpace {
    fn default() -> Self {
        Self::new()
    }
}

/// The Sunway Athread space: one simulated core group.
#[derive(Clone)]
pub struct SwSpace {
    pub(crate) cg: Arc<Mutex<CoreGroup>>,
    /// Immutable copy of the CG's hardware description, kept outside the
    /// mutex so per-launch tile sizing doesn't take the lock.
    cfg: CgConfig,
    share: usize,
}

impl SwSpace {
    pub fn new(cfg: CgConfig) -> Self {
        Self {
            cg: Arc::new(Mutex::new(CoreGroup::new(cfg.clone()))),
            cfg,
            share: rayon::cores(),
        }
    }

    /// Launch `kernel` on the core group, its CPE slots spread over the
    /// executor threads this space's share allows.
    pub(crate) fn run(&self, kernel: CpeKernel, arg: usize) {
        self.cg
            .lock()
            .run_with(kernel, arg, self.share, &|slots, body| {
                rayon::for_each(slots, slots, body)
            });
    }

    /// The core group's hardware configuration (for cost-model-driven
    /// tile sizing at dispatch time).
    pub fn config(&self) -> &CgConfig {
        &self.cfg
    }

    /// Snapshot of the core group's aggregated counters.
    pub fn counters(&self) -> CgCounters {
        self.cg.lock().counters().clone()
    }

    /// Reset the core group's counters.
    pub fn reset_counters(&self) {
        self.cg.lock().reset_counters();
    }

    /// CPE clock (Hz), for converting counters to simulated seconds.
    pub fn clock_hz(&self) -> f64 {
        self.cfg.clock_hz
    }
}

/// A runtime-selected execution space.
#[derive(Clone)]
pub enum Space {
    Serial,
    Threads(ThreadsSpace),
    DeviceSim(DeviceSpace),
    SwAthread(SwSpace),
}

impl Space {
    /// Serial reference space.
    pub fn serial() -> Self {
        Space::Serial
    }

    /// Host-parallel space on the process executor.
    pub fn threads() -> Self {
        Space::Threads(ThreadsSpace {
            share: rayon::cores(),
        })
    }

    /// Simulated GPU device.
    pub fn device_sim() -> Self {
        Space::DeviceSim(DeviceSpace::new())
    }

    /// Simulated Sunway core group with default SW26010 Pro configuration.
    pub fn sw_athread() -> Self {
        Space::SwAthread(SwSpace::new(CgConfig::default()))
    }

    /// Simulated Sunway core group with a custom configuration (tests use
    /// a small one for speed).
    pub fn sw_athread_with(cfg: CgConfig) -> Self {
        Space::SwAthread(SwSpace::new(cfg))
    }

    /// Parse a backend name (CLI/environment selection).
    pub fn from_name(name: &str) -> Option<Self> {
        match name.to_ascii_lowercase().as_str() {
            "serial" => Some(Self::serial()),
            "threads" | "openmp" => Some(Self::threads()),
            "devicesim" | "device" | "cuda" | "hip" | "gpu" => Some(Self::device_sim()),
            "swathread" | "sunway" | "athread" => Some(Self::sw_athread()),
            _ => None,
        }
    }

    /// Backend name.
    pub fn name(&self) -> &'static str {
        match self {
            Space::Serial => "Serial",
            Space::Threads(_) => "Threads",
            Space::DeviceSim(_) => "DeviceSim",
            Space::SwAthread(_) => "SwAthread",
        }
    }

    /// Cores one launch on this space may use, the caller included.
    pub fn share(&self) -> usize {
        match self {
            Space::Serial => 1,
            Space::Threads(ThreadsSpace { share })
            | Space::DeviceSim(DeviceSpace { share, .. })
            | Space::SwAthread(SwSpace { share, .. }) => *share,
        }
    }

    /// This space with its share capped at one of `parts` equal parts of
    /// the host: `max(1, cores / parts)`. Only ever lowers the share, so
    /// partitioning twice by the same count changes nothing.
    pub fn partitioned(mut self, parts: usize) -> Self {
        let cap = (rayon::cores() / parts.max(1)).max(1);
        if let Some(share) = self.share_mut() {
            *share = (*share).min(cap);
        }
        self
    }

    /// Tests pin an exact share, above or below the host's core count.
    #[cfg(test)]
    pub(crate) fn with_share(mut self, share: usize) -> Self {
        if let Some(s) = self.share_mut() {
            *s = share;
        }
        self
    }

    fn share_mut(&mut self) -> Option<&mut usize> {
        match self {
            Space::Serial => None,
            Space::Threads(ThreadsSpace { share })
            | Space::DeviceSim(DeviceSpace { share, .. })
            | Space::SwAthread(SwSpace { share, .. }) => Some(share),
        }
    }

    /// The memory space kernels on this backend expect data in.
    pub fn memspace(&self) -> MemSpace {
        match self {
            Space::DeviceSim(_) => MemSpace::Device,
            _ => MemSpace::Host,
        }
    }

    /// Whether host MPI buffers can be used directly (no device staging).
    /// False on `DeviceSim` — the paper's systems "lack support for
    /// GPU-aware MPI technology".
    pub fn unified_with_host(&self) -> bool {
        !matches!(self, Space::DeviceSim(_))
    }
}

impl std::fmt::Debug for Space {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Space::{}", self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_name_roundtrip() {
        for name in ["Serial", "Threads", "DeviceSim", "SwAthread"] {
            let s = Space::from_name(name).unwrap();
            assert_eq!(s.name(), name);
        }
        assert!(Space::from_name("tpu").is_none());
    }

    #[test]
    fn aliases_resolve() {
        assert_eq!(Space::from_name("cuda").unwrap().name(), "DeviceSim");
        assert_eq!(Space::from_name("sunway").unwrap().name(), "SwAthread");
        assert_eq!(Space::from_name("openmp").unwrap().name(), "Threads");
    }

    #[test]
    fn memspace_and_unification() {
        assert_eq!(Space::serial().memspace(), MemSpace::Host);
        assert_eq!(Space::device_sim().memspace(), MemSpace::Device);
        assert!(Space::serial().unified_with_host());
        assert!(!Space::device_sim().unified_with_host());
        // Sunway MPE/CPE share memory — unified, per paper §V-B.
        assert!(Space::sw_athread_with(CgConfig::test_small()).unified_with_host());
    }
}
