//! Core-group hardware configuration.
//!
//! Numbers default to the SW26010 Pro values reported in the paper
//! (Table II and §VI-A / §VII-D): 64 CPEs per CG, 256 kB LDM, 51.2 GB/s
//! CG memory bandwidth, 16 GB DDR4 per CG.

use crate::{CPES_PER_CG, LDM_BYTES};

/// Static description of one simulated core group.
///
/// The cycle model is intentionally simple and documented per-field; it only
/// needs to rank costs correctly (DMA-bound vs compute-bound kernels,
/// latency-bound small transfers) for the paper's optimization story —
/// absolute cycle counts are not calibrated against silicon.
#[derive(Debug, Clone)]
pub struct CgConfig {
    /// Logical CPEs in the cluster (64 on SW26010 Pro).
    pub num_cpes: usize,
    /// LDM bytes per CPE (256 kB).
    pub ldm_bytes: usize,
    /// CPE clock in Hz. SW26010 Pro CPEs run at 2.25 GHz.
    pub clock_hz: f64,
    /// Aggregate CG main-memory bandwidth in bytes/second (51.2 GB/s),
    /// shared by all CPEs performing DMA simultaneously.
    pub mem_bandwidth_bps: f64,
    /// Fixed startup latency of one DMA transaction, in CPE cycles.
    /// Roughly 1 µs on real hardware ≈ 2250 cycles; we use a round figure.
    pub dma_latency_cycles: u64,
    /// SIMD width in `f64` lanes (512-bit vectors → 8 lanes).
    pub simd_f64_lanes: usize,
}

impl Default for CgConfig {
    fn default() -> Self {
        Self {
            num_cpes: CPES_PER_CG,
            ldm_bytes: LDM_BYTES,
            clock_hz: 2.25e9,
            mem_bandwidth_bps: 51.2e9,
            dma_latency_cycles: 2048,
            simd_f64_lanes: 8,
        }
    }
}

impl CgConfig {
    /// A small configuration for fast unit tests: 8 CPEs, tiny LDM.
    pub fn test_small() -> Self {
        Self {
            num_cpes: 8,
            ldm_bytes: 16 * 1024,
            ..Self::default()
        }
    }

    /// Benchmark configuration: the realistic 256 kB LDM (so cost-model
    /// tile sizing behaves as on hardware) but only 8 CPEs, keeping the
    /// simulated-launch overhead small on CI hosts.
    pub fn bench() -> Self {
        Self {
            num_cpes: 8,
            ..Self::default()
        }
    }

    /// Cycles needed to move `bytes` over DMA when `active_cpes` CPEs share
    /// the CG memory interface. The per-CPE share of bandwidth shrinks as
    /// more CPEs stream concurrently, which is exactly the "memory access
    /// bottleneck" the paper cites for Sunway (§VII-D reason 1).
    pub fn dma_transfer_cycles(&self, bytes: usize, active_cpes: usize) -> u64 {
        let active = active_cpes.max(1) as f64;
        let per_cpe_bw = self.mem_bandwidth_bps / active;
        let seconds = bytes as f64 / per_cpe_bw;
        self.dma_latency_cycles + (seconds * self.clock_hz).ceil() as u64
    }

    /// Peak double-precision FLOPS of the whole CG (FMA on all SIMD lanes).
    pub fn peak_flops(&self) -> f64 {
        self.num_cpes as f64 * self.clock_hz * self.simd_f64_lanes as f64 * 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_hardware() {
        let c = CgConfig::default();
        assert_eq!(c.num_cpes, 64);
        assert_eq!(c.ldm_bytes, 256 * 1024);
        assert!((c.mem_bandwidth_bps - 51.2e9).abs() < 1.0);
    }

    #[test]
    fn dma_cost_scales_with_contention() {
        let c = CgConfig::default();
        let solo = c.dma_transfer_cycles(1 << 20, 1);
        let shared = c.dma_transfer_cycles(1 << 20, 64);
        assert!(shared > solo, "contended DMA must be slower");
        // Transfer part should scale ~64x; latency is constant.
        let solo_xfer = solo - c.dma_latency_cycles;
        let shared_xfer = shared - c.dma_latency_cycles;
        let ratio = shared_xfer as f64 / solo_xfer as f64;
        assert!((ratio - 64.0).abs() < 1.0, "ratio was {ratio}");
    }

    #[test]
    fn dma_latency_dominates_small_transfers() {
        let c = CgConfig::default();
        let tiny = c.dma_transfer_cycles(8, 1);
        // 8 bytes at full bandwidth is well under a cycle of transfer time.
        assert!(tiny <= c.dma_latency_cycles + 2);
    }

    #[test]
    fn peak_flops_order_of_magnitude() {
        // 64 CPEs * 2.25 GHz * 8 lanes * 2 (FMA) = 2.3 TFLOPS per CG.
        let f = CgConfig::default().peak_flops();
        assert!(f > 2.0e12 && f < 2.5e12);
    }
}
