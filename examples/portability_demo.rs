//! Portability demo — the paper's core promise: one model, four
//! architectures, identical answers.
//!
//! Runs the same configuration on every execution space (including the
//! simulated Sunway CPE cluster, whose kernels dispatch through the
//! Athread functor registry) and verifies the prognostic state is
//! **bitwise identical**, then prints the relative speeds and the Sunway
//! backend's simulated hardware counters.
//!
//! ```text
//! cargo run --release --example portability_demo
//! ```

use licomkpp::grid::Resolution;
use licomkpp::kokkos::Space;
use licomkpp::model::{Model, ModelOptions};
use licomkpp::mpi::World;

fn main() {
    let cfg = Resolution::Coarse100km.config().scaled_down(6, 10);
    println!(
        "one binary, four backends: {} x {} x {} grid\n",
        cfg.nx, cfg.ny, cfg.nz
    );
    let mut reference: Option<u64> = None;
    for name in ["Serial", "Threads", "DeviceSim", "SwAthread"] {
        let cfg = cfg.clone();
        let space = if name == "SwAthread" {
            Space::sw_athread_with(licomkpp::sunway::CgConfig {
                num_cpes: 16,
                ..licomkpp::sunway::CgConfig::default()
            })
        } else {
            Space::from_name(name).unwrap()
        };
        let (wall, checksum, counters) = World::run(1, move |comm| {
            let mut m = Model::new(comm, cfg.clone(), space.clone(), ModelOptions::default());
            let t0 = std::time::Instant::now();
            m.run_steps(4);
            let counters = if let Space::SwAthread(sw) = &space {
                Some(sw.counters())
            } else {
                None
            };
            (t0.elapsed().as_secs_f64(), m.checksum(), counters)
        })
        .pop()
        .unwrap();
        println!("{name:<10} {wall:7.3} s   state checksum {checksum:016x}");
        if let Some(c) = counters {
            println!(
                "           simulated Sunway: {} kernel launches, {:.2e} flops, {:.1} MB DMA, CPE balance {:.0}%",
                c.kernels_launched,
                c.totals.flops as f64,
                (c.totals.dma_get_bytes + c.totals.dma_put_bytes) as f64 / 1e6,
                100.0 * c.load_balance_efficiency()
            );
        }
        match &reference {
            None => reference = Some(checksum),
            Some(r) => assert_eq!(
                *r, checksum,
                "{name} produced different bits — portability broken!"
            ),
        }
    }
    println!("\nall four execution spaces agree bitwise ✓");
    println!("(an unregistered functor would fail on SwAthread with a");
    println!(" KOKKOS_REGISTER hint — the paper's §V-B mechanism at work)");
}
