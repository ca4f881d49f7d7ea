//! Receive-wait attribution across the overlap and blocking exchange
//! variants.
//!
//! The `halo_wait_ns` counter accrues at the recv chokepoint, so it sees
//! the split-phase path (`begin` → compute → `finish`) even though that
//! path deliberately carries no whole-call profiling region. With a slow
//! neighbor, the blocking exchange eats the neighbor's delay inside its
//! receives while the overlap exchange hides it under interior compute —
//! so overlap wait must come out at or below blocking wait.

use std::time::Duration;

use halo_exchange::{FoldKind, Halo, HALO as H};
use kokkos_rs::{View, View2, View3};
use mpi_sim::{CartComm, World};

const NXG: usize = 8;
const NYG: usize = 6;
/// Delay injected on rank 1 before it participates in each exchange.
const LAG: Duration = Duration::from_millis(40);

fn make_field(h: &Halo) -> View2<f64> {
    let (pj, pi) = h.padded();
    let f: View2<f64> = View::host("f", [pj, pi]);
    for j in 0..h.ny {
        for i in 0..h.nx {
            f.set_at(H + j, H + i, (h.y0 + j) as f64 * 100.0 + (h.x0 + i) as f64);
        }
    }
    f
}

#[test]
fn overlap_wait_le_blocking_wait() {
    World::run(2, |comm| {
        let cart = CartComm::new(comm.clone(), 2, 1, true);
        let h = Halo::new(&cart, NXG, NYG);
        let f = make_field(&h).lift();
        let lagger = comm.rank() == 1;

        // Blocking: rank 1 shows up late, so rank 0's receives wait out
        // the whole lag.
        comm.barrier();
        if lagger {
            std::thread::sleep(LAG);
        }
        let w0 = h.halo_wait_ns();
        h.exchange(&f, FoldKind::Scalar, 100);
        let blocking_wait = h.halo_wait_ns() - w0;

        // Overlap: rank 0 has a full lag's worth of interior compute, so
        // the late messages are already there when it finally receives.
        comm.barrier();
        if lagger {
            std::thread::sleep(LAG);
        }
        let w1 = h.halo_wait_ns();
        let p = h.begin(&[(&f, FoldKind::Scalar)], 200).unwrap();
        if !lagger {
            std::thread::sleep(LAG + Duration::from_millis(10));
        }
        p.finish().unwrap();
        let overlap_wait = h.halo_wait_ns() - w1;

        if !lagger {
            assert!(
                blocking_wait >= LAG.as_nanos() as u64 / 2,
                "blocking exchange should have waited out the lag: {blocking_wait} ns"
            );
            assert!(
                overlap_wait <= blocking_wait,
                "overlap wait {overlap_wait} ns exceeds blocking wait {blocking_wait} ns"
            );
        }
    });
}

#[test]
fn one_wait_counter_sees_2d_and_3d_traffic() {
    World::run(2, |comm| {
        let cart = CartComm::new(comm.clone(), 2, 1, true);
        let h = Halo::new(&cart, NXG, NYG);
        let f2 = make_field(&h);
        let f3: View3<f64> = View::host("f3", h.shape(3));
        h.exchange(&f2.lift(), FoldKind::Scalar, 300);
        let after_2d = h.halo_wait_ns();
        h.exchange(&f3, FoldKind::Scalar, 400);
        // Both field ranks land in the one engine's counter.
        assert!(after_2d > 0, "networked recvs must accrue wait");
        assert!(
            h.halo_wait_ns() > after_2d,
            "3-D recvs accrue on the same counter"
        );
    });
}
