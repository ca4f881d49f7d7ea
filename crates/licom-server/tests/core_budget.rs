//! One core budget for the whole process: rank worlds and a server draw
//! their kernel launches' helper threads from the one process executor,
//! whose pool never exceeds `cores − 1` workers, and a rank's launches
//! claim no more than its share (`max(1, cores / ranks)`) allows.
//!
//! Everything runs in one test so no other launch in this binary competes
//! for idle workers: since ranks × share ≤ cores, every launch that wants
//! workers then finds them.

use kokkos_rs::{executor, Space};
use licom::model::{Model, ModelOptions};
use licom_server::{JobSpec, Server, ServerConfig};
use mpi_sim::World;

#[test]
fn rank_worlds_and_a_server_share_one_core_budget() {
    let cores = executor::cores();
    // 90×54×6: the 3-D launches of one rank of a 4-rank world still hold
    // more iterations than run inline, so a share above 1 uses the pool.
    let cfg = ocean_grid::Resolution::Coarse100km
        .config()
        .scaled_down(4, 6);
    for ranks in [1, 2, 4] {
        let claims = World::run(ranks, |comm| {
            let mut m = Model::new(comm, cfg.clone(), Space::threads(), ModelOptions::default());
            let before = executor::claimed_by_this_thread();
            m.run_steps(2);
            (m.space.share(), executor::claimed_by_this_thread() - before)
        });
        for (share, claimed) in claims {
            assert_eq!(
                share,
                (cores / ranks).max(1),
                "{ranks} ranks on {cores} cores"
            );
            if share == 1 {
                assert_eq!(claimed, 0, "{ranks} ranks on {cores} cores claimed workers");
            } else {
                assert!(claimed > 0, "share {share} never used the pool");
            }
        }
    }

    let base = std::env::temp_dir().join(format!("licom-core-budget-{}", std::process::id()));
    let server = Server::start(ServerConfig {
        workers: 4,
        ckpt_base: base.clone(),
        ..ServerConfig::default()
    });
    for i in 0..4 {
        let spec = JobSpec {
            cfg: cfg.clone(),
            ..JobSpec::small(&format!("t{i}"), Space::threads(), 2)
        };
        server.submit(spec).expect("submit");
    }
    let snap = server.join();
    assert_eq!(snap.jobs_completed, 4);
    let _ = std::fs::remove_dir_all(&base);

    assert!(
        executor::spawned_workers() < cores,
        "{} workers spawned on {cores} cores",
        executor::spawned_workers()
    );
}
