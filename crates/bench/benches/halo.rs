//! Halo engine microbenchmarks: the Fig. 5 transposes (naive vs tiled),
//! full 3-D exchanges per strategy, and batched vs separate multi-field
//! updates.

use criterion::{criterion_group, criterion_main, Criterion};
use halo_exchange::{transpose, FoldKind, Halo, Strategy3D};
use kokkos_rs::{View, View3};
use mpi_sim::{CartComm, World};
use std::time::Duration;

fn bench_transpose(c: &mut Criterion) {
    // A realistic east-edge halo strip: 80 levels x 100 rows x 2 cols.
    let (nz, nj, ni) = (80, 100, 2);
    let strip: Vec<f64> = (0..nz * nj * ni).map(|x| x as f64).collect();
    let mut g = c.benchmark_group("halo_transpose_80x100x2");
    g.bench_function("h2v_naive", |b| {
        b.iter(|| transpose::h2v(&strip, nz, nj, ni))
    });
    g.bench_function("h2v_tiled16", |b| {
        b.iter(|| transpose::h2v_tiled(&strip, nz, nj, ni, 16))
    });
    g.bench_function("v2h", |b| {
        let v = transpose::h2v(&strip, nz, nj, ni);
        b.iter(|| transpose::v2h(&v, nz, nj, ni))
    });
    g.finish();
}

fn bench_exchange_strategies(c: &mut Criterion) {
    let mut g = c.benchmark_group("halo3d_exchange_1rank");
    g.sample_size(20);
    g.warm_up_time(Duration::from_millis(500));
    g.measurement_time(Duration::from_secs(3));
    for (label, strategy) in [
        ("horizontal_major", Strategy3D::HorizontalMajor),
        ("transpose", Strategy3D::Transpose),
    ] {
        g.bench_function(label, |b| {
            b.iter(|| {
                World::run(1, |comm| {
                    let cart = CartComm::new(comm.clone(), 1, 1, true);
                    let h = Halo::new(&cart, 64, 32).with_strategy(strategy);
                    let f: View3<f64> = View::host("f", h.shape(20));
                    f.fill(1.0);
                    for tag in 0..4 {
                        h.exchange(&f, FoldKind::Scalar, tag * 100);
                    }
                })
            })
        });
    }
    g.finish();
}

fn bench_batched(c: &mut Criterion) {
    let mut g = c.benchmark_group("halo3d_two_fields_2ranks");
    g.sample_size(20);
    g.warm_up_time(Duration::from_millis(500));
    g.measurement_time(Duration::from_secs(3));
    g.bench_function("separate", |b| {
        b.iter(|| {
            World::run(2, |comm| {
                let cart = CartComm::new(comm.clone(), 2, 1, true);
                let h = Halo::new(&cart, 64, 32).with_strategy(Strategy3D::Transpose);
                let u: View3<f64> = View::host("u", h.shape(20));
                let v: View3<f64> = View::host("v", h.shape(20));
                h.exchange(&u, FoldKind::Vector, 0);
                h.exchange(&v, FoldKind::Scalar, 50);
            })
        })
    });
    g.bench_function("batched", |b| {
        b.iter(|| {
            World::run(2, |comm| {
                let cart = CartComm::new(comm.clone(), 2, 1, true);
                let h = Halo::new(&cart, 64, 32).with_strategy(Strategy3D::Transpose);
                let u: View3<f64> = View::host("u", h.shape(20));
                let v: View3<f64> = View::host("v", h.shape(20));
                h.try_exchange(&[(&u, FoldKind::Vector), (&v, FoldKind::Scalar)], 0)
                    .unwrap();
            })
        })
    });
    g.finish();
}

/// Pooled (default) vs freshly-allocating exchange paths on a large tile.
/// The halo is built once per iteration and then exchanged repeatedly, so
/// after the first exchange the pooled path runs entirely out of reused
/// buffers while the `_alloc` reference pays a fresh `vec![0.0; n]` per
/// message.
fn bench_pooled_vs_allocating(c: &mut Criterion) {
    const STEPS: u64 = 32;
    let mut g = c.benchmark_group("halo3d_pooled_512x512x60_2ranks_32x");
    g.sample_size(10);
    g.warm_up_time(Duration::from_millis(500));
    g.measurement_time(Duration::from_secs(3));
    g.bench_function("pooled", |b| {
        b.iter(|| {
            World::run(2, |comm| {
                let cart = CartComm::new(comm.clone(), 2, 1, true);
                let h = Halo::new(&cart, 512, 512).with_strategy(Strategy3D::Transpose);
                let f: View3<f64> = View::host("f", h.shape(60));
                f.fill(1.0);
                for tag in 0..STEPS {
                    h.exchange(&f, FoldKind::Scalar, tag * 100);
                }
            })
        })
    });
    g.bench_function("allocating", |b| {
        b.iter(|| {
            World::run(2, |comm| {
                let cart = CartComm::new(comm.clone(), 2, 1, true);
                let h = Halo::new(&cart, 512, 512).with_strategy(Strategy3D::Transpose);
                let f: View3<f64> = View::host("f", h.shape(60));
                f.fill(1.0);
                for tag in 0..STEPS {
                    h.exchange_alloc(&[(&f, FoldKind::Scalar)], tag * 100);
                }
            })
        })
    });
    g.finish();
}

/// Plain vs CRC-framed exchange: the integrity layer adds a 4-word header
/// and a CRC32 over the payload per message. The acceptance bar is ≤ 3%
/// overhead on a production-sized tile with no faults in flight.
fn bench_integrity_overhead(c: &mut Criterion) {
    const STEPS: u64 = 32;
    let mut g = c.benchmark_group("halo3d_integrity_512x512x60_2ranks_32x");
    g.sample_size(10);
    g.warm_up_time(Duration::from_millis(500));
    g.measurement_time(Duration::from_secs(3));
    g.bench_function("plain", |b| {
        b.iter(|| {
            World::run(2, |comm| {
                let cart = CartComm::new(comm.clone(), 2, 1, true);
                let h = Halo::new(&cart, 512, 512).with_strategy(Strategy3D::Transpose);
                let f: View3<f64> = View::host("f", h.shape(60));
                f.fill(1.0);
                for step in 0..STEPS {
                    h.exchange(&f, FoldKind::Scalar, step * 100);
                }
            })
        })
    });
    g.bench_function("framed_crc", |b| {
        b.iter(|| {
            World::run(2, |comm| {
                let cart = CartComm::new(comm.clone(), 2, 1, true);
                let h = Halo::new(&cart, 512, 512)
                    .with_strategy(Strategy3D::Transpose)
                    .with_integrity(halo_exchange::IntegrityConfig::default());
                let f: View3<f64> = View::host("f", h.shape(60));
                f.fill(1.0);
                for step in 0..STEPS {
                    h.begin_step(step);
                    h.try_exchange(&[(&f, FoldKind::Scalar)], step * 100)
                        .unwrap();
                }
            })
        })
    });
    g.finish();
}

/// Serial vs parallel strip pack/unpack: the same single-rank exchange
/// (pack and unpack dominate — no real network) dispatched over the Serial
/// and Threads execution spaces via `Halo::with_space`. Every strip of
/// this tile is above the inline-copy threshold, so Threads launches.
fn bench_pack_spaces(c: &mut Criterion) {
    const STEPS: u64 = 16;
    let mut g = c.benchmark_group("halo3d_pack_512x512x60_1rank_16x");
    g.sample_size(10);
    g.warm_up_time(Duration::from_millis(500));
    g.measurement_time(Duration::from_secs(3));
    for (label, space) in [
        ("serial", kokkos_rs::Space::serial()),
        ("threads", kokkos_rs::Space::threads()),
    ] {
        g.bench_function(label, |b| {
            b.iter(|| {
                World::run(1, |comm| {
                    let cart = CartComm::new(comm.clone(), 1, 1, true);
                    let h = Halo::new(&cart, 512, 512)
                        .with_strategy(Strategy3D::Transpose)
                        .with_space(space.clone());
                    let f: View3<f64> = View::host("f", h.shape(60));
                    f.fill(1.0);
                    for tag in 0..STEPS {
                        h.exchange(&f, FoldKind::Scalar, tag * 100);
                    }
                })
            })
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_transpose,
    bench_exchange_strategies,
    bench_batched,
    bench_pooled_vs_allocating,
    bench_integrity_overhead,
    bench_pack_spaces
);
criterion_main!(benches);
