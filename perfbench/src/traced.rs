//! The traced run: every per-layer metric, from spans recorded around
//! the benchmark's calls into each layer, the layers' public counters,
//! and direct probes.

use std::collections::BTreeMap;

use kokkos_rs::Space;
use ocean_grid::Resolution;

use crate::ocean::{Episode, RankRecord, SwCounters, PHASES, SPACES};
use crate::spans::{self, Kind, Span};
use licom_server::Rng;

use crate::stats::{median, quantile};
use crate::{
    check_jobs, exact_counts, model_rounds, probes, serve, step_seconds, work_dir, Ctx, Metrics,
    Outcome,
};

/// The kernels whose cost per work item is reported: the three heaviest
/// on the Serial space across the two model grids.
pub const KERNELS: [&str; 3] = ["FunctorVmixList", "FunctorCanutoCols", "FunctorPair2D"];

/// Spans written to the chrome trace, earliest first (about 35 MB).
const TRACE_CAP: usize = 200_000;

/// Halo regions a step enters: the engines' blocking exchange regions,
/// the model's split-phase begin/finish regions (`bt:halo`, `adv:halo`)
/// and its `halo_*` phases.
fn is_halo_region(name: &str) -> bool {
    name.starts_with("halo:exchange") || name.ends_with(":halo") || name.starts_with("halo_")
}

/// Spans a rank thread recorded inside its timed window.
fn in_window<'a>(spans: &'a [Span], r: &RankRecord) -> impl Iterator<Item = &'a Span> + 'a {
    let (tid, (w0, w1)) = (r.tid, r.window);
    spans
        .iter()
        .filter(move |s| s.tid == tid && s.start_ns >= w0 && s.start_ns < w1)
}

fn model_layers(m: &mut Metrics, rounds: &[Vec<Episode>], spans: &[Span]) {
    for sp in SPACES {
        let eps: Vec<&Episode> = rounds.iter().flatten().filter(|e| e.space == sp).collect();
        let r0s: Vec<&RankRecord> = eps.iter().map(|e| &e.ranks[0]).collect();
        let n_steps: usize = eps.iter().map(|e| e.timed).sum();
        let steps = n_steps as f64;
        let win: f64 = r0s.iter().map(|r| r.window_ns() as f64).sum();
        let sum = |f: fn(&RankRecord) -> u64| r0s.iter().map(|r| f(r)).sum::<u64>();

        let step_ms: Vec<f64> = r0s
            .iter()
            .flat_map(|r| r.step_ns.iter().map(|&n| n as f64 * 1e-6))
            .collect();
        m.put(
            format!("licom.step_ms.p50.{sp}"),
            quantile(&step_ms, 0.5),
            "ms",
            step_ms.len(),
        );
        m.put(
            format!("licom.step_ms.p99.{sp}"),
            quantile(&step_ms, 0.99),
            "ms",
            step_ms.len(),
        );
        for p in PHASES {
            let secs: f64 = r0s.iter().map(|r| r.phases[p]).sum();
            m.put(
                format!("licom.phase_ms.{p}.{sp}"),
                secs * 1e3 / steps,
                "ms",
                n_steps,
            );
        }
        let cpu: u64 = r0s.iter().filter_map(|r| r.sched).map(|s| s.0).sum();
        let runq: u64 = r0s.iter().filter_map(|r| r.sched).map(|s| s.1).sum();
        m.put(
            format!("licom.rank_cpu_frac.{sp}"),
            cpu as f64 / win,
            "fraction",
            eps.len(),
        );
        m.put(
            format!("licom.rank_runq_frac.{sp}"),
            runq as f64 / win,
            "fraction",
            eps.len(),
        );

        let mine: Vec<&Span> = r0s.iter().flat_map(|r| in_window(spans, r)).collect();
        let kernels = mine.iter().filter(|s| s.kind == Kind::Kernel).count();
        let busy: u64 = mine
            .iter()
            .filter(|s| s.kind == Kind::Kernel && !s.inside_kernel)
            .map(|s| s.dur_ns)
            .sum();
        let halo_wait = sum(|r| r.halo_wait_ns);
        m.put(
            format!("kokkos.launches_per_step.{sp}"),
            kernels as f64 / steps,
            "count",
            n_steps,
        );
        m.put(
            format!("kokkos.kernel_busy_frac.{sp}"),
            busy as f64 / win,
            "fraction",
            kernels,
        );
        m.put(
            format!("licom.unattributed_frac.{sp}"),
            1.0 - (busy + halo_wait) as f64 / win,
            "fraction",
            eps.len(),
        );
        m.put(
            format!("halo.wait_ms_per_step.{sp}"),
            halo_wait as f64 * 1e-6 / steps,
            "ms",
            n_steps,
        );
        m.put(
            format!("halo.inflight_frac.{sp}"),
            sum(|r| r.halo_inflight_ns) as f64 / win,
            "fraction",
            eps.len(),
        );

        if sp == "serial" || sp == "threads" {
            for k in KERNELS {
                let (mut ns, mut items, mut n) = (0u64, 0u64, 0usize);
                for r in eps.iter().flat_map(|e| &e.ranks) {
                    for s in in_window(spans, r).filter(|s| s.kind == Kind::Kernel && s.name == k) {
                        ns += s.dur_ns;
                        items += s.work_items;
                        n += 1;
                    }
                }
                m.put(
                    format!("kokkos.ns_per_item.{k}.{sp}"),
                    ns as f64 / items.max(1) as f64,
                    "ns",
                    n,
                );
            }
        }
        if sp == "serial" {
            let exchanges = mine
                .iter()
                .filter(|s| s.kind == Kind::Region && is_halo_region(s.name))
                .count();
            m.put(
                "halo.exchanges_per_step",
                exchanges as f64 / steps,
                "count",
                n_steps,
            );
            m.put(
                "mpi.msgs_per_step",
                sum(|r| r.msgs) as f64 / steps,
                "count",
                n_steps,
            );
            m.put(
                "mpi.bytes_per_step",
                sum(|r| r.bytes) as f64 / steps,
                "B",
                n_steps,
            );
            m.put(
                "mpi.integrity_retries",
                sum(|r| r.retries) as f64,
                "count",
                n_steps,
            );
        }
        if sp == "swathread" {
            let sw: Vec<SwCounters> = eps
                .iter()
                .flat_map(|e| &e.ranks)
                .filter_map(|r| r.sw)
                .collect();
            let total = |f: fn(&SwCounters) -> u64| sw.iter().map(f).sum::<u64>() as f64;
            m.put(
                "sw.cpe_cycles_per_step",
                total(|c| c.cycles) / steps,
                "cycles",
                n_steps,
            );
            m.put(
                "sw.dma_bytes_per_step",
                total(|c| c.dma_bytes) / steps,
                "B",
                n_steps,
            );
            m.put(
                "sw.dma_stall_frac",
                total(|c| c.stall_cycles) / total(|c| c.busy_cycles).max(1.0),
                "fraction",
                n_steps,
            );
            let ldm = sw.iter().map(|c| c.ldm_high_water).max().unwrap_or(0);
            m.put("sw.ldm_high_water", ldm as f64, "B", sw.len());
        }
    }
}

pub fn run(
    ctx: &Ctx,
    refs: &serve::Refs,
    outcome: &mut Outcome,
) -> (Metrics, BTreeMap<String, u64>) {
    let mut m = Metrics::default();
    let mut rng = Rng::new(ctx.seed);
    let plan = ctx.workload.plan();
    let grid = &plan.grid;
    let mut trace: Vec<Span> = Vec::new();

    // Model layers: untraced rounds as the overhead base, then as many
    // traced rounds.
    const ROUNDS: usize = 2;
    let (mut base, mut traced) = (Vec::new(), Vec::new());
    model_rounds(ctx, grid, ROUNDS, &mut rng, &mut base, outcome);
    spans::start();
    model_rounds(ctx, grid, ROUNDS, &mut rng, &mut traced, outcome);
    let model_spans = spans::stop_and_drain();
    model_layers(&mut m, &traced, &model_spans);
    trace.extend(model_spans);
    let mut exact = exact_counts(&traced[0]);
    let step_sum = |rounds: &[Vec<Episode>]| -> f64 {
        SPACES
            .iter()
            .map(|sp| median(&step_seconds(rounds, sp)))
            .sum()
    };
    m.put(
        "tracing_overhead_frac",
        step_sum(&traced) / step_sum(&base) - 1.0,
        "fraction",
        ROUNDS,
    );

    // The known instability, made visible: steps until the guard trips.
    let (stable, why) = crate::ocean::stable_steps(&grid.cfg, grid.horizon_cap, &ctx.opts);
    println!(
        "{}x{}x{}: {stable} stable steps, then {}",
        grid.cfg.nx,
        grid.cfg.ny,
        grid.cfg.nz,
        why.as_deref().unwrap_or("no failure")
    );
    m.put("licom.stable_steps", stable as f64, "count", 1);
    let full = Resolution::Coarse100km.config();
    let (stable_full, why_full) = crate::ocean::stable_steps(&full, 20, &ctx.opts);
    println!(
        "{}x{}x{}: {stable_full} stable steps, then {}",
        full.nx,
        full.ny,
        full.nz,
        why_full.as_deref().unwrap_or("no failure")
    );
    m.put(
        "licom.stable_steps.full100km",
        stable_full as f64,
        "count",
        1,
    );
    exact.insert("licom.stable_steps".into(), stable);
    exact.insert("licom.stable_steps.full100km".into(), stable_full);

    // Serving layer: the canonical batch on Threads untraced, on Serial
    // traced, then a traced open loop.
    let dir = work_dir(&ctx.out, "serve");
    let threads = serve::batch(
        &dir,
        serve::CANONICAL_SEED,
        serve::CANONICAL_JOBS,
        Space::threads(),
        refs,
    );
    check_jobs(&threads, "canonical batch on Threads", outcome);
    m.put(
        "serve.capacity_steps_per_s.threads",
        threads.steps_per_s(),
        "steps/s",
        1,
    );
    spans::start();
    let canon = serve::batch(
        &dir,
        serve::CANONICAL_SEED,
        serve::CANONICAL_JOBS,
        Space::serial(),
        refs,
    );
    check_jobs(&canon, "canonical batch", outcome);
    let open = serve::open_loop(&dir, rng.next_u64(), 3.0 * plan.open_window_s, refs);
    check_jobs(&open, "open loop", outcome);
    trace.extend(spans::stop_and_drain());
    m.put(
        "serve.queue_wait_ms.p50",
        quantile(&open.queue_wait_ms, 0.5),
        "ms",
        open.queue_wait_ms.len(),
    );
    m.put(
        "serve.queue_wait_ms.p90",
        quantile(&open.queue_wait_ms, 0.9),
        "ms",
        open.queue_wait_ms.len(),
    );
    m.put(
        "serve.job_p90_ms.traced",
        open.turnaround_quantile_ms(0.9),
        "ms",
        open.jobs,
    );
    m.put(
        "serve.step_ms.p99",
        open.snapshot.p99_step_ns as f64 * 1e-6,
        "ms",
        open.snapshot.steps_total as usize,
    );
    m.put(
        "serve.worker_busy_frac",
        open.worker_busy_frac,
        "fraction",
        1,
    );
    for (name, v) in [
        ("serve.jobs_completed", canon.snapshot.jobs_completed),
        ("serve.steps_total", canon.snapshot.steps_total),
        ("serve.slices_total", canon.slices_total),
        ("serve.checkpoints_total", canon.checkpoints_total),
    ] {
        m.put(name, v as f64, "count", 1);
        exact.insert(name.into(), v);
    }

    // Direct probes. The halo and checkpoint probes record spans; the
    // trace is written and dropped before the STREAM probe allocates.
    spans::start();
    for (sp, ns) in probes::halo_pack_ns_per_byte(&grid.cfg, &ctx.opts, &mut trace) {
        m.put(format!("halo.pack_ns_per_byte.{sp}"), ns, "ns/B", 1);
    }
    let (ckpt_bytes, save_ms, restore_ms) =
        probes::checkpoint(&grid.cfg, &ctx.opts, &work_dir(&ctx.out, "ckpt"));
    trace.extend(spans::stop_and_drain());
    m.put("ckpt.bytes", ckpt_bytes as f64, "B", 1);
    m.put("ckpt.save_ms", save_ms, "ms", 5);
    m.put("ckpt.restore_ms", restore_ms, "ms", 5);
    exact.insert("ckpt.bytes".into(), ckpt_bytes);

    let path = ctx.out.join(format!("trace-{}.json", ctx.workload.name()));
    match spans::write_chrome_trace(&path, &trace, TRACE_CAP) {
        Ok(n) => println!("wrote {} ({n} of {} spans)", path.display(), trace.len()),
        Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
    }
    drop(trace);

    for (sp, us) in probes::launch_overhead_us() {
        m.put(format!("kokkos.launch_overhead_us.{sp}"), us, "us", 5);
    }
    m.put(
        "kokkos.stream_copy_gbps",
        probes::stream_copy_gbps(),
        "GB/s",
        3,
    );
    let (lat_us, gbps) = probes::pingpong();
    m.put("mpi.pingpong_us", lat_us, "us", 5);
    m.put("mpi.pingpong_gbps", gbps, "GB/s", 5);
    let (armed, disabled) = probes::flight_record_ns();
    m.put("flight.record_ns.armed", armed, "ns", 5);
    m.put("flight.record_ns.disabled", disabled, "ns", 5);
    (m, exact)
}
