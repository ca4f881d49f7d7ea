//! `perfbench` — the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload <launch-bound|compute-bound>
//!           --seed <n> --seconds <s> --trace <0|1>
//! perfbench --compare <old results.jsonl> <new results.jsonl>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` makes the traced run that reports the per-layer metrics.
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. README.md documents the
//! workloads and every metric.

mod compare;
mod host;
mod ocean;
mod probes;
mod serve;
mod spans;
mod stats;
mod traced;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use kokkos_profiling::{render_json, Json};
use kokkos_rs::Space;
use licom::model::ModelOptions;

use crate::ocean::{Episode, Grid, SPACES};
use licom_server::Rng;

use crate::stats::median;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    LaunchBound,
    ComputeBound,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "launch-bound" => Some(Self::LaunchBound),
            "compute-bound" => Some(Self::ComputeBound),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Self::LaunchBound => "launch-bound",
            Self::ComputeBound => "compute-bound",
        }
    }

    /// What one measurement cycle of this workload runs. A run repeats
    /// cycles until its seconds are used, so slow periods of a shared
    /// host spread over every part instead of hitting one.
    pub fn plan(self) -> Plan {
        match self {
            Self::LaunchBound => Plan {
                grid: ocean::launch_bound(),
                rounds: 2,
                open_window_s: 2.5,
            },
            Self::ComputeBound => Plan {
                grid: ocean::compute_bound(),
                rounds: 1,
                open_window_s: 3.0,
            },
        }
    }
}

/// One measurement cycle: model rounds, one saturating batch, one
/// open-loop window.
pub struct Plan {
    pub grid: Grid,
    /// Model rounds (one episode per space each) per cycle.
    pub rounds: usize,
    /// Seconds of open-loop arrivals per cycle.
    pub open_window_s: f64,
}

/// Metric values with units and sample counts, in name order.
#[derive(Default)]
pub struct Metrics(BTreeMap<String, (f64, &'static str, usize)>);

impl Metrics {
    /// Record `value` measured from `samples` samples (1 for a count or a
    /// single measurement).
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str, samples: usize) {
        let name = name.into();
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.0.insert(name, (value, unit, samples));
    }

    fn print(&self) {
        for (name, (v, unit, n)) in &self.0 {
            println!("  {name:<44} {v:>16.6} {unit:<8} (n={n})");
        }
    }

    fn json(&self) -> Json {
        Json::Obj(
            self.0
                .iter()
                .map(|(k, (v, unit, _))| {
                    (
                        k.clone(),
                        Json::obj([
                            ("value", Json::Num(*v)),
                            ("unit", Json::Str(unit.to_string())),
                        ]),
                    )
                })
                .collect(),
        )
    }
}

/// Operations attempted and failed, with the reason of each failure.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

impl Outcome {
    pub fn fail(&mut self, ops: u64, why: String) {
        self.failed += ops;
        self.problems.push(why);
    }
}

/// The run's settings and where it writes.
pub struct Ctx {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub out: PathBuf,
    pub opts: ModelOptions,
}

/// Exact counts one round of model episodes produced, per space; these
/// must repeat across rounds and across runs of the same build.
pub fn exact_counts(eps: &[Episode]) -> BTreeMap<String, u64> {
    let mut m = BTreeMap::new();
    for e in eps {
        let r0 = &e.ranks[0];
        let sp = e.space;
        let per_step = |v: u64| v / e.timed as u64;
        m.insert(format!("{sp}.msgs_per_step"), per_step(r0.msgs));
        m.insert(format!("{sp}.bytes_per_step"), per_step(r0.bytes));
        m.insert(format!("{sp}.halo_retries"), r0.retries);
        for (rank, r) in e.ranks.iter().enumerate() {
            m.insert(format!("{sp}.rank{rank}.checksum"), r.checksum);
            m.insert(
                format!("{sp}.rank{rank}.device_launches"),
                r.device_launches,
            );
            if let Some(sw) = r.sw {
                m.insert(format!("{sp}.rank{rank}.cpe_cycles"), sw.cycles);
                m.insert(format!("{sp}.rank{rank}.dma_bytes"), sw.dma_bytes);
            }
        }
    }
    m
}

/// A directory of this process under the output directory.
pub fn work_dir(out: &Path, name: &str) -> PathBuf {
    out.join(format!("{name}-{}", std::process::id()))
}

/// SYPD from a step wall time: `dt / (365 · step_s)`.
pub fn sypd(dt: f64, step_s: f64) -> f64 {
    dt / (365.0 * step_s)
}

/// `n` checked rounds of model episodes, appended to `rounds`.
pub fn model_rounds(
    ctx: &Ctx,
    grid: &Grid,
    n: usize,
    rng: &mut Rng,
    rounds: &mut Vec<Vec<Episode>>,
    outcome: &mut Outcome,
) {
    for _ in 0..n {
        let eps = ocean::round(grid, &ctx.opts, rng);
        let steps = (eps.len() * (grid.warmup + grid.timed)) as u64;
        outcome.attempted += steps;
        let mut problems = ocean::check_round(&eps);
        if let Some(first) = rounds.first() {
            let (a, b) = (exact_counts(first), exact_counts(&eps));
            if a != b {
                problems.push(format!(
                    "exact counts differ between rounds: {a:?} vs {b:?}"
                ));
            }
        }
        if !problems.is_empty() {
            outcome.fail(
                steps,
                format!("model round {}: {}", rounds.len(), problems.join("; ")),
            );
        }
        rounds.push(eps);
    }
}

/// Rank-0 step times (seconds) of every episode of `space`.
pub fn step_seconds(rounds: &[Vec<Episode>], space: &str) -> Vec<f64> {
    rounds
        .iter()
        .flatten()
        .filter(|e| e.space == space)
        .flat_map(|e| e.ranks[0].step_ns.iter().map(|&n| n as f64 * 1e-9))
        .collect()
}

fn check_jobs(phase: &serve::Phase, what: &str, outcome: &mut Outcome) {
    outcome.attempted += phase.jobs as u64;
    if !phase.failures.is_empty() {
        outcome.fail(
            phase.failures.len() as u64,
            format!(
                "{what}: {} failed jobs, first: {}",
                phase.failures.len(),
                phase.failures[0]
            ),
        );
    }
}

/// The untraced run: every end-to-end metric.
fn end_to_end(
    ctx: &Ctx,
    refs: &serve::Refs,
    outcome: &mut Outcome,
) -> (Metrics, BTreeMap<String, u64>) {
    let plan = ctx.workload.plan();
    let grid = &plan.grid;
    let mut rng = Rng::new(ctx.seed);
    let dir = work_dir(&ctx.out, "serve");
    let mut rounds: Vec<Vec<Episode>> = Vec::new();
    let (mut batches, mut windows) = (Vec::new(), Vec::new());
    let mut setup = Vec::new();
    let t0 = Instant::now();
    while setup.is_empty() || t0.elapsed().as_secs_f64() < ctx.seconds {
        let cycle = setup.len() as u64;
        let ticks = host::cpu_ticks();
        let first = rounds.len();
        model_rounds(ctx, grid, plan.rounds, &mut rng, &mut rounds, outcome);
        let round_setup: Vec<f64> = rounds[first..]
            .iter()
            .map(|r| r.iter().map(|e| e.setup_s).sum())
            .collect();
        let cycle_batches: Vec<serve::Phase> = (0..serve::BATCHES_PER_CYCLE)
            .map(|_| {
                let b = serve::batch(
                    &dir,
                    rng.next_u64(),
                    serve::BATCH_JOBS,
                    Space::serial(),
                    refs,
                );
                check_jobs(&b, &format!("batch of cycle {cycle}"), outcome);
                b
            })
            .collect();
        let caps: Vec<f64> = cycle_batches
            .iter()
            .map(serve::Phase::steps_per_s)
            .collect();
        setup.push(median(&round_setup) + cycle_batches[0].first_start_s);
        let w = serve::open_loop(&dir, rng.next_u64(), plan.open_window_s, refs);
        check_jobs(&w, &format!("open-loop window {cycle}"), outcome);
        let sypds: Vec<String> = SPACES
            .iter()
            .map(|sp| {
                let steps = step_seconds(&rounds[first..], sp);
                format!("{sp} {:.1}", sypd(grid.cfg.dt_baroclinic, median(&steps)))
            })
            .collect();
        println!(
            "cycle {cycle}: SYPD {}, set-up {:.4} s, batches {:.1} steps/s (median), open loop {} jobs p50 {:.1} ms p90 {:.1} ms, host steal {:.1}%",
            sypds.join(" "),
            setup[cycle as usize],
            median(&caps),
            w.jobs,
            w.turnaround_quantile_ms(0.5),
            w.turnaround_quantile_ms(0.9),
            100.0 * host::steal_frac(ticks, host::cpu_ticks()),
        );
        batches.extend(cycle_batches);
        windows.push(w);
    }

    let mut metrics = Metrics::default();
    for sp in SPACES {
        let steps = step_seconds(&rounds, sp);
        metrics.put(
            format!("sypd.{sp}"),
            sypd(grid.cfg.dt_baroclinic, median(&steps)),
            "SYPD",
            steps.len(),
        );
    }
    metrics.put("setup_s", median(&setup), "s", setup.len());
    let caps: Vec<f64> = batches.iter().map(serve::Phase::steps_per_s).collect();
    metrics.put(
        "serve.capacity_steps_per_s",
        median(&caps),
        "steps/s",
        caps.len(),
    );
    // Turnaround p50 per open-loop window (250-300 jobs each),
    // then the median over the run's windows. The p90 is a per-layer
    // metric of the traced run: its run-to-run spread on a shared 2-core
    // host exceeded the largest bound an end-to-end metric may have.
    let jobs: usize = windows.iter().map(|w| w.jobs).sum();
    let p50s: Vec<f64> = windows
        .iter()
        .map(|w| w.turnaround_quantile_ms(0.5))
        .collect();
    metrics.put("serve.job_p50_ms", median(&p50s), "ms", jobs);
    let late: Vec<f64> = windows
        .iter()
        .flat_map(|w| w.lateness_ms.iter().copied())
        .collect();
    println!(
        "{} cycles: {} model rounds of {} steps per space, {} batches of {} jobs, open loop {} jobs over {:.1} s (generator late by p50 {:.3} ms, max {:.3} ms)",
        setup.len(),
        rounds.len(),
        grid.timed,
        batches.len(),
        serve::BATCH_JOBS,
        jobs,
        plan.open_window_s * windows.len() as f64,
        median(&late),
        late.iter().cloned().fold(0.0, f64::max),
    );
    (metrics, exact_counts(&rounds[0]))
}

/// Compare `now` with the exact counts the first run of this build stored
/// at `path`, or store them if this is that run; a mismatch is a failed
/// check. Counts are stored as strings: checksums exceed an f64 mantissa.
fn check_exact_across_runs(
    path: &Path,
    build: &str,
    now: &BTreeMap<String, u64>,
    outcome: &mut Outcome,
) {
    let render = |counts: &BTreeMap<String, u64>| {
        Json::Obj(
            counts
                .iter()
                .map(|(k, v)| (k.clone(), Json::Str(v.to_string())))
                .collect(),
        )
    };
    if let Ok(text) = std::fs::read_to_string(path) {
        if let Ok(doc) = kokkos_profiling::parse_json(&text) {
            if doc.get("build").and_then(Json::as_str) == Some(build) {
                let before = doc.get("counts").map(render_json);
                if before != Some(render_json(&render(now))) {
                    outcome.fail(
                        1,
                        format!(
                            "exact counts differ from the previous run of this build ({})",
                            path.display()
                        ),
                    );
                }
                return;
            }
        }
    }
    let doc = Json::obj([
        ("build", Json::Str(build.to_string())),
        ("counts", render(now)),
    ]);
    if let Err(e) = std::fs::write(path, render_json(&doc)) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
}

/// Identity of the running executable (size and modification time), so
/// exact counts are only compared between runs of one build.
fn build_id() -> String {
    std::env::current_exe()
        .and_then(std::fs::metadata)
        .map(|m| {
            let mtime = m
                .modified()
                .ok()
                .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
                .map_or(0, |d| d.as_nanos());
            format!("{}-{mtime}", m.len())
        })
        .unwrap_or_else(|_| "unknown".into())
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(val).ok_or_else(|| format!("unknown workload `{val}`"))?)
            }
            "--seed" => seed = Some(val.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(val.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?)
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--compare") {
        return match argv.as_slice() {
            [_, old, new] => compare::run(Path::new(old), Path::new(new)),
            _ => {
                eprintln!("usage: perfbench --compare <old results.jsonl> <new results.jsonl>");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let out = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"));
    if let Err(e) = std::fs::create_dir_all(&out) {
        eprintln!("perfbench: cannot create {}: {e}", out.display());
        return ExitCode::from(2);
    }
    let flight_dir = work_dir(&out, "flight");
    let ctx = Ctx {
        workload: args.workload,
        seed: args.seed,
        seconds: args.seconds,
        opts: ocean::options(&flight_dir),
        out: out.clone(),
    };
    let fingerprint = host::Fingerprint::probe();
    let commit = host::commit();
    println!(
        "perfbench {} seed {} seconds {} trace {}",
        ctx.workload.name(),
        ctx.seed,
        ctx.seconds,
        u8::from(args.trace)
    );
    for (k, v) in fingerprint.fields() {
        println!("  host.{k:<24} {v}");
    }
    println!("  host.{:<24} {commit}", "commit");

    let ref_dir = work_dir(&out, "reference");
    let refs = serve::references(&ref_dir);
    let _ = std::fs::remove_dir_all(&ref_dir);

    let mut outcome = Outcome::default();
    let (metrics, mut exact) = if args.trace {
        traced::run(&ctx, &refs, &mut outcome)
    } else {
        end_to_end(&ctx, &refs, &mut outcome)
    };
    let _ = std::fs::remove_dir_all(&flight_dir);
    let mut refs_sorted: Vec<_> = refs.iter().collect();
    refs_sorted.sort();
    for ((nx, ny, nz, steps), sum) in refs_sorted {
        exact.insert(format!("serve.reference.{nx}x{ny}x{nz}.{steps}"), *sum);
    }
    let exact_path = out.join(format!(
        "exact-{}-trace{}.json",
        ctx.workload.name(),
        u8::from(args.trace)
    ));
    check_exact_across_runs(&exact_path, &build_id(), &exact, &mut outcome);

    println!("metrics:");
    metrics.print();
    for p in &outcome.problems {
        println!("FAILED CHECK: {p}");
    }
    let correct = outcome.failed == 0;
    let record = Json::obj([
        ("workload", Json::Str(ctx.workload.name().into())),
        ("seed", Json::Num(ctx.seed as f64)),
        ("seconds", Json::Num(ctx.seconds)),
        ("trace", Json::Bool(args.trace)),
        ("commit", Json::Str(commit)),
        (
            "host",
            Json::Obj(
                fingerprint
                    .fields()
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), Json::Str(v)))
                    .collect(),
            ),
        ),
        ("correct", Json::Bool(correct)),
        (
            "metrics",
            Json::Obj(
                metrics
                    .0
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::Num(v.0)))
                    .collect(),
            ),
        ),
    ]);
    let results = out.join("results.jsonl");
    let appended = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&results)
        .and_then(|mut f| {
            std::io::Write::write_all(&mut f, format!("{}\n", render_json(&record)).as_bytes())
        });
    if let Err(e) = appended {
        eprintln!("perfbench: cannot append to {}: {e}", results.display());
    }
    let last = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(outcome.attempted.max(1) as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        ("metrics", metrics.json()),
    ]);
    println!("{}", render_json(&last));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
