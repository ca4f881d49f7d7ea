//! The LICOMK++ model driver: one object per rank, stepping the full
//! split-explicit system on a runtime-selected execution space.
//!
//! The per-step sequence mirrors LICOM:
//!
//! 1. density + baroclinic hydrostatic pressure (`eos`);
//! 2. *canuto* mixing coefficients (`canuto`) — rectangle, packed-list,
//!    or cross-rank-balanced launch per [`CanutoMode`];
//! 3. 3-D momentum tendency + wind stress (`momentum`);
//! 4. split-explicit barotropic window with per-substep 2-D halo updates
//!    and polar filtering (`barotropic`);
//! 5. leapfrog momentum update, implicit vertical friction, barotropic
//!    mode correction (`update_uv`, `vmix`);
//! 6. 3-D halo update of the new velocities — optionally overlapped with
//!    the continuity diagnosis of `w` (`halo_uv`);
//! 7. two-step shape-preserving tracer advection with a mid-pass halo
//!    update, horizontal diffusion, implicit vertical mixing, surface
//!    restoring (`advection_tracer`, `vmix_tracer`, `forcing`);
//! 8. 3-D halo update of the new tracers (optionally batched into one
//!    message per direction) and the Asselin filter (`halo_ts`,
//!    `asselin`).
//!
//! SYPD is measured as the paper measures it: wall-clock of the daily
//! loop, initialization and I/O excluded (§VI-C).

use kokkos_rs::{
    parallel_for_2d, parallel_for_3d, parallel_for_list, Functor3D, FunctorList, IterCost,
    ListPolicy, MDRangePolicy2, MDRangePolicy3, Space, View, View1, View2, View3,
};
use mpi_sim::{CartComm, Comm, ReduceOp, RetryPolicy};
use ocean_grid::{Bathymetry, GlobalGrid, ModelConfig, GRAVITY};

use halo_exchange::{FoldKind, Halo, HaloError, IntegrityConfig, Pending, Strategy3D, HALO as H};

use crate::advect::{self, FunctorDiagnoseW, FunctorDiagnoseWList};
use crate::baroclinic::{
    FunctorAsselin3D, FunctorBtCorrect, FunctorBtCorrectList, FunctorLeapfrog3D,
    FunctorMomentumTend, FunctorMomentumTendList,
};
use crate::barotropic::{self, FunctorDepthMean, FunctorDepthMeanList};
use crate::canuto::{self, CanutoFields, FunctorCanutoCols, FunctorCanutoRect};
use crate::diag::{self, Diagnostics};
use crate::eos::{FunctorEos, FunctorEosList, FunctorPressure, FunctorPressureList};
use crate::forcing::{
    FunctorSurfaceRestore, FunctorSurfaceRestoreList, FunctorWindStress, FunctorWindStressList,
};
use crate::guard::{self, GuardViolation};
use crate::localgrid::LocalGrid;
use crate::state::State;
use crate::telemetry::{DriftTrip, StepMonitor, StepSample, TelemetryConfig};
use crate::timers::Timers;
use crate::vmix::{FunctorVmixImplicit, FunctorVmixList, FunctorVmixTeam};

/// How the canuto kernel is launched (§V-C1 progression).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CanutoMode {
    /// Rectangle launch: land iterations idle (pre-optimization).
    Rect,
    /// Packed wet-column list (within-rank balancing).
    List,
    /// Full Fig. 4 cross-rank redistribution.
    CrossRank,
}

/// Model configuration knobs corresponding to the paper's optimizations.
#[derive(Clone)]
pub struct ModelOptions {
    pub bathymetry: Bathymetry,
    pub canuto_mode: CanutoMode,
    /// Two-step shape-preserving advection (false = diffusive upstream).
    pub limiter: bool,
    /// 3-D halo buffer strategy (Fig. 5 transpose vs naive).
    pub halo_strategy: Strategy3D,
    /// Overlap the velocity halo exchange with the `w` diagnosis.
    pub overlap: bool,
    /// Batch tracer fields into one message per direction.
    pub batched_halo: bool,
    /// Run the implicit vertical solves as a TeamPolicy launch whose
    /// tridiagonal work arrays live in team scratch (LDM on the Sunway
    /// backend — the §V-C2 "local arrays within the functor" strategy).
    /// Bitwise identical to the flat launch.
    pub vmix_team: bool,
    /// Frame every halo strip with a CRC-protected header and recover
    /// corrupted/dropped strips through bounded retry (§ robustness).
    /// Bitwise identical on a clean network; adds 4 words per message.
    pub integrity: bool,
    /// The one timeout/backoff/jitter schedule for every deadline-bounded
    /// wait in the model: halo escrow retries, step-status votes, and the
    /// elastic-recovery consensus all derive their deadlines from it.
    /// Tests shrink it ([`RetryPolicy::test_small`]) so unrecoverable
    /// paths fail fast.
    pub retry: RetryPolicy,
    /// Per-step physics guard (NaN/velocity/tracer-bound scan over the
    /// owned wet sets). `None` disables the scan.
    pub guard: Option<crate::guard::GuardConfig>,
    /// Streaming per-step telemetry (sample ring + EWMA drift detection);
    /// `None` disables it. Escalation of physics drift to the rollback
    /// path is a separate switch inside the config.
    pub telemetry: Option<TelemetryConfig>,
    /// Always-on flight recorder: per-rank lock-free event rings with a
    /// Lamport clock piggybacked on every message, snapshotted into a
    /// post-mortem bundle on any failure edge. Recording costs tens of
    /// nanoseconds per event; disabling reduces the hot path to a single
    /// atomic load.
    pub flight: bool,
    /// Events retained per rank before the ring wraps (oldest evicted).
    pub flight_capacity: usize,
    /// Where post-mortem bundles land; `None` uses
    /// `std::env::temp_dir()/licom_flight`.
    pub flight_dir: Option<std::path::PathBuf>,
}

impl Default for ModelOptions {
    fn default() -> Self {
        Self {
            bathymetry: Bathymetry::earth_like(),
            canuto_mode: CanutoMode::List,
            limiter: true,
            halo_strategy: Strategy3D::Transpose,
            overlap: true,
            batched_halo: true,
            vmix_team: false,
            integrity: true,
            retry: RetryPolicy::default(),
            guard: Some(crate::guard::GuardConfig::default()),
            telemetry: Some(TelemetryConfig::default()),
            flight: true,
            flight_capacity: mpi_sim::flight::DEFAULT_CAPACITY,
            flight_dir: None,
        }
    }
}

/// Why a step could not be completed. The failing rank's state is
/// whatever the partial step left behind — recover by rolling back to a
/// checkpoint ([`Model::run_steps_resilient`]), not by retrying the step
/// in place.
#[derive(Debug)]
pub enum StepError {
    /// A halo strip stayed unrecoverable after the integrity layer's
    /// bounded retry.
    Halo(HaloError),
    /// The physics guard found non-finite or out-of-bound state.
    Guard(GuardViolation),
    /// The telemetry monitor flagged physics drift and
    /// [`TelemetryConfig::escalate`] is set.
    Drift(DriftTrip),
}

impl From<HaloError> for StepError {
    fn from(e: HaloError) -> Self {
        StepError::Halo(e)
    }
}

impl From<GuardViolation> for StepError {
    fn from(e: GuardViolation) -> Self {
        StepError::Guard(e)
    }
}

impl std::fmt::Display for StepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StepError::Halo(e) => write!(f, "{e}"),
            StepError::Guard(e) => write!(f, "{e}"),
            StepError::Drift(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for StepError {}

/// Explicit horizontal tracer diffusion: `q_new += dt · κ ∇² q_cur`,
/// no-flux across land.
pub struct FunctorTracerHDiff {
    pub q_cur: kokkos_rs::View3<f64>,
    pub q_new: kokkos_rs::View3<f64>,
    pub kmt: View2<i32>,
    pub dxt: View1<f64>,
    pub dyt: f64,
    pub kappa: f64,
    pub dt: f64,
}

impl Functor3D for FunctorTracerHDiff {
    fn operator(&self, k: usize, j: usize, i: usize) {
        let (jl, il) = (j + H, i + H);
        let ki = k as i32;
        if self.kmt.at(jl, il) <= ki {
            return;
        }
        let q = self.q_cur.at(k, jl, il);
        let nb = |jn: usize, inn: usize| -> f64 {
            if self.kmt.at(jn, inn) > ki {
                self.q_cur.at(k, jn, inn)
            } else {
                q
            }
        };
        let dx = self.dxt.at(jl);
        let lap = (nb(jl, il + 1) - 2.0 * q + nb(jl, il - 1)) / (dx * dx)
            + (nb(jl + 1, il) - 2.0 * q + nb(jl - 1, il)) / (self.dyt * self.dyt);
        self.q_new.set_at(
            k,
            jl,
            il,
            self.q_new.at(k, jl, il) + self.dt * self.kappa * lap,
        );
    }

    fn cost(&self) -> IterCost {
        IterCost {
            flops: 14,
            bytes: 80,
        }
    }
}

/// Active-set tracer diffusion: entry `idx` is a packed **owned** wet
/// cell `(k·pj + jl)·pi + il` (`k < kmt`); the functor's dry-cell
/// early-return is the exact complement of the set.
pub struct FunctorTracerHDiffList {
    pub f: FunctorTracerHDiff,
    pub pj: usize,
    pub pi: usize,
}

impl FunctorList for FunctorTracerHDiffList {
    fn operator(&self, _n: usize, idx: u32) {
        let idx = idx as usize;
        let il = idx % self.pi;
        let rest = idx / self.pi;
        let (k, jl) = (rest / self.pj, rest % self.pj);
        // The cell operator offsets by the halo width itself.
        self.f.operator(k, jl - H, il - H);
    }

    fn cost(&self) -> IterCost {
        self.f.cost()
    }
}

kokkos_rs::register_for_list!(kernel_tracer_hdiff_list, FunctorTracerHDiffList);

/// Register driver-level functors.
pub fn register() {
    kernel_tracer_hdiff_list();
}

/// Prebuilt [`ListPolicy`] instances over the grid's wet sets, constructed
/// once so the steady-state step stays allocation-free. Column policies
/// carry per-column wet depth as the scheduling cost.
struct WetPolicies {
    /// Wet T cells (`k < kmt`), **padded** block — density.
    cells_pad: ListPolicy,
    /// Wet T columns, **padded** block — pressure (halo columns needed).
    cols_pad: ListPolicy,
    /// Owned wet T columns — canuto, w diagnosis, z advection, tracer
    /// vmix, surface restoring.
    cols: ListPolicy,
    /// Owned wet velocity corners (`kmu > 0`) — depth mean, momentum
    /// vmix, mode correction, wind stress.
    ucols: ListPolicy,
    /// Owned wet T cells — tracer diffusion.
    cells: ListPolicy,
    /// Owned wet velocity cells (`k < kmu`) — momentum tendency.
    ucells: ListPolicy,
    /// Interior/rim split of `cells` (1-cell horizontal rim): overlap
    /// mode launches the interior, drives pending exchanges, then sweeps
    /// the rim. Disjoint union of `cells` — bitwise identical.
    cells_interior: ListPolicy,
    cells_rim: ListPolicy,
    /// Interior/rim split of `ucells`.
    ucells_interior: ListPolicy,
    ucells_rim: ListPolicy,
}

impl WetPolicies {
    fn build(g: &LocalGrid) -> Self {
        let w = &g.wet;
        Self {
            cells_pad: ListPolicy::new(w.cells3_pad.indices.clone()),
            cols_pad: ListPolicy::new(w.cols_pad.indices.clone())
                .with_cost_prefix(w.cols_pad.cost_prefix.clone()),
            cols: ListPolicy::new(w.cols_own.indices.clone())
                .with_cost_prefix(w.cols_own.cost_prefix.clone()),
            ucols: ListPolicy::new(w.ucols_own.indices.clone())
                .with_cost_prefix(w.ucols_own.cost_prefix.clone()),
            cells: ListPolicy::new(w.cells3_own.indices.clone()),
            ucells: ListPolicy::new(w.ucells3_own.indices.clone()),
            cells_interior: ListPolicy::new(w.cells3_own_interior.indices.clone()),
            cells_rim: ListPolicy::new(w.cells3_own_rim.indices.clone()),
            ucells_interior: ListPolicy::new(w.ucells3_own_interior.indices.clone()),
            ucells_rim: ListPolicy::new(w.ucells3_own_rim.indices.clone()),
        }
    }
}

/// Wall-clock statistics of a timed run.
#[derive(Debug, Clone, Copy)]
pub struct StepStats {
    pub steps: u64,
    pub simulated_days: f64,
    pub wall_seconds: f64,
    /// Simulated years per wall-clock day — the paper's headline metric.
    pub sypd: f64,
}

/// One rank's model instance.
pub struct Model {
    pub cfg: ModelConfig,
    pub space: Space,
    pub opts: ModelOptions,
    pub grid: LocalGrid,
    pub state: State,
    pub timers: Timers,
    comm: Comm,
    halo: Halo,
    gu: View2<f64>,
    gv: View2<f64>,
    zero2: View2<f64>,
    wet: WetPolicies,
    filter_rows: View1<i32>,
    filter_passes: usize,
    visc: f64,
    kappa: f64,
    /// Effective |u| bound for the guard: `min(max_speed, CFL·Δx/Δt)`
    /// over the *global* minimum spacing, so every rank enforces the
    /// same limit.
    guard_limit: f64,
    step_count: u64,
    monitor: Option<StepMonitor>,
    flight: Option<mpi_sim::flight::FlightCtx>,
    flight_dir: std::path::PathBuf,
}

/// Pick `px × py = n` with `px ≥ py` and `nxg % px == 0` (required by the
/// north-fold exchange).
pub fn choose_dims(nranks: usize, nxg: usize) -> (usize, usize) {
    let mut py = (nranks as f64).sqrt().floor() as usize;
    while py >= 1 {
        if nranks.is_multiple_of(py) {
            let px = nranks / py;
            if nxg.is_multiple_of(px) {
                return (px, py);
            }
        }
        py -= 1;
    }
    panic!("no decomposition of {nranks} ranks divides nx={nxg}");
}

impl Model {
    /// Build a model on this rank. Collective: every rank of `comm` must
    /// call it with identical arguments.
    pub fn new(comm: &Comm, cfg: ModelConfig, space: Space, opts: ModelOptions) -> Self {
        crate::register_all_kernels();
        // Each rank gets its own part of the host's cores, as MPI + OpenMP
        // pinning would give it.
        let space = space.partitioned(comm.size());
        // Rank threads tag themselves so an attached profiler lands this
        // rank's kernel spans and regions on its own chrome-trace track.
        kokkos_profiling::set_thread_rank(comm.rank() as i64);
        let (px, py) = choose_dims(comm.size(), cfg.nx);
        let cart = CartComm::new(comm.clone(), px, py, true);
        // One halo engine for 2-D and 3-D fields, so every exchange of a
        // step draws from one frame-ordinal stream. It stages wide strips
        // on the model's execution space (they pack on CPEs instead of
        // round-tripping the MPE).
        let mut halo = Halo::new(&cart, cfg.nx, cfg.ny)
            .with_space(space.clone())
            .with_strategy(opts.halo_strategy);
        if opts.integrity {
            halo = halo.with_integrity(IntegrityConfig::with_retry(opts.retry));
        }
        let global = GlobalGrid::build(cfg.nx, cfg.ny, cfg.nz, &opts.bathymetry, cfg.full_depth);
        let grid = LocalGrid::build(&global, &halo);
        let mut state = State::new(&grid);
        state.init_stratified(&grid);

        // Resolution-adaptive mixing: stable for any scaled grid.
        let dx_min = comm.allreduce_f64(grid.min_dx(), ReduceOp::Min);
        let dt = cfg.dt_baroclinic;
        let visc = (0.02 * dx_min * dx_min / dt).min(dx_min * dx_min / (16.0 * dt));
        let kappa = 0.25 * visc;
        let guard_limit = opts
            .guard
            .map_or(f64::INFINITY, |gc| gc.speed_limit(dx_min, dt));

        // Polar filter rows: where the barotropic leapfrog CFL is tight.
        let c_wave = (GRAVITY * global.vert.max_depth()).sqrt();
        let dx_need = std::f64::consts::SQRT_2 * c_wave * cfg.dt_barotropic;
        let filter_rows: View1<i32> = View::host("filter_rows", [grid.pj]);
        let mut any = false;
        for jl in 0..grid.pj {
            let flag = grid.dxt.at(jl) < 1.5 * dx_need;
            filter_rows.set_at(jl, i32::from(flag));
            any |= flag;
        }
        // Agree globally on the pass count: filtering drives per-substep
        // exchanges, and a rank that filters while its neighbour doesn't
        // would deadlock on mismatched message ordinals.
        let any_global = comm.allreduce_f64(f64::from(u8::from(any)), ReduceOp::Max);
        let filter_passes = usize::from(any_global > 0.5);

        let gu: View2<f64> = View::host("gu", [grid.pj, grid.pi]);
        let gv: View2<f64> = View::host("gv", [grid.pj, grid.pi]);
        let zero2: View2<f64> = View::host("zero2", [grid.pj, grid.pi]);
        let wet = WetPolicies::build(&grid);

        let monitor = opts.telemetry.map(StepMonitor::new);
        let flight = opts.flight.then(|| {
            kokkos_profiling::flight::init_bridge();
            comm.flight_ctx(opts.flight_capacity)
        });
        let flight_dir = opts
            .flight_dir
            .clone()
            .unwrap_or_else(|| std::env::temp_dir().join("licom_flight"));
        let mut model = Self {
            cfg,
            space,
            opts,
            grid,
            state,
            timers: Timers::new(),
            comm: comm.clone(),
            halo,
            gu,
            gv,
            zero2,
            wet,
            filter_rows,
            filter_passes,
            visc,
            kappa,
            guard_limit,
            step_count: 0,
            monitor,
            flight,
            flight_dir,
        };
        model.exchange_all_initial();
        model
    }

    /// Arm the flight recorder on this thread: comm-layer events (message
    /// sends/recvs, halo frames, retries) and kernel spans record into
    /// this rank's ring for the lifetime of the returned scope. No-op
    /// guard when the recorder is disabled.
    pub fn flight_scope(&self) -> Option<mpi_sim::flight::FlightScope> {
        self.flight.clone().map(mpi_sim::flight::enter)
    }

    /// Record one event into this rank's flight ring, bypassing the
    /// thread-local scope (safe from any thread that holds the model).
    pub fn flight_note(&self, kind: mpi_sim::flight::FlightEventKind, a: u64, b: u64, c: u64) {
        if let Some(ctx) = &self.flight {
            ctx.ring.record(&ctx.clock, kind, a, b, c);
        }
    }

    /// Snapshot every reachable rank ring into an atomic post-mortem
    /// bundle. At most one bundle is written per world per incident; the
    /// path of the written bundle is returned to the claiming rank.
    pub fn dump_flight(&self, reason: &str) -> Option<std::path::PathBuf> {
        self.flight.as_ref()?;
        kokkos_profiling::flight::dump_on_failure(&self.flight_dir, reason, &self.comm)
    }

    /// Where this model's post-mortem bundles land.
    pub fn flight_dir(&self) -> &std::path::Path {
        &self.flight_dir
    }

    fn exchange_all_initial(&mut self) {
        for lev in 0..crate::state::LEVELS {
            self.halo
                .exchange(&self.state.u[lev], FoldKind::Vector, 700);
            self.halo
                .exchange(&self.state.v[lev], FoldKind::Vector, 710);
            self.halo
                .exchange(&self.state.t[lev], FoldKind::Scalar, 720);
            self.halo
                .exchange(&self.state.s[lev], FoldKind::Scalar, 730);
            self.halo
                .exchange(&self.state.eta[lev].lift(), FoldKind::Scalar, 740);
        }
    }

    /// Horizontal viscosity actually in use (resolution-adaptive).
    pub fn viscosity(&self) -> f64 {
        self.visc
    }

    /// The communicator this model runs on.
    pub fn comm(&self) -> &Comm {
        &self.comm
    }

    /// The model's halo engine (for external tracer experiments).
    pub fn halo3(&self) -> &Halo {
        &self.halo
    }

    /// Simulated Sunway hardware counters, when running on the
    /// `SwAthread` space (the analogue of the paper's "job-level
    /// performance monitoring and analysis toolchain", §VI-C).
    pub fn sunway_counters(&self) -> Option<sunway_sim::CgCounters> {
        match &self.space {
            Space::SwAthread(sw) => Some(sw.counters()),
            _ => None,
        }
    }

    /// Number of polar-filter passes per barotropic substep (0 = off).
    pub fn polar_filter_passes(&self) -> usize {
        self.filter_passes
    }

    /// Advance one baroclinic step, panicking on failure. Production
    /// drivers should prefer [`Model::try_step`] (or
    /// [`Model::run_steps_resilient`]) so halo corruption and guard trips
    /// are recoverable instead of fatal.
    pub fn step(&mut self) {
        let at = self.step_count;
        self.try_step()
            .unwrap_or_else(|e| panic!("model step {at} failed: {e}"));
    }

    /// Advance one baroclinic step, surfacing halo-integrity failures and
    /// physics-guard trips as typed errors.
    ///
    /// On `Err` the prognostic state is whatever the aborted step left
    /// behind — not a usable model state. Recovery is rollback: restore a
    /// checkpoint and replay. The step body contains **no collectives**,
    /// so one rank aborting cannot strand its peers in a rendezvous; with
    /// integrity framing on, peers time out on the missing strips and
    /// abort too. Every exchange of the step is sequenced by
    /// `(epoch = step, ordinal)` so leftover frames from an aborted step
    /// are either bit-identical to the replay's (deterministic traffic)
    /// or discarded as stale.
    pub fn try_step(&mut self) -> Result<(), StepError> {
        let _flight = self.flight_scope();
        let epoch = self.step_count;
        // Record the attempted step before `set_epoch`: a seeded fault
        // plan kills this rank inside `set_epoch`, and the post-mortem
        // must still show what the dying rank was about to do.
        self.flight_note(mpi_sim::flight::FlightEventKind::StepBegin, epoch, 0, 0);
        self.comm.set_epoch(epoch);
        self.halo.begin_step(epoch);
        let tr0 = self.comm.traffic();
        let step_t0 = std::time::Instant::now();
        let hw0 = self.halo.halo_wait_ns();
        let hi0 = self.halo.halo_inflight_ns();
        let g = &self.grid;
        let (o, c, n) = (self.state.old(), self.state.cur(), self.state.new_lev());
        let dt = self.cfg.dt_baroclinic;
        let dt2 = if self.step_count == 0 { dt } else { 2.0 * dt };
        let p3 = MDRangePolicy3::new([g.nz, g.ny, g.nx]);
        let p2 = MDRangePolicy2::new([g.ny, g.nx]);
        let space = self.space.clone();

        // 1. Density and baroclinic pressure over the full padded block
        // (T/S halos are valid, so pressure halos come out valid too —
        // the momentum stencil reads them at the block edge).
        self.timers.start("eos");
        // Wet cells/columns over the padded block: halo densities and
        // pressures stay valid, land keeps its initial zeros.
        crate::eos::compute_density_pressure_active(
            &space,
            &self.wet.cells_pad,
            &self.wet.cols_pad,
            FunctorEosList {
                f: FunctorEos {
                    t: self.state.t[c].clone(),
                    s: self.state.s[c].clone(),
                    rho: self.state.rho.clone(),
                },
            },
            FunctorPressureList {
                f: FunctorPressure {
                    rho: self.state.rho.clone(),
                    eta: self.zero2.clone(),
                    pressure: self.state.pressure.clone(),
                    dz: g.dz.clone(),
                    kmt: g.kmt.clone(),
                    nz: g.nz,
                },
                pi: g.pi,
            },
        );
        self.timers.stop("eos");

        // 2. canuto mixing coefficients.
        self.timers.start("canuto");
        let cf = CanutoFields {
            rho: self.state.rho.clone(),
            u: self.state.u[c].clone(),
            v: self.state.v[c].clone(),
            km: self.state.km.clone(),
            kh: self.state.kh.clone(),
            kmt: g.kmt.clone(),
            z_t: g.z_t.clone(),
            nz: g.nz,
        };
        match self.opts.canuto_mode {
            CanutoMode::Rect => {
                parallel_for_2d(&space, p2, &FunctorCanutoRect { f: cf });
            }
            CanutoMode::List => {
                // Generic packed-list launch: the policy carries per-column
                // wet depth, so tiles are distributed by cumulative cost.
                parallel_for_list(
                    &space,
                    &self.wet.cols,
                    &FunctorCanutoCols { f: cf, pi: g.pi },
                );
            }
            CanutoMode::CrossRank => {
                canuto::balanced_cross_rank(&self.comm, &cf, &self.state.work.canuto_cols, g.pi);
            }
        }
        self.timers.stop("canuto");

        // 3. Momentum tendency + wind stress. (The pressure kernel above
        // stays unsplit on purpose: its halo inputs — T/S and thus rho —
        // are already valid at step entry, so there is no exchange to
        // hide behind an interior pass.)
        self.timers.start("momentum");
        let tend = FunctorMomentumTendList {
            f: FunctorMomentumTend {
                u_cur: self.state.u[c].clone(),
                v_cur: self.state.v[c].clone(),
                u_old: self.state.u[o].clone(),
                v_old: self.state.v[o].clone(),
                pressure: self.state.pressure.clone(),
                ut: self.state.ut.clone(),
                vt: self.state.vt.clone(),
                kmu: g.kmu.clone(),
                fcor: g.fcor.clone(),
                dxt: g.dxt.clone(),
                dyt: g.dyt,
                dz: g.dz.clone(),
                visc: self.visc,
            },
            pj: g.pj,
            pi: g.pi,
        };
        // Overlap mode splits the wet set into interior and rim: per-cell
        // independent writes over a disjoint union — bitwise identical.
        if self.opts.overlap {
            parallel_for_list(&space, &self.wet.ucells_interior, &tend);
            parallel_for_list(&space, &self.wet.ucells_rim, &tend);
        } else {
            parallel_for_list(&space, &self.wet.ucells, &tend);
        }
        parallel_for_list(
            &space,
            &self.wet.ucols,
            &FunctorWindStressList {
                f: FunctorWindStress {
                    ut: self.state.ut.clone(),
                    vt: self.state.vt.clone(),
                    lat: g.lat.clone(),
                    kmu: g.kmu.clone(),
                    dz0: g.dz.at(0),
                },
                pi: g.pi,
            },
        );
        self.timers.stop("momentum");

        // 4. Barotropic window.
        self.timers.start("barotropic");
        for (tend, out) in [(&self.state.ut, &self.gu), (&self.state.vt, &self.gv)] {
            let f = FunctorDepthMean {
                tend: tend.clone(),
                out: out.clone(),
                kmu: g.kmu.clone(),
                dz: g.dz.clone(),
            };
            parallel_for_list(
                &space,
                &self.wet.ucols,
                &FunctorDepthMeanList { f, pi: g.pi },
            );
        }
        let substeps = ((dt2 / self.cfg.dt_barotropic).round() as usize).max(1);
        let (gu, gv) = (self.gu.clone(), self.gv.clone());
        let filter_rows = self.filter_rows.clone();
        let (dtb, passes) = (self.cfg.dt_barotropic, self.filter_passes);
        let bt_res = {
            let grid = &self.grid;
            barotropic::integrate(
                &space,
                grid,
                &mut self.state,
                &self.halo,
                &gu,
                &gv,
                dtb,
                substeps,
                &filter_rows,
                passes,
                self.opts.overlap,
            )
        };
        self.timers.stop("barotropic");
        bt_res?;
        let g = &self.grid;

        // 5. Leapfrog momentum update + implicit friction + mode fix.
        self.timers.start("update_uv");
        for (old, new, tend) in [
            (&self.state.u[o], &self.state.u[n], &self.state.ut),
            (&self.state.v[o], &self.state.v[n], &self.state.vt),
        ] {
            parallel_for_3d(
                &space,
                p3,
                &FunctorLeapfrog3D {
                    old: old.clone(),
                    new: new.clone(),
                    tend: tend.clone(),
                    mask: g.kmu.clone(),
                    dt2,
                },
            );
        }
        self.timers.stop("update_uv");
        self.timers.start("vmix_momentum");
        for field in [&self.state.u[n], &self.state.v[n]] {
            self.launch_vmix(&space, field, &self.state.km, &g.kmu, dt2);
        }
        let f_btc = FunctorBtCorrect {
            u: self.state.u[n].clone(),
            v: self.state.v[n].clone(),
            ubt: self.state.ubt.clone(),
            vbt: self.state.vbt.clone(),
            kmu: g.kmu.clone(),
            dz: g.dz.clone(),
        };
        parallel_for_list(
            &space,
            &self.wet.ucols,
            &FunctorBtCorrectList { f: f_btc, pi: g.pi },
        );
        self.timers.stop("vmix_momentum");

        // 6. Velocity halo update, overlapped with the w diagnosis.
        self.timers.start("halo_uv");
        let w_list = FunctorDiagnoseWList {
            f: FunctorDiagnoseW {
                u: self.state.u[c].clone(),
                v: self.state.v[c].clone(),
                w: self.state.w.clone(),
                kmt: g.kmt.clone(),
                dxt: g.dxt.clone(),
                dyt: g.dyt,
                dz: g.dz.clone(),
                nz: g.nz,
            },
            pi: g.pi,
        };
        let wet_t_cols = &self.wet.cols;
        // Split-phase exchanges carried across the rest of the step
        // (overlap mode). Nothing downstream reads the covered ghosts:
        // u[n]/v[n] ghosts are first read next step, as are t[n]/s[n] and
        // the Asselin-filtered u[c]/v[c]. All are drained in `halo_drain`
        // before the step commits.
        let mut pend_uv: Option<Pending<'_>> = None;
        let mut pend_ts: Option<Pending<'_>> = None;
        let uv_res = if self.opts.overlap {
            // Post the batched u/v exchange, diagnose w while it flies.
            self.halo
                .begin(
                    &[
                        (&self.state.u[n], FoldKind::Vector),
                        (&self.state.v[n], FoldKind::Vector),
                    ],
                    800,
                )
                .map(|p| {
                    let _c = kokkos_rs::profiling::region("halo:overlap-compute");
                    parallel_for_list(&space, wet_t_cols, &w_list);
                    pend_uv = Some(p);
                })
        } else {
            parallel_for_list(&space, wet_t_cols, &w_list);
            if self.opts.batched_halo {
                self.halo.try_exchange(
                    &[
                        (&self.state.u[n], FoldKind::Vector),
                        (&self.state.v[n], FoldKind::Vector),
                    ],
                    800,
                )
            } else {
                self.halo
                    .try_exchange(&[(&self.state.u[n], FoldKind::Vector)], 800)
                    .and_then(|()| {
                        self.halo
                            .try_exchange(&[(&self.state.v[n], FoldKind::Vector)], 810)
                    })
            }
        };
        self.timers.stop("halo_uv");
        uv_res?;

        // 7. Tracers: two-step shape-preserving advection (+ halo for the
        // intermediate field between the x and y passes), diffusion,
        // implicit vertical mixing, surface restoring.
        self.timers.start("advection_tracer");
        let mut adv_res = Ok(());
        let exchange_tmp_blocking =
            |tmp: &View3<f64>| self.halo.try_exchange(&[(tmp, FoldKind::Scalar)], 820);
        for (cur, new) in [
            (&self.state.t[c], &self.state.t[n]),
            (&self.state.s[c], &self.state.s[n]),
        ] {
            adv_res = advect::advect_tracer(
                &space,
                g,
                cur,
                new,
                &self.state.work.adv_tmp,
                &self.state.work.adv_flux,
                &self.state.u[c],
                &self.state.v[c],
                &self.state.w,
                dt,
                self.opts.limiter,
                wet_t_cols,
                if self.opts.overlap {
                    advect::TmpExchange::Overlap {
                        halo: &self.halo,
                        tag_base: 820,
                    }
                } else {
                    advect::TmpExchange::Blocking(&exchange_tmp_blocking)
                },
            );
            // Drive the carried u/v exchange between tracers.
            adv_res = adv_res.and_then(|()| match pend_uv.as_mut() {
                Some(p) => p.poll().map(|_| ()),
                None => Ok(()),
            });
            if adv_res.is_err() {
                break;
            }
        }
        self.timers.stop("advection_tracer");
        adv_res?;
        self.timers.start("hdiff");
        let mut hd_res: Result<(), HaloError> = Ok(());
        for (cur, new) in [
            (&self.state.t[c], &self.state.t[n]),
            (&self.state.s[c], &self.state.s[n]),
        ] {
            let hd = FunctorTracerHDiffList {
                f: FunctorTracerHDiff {
                    q_cur: cur.clone(),
                    q_new: new.clone(),
                    kmt: g.kmt.clone(),
                    dxt: g.dxt.clone(),
                    dyt: g.dyt,
                    kappa: self.kappa,
                    dt,
                },
                pj: g.pj,
                pi: g.pi,
            };
            if self.opts.overlap {
                // Interior/rim split (disjoint, per-cell independent —
                // bitwise identical to the whole list), with a poll of
                // the carried u/v exchange between the halves.
                parallel_for_list(&space, &self.wet.cells_interior, &hd);
                if let Some(p) = pend_uv.as_mut() {
                    hd_res = hd_res.and_then(|()| p.poll().map(|_| ()));
                }
                parallel_for_list(&space, &self.wet.cells_rim, &hd);
            } else {
                parallel_for_list(&space, &self.wet.cells, &hd);
            }
        }
        self.timers.stop("hdiff");
        hd_res?;
        self.timers.start("vmix_tracer");
        for field in [&self.state.t[n], &self.state.s[n]] {
            self.launch_vmix(&space, field, &self.state.kh, &g.kmt, dt);
        }
        self.timers.stop("vmix_tracer");
        self.timers.start("forcing");
        parallel_for_list(
            &space,
            &self.wet.cols,
            &FunctorSurfaceRestoreList {
                f: FunctorSurfaceRestore {
                    t_new: self.state.t[n].clone(),
                    s_new: self.state.s[n].clone(),
                    lat: g.lat.clone(),
                    kmt: g.kmt.clone(),
                    dt,
                },
                pi: g.pi,
            },
        );
        self.timers.stop("forcing");

        // 8. Tracer halo update + Asselin on the leapfrogged fields.
        self.timers.start("halo_ts");
        let ts_res = if self.opts.overlap {
            // t[n]/s[n] ghosts are first read next step — carry the
            // exchange through the Asselin section and drain at the end.
            self.halo
                .begin(
                    &[
                        (&self.state.t[n], FoldKind::Scalar),
                        (&self.state.s[n], FoldKind::Scalar),
                    ],
                    830,
                )
                .map(|p| {
                    pend_ts = Some(p);
                })
        } else if self.opts.batched_halo {
            self.halo.try_exchange(
                &[
                    (&self.state.t[n], FoldKind::Scalar),
                    (&self.state.s[n], FoldKind::Scalar),
                ],
                830,
            )
        } else {
            self.halo
                .try_exchange(&[(&self.state.t[n], FoldKind::Scalar)], 830)
                .and_then(|()| {
                    self.halo
                        .try_exchange(&[(&self.state.s[n], FoldKind::Scalar)], 840)
                })
        };
        self.timers.stop("halo_ts");
        ts_res?;
        self.timers.start("asselin");
        for (old, cur, new) in [
            (&self.state.u[o], &self.state.u[c], &self.state.u[n]),
            (&self.state.v[o], &self.state.v[c], &self.state.v[n]),
        ] {
            parallel_for_3d(
                &space,
                p3,
                &FunctorAsselin3D {
                    old: old.clone(),
                    cur: cur.clone(),
                    new: new.clone(),
                },
            );
        }
        // The filtered cur level needs fresh halos for the next step.
        let mut pend_asselin: Option<Pending<'_>> = None;
        let as_res = if self.opts.overlap {
            self.halo
                .begin(
                    &[
                        (&self.state.u[c], FoldKind::Vector),
                        (&self.state.v[c], FoldKind::Vector),
                    ],
                    850,
                )
                .map(|p| {
                    pend_asselin = Some(p);
                })
        } else {
            self.halo
                .try_exchange(&[(&self.state.u[c], FoldKind::Vector)], 850)
                .and_then(|()| {
                    self.halo
                        .try_exchange(&[(&self.state.v[c], FoldKind::Vector)], 860)
                })
        };
        self.timers.stop("asselin");
        as_res?;

        // Drain every split-phase exchange still in flight: ghosts of
        // u[n]/v[n], t[n]/s[n], and the filtered u[c]/v[c] all become
        // valid here, before the step commits. The blocking tail of each
        // pending is counted as halo wait; the time since its begin is
        // counted as in-flight overlap.
        self.timers.start("halo_drain");
        let drain_res = (|| -> Result<(), HaloError> {
            if let Some(p) = pend_uv.take() {
                p.finish()?;
            }
            if let Some(p) = pend_ts.take() {
                p.finish()?;
            }
            if let Some(p) = pend_asselin.take() {
                p.finish()?;
            }
            Ok(())
        })();
        self.timers.stop("halo_drain");
        drain_res?;

        // Physics guard: scan the freshly computed level for non-finite
        // values, runaway velocities, and out-of-bound tracers before the
        // step is committed (rotated in). Local only — agreement on
        // success/failure is the caller's status vote.
        if let Some(gcfg) = self.opts.guard {
            self.timers.start("guard");
            let report = guard::scan(
                &space,
                &self.state,
                n,
                &self.wet.ucells,
                &self.wet.cells,
                &gcfg,
            );
            let verdict = report.violation(&gcfg, self.guard_limit);
            self.timers.stop("guard");
            if let Some(v) = verdict {
                // A guard trip is a local failure edge: snapshot the
                // black box now, before the caller unwinds into the
                // rollback vote.
                self.flight_note(mpi_sim::flight::FlightEventKind::GuardTrip, epoch, 0, 0);
                self.dump_flight("guard-trip");
                return Err(StepError::Guard(v));
            }
        }

        // Communication/allocation accounting for this step (world-level
        // counters: exact on one rank, aggregate otherwise). In steady
        // state `pool_allocs` must stay flat — every message buffer is a
        // pool reuse.
        let tr1 = self.comm.traffic();
        self.timers.add_count(
            "halo_msgs",
            tr1.p2p_messages.saturating_sub(tr0.p2p_messages),
        );
        self.timers
            .add_count("halo_bytes", tr1.p2p_bytes.saturating_sub(tr0.p2p_bytes));
        self.timers.add_count(
            "pool_allocs",
            tr1.pool_allocations.saturating_sub(tr0.pool_allocations),
        );
        self.timers.add_count(
            "pool_reuses",
            tr1.pool_reuses.saturating_sub(tr0.pool_reuses),
        );
        self.timers.add_count(
            "pooled_bytes",
            tr1.pooled_bytes.saturating_sub(tr0.pooled_bytes),
        );
        let halo_wait_delta = self.halo.halo_wait_ns().saturating_sub(hw0);
        self.timers.add_count("halo_wait_ns", halo_wait_delta);
        self.timers.add_count(
            "halo_inflight_ns",
            self.halo.halo_inflight_ns().saturating_sub(hi0),
        );

        // Streaming telemetry: fold this step's sample into the monitor,
        // under its own phase timer so the step stays fully attributed.
        // Physics drift escalates (when configured) before the step is
        // committed, mirroring the guard.
        if let Some(mut monitor) = self.monitor.take() {
            self.timers.start("telemetry");
            let (surface_mean_t, surface_ke) = self.surface_scalars(n);
            let obs = monitor.observe(StepSample {
                step: self.step_count,
                wall_seconds: step_t0.elapsed().as_secs_f64(),
                halo_wait_seconds: halo_wait_delta as f64 * 1e-9,
                p2p_messages: tr1.p2p_messages.saturating_sub(tr0.p2p_messages),
                p2p_bytes: tr1.p2p_bytes.saturating_sub(tr0.p2p_bytes),
                pool_allocations: tr1.pool_allocations.saturating_sub(tr0.pool_allocations),
                wet_cells: self.grid.wet.cells3_own.indices.len() as u64,
                surface_mean_t,
                surface_ke,
            });
            self.timers.add_count("drift_perf_trips", obs.perf_trips);
            self.timers
                .add_count("drift_physics_trips", obs.physics_trips);
            let escalate = monitor.config().escalate;
            self.monitor = Some(monitor);
            self.timers.stop("telemetry");
            if escalate {
                if let Some(trip) = obs.physics_trip {
                    self.flight_note(mpi_sim::flight::FlightEventKind::Drift, epoch, 0, 0);
                    self.dump_flight("drift");
                    return Err(StepError::Drift(trip));
                }
            }
        }
        // Active-set accounting (wet cells iterated, land skipped) is no
        // longer tallied here: every List-policy launch reports its
        // work-item count through the profiling hook chokepoint, so an
        // attached profiler derives the same numbers from the event
        // stream (see `Profiler::kernels` work_items per List dispatch).

        self.flight_note(mpi_sim::flight::FlightEventKind::StepEnd, epoch, 0, 0);
        self.step_count += 1;
        self.state.rotate();
        Ok(())
    }

    /// Zero every non-prognostic work array and reset the mixing
    /// coefficients to their background values, so a model restored from
    /// a checkpoint is indistinguishable from a freshly constructed one
    /// that loaded the same state. Asserted bitwise by the checkpoint
    /// round-trip tests.
    pub fn reset_transients(&mut self) {
        use crate::constants::{KH_BACKGROUND, KM_BACKGROUND};
        let s = &mut self.state;
        for v in [&s.w, &s.rho, &s.pressure, &s.ut, &s.vt] {
            v.fill(0.0);
        }
        for v in [&s.work.adv_flux, &s.work.adv_tmp] {
            v.fill(0.0);
        }
        s.work.filter2.fill(0.0);
        s.work.acc_eta.fill(0.0);
        s.work.acc_u.fill(0.0);
        s.work.acc_v.fill(0.0);
        for lev in 0..crate::state::LEVELS {
            s.bt_eta[lev].fill(0.0);
            s.bt_u[lev].fill(0.0);
            s.bt_v[lev].fill(0.0);
        }
        s.km.fill(KM_BACKGROUND);
        s.kh.fill(KH_BACKGROUND);
        self.gu.fill(0.0);
        self.gv.fill(0.0);
    }

    /// Launch one implicit vertical solve through the configured shape:
    /// TeamPolicy with LDM scratch, or the packed wet-column list
    /// matching `mask`.
    fn launch_vmix(
        &self,
        space: &Space,
        field: &kokkos_rs::View3<f64>,
        kcoef: &kokkos_rs::View3<f64>,
        mask: &View2<i32>,
        dt: f64,
    ) {
        let g = &self.grid;
        let _r = kokkos_rs::profiling::region("vmix:solve");
        if self.opts.vmix_team {
            kokkos_rs::parallel_for_team(
                space,
                kokkos_rs::TeamPolicy::new(g.ny * g.nx, FunctorVmixTeam::scratch_len(g.nz)),
                &FunctorVmixTeam {
                    q: field.clone(),
                    kcoef: kcoef.clone(),
                    mask: mask.clone(),
                    dz: g.dz.clone(),
                    z_t: g.z_t.clone(),
                    dt,
                    nz: g.nz,
                    nx: g.nx,
                },
            );
        } else {
            let f = FunctorVmixImplicit {
                q: field.clone(),
                kcoef: kcoef.clone(),
                mask: mask.clone(),
                dz: g.dz.clone(),
                z_t: g.z_t.clone(),
                dt,
                nz: g.nz,
            };
            // Pick the wet set matching the solve's mask (kmu for
            // momentum, kmt for tracers).
            let wet = if mask.data_ptr() == g.kmu.data_ptr() {
                &self.wet.ucols
            } else {
                &self.wet.cols
            };
            parallel_for_list(space, wet, &FunctorVmixList { f, pi: g.pi });
        }
    }

    /// Cheap per-step physics scalars over the owned surface at level
    /// `lev`: mean SST over wet T cells and total surface kinetic energy
    /// over wet U cells. Serial on purpose — no kernel launches and no
    /// collectives, so the step's event stream and traffic are unchanged
    /// by telemetry being on.
    fn surface_scalars(&self, lev: usize) -> (f64, f64) {
        let g = &self.grid;
        let t = &self.state.t[lev];
        let u = &self.state.u[lev];
        let v = &self.state.v[lev];
        let mut t_sum = 0.0;
        let mut wet = 0u64;
        let mut ke = 0.0;
        for j in 0..g.ny {
            for i in 0..g.nx {
                let (jl, il) = (j + H, i + H);
                if g.kmt.at(jl, il) > 0 {
                    t_sum += t.at(0, jl, il);
                    wet += 1;
                }
                if g.kmu.at(jl, il) > 0 {
                    let (uu, vv) = (u.at(0, jl, il), v.at(0, jl, il));
                    ke += 0.5 * (uu * uu + vv * vv);
                }
            }
        }
        (if wet > 0 { t_sum / wet as f64 } else { 0.0 }, ke)
    }

    /// The streaming telemetry monitor, when enabled.
    pub fn telemetry(&self) -> Option<&StepMonitor> {
        self.monitor.as_ref()
    }

    /// Cumulative halo receive-wait nanoseconds on this rank (shared by
    /// the 2-D and 3-D halo engines).
    pub fn halo_wait_ns(&self) -> u64 {
        self.halo.halo_wait_ns()
    }

    /// Cumulative nanoseconds exchanges spent in flight (begin → done)
    /// on this rank — concurrent spans add, so this is "communication ·
    /// seconds" available for overlap accounting.
    pub fn halo_inflight_ns(&self) -> u64 {
        self.halo.halo_inflight_ns()
    }

    /// Steps taken so far.
    pub fn steps_taken(&self) -> u64 {
        self.step_count
    }

    /// Overwrite the step counter (restart resume).
    pub fn set_steps_taken(&mut self, n: u64) {
        self.step_count = n;
    }

    /// Advance `n` steps.
    pub fn run_steps(&mut self, n: usize) {
        for _ in 0..n {
            self.step();
        }
    }

    /// Run `days` simulated days and report throughput, measuring only
    /// the daily loop (the paper's SYPD definition).
    pub fn run_days(&mut self, days: f64) -> StepStats {
        let steps = ((days * 86_400.0) / self.cfg.dt_baroclinic).round() as usize;
        let t0 = std::time::Instant::now();
        self.timers.start("daily_loop");
        self.run_steps(steps);
        self.timers.stop("daily_loop");
        let wall = t0.elapsed().as_secs_f64();
        let sim_days = steps as f64 * self.cfg.dt_baroclinic / 86_400.0;
        StepStats {
            steps: steps as u64,
            simulated_days: sim_days,
            wall_seconds: wall,
            sypd: (sim_days / 365.0) / (wall / 86_400.0),
        }
    }

    /// Local diagnostics at the current level.
    pub fn diagnostics(&self) -> Diagnostics {
        let c = self.state.cur();
        diag::local_diagnostics(
            &self.space,
            &self.grid,
            &self.state.u[c],
            &self.state.v[c],
            &self.state.t[c],
            &self.state.s[c],
        )
    }

    /// Deterministic fingerprint of the prognostic state.
    pub fn checksum(&self) -> u64 {
        self.state.checksum()
    }

    /// Global (allreduced) tracer inventory of temperature — the
    /// conservation metric.
    pub fn global_heat_content(&self) -> f64 {
        let d = self.diagnostics();
        self.comm.allreduce_f64(d.heat_content, ReduceOp::Sum)
    }
}
