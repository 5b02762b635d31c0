//! Measured-mode execution: the policy drivers on real memory.
//!
//! [`RuntimeMode::Measured`](crate::config::RuntimeMode) swaps the
//! virtual-time simulator for a physical substrate:
//!
//! 1. **Calibrate** — map a scratch `mmap` arena, run the executable
//!    STREAM/pointer-chase kernels on it, and fit a `TierSpec` plus
//!    `CF_bw`/`CF_lat` from the wall-clock numbers
//!    ([`tahoe_memprof::wallclock`]). The NVM spec is the fitted DRAM
//!    spec scaled by the reference platform's DRAM→NVM ratios.
//! 2. **Execute** — allocate every app object in [`RealBackend`]-backed
//!    arenas on its policy's initial tier (Tahoe: the compiler-estimate
//!    placement, [`compiler_initial_placement`]; at the profiling
//!    boundary it issues only the moves whose predicted benefit exceeds
//!    their copy cost, see [`BoundaryPlan`]), then run the task graph
//!    window by window as *real memory
//!    traffic* ([`tahoe_realmem::traffic`]): each declared access walks
//!    the object's live bytes at native speed; NVM residence then
//!    injects the cf-corrected model *difference* between the slow and
//!    fast device (Quartz-style delay injection). DRAM-resident
//!    accesses run untouched, NVM-resident accesses are spun out by the
//!    derived slowdown.
//! 3. **Compare** — every access folds into a run checksum that is a
//!    pure function of the deterministic traffic, so a reference
//!    execution on plain heap buffers ([`reference_checksum`]) must
//!    match bit for bit, whatever the policy or substrate.
//!
//! Only the four headline policies run in measured mode (DRAM-only,
//! NVM-only, first-touch, Tahoe); the cache/oracle baselines are
//! simulator-only by construction.

use std::time::Instant;

use tahoe_hms::{AccessProfile, Hms, HmsConfig, ObjectId, TierId, TierKind, TierSpec};
use tahoe_memprof::wallclock::{
    derive_scaled_spec, fit_calibration, measure_tier, WallClockCalibration, WallClockConfig,
};
use tahoe_obs::{Emitter, Event, Metrics, Tier};
use tahoe_perfmodel::cost::migration_cost_ns;
use tahoe_placement::{solve_mck, MckAssignment, MckItem};
use tahoe_realmem::{traffic, MmapArena, RealBackend};
use tahoe_sanitize::{
    audit_plan, plan_cost_ns, MigrationPlan, PlanContext, PlanStep, SanitizeReport,
};

use crate::app::App;
use crate::config::Platform;
use crate::policy::{compiler_initial_placement, PolicyKind};

/// Deterministic per-site seed (splitmix64 of a site key), parameterized
/// by a run seed so the stress suite can vary the traffic contents.
/// `run_seed == 0` reproduces the historical unseeded site key exactly,
/// so existing artifacts stay comparable.
///
/// Public so out-of-crate executors (the multi-tenant server) can run
/// the exact traffic stream the sequential reference folds.
pub fn site_seed(run_seed: u64, task: u32, access: usize) -> u64 {
    let mut z = ((task as u64) << 20)
        ^ access as u64
        ^ 0xA5A5_0000_0000
        ^ run_seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn seed(task: u32, access: usize) -> u64 {
    site_seed(0, task, access)
}

/// The canonical checksum fold. Not commutative — equality with the
/// reference requires folding in the canonical order (object inits,
/// then windows → window tasks → accesses).
pub fn fold(acc: u64, x: u64) -> u64 {
    acc.rotate_left(7) ^ x
}

/// One policy's measured outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct MeasuredPolicyReport {
    /// Policy display name.
    pub policy: String,
    /// Wall-clock time of the execution phase, ns (excludes setup and
    /// calibration).
    pub wall_ns: f64,
    /// Bytes of object data walked by the traffic kernels.
    pub bytes_touched: u64,
    /// `bytes_touched / wall_ns` (== GB/s).
    pub throughput_gbps: f64,
    /// Fold of every access checksum, in execution order.
    pub checksum: u64,
    /// Physical inter-tier copies the policy triggered.
    pub migrations: u64,
    /// Bytes those copies moved.
    pub migrated_bytes: u64,
    /// Wall-clock ns spent inside the throttled copy engine.
    pub copy_wall_ns: f64,
    /// Objects resident in DRAM when the run finished.
    pub final_dram_objects: usize,
    /// Objects resident on each tier (fastest first) when the run
    /// finished. Length = tier count; `[0]` equals `final_dram_objects`.
    pub final_tier_objects: Vec<usize>,
}

/// A full measured-mode comparison across policies.
#[derive(Debug, Clone, PartialEq)]
pub struct MeasuredReport {
    /// The fitted calibration every policy ran under.
    pub calibration: WallClockCalibration,
    /// NUMA nodes the (dram, nvm) arenas were bound to; `-1` = unbound,
    /// pure software emulation.
    pub numa_nodes: (i64, i64),
    /// Per-policy results, in the order requested.
    pub policies: Vec<MeasuredPolicyReport>,
    /// Checksum of the reference execution on plain heap buffers.
    pub reference_checksum: u64,
}

/// Everything a measured policy run needs before its first task: the
/// derived HMS configuration, the backend-loaded [`Hms`] with every
/// object allocated per the policy's initial placement, the app-order →
/// HMS object id map, the boundary plan the run executes, and the
/// copy-engine throttle (for the background migration thread).
pub(crate) struct PreparedRun {
    pub(crate) config: HmsConfig,
    pub(crate) hms: Hms,
    pub(crate) ids: Vec<ObjectId>,
    /// Where every object starts and the priced moves issued at the
    /// profiling boundary (no moves for the fixed-placement policies).
    pub(crate) plan: BoundaryPlan,
    pub(crate) copy_cfg: tahoe_realmem::CopyConfig,
    /// Tahoe's per-object value of DRAM residence (predicted ns saved
    /// over the whole run); `None` for non-Tahoe policies. This is the
    /// prediction the model-accuracy audit scores.
    pub(crate) plan_values: Option<Vec<f64>>,
}

/// One priced move of Tahoe's boundary plan.
#[derive(Debug, Clone, PartialEq)]
pub struct PricedMove {
    /// App object index.
    pub object: u32,
    /// Tier the object occupies when the move is issued.
    pub from_tier: u8,
    /// Destination tier.
    pub to_tier: u8,
    /// Predicted ns the move saves over the windows from the boundary on
    /// (negative for a demotion, which gives residence up).
    pub benefit_ns: f64,
    /// Predicted copy time, ns ([`migration_cost_ns`] with no overlap
    /// credit).
    pub cost_ns: f64,
}

impl PricedMove {
    /// Predicted benefit minus copy cost.
    pub fn net_ns(&self) -> f64 {
        self.benefit_ns - self.cost_ns
    }
}

/// The plan a measured run executes: the initial placement the
/// allocator produced plus the moves issued at the profiling boundary,
/// each priced against where its object actually is. `moves[k]` prices
/// `plan.steps[k]`; moves out of a tier precede moves into it.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundaryPlan {
    /// Initial tiers and timed steps, as the plan auditor certifies them.
    pub plan: MigrationPlan,
    /// The priced moves, in step order.
    pub moves: Vec<PricedMove>,
}

impl BoundaryPlan {
    /// Tier of every object after the boundary moves.
    pub fn final_tiers(&self) -> Vec<u8> {
        let mut tiers = self.plan.initial_tiers.clone();
        for s in &self.plan.steps {
            tiers[s.object as usize] = s.to_tier;
        }
        tiers
    }

    /// Predicted net benefit of the whole plan, ns.
    pub fn net_ns(&self) -> f64 {
        self.moves.iter().map(PricedMove::net_ns).sum()
    }
}

/// Windows Tahoe profiles before its boundary plan takes effect: the
/// moves are issued when window `profile_windows(app)` opens.
pub(crate) fn profile_windows(app: &App) -> u32 {
    app.windows().saturating_sub(1).min(2)
}

/// Modelled memory time of one access on `spec`, corrected by the
/// calibration's factor: the delay measured mode's emulation charges.
pub(crate) fn access_ns(
    cal: &WallClockCalibration,
    profile: &AccessProfile,
    spec: &TierSpec,
) -> f64 {
    profile.mem_time_ns(spec) * cf(cal, profile, spec)
}

/// Seed for object `i`'s initialization fill. `run_seed == 0` reproduces
/// the historical per-object seed (`i` itself).
pub fn init_seed(run_seed: u64, object: usize) -> u64 {
    object as u64 ^ run_seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// Measured-mode runtime: a reference platform (capacities + device
/// ratios) plus kernel sizing.
#[derive(Debug, Clone)]
pub struct MeasuredRuntime {
    pub(crate) platform: Platform,
    pub(crate) kernel_cfg: WallClockConfig,
    pub(crate) emitter: Emitter,
    pub(crate) metrics: Metrics,
}

impl MeasuredRuntime {
    /// Build a measured runtime over `platform`. The platform's tier
    /// *capacities* and its DRAM→NVM performance *ratios* are used; its
    /// absolute numbers are replaced by the calibration fit.
    pub fn new(platform: Platform, kernel_cfg: WallClockConfig) -> Self {
        MeasuredRuntime {
            platform,
            kernel_cfg,
            emitter: Emitter::disabled(),
            metrics: Metrics::disabled(),
        }
    }

    /// Attach an event emitter and metrics registry.
    pub fn with_observability(mut self, emitter: Emitter, metrics: Metrics) -> Self {
        self.emitter = emitter;
        self.metrics = metrics;
        self
    }

    /// Run the wall-clock calibration pass on a scratch `mmap` arena.
    pub fn calibrate(&self) -> Result<WallClockCalibration, String> {
        let bytes = self.kernel_cfg.required_bytes();
        let arena = MmapArena::new(TierKind::Dram, bytes)?;
        let ptr = arena
            .data_ptr(0, bytes)
            .ok_or_else(|| "scratch arena too small".to_string())?;
        // SAFETY: the arena maps at least `bytes` writable bytes and
        // lives until after the measurement returns.
        #[allow(unsafe_code)]
        let buf = unsafe { std::slice::from_raw_parts_mut(ptr, bytes as usize) };
        let measured = measure_tier(buf, &self.kernel_cfg)?;
        let cal = fit_calibration(
            &measured,
            &self.kernel_cfg,
            &self.platform.dram,
            &self.platform.nvm,
            self.platform.dram.capacity,
            self.platform.nvm.capacity,
        )
        .map_err(|e| e.to_string())?;
        for (tier, spec) in [(Tier::Dram, &cal.dram), (Tier::Nvm, &cal.nvm)] {
            let (bw_r, bw_w, lat) = (spec.read_bw_gbps, spec.write_bw_gbps, spec.read_lat_ns);
            self.emitter.emit(|| Event::TierFitted {
                t: 0.0,
                tier,
                read_bw_gbps: bw_r,
                write_bw_gbps: bw_w,
                read_lat_ns: lat,
            });
        }
        self.metrics.gauge_set("measured.cf_bw", cal.cf_bw);
        self.metrics.gauge_set("measured.cf_lat", cal.cf_lat);
        Ok(cal)
    }

    /// Shared setup of a measured policy run: validate, derive the HMS
    /// configuration, install a [`RealBackend`], allocate every object on
    /// its policy-chosen tier, and (for Tahoe) compute the knapsack plan
    /// — then refuse to hand the run over unless the static plan auditor
    /// certifies the plan sound. Both the sequential `run_policy` and
    /// `run_policy_parallel` pass through here, so no unsound plan can
    /// reach either executor.
    pub(crate) fn prepare(
        &self,
        app: &App,
        policy: &PolicyKind,
        cal: &WallClockCalibration,
    ) -> Result<PreparedRun, String> {
        let prepared = self.prepare_unaudited(app, policy, cal)?;
        let report = Self::audit_prepared(app, &prepared);
        if !report.is_clean() {
            let kinds: Vec<String> = report
                .by_kind()
                .into_iter()
                .filter(|(_, n)| *n > 0)
                .map(|(tag, n)| format!("{tag}={n}"))
                .collect();
            return Err(format!(
                "refusing to run {}: plan audit found {} violation(s) [{}]; first: {}",
                policy.name(),
                report.violations.len(),
                kinds.join(", "),
                report.violations[0].detail
            ));
        }
        Ok(prepared)
    }

    /// [`MeasuredRuntime::prepare`] without the audit gate.
    fn prepare_unaudited(
        &self,
        app: &App,
        policy: &PolicyKind,
        cal: &WallClockCalibration,
    ) -> Result<PreparedRun, String> {
        match policy {
            PolicyKind::DramOnly
            | PolicyKind::NvmOnly
            | PolicyKind::FirstTouch
            | PolicyKind::Tahoe(_) => {}
            other => {
                return Err(format!(
                    "policy {} is not supported in measured mode",
                    other.name()
                ))
            }
        }
        app.validate()?;
        let footprint = app.footprint();

        // Capacity handling mirrors the virtual driver: DRAM-only is the
        // no-budget upper bound; everything else must at least fit in
        // NVM.
        let mut dram_spec = cal.dram.clone();
        let mut nvm_spec = cal.nvm.clone();
        if matches!(policy, PolicyKind::DramOnly) {
            dram_spec.capacity = dram_spec.capacity.max(footprint);
        }
        nvm_spec.capacity = nvm_spec.capacity.max(2 * footprint);
        let copy_bw = nvm_spec.write_bw_gbps.min(dram_spec.read_bw_gbps) * 0.8;
        let config = if self.platform.mids.is_empty() {
            HmsConfig::new(dram_spec, nvm_spec, copy_bw).map_err(|e| e.to_string())?
        } else {
            // Middle tiers get the same treatment as NVM: the fitted
            // DRAM spec scaled by the reference preset's ratios, at the
            // platform's middle-tier capacity.
            let mut specs = Vec::with_capacity(self.platform.n_tiers());
            specs.push(dram_spec.clone());
            for mid in &self.platform.mids {
                specs.push(derive_scaled_spec(
                    &cal.dram,
                    &self.platform.dram,
                    mid,
                    mid.capacity,
                ));
            }
            specs.push(nvm_spec);
            HmsConfig::with_tiers(specs, copy_bw).map_err(|e| e.to_string())?
        };

        let backend =
            RealBackend::with_observability(&config, self.emitter.clone(), self.metrics.clone())?;
        let copy_cfg = backend.copy_config();
        let mut hms = Hms::new(config.clone());
        hms.set_backend(Box::new(backend));

        // ---- placement + allocation ----------------------------------
        let n_objects = app.objects.len();
        let prefer_dram: Vec<bool> = match policy {
            PolicyKind::DramOnly => vec![true; n_objects],
            PolicyKind::NvmOnly => vec![false; n_objects],
            // First-touch fills DRAM in allocation order and spills.
            PolicyKind::FirstTouch => vec![true; n_objects],
            // Tahoe starts from the compiler-estimate placement, or on
            // the slowest tier when that is ablated.
            PolicyKind::Tahoe(o) if o.initial_placement => {
                let units: Vec<(usize, u64)> = app
                    .objects
                    .iter()
                    .enumerate()
                    .map(|(i, o)| (i, o.size))
                    .collect();
                compiler_initial_placement(app, &units, config.dram.capacity)
            }
            PolicyKind::Tahoe(_) => vec![false; n_objects],
            // Rejected above.
            _ => unreachable!("unsupported policy reached placement"),
        };
        let fallback = !matches!(policy, PolicyKind::DramOnly);
        let mut ids: Vec<ObjectId> = Vec::with_capacity(n_objects);
        let mut initial_tiers: Vec<u8> = Vec::with_capacity(n_objects);
        for (spec, &dram) in app.objects.iter().zip(&prefer_dram) {
            let preferred = if dram { TierKind::Dram } else { TierKind::Nvm };
            let id = hms
                .alloc_object(&spec.name, spec.size, preferred, fallback)
                .map_err(|e| format!("alloc {}: {e}", spec.name))?;
            ids.push(id);
            initial_tiers.push(hms.tier_index_of(id).map_err(|e| e.to_string())?.0);
        }

        let (plan, plan_values) = match policy {
            PolicyKind::Tahoe(_) => {
                let (plan, values) = tahoe_boundary_plan(app, &config, cal, initial_tiers)?;
                (plan, Some(values))
            }
            _ => (
                BoundaryPlan {
                    plan: MigrationPlan {
                        initial_tiers,
                        steps: Vec::new(),
                    },
                    moves: Vec::new(),
                },
                None,
            ),
        };

        Ok(PreparedRun {
            config,
            hms,
            ids,
            plan,
            copy_cfg,
            plan_values,
        })
    }

    /// Run the static plan auditor over a prepared run, charging every
    /// step its copy at the configured tier-pair bandwidth.
    pub(crate) fn audit_prepared(app: &App, prepared: &PreparedRun) -> SanitizeReport {
        let specs: Vec<TierSpec> = prepared.config.tier_specs().into_iter().cloned().collect();
        let ctx = plan_context(app, &prepared.config);
        audit_plan(&app.graph, &prepared.plan.plan, &specs, &ctx)
    }

    /// The priced plan a measured run of `policy` would execute: where
    /// the allocator puts every object and the moves Tahoe issues at the
    /// profiling boundary, each with its predicted benefit and copy cost.
    /// Prepared exactly as `run_policy` prepares it, without the audit
    /// gate.
    pub fn boundary_plan(
        &self,
        app: &App,
        policy: &PolicyKind,
        cal: &WallClockCalibration,
    ) -> Result<BoundaryPlan, String> {
        Ok(self.prepare_unaudited(app, policy, cal)?.plan)
    }

    /// Pre-flight a policy's migration plan without executing anything:
    /// prepare the run exactly as `run_policy` would (same allocator
    /// decisions, same solver) and return the static auditor's report.
    /// `run_policy` and `run_policy_parallel` enforce the same audit
    /// internally, erroring on an unsound plan; this entry point exposes
    /// the full diagnostic set.
    pub fn verify_plan(
        &self,
        app: &App,
        policy: &PolicyKind,
        cal: &WallClockCalibration,
    ) -> Result<SanitizeReport, String> {
        let prepared = self.prepare_unaudited(app, policy, cal)?;
        Ok(Self::audit_prepared(app, &prepared))
    }

    /// Execute `app` under `policy` on arena-backed objects with the
    /// given calibration. Unsupported policies (cache/oracle baselines)
    /// return an error.
    pub fn run_policy(
        &self,
        app: &App,
        policy: &PolicyKind,
        cal: &WallClockCalibration,
    ) -> Result<MeasuredPolicyReport, String> {
        let PreparedRun {
            config,
            mut hms,
            ids,
            plan,
            ..
        } = self.prepare(app, policy, cal)?;

        // ---- execution ------------------------------------------------
        let boundary = profile_windows(app);
        let mut checksum = 0u64;
        let mut bytes_touched = 0u64;
        let start = Instant::now();

        // Objects are initialized as real traffic too (this is the
        // first-touch the policies differ on).
        for (i, id) in ids.iter().enumerate() {
            let buf = hms
                .object_bytes(*id)
                .map_err(|e| e.to_string())?
                .ok_or("real backend must expose bytes")?;
            checksum = fold(checksum, traffic::init_fill(buf, i as u64));
            bytes_touched += buf.len() as u64;
        }

        for w in 0..app.windows() {
            // Tahoe issues its boundary moves after the profiling
            // windows — real throttled copies through the backend (the
            // per-pair copy config throttles each hop), demotions first
            // so promotions find their room.
            if w == boundary {
                for s in &plan.plan.steps {
                    let _ = hms.move_object_to(ids[s.object as usize], TierId(s.to_tier));
                }
            }
            for tid in app.graph.window_tasks(w) {
                let task = app.graph.task(tid);
                for (ai, access) in task.accesses.iter().enumerate() {
                    let id = ids[access.object.index()];
                    let tier = hms.tier_index_of(id).map_err(|e| e.to_string())?;
                    // Quartz-style software emulation: the access runs
                    // at native speed, then residence on any tier slower
                    // than DRAM injects the cf-corrected model
                    // *difference* between that device and the fast one.
                    // Injecting the delta (rather than flooring to an
                    // absolute model time) keeps the asymmetry honest
                    // whatever the native kernels cost.
                    let inject_ns = if tier != TierId::FASTEST {
                        let slow = access_ns(cal, &access.profile, config.tier_spec_at(tier));
                        (slow - access_ns(cal, &access.profile, &config.dram)).max(0.0)
                    } else {
                        0.0
                    };
                    let buf = hms
                        .object_bytes(id)
                        .map_err(|e| e.to_string())?
                        .ok_or("real backend must expose bytes")?;
                    bytes_touched += buf.len() as u64;
                    let c = traffic::run_access(
                        buf,
                        access.profile.loads,
                        access.profile.stores,
                        seed(tid.0, ai),
                    );
                    checksum = fold(checksum, c);
                    if inject_ns > 0.0 {
                        tahoe_realmem::throttle::pace_until(Instant::now(), inject_ns);
                    }
                }
            }
        }
        let wall_ns = (start.elapsed().as_nanos() as f64).max(1.0);

        let stats = hms.backend_stats();
        let final_dram_objects = hms.objects_on(TierKind::Dram).len();
        let mut final_tier_objects = vec![0usize; config.n_tiers()];
        for id in &ids {
            let t = hms.tier_index_of(*id).map_err(|e| e.to_string())?;
            final_tier_objects[t.index()] += 1;
        }
        Ok(MeasuredPolicyReport {
            policy: policy.name(),
            wall_ns,
            bytes_touched,
            throughput_gbps: bytes_touched as f64 / wall_ns,
            checksum,
            migrations: stats.copies,
            migrated_bytes: stats.copied_bytes,
            copy_wall_ns: stats.copy_wall_ns,
            final_dram_objects,
            final_tier_objects,
        })
    }

    /// Calibrate once, run every policy, and attach the reference
    /// checksum.
    pub fn run_suite(&self, app: &App, policies: &[PolicyKind]) -> Result<MeasuredReport, String> {
        let cal = self.calibrate()?;
        let mut reports = Vec::with_capacity(policies.len());
        let mut numa_nodes = (-1i64, -1i64);
        for p in policies {
            let r = self.run_policy(app, p, &cal)?;
            reports.push(r);
        }
        // NUMA topology is a machine property; probe it once for the
        // report.
        let topo = tahoe_realmem::numa::probe();
        if topo.has_remote_node() {
            numa_nodes = (0, topo.nvm_node().map(i64::from).unwrap_or(-1));
        }
        Ok(MeasuredReport {
            calibration: cal,
            numa_nodes,
            policies: reports,
            reference_checksum: reference_checksum(app),
        })
    }
}

/// Which correction factor applies to a profile on a spec.
pub fn cf(
    cal: &WallClockCalibration,
    profile: &tahoe_hms::AccessProfile,
    spec: &tahoe_hms::TierSpec,
) -> f64 {
    if profile.bandwidth_limited_on(spec) {
        cal.cf_bw
    } else {
        cal.cf_lat
    }
}

/// The auditor's context for a measured run: object sizes plus the
/// configured copy bandwidth of every tier pair.
fn plan_context(app: &App, config: &HmsConfig) -> PlanContext {
    let n = config.n_tiers();
    let bw = (0..n)
        .map(|f| {
            (0..n)
                .map(|t| config.copy_bw_between(TierId(f as u8), TierId(t as u8)))
                .collect()
        })
        .collect();
    PlanContext::new(app.objects.iter().map(|o| o.size).collect()).with_copy_bw(bw)
}

/// Tahoe's incremental boundary plan from the objects' actual tiers.
///
/// Each object's residence on tier `t` is worth its predicted saving
/// over the slowest tier from the boundary window on (cf-corrected, the
/// delay the emulation charges). A move is priced against where the
/// object already is: staying costs nothing, moving pays
/// [`migration_cost_ns`] for its copy, and the multiple-choice knapsack
/// (the exact binary knapsack at two tiers) weighs every object's
/// options net of those copies — so a promotion into a full tier also
/// pays the benefit and copy of the demotion it forces. The plan moves
/// only when its net benefit is positive. Moves out of a tier are
/// issued before moves into it, so the per-prefix capacity replay of
/// the auditor holds.
///
/// Also returns each object's whole-run DRAM value (the prediction the
/// model audit scores).
fn tahoe_boundary_plan(
    app: &App,
    config: &HmsConfig,
    cal: &WallClockCalibration,
    initial_tiers: Vec<u8>,
) -> Result<(BoundaryPlan, Vec<f64>), String> {
    let specs: Vec<TierSpec> = config.tier_specs().into_iter().cloned().collect();
    let (n, last) = (specs.len(), specs.len() - 1);
    let boundary = profile_windows(app);
    let mut benefit = vec![vec![0.0f64; n]; app.objects.len()];
    let mut whole_run = vec![0.0f64; app.objects.len()];
    for t in app.graph.tasks() {
        for a in &t.accesses {
            let i = a.object.index();
            let on_last = access_ns(cal, &a.profile, &specs[last]);
            for (ti, spec) in specs.iter().enumerate().take(last) {
                let saving = (on_last - access_ns(cal, &a.profile, spec)).max(0.0);
                if ti == 0 {
                    whole_run[i] += saving;
                }
                if t.window >= boundary {
                    benefit[i][ti] += saving;
                }
            }
        }
    }
    let copy = |i: usize, from: u8, to: u8| -> f64 {
        if from == to {
            return 0.0;
        }
        let bw = config.copy_bw_between(TierId(from), TierId(to));
        migration_cost_ns(app.objects[i].size, bw, 0.0)
    };
    // Values relative to moving to the slowest tier, so the last entry
    // is 0 as the solver expects; the shift is per object and leaves the
    // optimum unchanged.
    let items: Vec<MckItem> = app
        .objects
        .iter()
        .enumerate()
        .map(|(i, o)| {
            let cur = initial_tiers[i];
            let to_last = copy(i, cur, last as u8);
            MckItem {
                id: ObjectId(i as u32),
                size: o.size,
                values: (0..n)
                    .map(|t| benefit[i][t] - copy(i, cur, t as u8) + to_last)
                    .collect(),
            }
        })
        .collect();
    let caps: Vec<u64> = specs.iter().map(|s| s.capacity).collect();
    let assignment = solve_mck(&items, &caps)?;
    let stay: f64 = items
        .iter()
        .zip(&initial_tiers)
        .map(|(it, &t)| it.values[t as usize])
        .sum();

    let mut moves: Vec<PricedMove> = Vec::new();
    if assignment.total_value > stay {
        for (i, (&from, &to)) in initial_tiers.iter().zip(&assignment.tiers).enumerate() {
            if from != to {
                moves.push(PricedMove {
                    object: i as u32,
                    from_tier: from,
                    to_tier: to,
                    benefit_ns: benefit[i][to as usize] - benefit[i][from as usize],
                    cost_ns: copy(i, from, to),
                });
            }
        }
    }
    // Demotions first (emptiest-first: out of the slowest source tier),
    // then promotions into the fastest destination first.
    moves.sort_by_key(|m| {
        if m.to_tier > m.from_tier {
            (0, u8::MAX - m.from_tier)
        } else {
            (1, m.to_tier)
        }
    });
    let plan = |moves: &[PricedMove]| MigrationPlan {
        initial_tiers: initial_tiers.clone(),
        steps: moves
            .iter()
            .map(|m| PlanStep {
                object: m.object,
                to_tier: m.to_tier,
                window: boundary,
            })
            .collect(),
    };
    // The solver priced moves with the calibration's correction
    // factors; the auditor prices them CF-free. A plan that only pays
    // under the correction is dropped rather than refused at preflight.
    if !moves.is_empty() {
        let ctx = plan_context(app, config);
        let (before, after) = plan_cost_ns(&app.graph, &plan(&moves), &specs, &ctx);
        if after > before * (1.0 + 1e-9) {
            moves.clear();
        }
    }
    Ok((
        BoundaryPlan {
            plan: plan(&moves),
            moves,
        },
        whole_run,
    ))
}

/// Build multiple-choice knapsack items for `app` over an ordered tier
/// list (fastest first): `values[t]` = modelled ns saved over the whole
/// run by residence on tier `t` instead of the slowest tier (the last
/// entry is therefore 0). Pure model — no wall-clock correction — so
/// the numbers are deterministic across machines and usable in
/// self-validated artifacts.
pub fn mck_items_for(app: &App, specs: &[TierSpec]) -> Vec<MckItem> {
    let n = specs.len();
    let mut values = vec![vec![0.0f64; n]; app.objects.len()];
    for t in app.graph.tasks() {
        for a in &t.accesses {
            let on_last = a.profile.mem_time_ns(&specs[n - 1]);
            for (ti, spec) in specs.iter().enumerate().take(n - 1) {
                values[a.object.index()][ti] += (on_last - a.profile.mem_time_ns(spec)).max(0.0);
            }
        }
    }
    let mut values = values.into_iter();
    app.objects
        .iter()
        .enumerate()
        .map(|(i, o)| MckItem {
            id: ObjectId(i as u32),
            size: o.size,
            values: values.next().expect("one value row per object"),
        })
        .collect()
}

/// Modelled memory time of the whole run with object `i` pinned to tier
/// `tiers[i]` of `specs` throughout (no migrations, no correction
/// factors). The deterministic cost the bench's tier-sweep rows compare.
pub fn modelled_total_ns(app: &App, specs: &[TierSpec], tiers: &[u8]) -> f64 {
    let mut total = 0.0;
    for t in app.graph.tasks() {
        for a in &t.accesses {
            total += a
                .profile
                .mem_time_ns(&specs[tiers[a.object.index()] as usize]);
        }
    }
    total
}

/// Per-object latency-boundedness on `spec`: `true` when most of the
/// object's modelled access time comes from latency-limited
/// (dependent-load) accesses rather than bandwidth-limited streams.
/// This is the classification under which a middle tier like CXL — low
/// latency, modest bandwidth — wins over NVM.
pub fn object_latency_bound(app: &App, spec: &TierSpec) -> Vec<bool> {
    let mut lat = vec![0.0f64; app.objects.len()];
    let mut bw = vec![0.0f64; app.objects.len()];
    for t in app.graph.tasks() {
        for a in &t.accesses {
            let ns = a.profile.mem_time_ns(spec);
            if a.profile.bandwidth_limited_on(spec) {
                bw[a.object.index()] += ns;
            } else {
                lat[a.object.index()] += ns;
            }
        }
    }
    lat.iter().zip(&bw).map(|(l, b)| l > b).collect()
}

/// Solve the placement over an ordered tier list and price the result:
/// the multiple-choice knapsack assignment plus the modelled run cost
/// under it. With two specs this is exactly the binary Tahoe plan (the
/// solver delegates), so `modelled_plan` prices 3-tier and 2-tier
/// configurations on an equal footing.
pub fn modelled_plan(app: &App, specs: &[TierSpec]) -> Result<(MckAssignment, f64), String> {
    let items = mck_items_for(app, specs);
    let caps: Vec<u64> = specs.iter().map(|s| s.capacity).collect();
    let plan = solve_mck(&items, &caps)?;
    let total = modelled_total_ns(app, specs, &plan.tiers);
    Ok((plan, total))
}

/// Execute the app's traffic on plain heap buffers, no tiers, no pacing:
/// the ground truth every measured policy run must match bit for bit.
pub fn reference_checksum(app: &App) -> u64 {
    reference_checksum_seeded(app, 0)
}

/// [`reference_checksum`] with a run seed varying the traffic contents
/// (the parallel stress suite runs several seeds; `run_seed == 0` is the
/// historical stream).
///
/// The fold order — object inits first, then windows → window tasks →
/// accesses — is the *canonical* checksum order: the parallel runtime
/// executes in whatever order its workers race to, but re-folds its
/// per-access checksums in this exact order, so equality here is
/// bit-for-bit regardless of schedule.
pub fn reference_checksum_seeded(app: &App, run_seed: u64) -> u64 {
    let mut buffers: Vec<Vec<u8>> = app
        .objects
        .iter()
        .map(|o| vec![0u8; o.size as usize])
        .collect();
    let mut checksum = 0u64;
    for (i, buf) in buffers.iter_mut().enumerate() {
        checksum = fold(checksum, traffic::init_fill(buf, init_seed(run_seed, i)));
    }
    for w in 0..app.windows() {
        for tid in app.graph.window_tasks(w) {
            let task = app.graph.task(tid);
            for (ai, access) in task.accesses.iter().enumerate() {
                let buf = &mut buffers[access.object.index()];
                let c = traffic::run_access(
                    buf,
                    access.profile.loads,
                    access.profile.stores,
                    site_seed(run_seed, tid.0, ai),
                );
                checksum = fold(checksum, c);
            }
        }
    }
    checksum
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_are_distinct_across_sites() {
        assert_ne!(seed(0, 0), seed(0, 1));
        assert_ne!(seed(0, 0), seed(1, 0));
    }

    #[test]
    fn reference_checksum_is_deterministic() {
        let mut b = crate::app::AppBuilder::new("t");
        let x = b.object("x", 4096);
        let y = b.object("y", 8192);
        let c = b.class("step");
        b.task(c)
            .read_streaming(x, 64)
            .write_streaming(y, 128)
            .submit();
        b.next_window();
        b.task(c).update_streaming(y, 128).submit();
        let app = b.build();
        assert_eq!(reference_checksum(&app), reference_checksum(&app));
    }
}
