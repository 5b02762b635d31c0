//! Served jobs: tenants on a `TahoeServer`, driven by one client thread
//! in a closed loop with one outstanding graph per tenant.

use std::time::{Duration, Instant};

use tahoe_core::prelude::*;
use tahoe_memprof::wallclock::WallClockCalibration;
use tahoe_server::{
    ArbiterMode, GraphTicket, QuotaPolicy, ServerConfig, Submission, TahoeServer, TenantHandle,
    TenantSpec,
};

use crate::policy::{self, Subject, SEED_CYCLE, WARMUP_ROUNDS};
use crate::report::Outcome;
use crate::{calib, layers, stats, sys, Args, Setup, Workload};

/// Blocks per configuration in one run: the four server configurations
/// take turns this many times each.
const BLOCKS_PER_CONFIG: u32 = 4;

/// The arbiter of the workload's own configuration: weighted floors of
/// half the budget, the rest by declared demand (as in `exp tenant`).
fn quota() -> ArbiterMode {
    ArbiterMode::Quota(QuotaPolicy::DemandProportional { floor_frac: 0.5 })
}

/// Server configurations in [`LABELS`] order. `tahoe` is the workload
/// itself: the quota arbiter over a DRAM budget of a quarter of the
/// combined footprint. The others reuse the policy names for the served
/// counterparts of the baselines: first come, first served over the same
/// budget; a budget that holds everything; a budget that holds nothing.
fn configs(footprint: u64, workers: usize) -> [ServerConfig; 4] {
    let cfg = |mode, dram_budget| ServerConfig {
        workers,
        dram_budget,
        nvm_capacity: 4 * footprint,
        mode,
        // Never reached by a closed loop with one outstanding graph per
        // tenant; a resubmission racing the server's own bookkeeping
        // queues instead of being shed.
        max_queue: 1,
    };
    [
        cfg(quota(), footprint / 4),
        cfg(ArbiterMode::FreeForAll, footprint / 4),
        cfg(quota(), 2 * footprint),
        cfg(quota(), 4 << 10),
    ]
}

/// The platform the tenants share: NVM at a quarter of DRAM bandwidth,
/// DRAM a quarter of their combined footprint.
fn mix_platform(footprint: u64) -> Result<Platform, String> {
    Platform::emulated_bw(0.25, footprint / 4, 4 * footprint).map_err(|e| e.to_string())
}

/// A running server with one handle per tenant.
struct Served {
    server: TahoeServer,
    handles: Vec<TenantHandle>,
}

impl Served {
    fn start(
        cfg: ServerConfig,
        cal: &WallClockCalibration,
        apps: Vec<App>,
    ) -> Result<Self, String> {
        let server = TahoeServer::new(
            cfg,
            cal.clone(),
            tahoe_obs::Emitter::disabled(),
            tahoe_obs::Metrics::disabled(),
        )?;
        let mut handles = Vec::with_capacity(apps.len());
        for (i, app) in apps.into_iter().enumerate() {
            let name = format!("t{i}.{}", app.name);
            match server.register_tenant(TenantSpec::new(&name, 1.0), app) {
                Ok(h) => handles.push(h),
                Err(e) => {
                    server.shutdown();
                    return Err(format!("register {name}: {e}"));
                }
            }
        }
        Ok(Served { server, handles })
    }
}

/// What the timed part of the served blocks of one configuration saw.
#[derive(Default)]
struct Tally {
    latency_ms: Vec<f64>,
    queue_wait_ms: Vec<f64>,
    wall_s: f64,
    cpu_s: f64,
    /// Whole-server counters (warm-up included), summed over blocks.
    completed: u64,
    preempted: u64,
    promoted_bytes: u64,
    migrations: u64,
    exposed_ns: f64,
    steals: u64,
}

impl Tally {
    fn per_job(&self, x: f64) -> f64 {
        x / self.completed.max(1) as f64
    }

    fn jobs_per_s(&self) -> f64 {
        self.latency_ms.len() as f64 / self.wall_s
    }
}

/// Submit one graph for tenant `i` with cycle seed `k`; a shed
/// submission counts as a failed operation.
fn submit(
    h: &TenantHandle,
    seeds: &[u64; SEED_CYCLE],
    k: usize,
    out: &mut Outcome,
) -> Option<(GraphTicket, usize)> {
    match h.submit(seeds[k]) {
        Submission::Admitted(t) | Submission::Queued(t) => Some((t, k)),
        Submission::Shed { tenant, graph } => {
            eprintln!("tenant {tenant} graph {graph} shed");
            out.count(false);
            None
        }
    }
}

/// Run one block: [`WARMUP_ROUNDS`] untimed rounds, then timed rounds
/// until `budget` has passed, then drain and shut the server down. A
/// round waits for each tenant's outstanding graph in turn, checks it
/// and resubmits.
fn drive(
    served: Served,
    seeds: &[u64; SEED_CYCLE],
    refs: &[[u64; SEED_CYCLE]],
    budget: Duration,
    tally: &mut Tally,
    out: &mut Outcome,
) -> Result<(), String> {
    let Served { server, handles } = served;
    let n = handles.len();
    let mut next = vec![0usize; n];
    let mut pending: Vec<_> = (0..n).map(|i| submit(&handles[i], seeds, 0, out)).collect();
    let mut started: Option<(Instant, f64)> = None;
    for round in 0.. {
        if round == WARMUP_ROUNDS {
            started = Some((Instant::now(), sys::cpu_seconds()?));
        }
        if started.is_some_and(|(t0, _)| t0.elapsed() >= budget) {
            break;
        }
        for i in 0..n {
            if let Some((ticket, k)) = pending[i].take() {
                let o = ticket.wait();
                out.count(o.checksum == refs[i][k]);
                if started.is_some() {
                    tally.latency_ms.push(o.latency_ns / 1e6);
                    tally.queue_wait_ms.push(o.queue_wait_ns / 1e6);
                }
            }
            next[i] = (next[i] + 1) % SEED_CYCLE;
            pending[i] = submit(&handles[i], seeds, next[i], out);
        }
    }
    let (t0, cpu0) = started.expect("the loop passes its warm-up rounds");
    tally.wall_s += t0.elapsed().as_secs_f64();
    tally.cpu_s += sys::cpu_seconds()? - cpu0;
    for (i, p) in pending.into_iter().enumerate() {
        if let Some((ticket, k)) = p {
            out.count(ticket.wait().checksum == refs[i][k]);
        }
    }
    drop(handles);
    let report = server.shutdown();
    tally.completed += report.completed_total();
    tally.preempted += report.preempted_total();
    tally.promoted_bytes += report.tenants.iter().map(|t| t.promoted_bytes).sum::<u64>();
    tally.migrations += report.migration.count;
    tally.exposed_ns += report.migration.exposed_ns;
    tally.steals += report.pool.steals;
    Ok(())
}

/// Run blocks of the configurations `which` (indices into [`configs`]),
/// taking turns, for `budget` in total.
#[allow(clippy::too_many_arguments)]
fn blocks(
    build: &dyn Fn() -> Vec<App>,
    which: &[usize],
    workers: usize,
    seeds: &[u64; SEED_CYCLE],
    refs: &[[u64; SEED_CYCLE]],
    budget: Duration,
    out: &mut Outcome,
) -> Result<Vec<Tally>, String> {
    let footprint: u64 = build().iter().map(App::footprint).sum();
    let cal = calib::pinned(&mix_platform(footprint)?)?;
    let cfgs = configs(footprint, workers);
    let block = budget / (BLOCKS_PER_CONFIG * which.len() as u32);
    let mut tallies: Vec<Tally> = which.iter().map(|_| Tally::default()).collect();
    for _ in 0..BLOCKS_PER_CONFIG {
        for (slot, &c) in which.iter().enumerate() {
            let served = Served::start(cfgs[c].clone(), &cal, build())?;
            drive(served, seeds, refs, block, &mut tallies[slot], out)?;
        }
    }
    Ok(tallies)
}

/// Record the `server.*` metrics of a tally.
fn server_layers(t: &Tally, out: &mut Outcome) {
    out.set("server.queue_wait_ms_p50", stats::median(&t.queue_wait_ms));
    out.set("server.preempted_per_job", t.per_job(t.preempted as f64));
    out.set("server.migrations_per_job", t.per_job(t.migrations as f64));
    out.set(
        "server.promoted_mib_per_job",
        t.per_job(t.promoted_bytes as f64) / (1u64 << 20) as f64,
    );
    out.set("server.exposed_copy_ms", t.per_job(t.exposed_ns) / 1e6);
}

/// The `tenants-mix` workload.
pub fn run(args: &Args, out: &mut Outcome) -> Result<(), String> {
    let w = Workload::TenantsMix;
    let workers = w.workers();
    let (served, setup) = Setup::measure(
        |setup| {
            let apps = w.apps();
            let footprint: u64 = apps.iter().map(App::footprint).sum();
            let platform = mix_platform(footprint)?;
            let cal = calib::pinned(&platform)?;
            setup.calibrate(&MeasuredRuntime::new(platform, calib::setup_config()))?;
            let [tahoe, ..] = configs(footprint, workers);
            Served::start(tahoe, &cal, apps)
        },
        |served| {
            served.server.shutdown();
        },
    )?;
    served.server.shutdown();
    setup.report(out, args.trace);
    let seeds = policy::seed_cycle(args.seed);
    let subjects = w
        .apps()
        .into_iter()
        .map(Subject::new)
        .collect::<Result<Vec<_>, _>>()?;
    let refs = policy::references(&subjects, &seeds);
    let build = || w.apps();
    let secs = Duration::from_secs(args.seconds);
    if !args.trace {
        let t = blocks(&build, &[0, 1, 2, 3], workers, &seeds, &refs, secs, out)?;
        let tail = stats::tail(&t[0].latency_ms).ok_or("too few served jobs for a tail")?;
        println!(
            "tenants-mix: {} quota-arbiter jobs; tahoe_ms_tail is p{} of {} samples",
            t[0].latency_ms.len(),
            tail.percentile,
            tail.samples
        );
        out.set("tahoe_ms_p50", stats::median(&t[0].latency_ms));
        out.set("tahoe_ms_tail", tail.value);
        out.set("first_touch_ms_p50", stats::median(&t[1].latency_ms));
        out.set("dram_only_ms_p50", stats::median(&t[2].latency_ms));
        out.set("nvm_only_ms_p50", stats::median(&t[3].latency_ms));
        out.set("jobs_per_s", t[0].jobs_per_s());
        out.set("rss_peak_mb", sys::rss_peak_mib()?);
        return Ok(());
    }
    let t = blocks(&build, &[0], workers, &seeds, &refs, secs / 2, out)?;
    server_layers(&t[0], out);
    out.set(
        "taskrt.worker_util",
        t[0].cpu_s / (t[0].wall_s * workers as f64),
    );
    out.set("taskrt.steals_per_job", t[0].per_job(t[0].steals as f64));
    // The core, hms and realmem layers the server bypasses are read from
    // solo jobs of the same three apps.
    layers::traced_rounds(&subjects, workers, &seeds, &refs, secs / 2, out)?;
    layers::probes(w, &subjects, workers, out)
}

/// The `server.*` metrics for a policy workload: its app as two tenants
/// of one quota-arbitrated server, driven like `tenants-mix`.
pub fn server_probe(
    w: Workload,
    workers: usize,
    seeds: &[u64; SEED_CYCLE],
    refs: &[[u64; SEED_CYCLE]],
    budget: Duration,
    out: &mut Outcome,
) -> Result<(), String> {
    let build = || {
        let mut apps = w.apps();
        apps.extend(w.apps());
        apps
    };
    let twice = [refs, refs].concat();
    let t = blocks(&build, &[0], workers, seeds, &twice, budget, out)?;
    server_layers(&t[0], out);
    Ok(())
}
