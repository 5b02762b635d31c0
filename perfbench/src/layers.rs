//! Per-layer metrics, each read from outside: from the reports of
//! untimed-by-layer jobs, from a traced pass, or by timing calls into a
//! layer's public functions on the workload's own inputs.

use std::sync::Arc;
use std::time::{Duration, Instant};

use tahoe_core::measured::mck_items_for;
use tahoe_core::prelude::*;
use tahoe_hms::{Hms, HmsConfig, ObjectId, SharedHms};
use tahoe_obs::{Emitter, Event, FlightRecorder, Metrics};
use tahoe_realmem::RealBackend;
use tahoe_sanitize::{audit_plan, MigrationPlan, PlanContext, PlanStep};
use tahoe_taskrt::{JobSpec, NoGate, TaskPool, WsExecutor};

use crate::policy::{self, Job, Loop, Subject, SEED_CYCLE};
use crate::report::Outcome;
use crate::{stats, Workload};

/// Per-policy metric names, in [`policy::LABELS`] order.
const PREPARE_MS: [&str; 4] = [
    "core.prepare_ms.tahoe",
    "core.prepare_ms.first_touch",
    "core.prepare_ms.dram_only",
    "core.prepare_ms.nvm_only",
];
const VERIFY_US: [&str; 4] = [
    "sanitize.verify_us.tahoe",
    "sanitize.verify_us.first_touch",
    "sanitize.verify_us.dram_only",
    "sanitize.verify_us.nvm_only",
];

/// Minimum wall time each probe spends repeating its call.
const PROBE_TIME: Duration = Duration::from_millis(150);

/// Repeat `call` for at least [`PROBE_TIME`] and 5 times; return each
/// repetition's wall ns.
fn repeat(mut call: impl FnMut()) -> Vec<f64> {
    let t0 = Instant::now();
    let mut ns = Vec::new();
    while ns.len() < 5 || t0.elapsed() < PROBE_TIME {
        let t = Instant::now();
        call();
        ns.push(t.elapsed().as_nanos() as f64);
    }
    ns
}

fn mean(xs: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = xs.fold((0.0, 0usize), |(s, n), x| (s + x, n + 1));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// The untraced and traced rounds of a `--trace 1` run, interleaved job
/// by job so both see the same machine, for `budget`. Records the
/// metrics read from the jobs' reports: `core.*` (every policy),
/// `hms.*` and `realmem.*` (Tahoe jobs) from the untraced jobs; `crit.*`
/// and `obs.*` from the traced ones. Returns the loop.
pub fn traced_rounds(
    subjects: &[Subject],
    workers: usize,
    seeds: &[u64; SEED_CYCLE],
    refs: &[[u64; SEED_CYCLE]],
    budget: Duration,
    out: &mut Outcome,
) -> Result<Loop, String> {
    // The traced twin has metrics on, so the flight recorder and the
    // critical-path digest run; merged events go to a disabled emitter,
    // and the registry keeps the folded histograms.
    let metrics = Metrics::enabled();
    let traced: Vec<_> = subjects
        .iter()
        .map(|s| {
            s.rt.clone()
                .with_observability(Emitter::disabled(), metrics.clone())
        })
        .collect();
    let variants = [
        subjects.iter().map(|s| &s.rt).collect(),
        traced.iter().collect(),
    ];
    let lp = policy::run_rounds(subjects, &variants, workers, seeds, refs, budget, out)?;

    for (p, name) in PREPARE_MS.into_iter().enumerate() {
        let prep: Vec<f64> = lp.of(p, 0).map(Job::prepare_ms).collect();
        out.set(name, stats::median(&prep));
    }
    let tahoe: Vec<_> = lp.of(0, 0).map(|j| &j.report).collect();
    let ms = |f: &dyn Fn(&tahoe_core::ParallelPolicyReport) -> f64| -> f64 {
        stats::median(&tahoe.iter().map(|r| f(r) / 1e6).collect::<Vec<_>>())
    };
    out.set(
        "core.nvm_access_ms",
        ms(&|r| r.access_timing.iter().map(|a| a.nvm_ns).sum()),
    );
    out.set(
        "core.dram_access_ms",
        ms(&|r| r.access_timing.iter().map(|a| a.dram_ns).sum()),
    );
    out.set("hms.gate_wait_ms", ms(&|r| r.gate_wait_ns));
    out.set("realmem.exposed_copy_ms", ms(&|r| r.migration.exposed_ns));
    out.set(
        "hms.cas_retries_per_job",
        mean(tahoe.iter().map(|r| r.contention.pin_cas_retries as f64)),
    );
    out.set(
        "hms.parks_per_job",
        mean(tahoe.iter().map(|r| r.contention.parks as f64)),
    );
    let bytes: u64 = tahoe.iter().map(|r| r.migrated_bytes).sum();
    let copy_ns: f64 = tahoe.iter().map(|r| r.copy_wall_ns).sum();
    out.set(
        "realmem.copy_gbps",
        if copy_ns > 0.0 {
            bytes as f64 / copy_ns
        } else {
            0.0
        },
    );
    let migrated = mean(tahoe.iter().map(|r| r.migrated_bytes as f64));
    out.set(
        "realmem.migrations_per_job",
        mean(tahoe.iter().map(|r| r.migrations as f64)),
    );
    out.set(
        "realmem.migrated_mib_per_job",
        migrated / (1u64 << 20) as f64,
    );
    out.set(
        "realmem.memcpy_gbps",
        memcpy_gbps(subjects, migrated as usize),
    );
    let hidden: f64 = tahoe.iter().map(|r| r.migration.overlapped_ns).sum();
    let exposed: f64 = tahoe.iter().map(|r| r.migration.exposed_ns).sum();
    out.set(
        "realmem.pct_overlap",
        if hidden + exposed > 0.0 {
            100.0 * hidden / (hidden + exposed)
        } else {
            0.0
        },
    );

    let traced_tahoe: Vec<_> = lp.of(0, 1).collect();
    let crit = |f: &dyn Fn(&tahoe_obs::CritPathDigest) -> f64| -> f64 {
        let v: Vec<f64> = traced_tahoe
            .iter()
            .filter_map(|j| j.report.crit.as_ref())
            .map(|c| f(c) / 1e6)
            .collect();
        stats::median(&v)
    };
    out.set("crit.compute_ms", crit(&|c| c.compute_ns));
    out.set("crit.stall_ms", crit(&|c| c.stall_ns));
    out.set("crit.idle_ms", crit(&|c| c.idle_ns));
    // The accounting identity: the job is prepare (everything outside
    // `wall_ns`) plus the critical path of its execution.
    let residual: Vec<f64> = traced_tahoe
        .iter()
        .filter_map(|j| {
            let c = j.report.crit.as_ref()?;
            Some(100.0 * (j.prepare_ms() + c.crit_total_ns / 1e6 - j.ms).abs() / j.ms)
        })
        .collect();
    if residual.len() < traced_tahoe.len() {
        return Err("a traced Tahoe job carried no critical-path digest".into());
    }
    out.set("crit.residual_pct", stats::median(&residual));
    let plain = lp.p50(0);
    let observed = stats::median(&traced_tahoe.iter().map(|j| j.ms).collect::<Vec<_>>());
    out.set("obs.trace_overhead_pct", 100.0 * (observed - plain) / plain);
    out.set(
        "obs.ring_dropped",
        lp.jobs
            .iter()
            .map(|j| j.report.obs_ring_dropped as f64)
            .sum(),
    );
    let task = metrics
        .snapshot()
        .histogram("task_ns")
        .map_or(0.0, |h| h.p50);
    out.set("obs.task_us_p50", task / 1e3);
    Ok(lp)
}

/// Microprobes: time calls into each layer's public functions on the
/// workload's own inputs, at the workload's worker count. Metrics are
/// medians over the workload's apps.
pub fn probes(
    w: Workload,
    subjects: &[Subject],
    workers: usize,
    out: &mut Outcome,
) -> Result<(), String> {
    let mut per_app: Vec<Vec<(&'static str, f64)>> = Vec::new();
    let graphs: Vec<_> = w.apps().into_iter().map(|a| Arc::new(a.graph)).collect();
    for (s, graph) in subjects.iter().zip(graphs) {
        let mut m = Vec::new();
        placement_and_audit(s, &mut m, out);
        for (p, kind) in policy::policies().iter().enumerate() {
            let mut clean = true;
            let ns = repeat(|| match s.rt.verify_plan(&s.app, kind, &s.cal) {
                Ok(r) => clean &= r.is_clean(),
                Err(_) => clean = false,
            });
            out.count(clean);
            m.push((VERIFY_US[p], stats::median(&ns) / 1e3));
        }
        dispatch(s, graph, workers, &mut m);
        m.push(("hms.pin_unpin_ns", pin_unpin(s, workers)?));
        per_app.push(m);
    }
    for (i, (name, _)) in per_app[0].clone().into_iter().enumerate() {
        let v: Vec<f64> = per_app.iter().map(|m| m[i].1).collect();
        out.set(name, stats::median(&v));
    }
    out.set("obs.emit_ns", emit_ns(workers));
    Ok(())
}

/// `placement.solve_us` (the binary knapsack on the app's items and
/// DRAM budget) and `sanitize.audit_us` (the static auditor on the
/// resulting Tahoe plan).
fn placement_and_audit(s: &Subject, m: &mut Vec<(&'static str, f64)>, out: &mut Outcome) {
    let footprint = s.app.footprint();
    let mut dram = s.cal.dram.clone();
    dram.capacity = s.platform.dram.capacity;
    let mut nvm = s.cal.nvm.clone();
    nvm.capacity = nvm.capacity.max(2 * footprint);
    let specs = [dram, nvm];
    let items: Vec<tahoe_placement::Item> = mck_items_for(&s.app, &specs)
        .into_iter()
        .map(|i| tahoe_placement::Item {
            id: i.id,
            size: i.size,
            value: i.values[0],
        })
        .collect();
    let cap = specs[0].capacity;
    let ns = repeat(|| {
        std::hint::black_box(tahoe_placement::solve(std::hint::black_box(&items), cap));
    });
    m.push(("placement.solve_us", stats::median(&ns) / 1e3));
    // Tahoe's plan as the runtime issues it: every object starts on the
    // slow tier and the chosen ones move to DRAM at the profiling
    // boundary.
    let chosen = tahoe_placement::solve(&items, cap).chosen;
    let boundary = s.app.windows().saturating_sub(1).min(2);
    let plan = MigrationPlan {
        initial_tiers: vec![1; s.app.objects.len()],
        steps: chosen
            .iter()
            .map(|o| PlanStep {
                object: o.0,
                to_tier: 0,
                window: boundary,
            })
            .collect(),
    };
    let ctx = PlanContext::new(s.app.objects.iter().map(|o| o.size).collect());
    let mut clean = true;
    let ns = repeat(|| clean &= audit_plan(&s.app.graph, &plan, &specs, &ctx).is_clean());
    out.count(clean);
    m.push(("sanitize.audit_us", stats::median(&ns) / 1e3));
}

/// Empty-bodied dispatch of the app's graph through both executors:
/// `WsExecutor::run_window` window by window, and one `TaskPool` job.
fn dispatch(
    s: &Subject,
    graph: Arc<tahoe_taskrt::TaskGraph>,
    workers: usize,
    m: &mut Vec<(&'static str, f64)>,
) {
    let tasks = s.app.graph.len() as f64;
    let windows = s.app.windows();
    let ex = WsExecutor::new(workers);
    let mut window_ns = Vec::new();
    let per_task = repeat(|| {
        for w in 0..windows {
            let t = Instant::now();
            ex.run_window(&s.app.graph, Some(w), &NoGate, |_, _| {});
            window_ns.push(t.elapsed().as_nanos() as f64);
        }
    });
    m.push((
        "taskrt.dispatch_us_per_task",
        stats::median(&per_task) / tasks / 1e3,
    ));
    m.push(("taskrt.window_us", stats::median(&window_ns) / 1e3));
    let pool = TaskPool::new(workers);
    let job = repeat(|| {
        pool.submit(JobSpec {
            tag: 0,
            graph: Arc::clone(&graph),
            gate: Arc::new(NoGate),
            work: Arc::new(|_, _, _| {}),
            on_window: None,
            on_done: None,
        })
        .wait();
    });
    pool.shutdown();
    m.push((
        "pool.dispatch_us_per_task",
        stats::median(&job) / tasks / 1e3,
    ));
    m.push(("pool.window_us", stats::median(&job) / windows as f64 / 1e3));
}

/// `SharedHms::pin_for_task` plus drop on the objects of the app's
/// widest task, from `workers` threads at once; ns per pair.
fn pin_unpin(s: &Subject, workers: usize) -> Result<f64, String> {
    let task = s
        .app
        .graph
        .tasks()
        .iter()
        .max_by_key(|t| t.objects().len())
        .ok_or("app has no tasks")?;
    let cap = 2 * s.app.footprint();
    let (mut dram, mut nvm) = (s.cal.dram.clone(), s.cal.nvm.clone());
    dram.capacity = cap;
    nvm.capacity = cap;
    let config = HmsConfig::new(dram, nvm, s.platform.copy_bw_gbps).map_err(|e| e.to_string())?;
    let mut hms = Hms::new(config.clone());
    hms.set_backend(Box::new(RealBackend::new(&config)?));
    let ids: Vec<ObjectId> = task
        .objects()
        .iter()
        .map(|o| {
            let spec = &s.app.objects[o.index()];
            hms.alloc_object(&spec.name, spec.size, TierKind::Dram, true)
                .map_err(|e| e.to_string())
        })
        .collect::<Result<_, _>>()?;
    let shared = SharedHms::new(hms);
    const PAIRS: u32 = 20_000;
    let per_thread: Vec<f64> = std::thread::scope(|scope| {
        let joins: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let t = Instant::now();
                    for _ in 0..PAIRS {
                        drop(std::hint::black_box(shared.pin_for_task(&ids)));
                    }
                    t.elapsed().as_nanos() as f64 / f64::from(PAIRS)
                })
            })
            .collect();
        joins
            .into_iter()
            .map(|j| j.join().expect("pin probe thread"))
            .collect()
    });
    Ok(stats::median(&per_thread))
}

/// `FlightRecorder::emit` from `workers` threads, each on its own lane,
/// filling the lane exactly; ns per event.
fn emit_ns(workers: usize) -> f64 {
    const EVENTS: usize = 1 << 14;
    let mut ns = Vec::new();
    let t0 = Instant::now();
    while ns.len() < 5 || t0.elapsed() < PROBE_TIME {
        let rec = FlightRecorder::new(workers, EVENTS, &[]);
        let per: Vec<f64> = std::thread::scope(|scope| {
            let joins: Vec<_> = (0..workers)
                .map(|lane| {
                    let rec = &rec;
                    scope.spawn(move || {
                        let t = Instant::now();
                        for i in 0..EVENTS {
                            rec.emit(
                                lane,
                                Event::WorkerTask {
                                    t: i as f64,
                                    tenant: 0,
                                    worker: lane as u32,
                                    task: i as u32,
                                    window: 0,
                                    wall_ns: 1.0,
                                    gate_wait_ns: 0.0,
                                },
                            );
                        }
                        t.elapsed().as_nanos() as f64 / EVENTS as f64
                    })
                })
                .collect();
            joins
                .into_iter()
                .map(|j| j.join().expect("emit probe thread"))
                .collect()
        });
        std::hint::black_box(rec.drain());
        ns.push(stats::median(&per));
    }
    stats::median(&ns)
}

/// A plain single-threaded copy of `bytes` (the Tahoe jobs' mean
/// migrated bytes; the largest object's size when nothing migrated),
/// GB/s.
fn memcpy_gbps(subjects: &[Subject], bytes: usize) -> f64 {
    let largest = subjects
        .iter()
        .flat_map(|s| s.app.objects.iter().map(|o| o.size as usize))
        .max()
        .unwrap_or(1 << 20);
    let bytes = if bytes > 0 { bytes } else { largest };
    let src = vec![0x5Au8; bytes];
    let mut dst = vec![0u8; bytes];
    let ns = repeat(|| dst.copy_from_slice(std::hint::black_box(&src)));
    std::hint::black_box(&dst);
    bytes as f64 / stats::median(&ns)
}
