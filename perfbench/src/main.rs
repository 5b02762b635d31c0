//! End-to-end and per-layer benchmark of the Tahoe runtime.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload stream-place --seed 1 --seconds 20 --trace 0
//! ```
//!
//! One workload per run. The last line of standard output is one JSON
//! object: `correct`, `attempted`, `failed` and `metrics` — the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. See `README.md` next to this file for the workloads,
//! the loop, thread counts and what each metric should move.

mod calib;
mod layers;
mod policy;
mod report;
mod stats;
mod sys;
mod tenants;

use std::time::{Duration, Instant};

use tahoe_core::App;
use tahoe_workloads::{cg, nqueens, rwmix, stream, Scale};

use policy::Subject;
use report::{Outcome, END_TO_END, PER_LAYER};

/// Set-up passes per run; `setup_s` is their median.
const SETUP_PASSES: usize = 7;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `stream`: placement, the copy engine and the migrator.
    StreamPlace,
    /// `cg`: latency-bound gathers beside streamed matrix reads.
    GatherPlace,
    /// `nqueens`: near-empty tasks; dispatch and per-job overheads.
    TinyTasks,
    /// Three tenants on `tahoe-server` under the quota arbiter.
    TenantsMix,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::StreamPlace,
        Workload::GatherPlace,
        Workload::TinyTasks,
        Workload::TenantsMix,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::StreamPlace => "stream-place",
            Workload::GatherPlace => "gather-place",
            Workload::TinyTasks => "tiny-tasks",
            Workload::TenantsMix => "tenants-mix",
        }
    }

    /// The apps the workload runs.
    fn apps(self) -> Vec<App> {
        match self {
            Workload::StreamPlace => vec![stream::app(Scale::Bench)],
            Workload::GatherPlace => vec![cg::app(Scale::Bench)],
            Workload::TinyTasks => vec![nqueens::app(Scale::Bench)],
            Workload::TenantsMix => vec![
                stream::app(Scale::Test),
                rwmix::app(Scale::Test),
                cg::app(Scale::Test),
            ],
        }
    }

    /// Worker threads of the executor (or the server's pool).
    fn workers(self) -> usize {
        match self {
            Workload::StreamPlace | Workload::GatherPlace => 1,
            Workload::TinyTasks | Workload::TenantsMix => sys::workers_within_cores(2),
        }
    }
}

/// Parsed command line.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|s| (1..=600).contains(s))
                        .ok_or_else(|| format!("bad seconds {value}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Set-up cost, measured over [`SETUP_PASSES`] passes.
#[derive(Debug, Default)]
pub struct Setup {
    /// Wall time of each pass, s.
    pub pass_s: Vec<f64>,
    /// Wall time of each pass's `calibrate()`, ms.
    pub calibrate_ms: Vec<f64>,
    /// DRAM bandwidth each `calibrate()` fitted, GB/s.
    pub fit_gbps: Vec<f64>,
}

impl Setup {
    /// Run `pass` [`SETUP_PASSES`] times, timing each, and keep the last
    /// pass's product; every earlier product goes to `retire`, outside
    /// the timing. `pass` reports its live calibration through the
    /// `Setup` it is handed.
    fn measure<T>(
        mut pass: impl FnMut(&mut Setup) -> Result<T, String>,
        mut retire: impl FnMut(T),
    ) -> Result<(T, Setup), String> {
        let mut setup = Setup::default();
        let mut last = None;
        for _ in 0..SETUP_PASSES {
            let t0 = Instant::now();
            let product = pass(&mut setup)?;
            setup.pass_s.push(t0.elapsed().as_secs_f64());
            if let Some(old) = last.replace(product) {
                retire(old);
            }
        }
        Ok((last.expect("at least one set-up pass"), setup))
    }

    /// Time one live `calibrate()` on `rt` and record its fit.
    fn calibrate(&mut self, rt: &tahoe_core::MeasuredRuntime) -> Result<(), String> {
        let t0 = Instant::now();
        let cal = rt.calibrate()?;
        self.calibrate_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        self.fit_gbps.push(cal.measured.stream_bw_gbps);
        Ok(())
    }

    fn report(&self, out: &mut Outcome, trace: bool) {
        if trace {
            out.set("memprof.calibrate_ms", stats::median(&self.calibrate_ms));
            out.set("memprof.fit_gbps_iqr_pct", stats::iqr_pct(&self.fit_gbps));
        } else {
            out.set("setup_s", stats::median(&self.pass_s));
        }
    }
}

/// The policy workloads: one app, four policies round-robin.
fn policy_workload(args: &Args, out: &mut Outcome) -> Result<(), String> {
    let w = args.workload;
    let workers = w.workers();
    let (subjects, setup) = Setup::measure(
        |setup| {
            let subjects = w
                .apps()
                .into_iter()
                .map(Subject::new)
                .collect::<Result<Vec<_>, _>>()?;
            setup.calibrate(&subjects[0].rt)?;
            Ok(subjects)
        },
        drop,
    )?;
    setup.report(out, args.trace);
    let seeds = policy::seed_cycle(args.seed);
    let refs = policy::references(&subjects, &seeds);
    let secs = Duration::from_secs(args.seconds);
    if !args.trace {
        let rts = subjects.iter().map(|s| &s.rt).collect();
        let lp = policy::run_rounds(&subjects, &[rts], workers, &seeds, &refs, secs, out)?;
        let tahoe = lp.ms(0);
        let tail = stats::tail(&tahoe).ok_or_else(|| {
            format!(
                "{} Tahoe jobs: too few for a tail; raise --seconds",
                tahoe.len()
            )
        })?;
        println!(
            "{}: tahoe_ms_tail is p{} of {} samples",
            w.name(),
            tail.percentile,
            tail.samples
        );
        out.set("tahoe_ms_p50", lp.p50(0));
        out.set("tahoe_ms_tail", tail.value);
        out.set("first_touch_ms_p50", lp.p50(1));
        out.set("dram_only_ms_p50", lp.p50(2));
        out.set("nvm_only_ms_p50", lp.p50(3));
        out.set(
            "jobs_per_s",
            1e3 * tahoe.len() as f64 / tahoe.iter().sum::<f64>(),
        );
        out.set("rss_peak_mb", sys::rss_peak_mib()?);
        return Ok(());
    }
    let lp = layers::traced_rounds(&subjects, workers, &seeds, &refs, secs * 3 / 4, out)?;
    let steals: u64 = lp.jobs.iter().map(|j| j.report.steals).sum();
    out.set(
        "taskrt.steals_per_job",
        steals as f64 / lp.jobs.len() as f64,
    );
    out.set(
        "taskrt.worker_util",
        lp.cpu_s / (lp.wall_s * workers as f64),
    );
    layers::probes(w, &subjects, workers, out)?;
    tenants::server_probe(w, workers, &seeds, &refs, secs / 4, out)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                Workload::ALL.map(Workload::name).join("|")
            );
            std::process::exit(2);
        }
    };
    let ticks = sys::CpuTicks::now();
    let mut out = Outcome::default();
    let run = match args.workload {
        Workload::TenantsMix => tenants::run(&args, &mut out),
        _ => policy_workload(&args, &mut out),
    };
    // Host steal time explains most run-to-run drift on a shared VM.
    if let Ok(steal) = ticks.and_then(sys::CpuTicks::steal_pct_since) {
        println!(
            "{}: host steal {steal:.1}% of CPU time",
            args.workload.name()
        );
    }
    let line = run.and_then(|()| out.to_json(if args.trace { PER_LAYER } else { END_TO_END }));
    match line {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
