//! Policy jobs: whole `run_policy_parallel` calls, interleaved
//! round-robin across the four measured policies.

use std::time::{Duration, Instant};

use tahoe_core::measured::{reference_checksum_seeded, MeasuredRuntime};
use tahoe_core::prelude::*;
use tahoe_core::ParallelPolicyReport;
use tahoe_memprof::wallclock::WallClockCalibration;

use crate::report::Outcome;
use crate::{calib, stats};

/// Untimed rounds before a loop starts recording.
pub const WARMUP_ROUNDS: usize = 2;

/// Run seeds per loop: jobs cycle through them, so references are
/// computed once per (app, seed) instead of once per job.
pub const SEED_CYCLE: usize = 4;

/// Labels of the measured policies, in [`policies`] order.
pub const LABELS: [&str; 4] = ["tahoe", "first_touch", "dram_only", "nvm_only"];

/// The measured policies, in [`LABELS`] order.
pub fn policies() -> [PolicyKind; 4] {
    [
        PolicyKind::tahoe(),
        PolicyKind::FirstTouch,
        PolicyKind::DramOnly,
        PolicyKind::NvmOnly,
    ]
}

/// The run seeds a loop cycles through, derived from the benchmark seed
/// (splitmix64).
pub fn seed_cycle(seed: u64) -> [u64; SEED_CYCLE] {
    let mut s = seed;
    std::array::from_fn(|_| {
        s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = s;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    })
}

/// One app ready to run: its platform, runtime and pinned calibration.
pub struct Subject {
    pub app: App,
    pub platform: Platform,
    pub rt: MeasuredRuntime,
    pub cal: WallClockCalibration,
}

impl Subject {
    /// Build the runtime for `app` on the benchmark platform: NVM at a
    /// quarter of DRAM bandwidth, DRAM a quarter of the footprint (the
    /// platform of `exp real` and `exp par`).
    pub fn new(app: App) -> Result<Self, String> {
        let platform = tahoe_bench::platform_bw(&app, 0.25);
        let rt = MeasuredRuntime::new(platform.clone(), calib::setup_config());
        let cal = calib::pinned(&platform)?;
        Ok(Subject {
            app,
            platform,
            rt,
            cal,
        })
    }
}

/// Reference checksums per subject and cycle seed, computed outside any
/// timing.
pub fn references(subjects: &[Subject], seeds: &[u64; SEED_CYCLE]) -> Vec<[u64; SEED_CYCLE]> {
    subjects
        .iter()
        .map(|s| seeds.map(|seed| reference_checksum_seeded(&s.app, seed)))
        .collect()
}

/// One timed job.
pub struct Job {
    /// Index into [`LABELS`].
    pub policy: usize,
    /// Index of the runtime variant that ran it (see [`run_rounds`]).
    pub variant: usize,
    /// Wall time of the whole call: prepare, solve, audit, execution and
    /// drain.
    pub ms: f64,
    pub report: ParallelPolicyReport,
}

impl Job {
    /// Job time outside the execution phase (`wall_ns`), ms.
    pub fn prepare_ms(&self) -> f64 {
        self.ms - self.report.wall_ns / 1e6
    }
}

/// A loop's recorded jobs plus the process CPU time they used.
pub struct Loop {
    pub jobs: Vec<Job>,
    pub wall_s: f64,
    pub cpu_s: f64,
}

impl Loop {
    /// Recorded jobs of one policy on one runtime variant.
    pub fn of(&self, policy: usize, variant: usize) -> impl Iterator<Item = &Job> {
        self.jobs
            .iter()
            .filter(move |j| j.policy == policy && j.variant == variant)
    }

    /// Job times of one policy on the first variant, ms.
    pub fn ms(&self, policy: usize) -> Vec<f64> {
        self.of(policy, 0).map(|j| j.ms).collect()
    }

    /// Median job time of one policy on the first variant, ms.
    pub fn p50(&self, policy: usize) -> f64 {
        stats::median(&self.ms(policy))
    }
}

/// Run [`WARMUP_ROUNDS`] untimed rounds, then rounds until `budget` has
/// passed. A round runs every (subject, policy) pair once per runtime
/// variant, back to back, starting one policy later each round; round
/// `r` uses cycle seed `r`. `variants[v][s]` is the runtime variant `v`
/// of subject `s`: the untraced runtime, and in a traced run its
/// observed twin, so both see the same machine. Every job's checksum
/// is checked against `refs` and counted in `out`.
pub fn run_rounds(
    subjects: &[Subject],
    variants: &[Vec<&MeasuredRuntime>],
    workers: usize,
    seeds: &[u64; SEED_CYCLE],
    refs: &[[u64; SEED_CYCLE]],
    budget: Duration,
    out: &mut Outcome,
) -> Result<Loop, String> {
    let kinds = policies();
    let mut jobs = Vec::new();
    let mut started: Option<(Instant, f64)> = None;
    for round in 0.. {
        if round == WARMUP_ROUNDS {
            started = Some((Instant::now(), crate::sys::cpu_seconds()?));
        }
        if started.is_some_and(|(t0, _)| t0.elapsed() >= budget) {
            break;
        }
        let k = round % SEED_CYCLE;
        for (si, s) in subjects.iter().enumerate() {
            for i in 0..kinds.len() {
                let policy = (round + i) % kinds.len();
                for (variant, rts) in variants.iter().enumerate() {
                    let t0 = Instant::now();
                    let res = rts[si].run_policy_parallel(
                        &s.app,
                        &kinds[policy],
                        &s.cal,
                        workers,
                        seeds[k],
                    );
                    let ms = t0.elapsed().as_secs_f64() * 1e3;
                    match res {
                        Ok(report) => {
                            out.count(report.checksum == refs[si][k]);
                            if started.is_some() {
                                jobs.push(Job {
                                    policy,
                                    variant,
                                    ms,
                                    report,
                                });
                            }
                        }
                        Err(e) => {
                            eprintln!("{} job failed: {e}", LABELS[policy]);
                            out.count(false);
                        }
                    }
                }
            }
        }
    }
    let (t0, cpu0) = started.expect("the loop passes its warm-up rounds");
    Ok(Loop {
        jobs,
        wall_s: t0.elapsed().as_secs_f64(),
        cpu_s: crate::sys::cpu_seconds()? - cpu0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_cycle_is_deterministic_and_distinct() {
        let a = seed_cycle(7);
        assert_eq!(a, seed_cycle(7));
        assert_ne!(a, seed_cycle(8));
        for i in 0..SEED_CYCLE {
            assert!(a[i + 1..].iter().all(|s| *s != a[i]));
        }
    }
}
