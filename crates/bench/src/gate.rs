//! Perf-regression gate: compare a freshly produced `BENCH_*.json`
//! artifact against the committed baseline under `baselines/`.
//!
//! The gate is schema-dispatched — each artifact family gets the
//! comparison its numbers can bear:
//!
//! * `tahoe-bench-obs/v1` — the simulated capture is deterministic, so
//!   the digest must match the baseline **exactly** (event counts per
//!   kind, task count, makespan).
//! * `tahoe-bench-real/v1` and `/v2` — wall clocks vary per machine;
//!   the gate checks the consistency flags and that the DRAM/NVM
//!   throughput ratio stays within a tolerance band of the baseline's
//!   ratio. A committed v1 baseline may gate a v2 fresh artifact (v2
//!   is a superset: it adds the `tiers` table, per-policy
//!   `final_tier_objects`, and — for 3-tier sweeps — `plan`/`modelled`
//!   blocks), so the schema bump does not orphan old baselines. When
//!   the fresh artifact carries a `modelled` block the gate also
//!   re-derives the 3-tier case: the middle tier holds a latency-bound
//!   object, the 3-tier modelled runtime beats both 2-tier
//!   degenerations, and — the modelled numbers being calibration-free
//!   and deterministic — a baseline `modelled` block must be
//!   reproduced to float round-off. A fresh `sweep` block (the
//!   middle-tier capacity study) is re-derived for monotonicity and
//!   reproduced against a baseline sweep the same way.
//! * `tahoe-bench-par/v1` — consistency flags, the NVM-start Tahoe
//!   (`tahoe-init`, whose whole plan migrates) still migrates at
//!   ≥2 workers, the best migration overlap has not collapsed relative
//!   to the baseline, and — when the fresh machine actually has ≥2
//!   cores — DRAM-only parallel speedup clears its floor at 2 workers
//!   and does not degrade as workers grow (up to the core count).
//! * `tahoe-bench-audit/v1` — the model audit still audits objects, the
//!   recorder's self-overhead stays under its ceiling, and MAPE /
//!   sign-agreement have not regressed beyond the tolerance bands.
//! * `tahoe-bench-sanitize/v1` — violation counts are deterministic by
//!   construction (schedule-independent reports), so the whole digest
//!   — fuzz coverage, static pass, per-fixture violation sets — must
//!   match the baseline **exactly**.
//! * `tahoe-bench-verify/v1` — everything the plan auditor and the
//!   protocol model checker report is a pure function of the code (no
//!   wall clocks, no calibration), so the whole digest must match the
//!   baseline **exactly**: solver-plan audit counts, preflight
//!   coverage, per-fixture diagnostic sets, and — the canary for any
//!   change to the word algebra or the checker — the pinned
//!   explored-state and transition counts of the certification sweep.
//! * `tahoe-bench-tenant/v1` — walls are machine-dependent, so the gate
//!   re-derives the arbiter's case from the fresh run's own numbers:
//!   checksums match the solo references, quota mode beats free-for-all
//!   on the worst per-tenant p99, aggregate throughput retains ≥90% of
//!   free-for-all, the Jain fairness index clears its floor (and does
//!   not collapse relative to the baseline), the quota arbiter
//!   preempted while free-for-all never does, and the burst shed.
//! * `tahoe-bench-blame/v1` — the causal profiler's self-consistency is
//!   machine-independent even though the walls are not: the
//!   critical-path length stays within its band of the observed span,
//!   the blame table's aggregate overlap reconciles with the engine's
//!   (re-derived from the fresh numbers, never trusted from the flags),
//!   the blame table covers every committed migration, what-if signs
//!   agree with the knapsack, the flight recorder dropped nothing, and
//!   a telemetry plane that served must have matched the shutdown
//!   report bit for bit.
//!
//! [`compare`] returns the list of violations (empty = gate passes);
//! structural problems (unparseable JSON, schema mismatch) are `Err`.

use tahoe_obs::json::{self, Value};

/// Hard ceiling on the flight recorder's self-overhead, percent.
pub const OVERHEAD_CEILING_PCT: f64 = 5.0;

/// Multiplicative tolerance band for the real-mode throughput ratio.
pub const REAL_RATIO_BAND: f64 = 2.5;

/// Relative tolerance for the deterministic 3-tier `modelled` block:
/// the numbers derive from preset tier specs and the task graph alone
/// (no machine calibration), so baseline and fresh must agree to float
/// round-off.
pub const REAL3_MODEL_TOL: f64 = 1e-9;

/// Fresh best-overlap must retain at least this fraction of baseline's.
pub const PAR_OVERLAP_RETENTION: f64 = 0.2;

/// On a multicore machine, DRAM-only must reach at least this speedup
/// at 2 workers over its own 1-worker run.
pub const PAR_SPEEDUP_2W_FLOOR: f64 = 1.3;

/// Speedup may not degrade by more than this factor between consecutive
/// measured worker counts (both within the machine's core count).
pub const PAR_SCALING_SLACK: f64 = 0.9;

/// Jain fairness floor for the quota-arbitrated multi-tenant run.
pub const TENANT_JAIN_FLOOR: f64 = 0.9;

/// Quota mode must retain at least this fraction of free-for-all's
/// aggregate throughput.
pub const TENANT_THROUGHPUT_RETENTION: f64 = 0.9;

/// Fresh quota-mode Jain may not drop more than this below baseline's.
pub const TENANT_JAIN_DRIFT: f64 = 0.05;

/// Critical-path length must land within this percentage of the
/// observed execution span.
pub const BLAME_CRIT_BAND_PCT: f64 = 5.0;

/// Blame-side aggregate `%overlap` must reconcile with the migration
/// engine's `pct_overlap` within this many percentage points.
pub const BLAME_OVERLAP_BAND_PCT: f64 = 1.0;

fn field<'v>(v: &'v Value, path: &[&str]) -> Result<&'v Value, String> {
    let mut cur = v;
    for p in path {
        cur = cur
            .get(p)
            .ok_or_else(|| format!("missing field `{}`", path.join(".")))?;
    }
    Ok(cur)
}

fn num(v: &Value, path: &[&str]) -> Result<f64, String> {
    field(v, path)?
        .as_f64()
        .ok_or_else(|| format!("field `{}` is not a number", path.join(".")))
}

fn flag(v: &Value, path: &[&str]) -> Result<bool, String> {
    field(v, path)?
        .as_bool()
        .ok_or_else(|| format!("field `{}` is not a bool", path.join(".")))
}

fn schema_of(v: &Value) -> Result<&str, String> {
    field(v, &["schema"])?
        .as_str()
        .ok_or_else(|| "field `schema` is not a string".to_string())
}

/// Compare a fresh artifact against its committed baseline. Both must
/// carry the same `schema` tag. Returns the violations found (an empty
/// vector means the gate passes).
pub fn compare(baseline: &Value, fresh: &Value) -> Result<Vec<String>, String> {
    let bs = schema_of(baseline)?;
    let fs = schema_of(fresh)?;
    // Migration shim: a committed `tahoe-bench-real/v1` baseline still
    // gates a v2 fresh artifact — every field the v1 comparison reads
    // survives unchanged in v2, which only adds blocks.
    if bs == "tahoe-bench-real/v1" && fs == "tahoe-bench-real/v2" {
        return compare_real_any(baseline, fresh);
    }
    if bs != fs {
        return Err(format!("schema mismatch: baseline `{bs}` vs fresh `{fs}`"));
    }
    match bs {
        "tahoe-bench-obs/v1" => compare_obs(baseline, fresh),
        "tahoe-bench-real/v1" | "tahoe-bench-real/v2" => compare_real_any(baseline, fresh),
        "tahoe-bench-par/v1" => compare_par(baseline, fresh),
        "tahoe-bench-audit/v1" => compare_audit(baseline, fresh),
        "tahoe-bench-sanitize/v1" => compare_sanitize(baseline, fresh),
        "tahoe-bench-verify/v1" => compare_verify(baseline, fresh),
        "tahoe-bench-tenant/v1" => compare_tenant(baseline, fresh),
        "tahoe-bench-blame/v1" => compare_blame(baseline, fresh),
        other => Err(format!("unknown artifact schema `{other}`")),
    }
}

/// Convenience wrapper over [`compare`] for raw JSON text.
pub fn compare_text(baseline: &str, fresh: &str) -> Result<Vec<String>, String> {
    let b = json::parse(baseline).map_err(|e| format!("baseline: {e}"))?;
    let f = json::parse(fresh).map_err(|e| format!("fresh: {e}"))?;
    compare(&b, &f)
}

fn compare_obs(baseline: &Value, fresh: &Value) -> Result<Vec<String>, String> {
    let mut violations = Vec::new();
    // Deterministic capture: every digest field must match exactly.
    for path in [
        ["workload", "name"].as_slice(),
        &["workload", "footprint_bytes"],
        &["workload", "windows"],
        &["workload", "tasks"],
        &["events", "total"],
        &["makespan_ns"],
        &["migrations"],
        &["ring_dropped"],
    ] {
        let b = field(baseline, path)?;
        let f = field(fresh, path)?;
        if b != f {
            violations.push(format!(
                "obs digest field `{}` changed: baseline {b:?} vs fresh {f:?}",
                path.join(".")
            ));
        }
    }
    let b_kinds = field(baseline, &["events", "by_kind"])?;
    let f_kinds = field(fresh, &["events", "by_kind"])?;
    if b_kinds != f_kinds {
        violations.push(format!(
            "obs per-kind event counts changed: baseline {b_kinds:?} vs fresh {f_kinds:?}"
        ));
    }
    // Beyond matching the baseline, the drop counter must be absolutely
    // zero: a saturated recorder silently truncates the event stream
    // every downstream consumer (exporters, crit-path, blame) trusts.
    if num(fresh, &["ring_dropped"])? != 0.0 {
        violations.push(format!(
            "flight recorder dropped {} events during the obs artifact run",
            num(fresh, &["ring_dropped"])?
        ));
    }
    Ok(violations)
}

fn real_throughput(v: &Value, policy: &str) -> Result<f64, String> {
    let runs = field(v, &["policies"])?
        .as_array()
        .ok_or("`policies` is not an array")?;
    runs.iter()
        .find(|r| r.get("policy").and_then(|p| p.as_str()) == Some(policy))
        .and_then(|r| r.get("throughput_gbps").and_then(|t| t.as_f64()))
        .ok_or_else(|| format!("policy `{policy}` missing from `policies`"))
}

/// The real-mode comparison across schema versions: the v1 checks
/// always apply; a fresh artifact carrying the 3-tier `modelled` block
/// additionally gets the N-tier case re-derived.
fn compare_real_any(baseline: &Value, fresh: &Value) -> Result<Vec<String>, String> {
    let mut violations = compare_real(baseline, fresh)?;
    if fresh.get("modelled").is_some() {
        violations.extend(compare_real3(baseline, fresh)?);
    }
    Ok(violations)
}

fn compare_real(baseline: &Value, fresh: &Value) -> Result<Vec<String>, String> {
    let mut violations = Vec::new();
    for path in [
        ["consistency", "all_policies_match_reference"].as_slice(),
        &["consistency", "dram_throughput_ge_nvm"],
    ] {
        if !flag(fresh, path)? {
            violations.push(format!("fresh `{}` is false", path.join(".")));
        }
    }
    let f_dram = real_throughput(fresh, "DRAM-only")?;
    let f_nvm = real_throughput(fresh, "NVM-only")?;
    if f_dram < f_nvm {
        violations.push(format!(
            "DRAM-only throughput {f_dram:.3} GB/s below NVM-emulated {f_nvm:.3} GB/s"
        ));
    }
    // The absolute throughputs are machine-dependent, but the injected
    // NVM slowdown ratio should be portable within a generous band.
    let b_ratio =
        (real_throughput(baseline, "DRAM-only")? / real_throughput(baseline, "NVM-only")?).max(1.0);
    let f_ratio = (f_dram / f_nvm.max(f64::MIN_POSITIVE)).max(1.0);
    let (lo, hi) = (
        (b_ratio / REAL_RATIO_BAND).max(1.0),
        b_ratio * REAL_RATIO_BAND,
    );
    if f_ratio < lo || f_ratio > hi {
        violations.push(format!(
            "NVM slowdown ratio {f_ratio:.3} outside [{lo:.3}, {hi:.3}] (baseline {b_ratio:.3})"
        ));
    }
    Ok(violations)
}

/// 3-tier extras for `tahoe-bench-real/v2` artifacts with a `modelled`
/// block: self-validation flags hold, the middle tier earned its keep
/// (holds ≥1 object, ≥1 of them latency-bound), the 3-tier modelled
/// runtime beats both 2-tier degenerations, and — when the baseline
/// also carries the block — the deterministic numbers are reproduced
/// to round-off.
fn compare_real3(baseline: &Value, fresh: &Value) -> Result<Vec<String>, String> {
    let mut violations = Vec::new();
    for path in [
        ["consistency", "mid_tier_wins_latency_bound"].as_slice(),
        &["consistency", "three_tier_beats_both_two_tier"],
        &["consistency", "tahoe_uses_mid_tier"],
    ] {
        if !flag(fresh, path)? {
            violations.push(format!("fresh `{}` is false", path.join(".")));
        }
    }
    let t3 = num(fresh, &["modelled", "tahoe3_ns"])?;
    let t2_nvm = num(fresh, &["modelled", "two_tier_dram_nvm_ns"])?;
    let t2_cxl = num(fresh, &["modelled", "two_tier_dram_cxl_ns"])?;
    let eps = 1.0 + REAL3_MODEL_TOL;
    if t3 > t2_nvm * eps {
        violations.push(format!(
            "3-tier modelled runtime {t3:.1} ns worse than 2-tier DRAM+NVM {t2_nvm:.1} ns"
        ));
    }
    if t3 > t2_cxl * eps {
        violations.push(format!(
            "3-tier modelled runtime {t3:.1} ns worse than 2-tier DRAM+CXL {t2_cxl:.1} ns"
        ));
    }
    if num(fresh, &["modelled", "mid_tier_objects"])? < 1.0 {
        violations.push("3-tier plan left the middle tier empty".into());
    }
    if num(fresh, &["modelled", "mid_tier_latency_bound_objects"])? < 1.0 {
        violations.push("no latency-bound object won the middle tier".into());
    }
    if baseline.get("modelled").is_some() {
        for name in [
            "tahoe3_ns",
            "two_tier_dram_nvm_ns",
            "two_tier_dram_cxl_ns",
            "mid_tier_objects",
            "mid_tier_latency_bound_objects",
        ] {
            let b = num(baseline, &["modelled", name])?;
            let f = num(fresh, &["modelled", name])?;
            if (b - f).abs() > REAL3_MODEL_TOL * b.abs().max(1.0) {
                violations.push(format!(
                    "deterministic `modelled.{name}` drifted: baseline {b} vs fresh {f}"
                ));
            }
        }
    }
    // Middle-tier capacity sweep: monotonicity is re-derived from the
    // fresh rows (never trusted from the flag), and a baseline sweep —
    // the numbers being calibration-free — must be reproduced to
    // round-off.
    if let Some(sweep) = fresh.get("sweep") {
        if !flag(fresh, &["consistency", "sweep_monotone"])? {
            violations.push("fresh `consistency.sweep_monotone` is false".into());
        }
        let rows = sweep.as_array().ok_or("`sweep` is not an array")?;
        if rows.len() < 4 {
            violations.push(format!(
                "middle-tier sweep covers only {} capacities (need >= 4)",
                rows.len()
            ));
        }
        let row_ns = |r: &Value| {
            r.get("modelled_ns")
                .and_then(|n| n.as_f64())
                .ok_or("sweep row missing `modelled_ns`".to_string())
        };
        for pair in rows.windows(2) {
            let (prev, next) = (row_ns(&pair[0])?, row_ns(&pair[1])?);
            if next > prev * (1.0 + REAL3_MODEL_TOL) {
                violations.push(format!(
                    "middle-tier sweep not monotone: {next:.1} ns after {prev:.1} ns"
                ));
            }
        }
        if let Some(bsweep) = baseline.get("sweep") {
            let brows = bsweep
                .as_array()
                .ok_or("baseline `sweep` is not an array")?;
            if brows.len() != rows.len() {
                violations.push(format!(
                    "sweep length changed: baseline {} rows vs fresh {}",
                    brows.len(),
                    rows.len()
                ));
            }
            for (i, (b, f)) in brows.iter().zip(rows).enumerate() {
                for name in ["cxl_capacity_bytes", "mid_tier_objects"] {
                    if b.get(name) != f.get(name) {
                        violations.push(format!(
                            "sweep[{i}].{name} changed: baseline {:?} vs fresh {:?}",
                            b.get(name),
                            f.get(name)
                        ));
                    }
                }
                let (bn, fn_) = (row_ns(b)?, row_ns(f)?);
                if (bn - fn_).abs() > REAL3_MODEL_TOL * bn.abs().max(1.0) {
                    violations.push(format!(
                        "deterministic `sweep[{i}].modelled_ns` drifted: baseline {bn} vs fresh {fn_}"
                    ));
                }
            }
        }
    }
    Ok(violations)
}

fn par_best_overlap(v: &Value) -> Result<(f64, bool), String> {
    let runs = field(v, &["runs"])?
        .as_array()
        .ok_or("`runs` is not an array")?;
    let mut best = 0.0f64;
    let mut migrated = false;
    for r in runs {
        let policy = r.get("policy").and_then(|p| p.as_str()).unwrap_or("");
        let workers = r.get("workers").and_then(|w| w.as_f64()).unwrap_or(0.0);
        if policy != "tahoe-init" || workers < 2.0 {
            continue;
        }
        if r.get("migrations").and_then(|m| m.as_f64()).unwrap_or(0.0) > 0.0 {
            migrated = true;
        }
        best = best.max(r.get("pct_overlap").and_then(|p| p.as_f64()).unwrap_or(0.0));
    }
    Ok((best, migrated))
}

/// Measured `(workers, wall_ns)` points for one policy, sorted by
/// worker count. Runs without both fields are skipped (older artifacts
/// did not record `wall_ns` per parallel run).
fn par_policy_walls(v: &Value, policy: &str) -> Result<Vec<(f64, f64)>, String> {
    let runs = field(v, &["runs"])?
        .as_array()
        .ok_or("`runs` is not an array")?;
    let mut pts: Vec<(f64, f64)> = Vec::new();
    for r in runs {
        if r.get("policy").and_then(|p| p.as_str()) != Some(policy) {
            continue;
        }
        let workers = r.get("workers").and_then(|w| w.as_f64());
        let wall = r.get("wall_ns").and_then(|w| w.as_f64());
        if let (Some(w), Some(wall)) = (workers, wall) {
            if w >= 1.0 && wall > 0.0 {
                pts.push((w, wall));
            }
        }
    }
    pts.sort_by(|a, b| a.0.total_cmp(&b.0));
    Ok(pts)
}

fn compare_par(baseline: &Value, fresh: &Value) -> Result<Vec<String>, String> {
    let mut violations = Vec::new();
    for path in [
        ["consistency", "all_runs_match_reference"].as_slice(),
        &["consistency", "tahoe_multiworker_overlapped"],
    ] {
        if !flag(fresh, path)? {
            violations.push(format!("fresh `{}` is false", path.join(".")));
        }
    }
    let (b_best, _) = par_best_overlap(baseline)?;
    let (f_best, f_migrated) = par_best_overlap(fresh)?;
    if !f_migrated {
        violations.push("tahoe-init at >=2 workers performed no migrations".into());
    }
    let floor = b_best * PAR_OVERLAP_RETENTION;
    if f_best < floor {
        violations.push(format!(
            "best tahoe-init overlap {f_best:.1}% collapsed below {floor:.1}% (baseline best {b_best:.1}%)"
        ));
    }
    // Parallel-scaling band. Speedups are recomputed from the fresh
    // run's own wall clocks (never trusted from the recorded `speedup`
    // field) and only enforced where the machine had real cores to
    // scale onto: a 1-CPU box oversubscribes the spin-paced compute and
    // legitimately slows down, as do worker counts beyond the core
    // count, so those points are exempt.
    let cpus = fresh
        .get("machine")
        .and_then(|m| m.get("cpus"))
        .and_then(|c| c.as_f64())
        .unwrap_or(1.0);
    if cpus >= 2.0 {
        let pts = par_policy_walls(fresh, "DRAM-only")?;
        if let Some(&(_, base)) = pts.iter().find(|(w, _)| *w == 1.0) {
            let speedups: Vec<(f64, f64)> = pts
                .iter()
                .filter(|(w, _)| *w <= cpus)
                .map(|&(w, wall)| (w, base / wall))
                .collect();
            if let Some(&(_, s2)) = speedups.iter().find(|(w, _)| *w == 2.0) {
                if s2 < PAR_SPEEDUP_2W_FLOOR {
                    violations.push(format!(
                        "DRAM-only speedup at 2 workers is {s2:.2}x, below the \
                         {PAR_SPEEDUP_2W_FLOOR:.1}x floor ({cpus:.0} cpus)"
                    ));
                }
            }
            for pair in speedups.windows(2) {
                let ((wa, sa), (wb, sb)) = (pair[0], pair[1]);
                if sb < sa * PAR_SCALING_SLACK {
                    violations.push(format!(
                        "DRAM-only speedup degrades from {sa:.2}x at {wa:.0} workers to \
                         {sb:.2}x at {wb:.0} (floor {:.2}x)",
                        sa * PAR_SCALING_SLACK
                    ));
                }
            }
        }
    }
    Ok(violations)
}

fn compare_audit(baseline: &Value, fresh: &Value) -> Result<Vec<String>, String> {
    let mut violations = Vec::new();
    if num(fresh, &["audit", "audited"])? < 1.0 {
        violations.push("audit covered zero objects".into());
    }
    if num(fresh, &["audit", "migrations"])? < 1.0 {
        violations.push("audit run performed no migrations".into());
    }
    let overhead = num(fresh, &["overhead", "overhead_pct"])?;
    if overhead > OVERHEAD_CEILING_PCT {
        violations.push(format!(
            "recorder self-overhead {overhead:.2}% exceeds {OVERHEAD_CEILING_PCT:.1}% ceiling"
        ));
    }
    // Model accuracy: allow headroom over the committed baseline (wall
    // clocks are noisy), but catch a model that has come apart.
    let b_mape = num(baseline, &["audit", "mape_pct"])?;
    let f_mape = num(fresh, &["audit", "mape_pct"])?;
    let mape_limit = (b_mape * 2.0).max(b_mape + 25.0);
    if f_mape > mape_limit {
        violations.push(format!(
            "MAPE {f_mape:.1}% exceeds limit {mape_limit:.1}% (baseline {b_mape:.1}%)"
        ));
    }
    let b_sign = num(baseline, &["audit", "sign_agreement_pct"])?;
    let f_sign = num(fresh, &["audit", "sign_agreement_pct"])?;
    let sign_floor = (b_sign - 25.0).max(50.0);
    if f_sign < sign_floor {
        violations.push(format!(
            "sign agreement {f_sign:.1}% below floor {sign_floor:.1}% (baseline {b_sign:.1}%)"
        ));
    }
    Ok(violations)
}

fn compare_sanitize(baseline: &Value, fresh: &Value) -> Result<Vec<String>, String> {
    let mut violations = Vec::new();
    // Self-reported health flags must hold on the fresh run.
    for path in [
        ["static", "clean"].as_slice(),
        &["fuzz", "clean"],
        &["consistency", "correct_workloads_clean"],
        &["consistency", "fixtures_exact"],
    ] {
        if !flag(fresh, path)? {
            violations.push(format!("fresh `{}` is false", path.join(".")));
        }
    }
    // Everything the sanitizer reports is schedule-independent, so the
    // digest must match the baseline exactly: same workloads verified,
    // same fuzz coverage and shadowed-access count, same per-fixture
    // violation sets.
    for path in [["static"].as_slice(), &["fuzz"], &["fixtures"]] {
        let b = field(baseline, path)?;
        let f = field(fresh, path)?;
        if b != f {
            violations.push(format!(
                "sanitize digest `{}` changed: baseline {b:?} vs fresh {f:?}",
                path.join(".")
            ));
        }
    }
    Ok(violations)
}

fn compare_verify(baseline: &Value, fresh: &Value) -> Result<Vec<String>, String> {
    let mut violations = Vec::new();
    // Self-reported health flags must hold on the fresh run.
    for path in [
        ["plans", "clean"].as_slice(),
        &["preflight", "clean"],
        &["mcheck", "clean"],
        &["consistency", "solver_plans_clean"],
        &["consistency", "preflight_clean"],
        &["consistency", "fixtures_exact"],
        &["consistency", "protocol_certified"],
        &["consistency", "bugs_all_caught"],
    ] {
        if !flag(fresh, path)? {
            violations.push(format!("fresh `{}` is false", path.join(".")));
        }
    }
    // The auditor and the model checker are deterministic pure
    // functions — no tolerance bands, the digest matches exactly or
    // something changed. In particular `mcheck.configs[*].states` /
    // `transitions` pin the certification sweep's explored state space.
    for path in [
        ["plans"].as_slice(),
        &["preflight"],
        &["fixtures"],
        &["mcheck"],
    ] {
        let b = field(baseline, path)?;
        let f = field(fresh, path)?;
        if b != f {
            violations.push(format!(
                "verify digest `{}` changed: baseline {b:?} vs fresh {f:?}",
                path.join(".")
            ));
        }
    }
    Ok(violations)
}

/// Locate one arbitration mode's block in a tenant artifact.
fn tenant_mode<'v>(v: &'v Value, mode: &str) -> Result<&'v Value, String> {
    field(v, &["modes"])?
        .as_array()
        .ok_or("`modes` is not an array")?
        .iter()
        .find(|m| m.get("mode").and_then(|s| s.as_str()) == Some(mode))
        .ok_or_else(|| format!("mode `{mode}` missing from `modes`"))
}

fn compare_tenant(baseline: &Value, fresh: &Value) -> Result<Vec<String>, String> {
    let mut violations = Vec::new();
    // Self-reported consistency flags must hold on the fresh run.
    for name in [
        "checksums_match_solo",
        "quota_beats_ffa_worst_p99",
        "throughput_within_10pct",
        "jain_quota_ge_090",
        "quota_preempts",
        "ffa_never_preempts",
        "burst_sheds",
    ] {
        if !flag(fresh, &["consistency", name])? {
            violations.push(format!("fresh `consistency.{name}` is false"));
        }
    }
    // Re-derive the arbiter's case from the fresh per-mode numbers —
    // never trust the flags alone.
    let fq = tenant_mode(fresh, "quota")?;
    let ff = tenant_mode(fresh, "free_for_all")?;
    let (q_p99, f_p99) = (num(fq, &["worst_p99_ms"])?, num(ff, &["worst_p99_ms"])?);
    if q_p99 >= f_p99 {
        violations.push(format!(
            "quota worst p99 {q_p99:.2} ms does not beat free-for-all {f_p99:.2} ms"
        ));
    }
    let (q_thr, f_thr) = (
        num(fq, &["aggregate_graphs_per_s"])?,
        num(ff, &["aggregate_graphs_per_s"])?,
    );
    if q_thr < TENANT_THROUGHPUT_RETENTION * f_thr {
        violations.push(format!(
            "quota throughput {q_thr:.1} graphs/s retains less than {:.0}% of free-for-all's {f_thr:.1}",
            TENANT_THROUGHPUT_RETENTION * 100.0
        ));
    }
    let q_jain = num(fq, &["jain"])?;
    let b_jain = num(tenant_mode(baseline, "quota")?, &["jain"])?;
    let jain_floor = TENANT_JAIN_FLOOR.max(b_jain - TENANT_JAIN_DRIFT);
    if q_jain < jain_floor {
        violations.push(format!(
            "quota Jain index {q_jain:.3} below floor {jain_floor:.3} (baseline {b_jain:.3})"
        ));
    }
    if num(fq, &["preempted"])? < 1.0 {
        violations.push("quota mode performed no preemptions".into());
    }
    if num(ff, &["preempted"])? > 0.0 {
        violations.push("free-for-all mode preempted".into());
    }
    if num(fq, &["shed"])? < 1.0 {
        violations.push("quota burst shed nothing".into());
    }
    Ok(violations)
}

fn compare_blame(baseline: &Value, fresh: &Value) -> Result<Vec<String>, String> {
    let mut violations = Vec::new();
    // Self-reported consistency flags must hold on the fresh run.
    for name in ["checksum_matches_reference", "blame_covers_all_migrations"] {
        if !flag(fresh, &["consistency", name])? {
            violations.push(format!("fresh `consistency.{name}` is false"));
        }
    }
    // Same workload family as the committed baseline, or the bands
    // below gate numbers that were never comparable.
    let b_name = field(baseline, &["workload", "name"])?;
    let f_name = field(fresh, &["workload", "name"])?;
    if b_name != f_name {
        violations.push(format!(
            "workload changed under the baseline: {b_name:?} vs {f_name:?}"
        ));
    }
    // Re-derive every band from the fresh numbers — never trust the
    // artifact's own pass/fail verdicts.
    let crit_pct = num(fresh, &["critpath", "crit_vs_span_pct"])?;
    if crit_pct > BLAME_CRIT_BAND_PCT {
        violations.push(format!(
            "critical path strayed {crit_pct:.2}% from the observed span \
             (band {BLAME_CRIT_BAND_PCT:.1}%)"
        ));
    }
    let blame_ov = num(fresh, &["reconciliation", "blame_pct_overlap"])?;
    let engine_ov = num(fresh, &["reconciliation", "engine_pct_overlap"])?;
    let delta = (blame_ov - engine_ov).abs();
    if delta > BLAME_OVERLAP_BAND_PCT {
        violations.push(format!(
            "blame overlap {blame_ov:.3}% vs engine overlap {engine_ov:.3}% \
             (delta {delta:.3}%, band {BLAME_OVERLAP_BAND_PCT:.1}%)"
        ));
    }
    if num(fresh, &["run", "migrations"])? < 1.0 {
        violations.push("blame run performed no migrations".into());
    }
    let blamed = num(fresh, &["reconciliation", "blamed_migrations"])?;
    let committed = num(fresh, &["reconciliation", "engine_migrations"])?;
    if blamed != committed {
        violations.push(format!(
            "blame table covers {blamed} migrations, engine committed {committed}"
        ));
    }
    if num(fresh, &["run", "ring_dropped"])? != 0.0 {
        violations.push(format!(
            "flight recorder dropped {} events; the blame table is incomplete",
            num(fresh, &["run", "ring_dropped"])?
        ));
    }
    let checked = num(fresh, &["consistency", "whatif_checked"])?;
    let agreeing = num(fresh, &["consistency", "whatif_agreeing"])?;
    if agreeing != checked {
        violations.push(format!(
            "what-if sign agreement {agreeing}/{checked}: model and knapsack disagree"
        ));
    }
    // The telemetry plane may be unavailable (no loopback sockets), but
    // when it served, the scrape must have matched the shutdown report.
    if flag(fresh, &["telemetry", "served"])?
        && !flag(fresh, &["telemetry", "scrape_matches_report"])?
    {
        violations.push("telemetry served but its scrape diverged from the shutdown report".into());
    }
    Ok(violations)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs_doc(total: u64, makespan: f64) -> String {
        obs_doc_drops(total, makespan, 0)
    }

    fn obs_doc_drops(total: u64, makespan: f64, dropped: u64) -> String {
        format!(
            r#"{{"schema": "tahoe-bench-obs/v1",
                "workload": {{"name": "stream", "footprint_bytes": 786432, "windows": 6, "tasks": 24}},
                "events": {{"total": {total}, "by_kind": {{"migration_issued": 4, "worker_task": 24}}}},
                "makespan_ns": {makespan}, "migrations": 4, "ring_dropped": {dropped}}}"#
        )
    }

    /// A blame artifact with tunable band-relevant numbers; everything
    /// else stays at healthy fixed values.
    #[allow(clippy::too_many_arguments)]
    fn blame_doc(
        crit_pct: f64,
        blame_ov: f64,
        engine_ov: f64,
        blamed: u64,
        committed: u64,
        ring_dropped: u64,
        whatif_agreeing: u64,
        served: bool,
        scrape_matches: bool,
    ) -> String {
        format!(
            r#"{{"schema": "tahoe-bench-blame/v1",
                "machine": {{"arch": "x86_64", "os": "linux", "numa_nodes": 1, "cpus": 2, "smoke": true}},
                "workload": {{"name": "stream", "footprint_bytes": 786432, "windows": 4, "tasks": 16}},
                "run": {{"policy": "tahoe", "workers": 2, "seed": 7, "wall_ns": 3.2e6,
                         "checksum": "261b4ff712b71cae", "migrations": {committed}, "migrated_bytes": 786432,
                         "pct_overlap": {engine_ov}, "gate_wait_ns": 2724.0, "ring_dropped": {ring_dropped}}},
                "critpath": {{"crit_total_ns": 2.36e6, "span_ns": 2.36e6, "exec_wall_ns": 2.58e6,
                              "compute_ns": 1.5e6, "stall_ns": 2763.0, "idle_ns": 8.5e5,
                              "segments": 41, "tasks_on_path": 14, "crit_vs_span_pct": {crit_pct}}},
                "blame": [{{"object": 0, "tier": "dram", "migrations": {blamed}, "bytes": 786432,
                            "overlapped_ns": 4.6e4, "exposed_ns": 0.0, "gate_wait_ns": 0.0,
                            "chosen": true, "predicted_benefit_ns": 79872.1}}],
                "reconciliation": {{"blame_pct_overlap": {blame_ov}, "engine_pct_overlap": {engine_ov},
                                    "delta_pct": 0.0, "blamed_migrations": {blamed},
                                    "engine_migrations": {committed}, "unattributed_wait_ns": 3154.0}},
                "whatif": [],
                "telemetry": {{"served": {served}, "scrape_matches_report": {scrape_matches},
                               "tenants": 2, "completed_total": 2, "blame_samples": 20}},
                "consistency": {{"checksum_matches_reference": true, "crit_band_pct": 5.0,
                                 "overlap_band_pct": 1.0, "blame_covers_all_migrations": true,
                                 "whatif_checked": 3, "whatif_agreeing": {whatif_agreeing},
                                 "ring_dropped": {ring_dropped}}}}}"#
        )
    }

    fn healthy_blame_doc() -> String {
        blame_doc(0.1, 99.8, 100.0, 12, 12, 0, 3, true, true)
    }

    fn real_doc(dram_thr: f64, nvm_thr: f64) -> String {
        format!(
            r#"{{"schema": "tahoe-bench-real/v1",
                "policies": [
                  {{"policy": "DRAM-only", "throughput_gbps": {dram_thr}}},
                  {{"policy": "NVM-only", "throughput_gbps": {nvm_thr}}},
                  {{"policy": "tahoe", "throughput_gbps": {dram_thr}}}
                ],
                "consistency": {{"all_policies_match_reference": true, "dram_throughput_ge_nvm": true}}}}"#
        )
    }

    /// A v2 real artifact. With `modelled: true` it carries the 3-tier
    /// plan/modelled blocks (a `--tiers 3` sweep); otherwise it is the
    /// plain 2-tier sweep under the bumped schema.
    fn real_v2_doc(
        dram_thr: f64,
        nvm_thr: f64,
        modelled: Option<(f64, f64, f64, u64, u64)>,
        flags_true: bool,
    ) -> String {
        let mut extra = String::new();
        let mut flags =
            String::from(r#""all_policies_match_reference": true, "dram_throughput_ge_nvm": true"#);
        if let Some((t3, t2n, t2c, mid, midlat)) = modelled {
            // The sweep rows shrink from t3 as the CXL tier doubles.
            extra = format!(
                r#""plan": [{{"object": 0, "name": "p0", "bytes": 16384, "tier": 1, "tier_name": "CXL", "latency_bound": true}}],
                   "modelled": {{"tahoe3_ns": {t3}, "two_tier_dram_nvm_ns": {t2n}, "two_tier_dram_cxl_ns": {t2c},
                                 "mid_tier_objects": {mid}, "mid_tier_latency_bound_objects": {midlat}}},
                   "sweep": [
                     {{"cxl_capacity_bytes": 131072, "modelled_ns": {a}, "mid_tier_objects": 8}},
                     {{"cxl_capacity_bytes": 262144, "modelled_ns": {t3}, "mid_tier_objects": {mid}}},
                     {{"cxl_capacity_bytes": 524288, "modelled_ns": {b}, "mid_tier_objects": 16}},
                     {{"cxl_capacity_bytes": 1048576, "modelled_ns": {c}, "mid_tier_objects": 18}}
                   ],"#,
                a = t3 * 1.25,
                b = t3 * 0.875,
                c = t3 * 0.75
            );
            flags.push_str(&format!(
                r#", "mid_tier_wins_latency_bound": {flags_true}, "three_tier_beats_both_two_tier": {flags_true}, "tahoe_uses_mid_tier": {flags_true}, "sweep_monotone": {flags_true}"#
            ));
        }
        format!(
            r#"{{"schema": "tahoe-bench-real/v2",
                "tiers": [
                  {{"index": 0, "name": "DRAM", "capacity_bytes": 40960}},
                  {{"index": 1, "name": "CXL", "capacity_bytes": 262144}},
                  {{"index": 2, "name": "Optane PMM", "capacity_bytes": 5242880}}
                ],
                "policies": [
                  {{"policy": "DRAM-only", "throughput_gbps": {dram_thr}, "final_tier_objects": [20, 0, 0]}},
                  {{"policy": "NVM-only", "throughput_gbps": {nvm_thr}, "final_tier_objects": [0, 0, 20]}},
                  {{"policy": "tahoe", "throughput_gbps": {dram_thr}, "final_tier_objects": [2, 14, 4]}}
                ],
                {extra}
                "consistency": {{{flags}}}}}"#
        )
    }

    fn healthy_real3_doc() -> String {
        real_v2_doc(7.0, 3.0, Some((2.3e6, 2.9e6, 2.9e6, 14, 2)), true)
    }

    fn par_doc(overlap: f64, migrations: u64) -> String {
        format!(
            r#"{{"schema": "tahoe-bench-par/v1",
                "runs": [
                  {{"policy": "DRAM-only", "workers": 2, "migrations": 0, "pct_overlap": 0.0}},
                  {{"policy": "tahoe-init", "workers": 1, "migrations": 3, "pct_overlap": 0.0}},
                  {{"policy": "tahoe-init", "workers": 2, "migrations": {migrations}, "pct_overlap": {overlap}}}
                ],
                "consistency": {{"all_runs_match_reference": true, "tahoe_multiworker_overlapped": true}}}}"#
        )
    }

    /// A par artifact with a machine section and per-run wall clocks,
    /// as the current `exp par` writer emits. `dram_walls` gives the
    /// DRAM-only (workers, wall_ns) ladder.
    fn par_scaling_doc(cpus: u64, dram_walls: &[(u64, f64)]) -> String {
        let mut runs = String::new();
        for (w, wall) in dram_walls {
            runs.push_str(&format!(
                r#"{{"policy": "DRAM-only", "workers": {w}, "wall_ns": {wall}, "migrations": 0, "pct_overlap": 0.0}}, "#
            ));
        }
        runs.push_str(
            r#"{"policy": "tahoe-init", "workers": 1, "wall_ns": 120000.0, "migrations": 3, "pct_overlap": 0.0},
               {"policy": "tahoe-init", "workers": 2, "wall_ns": 70000.0, "migrations": 4, "pct_overlap": 60.0}"#,
        );
        format!(
            r#"{{"schema": "tahoe-bench-par/v1",
                "machine": {{"arch": "x86_64", "os": "linux", "numa_nodes": 1, "cpus": {cpus}, "smoke": true}},
                "runs": [{runs}],
                "consistency": {{"all_runs_match_reference": true, "tahoe_multiworker_overlapped": true}}}}"#
        )
    }

    fn audit_doc(mape: f64, sign: f64, overhead: f64) -> String {
        format!(
            r#"{{"schema": "tahoe-bench-audit/v1",
                "audit": {{"policy": "tahoe", "workers": 2, "run_seed": 0, "audited": 3,
                           "mape_pct": {mape}, "sign_agreement_pct": {sign},
                           "migrations": 4, "wall_ns": 1000000.0}},
                "overhead": {{"off_wall_ns": 900000.0, "on_wall_ns": 910000.0,
                              "overhead_pct": {overhead}, "reps": 3}}}}"#
        )
    }

    fn sanitize_doc(accesses: u64, wur: u64, fixtures_exact: bool) -> String {
        format!(
            r#"{{"schema": "tahoe-bench-sanitize/v1",
                "machine": {{"arch": "x86_64", "os": "linux", "numa_nodes": 1, "smoke": true}},
                "static": {{"workloads_verified": 12, "plans_audited": 12, "clean": true}},
                "fuzz": {{"workloads": 1, "workers": [1, 2, 4], "seeds": [0, 1, 2],
                          "runs": 9, "accesses_checked": {accesses}, "clean": true}},
                "fixtures": [
                  {{"name": "hidden_writer", "runs": 2, "static_match": true, "dynamic_match": {fixtures_exact},
                    "violations": {{"unordered_conflict": 1, "write_under_read": {wur}}}}}
                ],
                "consistency": {{"correct_workloads_clean": true, "fixtures_exact": {fixtures_exact}}}}}"#
        )
    }

    /// A verify artifact with a tunable pinned state count, fixture
    /// diagnostic count, and health flags.
    fn verify_doc(states2: u64, race_count: u64, flags_true: bool) -> String {
        format!(
            r#"{{"schema": "tahoe-bench-verify/v1",
                "machine": {{"arch": "x86_64", "os": "linux", "numa_nodes": 1, "smoke": true}},
                "plans": {{"workloads": 12, "tier_depths": [2, 3], "audited": 24, "steps_total": 61, "clean": true}},
                "preflight": {{"workloads": 2, "policies": 4, "runs": 8, "clean": true}},
                "fixtures": [
                  {{"name": "plan_move_races_reader", "violations": {{"plan_move_race": {race_count}}}, "exact": true}}
                ],
                "mcheck": {{"configs": [
                  {{"pinners": 2, "pin_cycles": 2, "moves": 2, "states": {states2}, "transitions": 560, "terminals": 1, "deadlocks": 0}},
                  {{"pinners": 3, "pin_cycles": 2, "moves": 2, "states": 1031, "transitions": 2040, "terminals": 1, "deadlocks": 0}}
                ], "bugs_injected": 4, "bugs_caught": 4, "clean": true}},
                "consistency": {{"solver_plans_clean": true, "preflight_clean": true, "fixtures_exact": {flags_true}, "protocol_certified": {flags_true}, "bugs_all_caught": true}}}}"#
        )
    }

    fn healthy_verify_doc() -> String {
        verify_doc(320, 1, true)
    }

    /// A tenant artifact with tunable quota-side numbers; the
    /// free-for-all side stays fixed (worst p99 12 ms, 90 graphs/s,
    /// zero preemptions) unless `ffa_preempted` says otherwise.
    #[allow(clippy::too_many_arguments)]
    fn tenant_doc(
        q_jain: f64,
        q_p99: f64,
        q_thr: f64,
        q_preempted: u64,
        q_shed: u64,
        ffa_preempted: u64,
        flags_true: bool,
    ) -> String {
        format!(
            r#"{{"schema": "tahoe-bench-tenant/v1",
                "machine": {{"arch": "x86_64", "os": "linux", "numa_nodes": 1, "cpus": 2, "smoke": true}},
                "modes": [
                  {{"mode": "quota", "wall_ms": 50.0, "aggregate_graphs_per_s": {q_thr},
                    "jain": {q_jain}, "worst_p99_ms": {q_p99}, "preempted": {q_preempted}, "shed": {q_shed},
                    "checksums_match_solo": true, "tenants": []}},
                  {{"mode": "free_for_all", "wall_ms": 50.0, "aggregate_graphs_per_s": 90.0,
                    "jain": 0.85, "worst_p99_ms": 12.0, "preempted": {ffa_preempted}, "shed": 0,
                    "checksums_match_solo": true, "tenants": []}}
                ],
                "consistency": {{"checksums_match_solo": {flags_true}, "quota_beats_ffa_worst_p99": {flags_true},
                                 "throughput_within_10pct": {flags_true}, "jain_quota_ge_090": {flags_true},
                                 "quota_preempts": {flags_true}, "ffa_never_preempts": {flags_true},
                                 "burst_sheds": {flags_true}}}}}"#
        )
    }

    fn healthy_tenant_doc() -> String {
        tenant_doc(0.98, 8.0, 88.0, 2, 3, 0, true)
    }

    #[test]
    fn identical_artifacts_pass_every_schema() {
        for doc in [
            obs_doc(40, 123456.0),
            real_doc(8.0, 2.0),
            par_doc(60.0, 4),
            audit_doc(40.0, 100.0, 1.0),
            sanitize_doc(216, 1, true),
            healthy_verify_doc(),
            healthy_tenant_doc(),
            healthy_blame_doc(),
        ] {
            let v = compare_text(&doc, &doc).expect("well-formed");
            assert!(v.is_empty(), "unexpected violations: {v:?}");
        }
    }

    #[test]
    fn verify_gate_pins_the_whole_digest() {
        let base = healthy_verify_doc();
        // A drifted explored-state count is the canary for any change
        // to the word algebra, the protocol model, or the checker.
        let v = compare_text(&base, &verify_doc(321, 1, true)).unwrap();
        assert!(v.iter().any(|m| m.contains("`mcheck` changed")), "{v:?}");
        // A fixture whose diagnostic set drifted fails exactly.
        let v = compare_text(&base, &verify_doc(320, 2, true)).unwrap();
        assert!(v.iter().any(|m| m.contains("`fixtures` changed")), "{v:?}");
        // Self-reported health flags must hold on the fresh artifact.
        let v = compare_text(&base, &verify_doc(320, 1, false)).unwrap();
        assert!(
            v.iter()
                .any(|m| m.contains("`consistency.protocol_certified` is false")),
            "{v:?}"
        );
    }

    #[test]
    fn blame_gate_rederives_every_band() {
        let base = healthy_blame_doc();
        // Critical path drifting past the 5% band fails.
        let v = compare_text(
            &base,
            &blame_doc(7.0, 99.8, 100.0, 12, 12, 0, 3, true, true),
        )
        .unwrap();
        assert!(
            v.iter().any(|m| m.contains("critical path strayed")),
            "{v:?}"
        );
        // Blame overlap diverging from the engine's by more than 1 point
        // fails, re-derived from the numbers (the delta field says 0.0).
        let v = compare_text(
            &base,
            &blame_doc(0.1, 95.0, 100.0, 12, 12, 0, 3, true, true),
        )
        .unwrap();
        assert!(v.iter().any(|m| m.contains("engine overlap")), "{v:?}");
        // A blame table that lost migrations fails.
        let v = compare_text(&base, &blame_doc(0.1, 99.8, 100.0, 9, 12, 0, 3, true, true)).unwrap();
        assert!(v.iter().any(|m| m.contains("engine committed")), "{v:?}");
        // Recorder drops invalidate the whole profile.
        let v = compare_text(
            &base,
            &blame_doc(0.1, 99.8, 100.0, 12, 12, 5, 3, true, true),
        )
        .unwrap();
        assert!(v.iter().any(|m| m.contains("dropped")), "{v:?}");
        // What-if signs disagreeing with the knapsack fails.
        let v = compare_text(
            &base,
            &blame_doc(0.1, 99.8, 100.0, 12, 12, 0, 2, true, true),
        )
        .unwrap();
        assert!(v.iter().any(|m| m.contains("sign agreement")), "{v:?}");
        // A served-but-divergent telemetry plane fails...
        let v = compare_text(
            &base,
            &blame_doc(0.1, 99.8, 100.0, 12, 12, 0, 3, true, false),
        )
        .unwrap();
        assert!(v.iter().any(|m| m.contains("telemetry served")), "{v:?}");
        // ...but a plane that could not bind at all is tolerated.
        let v = compare_text(
            &base,
            &blame_doc(0.1, 99.8, 100.0, 12, 12, 0, 3, false, false),
        )
        .unwrap();
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn tenant_gate_rederives_the_arbiter_case() {
        let base = healthy_tenant_doc();
        // Fairness collapse: jain below both the absolute floor and the
        // baseline band.
        let v = compare_text(&base, &tenant_doc(0.7, 8.0, 88.0, 2, 3, 0, true)).unwrap();
        assert!(v.iter().any(|m| m.contains("Jain index")), "{v:?}");
        // Jain above the absolute floor but collapsed vs baseline 0.98.
        let v = compare_text(&base, &tenant_doc(0.91, 8.0, 88.0, 2, 3, 0, true)).unwrap();
        assert!(v.iter().any(|m| m.contains("Jain index")), "{v:?}");
        // Worst p99 no longer beats free-for-all's 12 ms.
        let v = compare_text(&base, &tenant_doc(0.98, 13.0, 88.0, 2, 3, 0, true)).unwrap();
        assert!(v.iter().any(|m| m.contains("does not beat")), "{v:?}");
        // Aggregate throughput gives up more than 10% vs 90 graphs/s.
        let v = compare_text(&base, &tenant_doc(0.98, 8.0, 70.0, 2, 3, 0, true)).unwrap();
        assert!(v.iter().any(|m| m.contains("retains less than")), "{v:?}");
        // The arbiter stopped preempting / the burst stopped shedding.
        let v = compare_text(&base, &tenant_doc(0.98, 8.0, 88.0, 0, 3, 0, true)).unwrap();
        assert!(v.iter().any(|m| m.contains("no preemptions")), "{v:?}");
        let v = compare_text(&base, &tenant_doc(0.98, 8.0, 88.0, 2, 0, 0, true)).unwrap();
        assert!(v.iter().any(|m| m.contains("shed nothing")), "{v:?}");
        // Free-for-all preempting means the baseline policy is broken.
        let v = compare_text(&base, &tenant_doc(0.98, 8.0, 88.0, 2, 3, 1, true)).unwrap();
        assert!(v.iter().any(|m| m.contains("free-for-all mode")), "{v:?}");
        // A fresh run that failed its own self-validation always fails.
        let v = compare_text(&base, &tenant_doc(0.98, 8.0, 88.0, 2, 3, 0, false)).unwrap();
        assert!(
            v.iter()
                .any(|m| m.contains("consistency.checksums_match_solo")),
            "{v:?}"
        );
    }

    #[test]
    fn sanitize_gate_demands_exact_violation_sets() {
        // A changed fixture violation count is a digest change.
        let v = compare_text(&sanitize_doc(216, 1, true), &sanitize_doc(216, 2, true)).unwrap();
        assert!(v.iter().any(|m| m.contains("fixtures")), "{v:?}");
        // Shadowed-access coverage shrinking is a digest change too.
        let v = compare_text(&sanitize_doc(216, 1, true), &sanitize_doc(215, 1, true)).unwrap();
        assert!(v.iter().any(|m| m.contains("fuzz")), "{v:?}");
        // A fresh run that failed its own exactness check always fails.
        let v = compare_text(&sanitize_doc(216, 1, true), &sanitize_doc(216, 1, false)).unwrap();
        assert!(v.iter().any(|m| m.contains("fixtures_exact")), "{v:?}");
    }

    #[test]
    fn schema_mismatch_is_a_structural_error() {
        let err = compare_text(&obs_doc(40, 1.0), &par_doc(60.0, 4)).unwrap_err();
        assert!(err.contains("schema mismatch"), "{err}");
    }

    #[test]
    fn obs_gate_demands_exact_equality() {
        let v = compare_text(&obs_doc(40, 123456.0), &obs_doc(41, 123456.0)).unwrap();
        assert!(v.iter().any(|m| m.contains("events.total")), "{v:?}");
        let v = compare_text(&obs_doc(40, 123456.0), &obs_doc(40, 123457.0)).unwrap();
        assert!(v.iter().any(|m| m.contains("makespan_ns")), "{v:?}");
        // A nonzero drop counter fails even if both sides agree on it.
        let v = compare_text(
            &obs_doc_drops(40, 123456.0, 3),
            &obs_doc_drops(40, 123456.0, 3),
        )
        .unwrap();
        assert!(v.iter().any(|m| m.contains("dropped 3 events")), "{v:?}");
    }

    #[test]
    fn real_gate_catches_ratio_drift_and_inversion() {
        // Baseline ratio 4.0; fresh ratio 16.0 breaks the 2.5x band.
        let v = compare_text(&real_doc(8.0, 2.0), &real_doc(16.0, 1.0)).unwrap();
        assert!(v.iter().any(|m| m.contains("slowdown ratio")), "{v:?}");
        // DRAM slower than emulated NVM is always wrong.
        let v = compare_text(&real_doc(8.0, 2.0), &real_doc(2.0, 3.0)).unwrap();
        assert!(v.iter().any(|m| m.contains("below NVM-emulated")), "{v:?}");
        // Mild drift within the band passes.
        let v = compare_text(&real_doc(8.0, 2.0), &real_doc(8.0, 3.0)).unwrap();
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn real_v2_artifacts_pass_and_v1_baselines_still_gate_them() {
        // v2 vs v2, with and without the 3-tier blocks.
        for doc in [real_v2_doc(8.0, 2.0, None, true), healthy_real3_doc()] {
            let v = compare_text(&doc, &doc).expect("well-formed");
            assert!(v.is_empty(), "unexpected violations: {v:?}");
        }
        // Migration shim: the committed v1 baseline gates a v2 fresh.
        let v = compare_text(&real_doc(8.0, 2.0), &real_v2_doc(8.0, 3.0, None, true)).unwrap();
        assert!(v.is_empty(), "{v:?}");
        // ...and still catches a throughput inversion in the v2 fresh.
        let v = compare_text(&real_doc(8.0, 2.0), &real_v2_doc(2.0, 3.0, None, true)).unwrap();
        assert!(v.iter().any(|m| m.contains("below NVM-emulated")), "{v:?}");
        // No reverse shim: a v2 baseline cannot gate a v1 fresh.
        let err =
            compare_text(&real_v2_doc(8.0, 2.0, None, true), &real_doc(8.0, 2.0)).unwrap_err();
        assert!(err.contains("schema mismatch"), "{err}");
    }

    #[test]
    fn real3_sweep_gate_rederives_monotonicity() {
        let base = healthy_real3_doc();
        // A sweep row that worsens as the middle tier grows fails the
        // re-derived monotonicity check (t3*0.75 is the largest-cap row).
        let fresh = base.replace("\"modelled_ns\": 1725000", "\"modelled_ns\": 99725000");
        assert_ne!(base, fresh, "fixture row not found");
        let v = compare_text(&base, &fresh).unwrap();
        assert!(v.iter().any(|m| m.contains("not monotone")), "{v:?}");
        // A deterministic sweep number drifting from the baseline fails
        // even while staying monotone.
        let fresh = base.replace("\"modelled_ns\": 2012500", "\"modelled_ns\": 2012400");
        assert_ne!(base, fresh, "fixture row not found");
        let v = compare_text(&base, &fresh).unwrap();
        assert!(
            v.iter().any(|m| m.contains("sweep[2].modelled_ns")),
            "{v:?}"
        );
    }

    #[test]
    fn real3_gate_rederives_the_middle_tier_case() {
        let base = healthy_real3_doc();
        // 3-tier modelled runtime losing to a 2-tier degeneration fails.
        let v = compare_text(
            &base,
            &real_v2_doc(7.0, 3.0, Some((3.0e6, 2.9e6, 2.9e6, 14, 2)), true),
        )
        .unwrap();
        assert!(v.iter().any(|m| m.contains("worse than 2-tier")), "{v:?}");
        // An empty middle tier, or one without a latency-bound winner, fails.
        let v = compare_text(
            &base,
            &real_v2_doc(7.0, 3.0, Some((2.3e6, 2.9e6, 2.9e6, 0, 0)), true),
        )
        .unwrap();
        assert!(v.iter().any(|m| m.contains("middle tier empty")), "{v:?}");
        let v = compare_text(
            &base,
            &real_v2_doc(7.0, 3.0, Some((2.3e6, 2.9e6, 2.9e6, 14, 0)), true),
        )
        .unwrap();
        assert!(v.iter().any(|m| m.contains("latency-bound")), "{v:?}");
        // The modelled numbers are deterministic: drift vs baseline fails.
        let v = compare_text(
            &base,
            &real_v2_doc(7.0, 3.0, Some((2.2e6, 2.9e6, 2.9e6, 14, 2)), true),
        )
        .unwrap();
        assert!(v.iter().any(|m| m.contains("drifted")), "{v:?}");
        // A fresh run that failed its own self-validation always fails.
        let v = compare_text(
            &base,
            &real_v2_doc(7.0, 3.0, Some((2.3e6, 2.9e6, 2.9e6, 14, 2)), false),
        )
        .unwrap();
        assert!(v.iter().any(|m| m.contains("tahoe_uses_mid_tier")), "{v:?}");
    }

    #[test]
    fn par_gate_catches_overlap_collapse_and_lost_migrations() {
        let v = compare_text(&par_doc(60.0, 4), &par_doc(5.0, 4)).unwrap();
        assert!(v.iter().any(|m| m.contains("collapsed")), "{v:?}");
        let v = compare_text(&par_doc(60.0, 4), &par_doc(60.0, 0)).unwrap();
        assert!(v.iter().any(|m| m.contains("no migrations")), "{v:?}");
        // Retaining 20% of baseline overlap is enough.
        let v = compare_text(&par_doc(60.0, 4), &par_doc(13.0, 4)).unwrap();
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn par_gate_enforces_scaling_on_multicore() {
        let healthy = par_scaling_doc(4, &[(1, 100_000.0), (2, 55_000.0), (4, 30_000.0)]);
        // A healthy ladder (s2 = 1.82x, s4 = 3.33x) passes cleanly.
        let v = compare_text(&healthy, &healthy).unwrap();
        assert!(v.is_empty(), "{v:?}");
        // Injected regression: 2-worker speedup collapses to 1.11x.
        let slow2 = par_scaling_doc(4, &[(1, 100_000.0), (2, 90_000.0), (4, 30_000.0)]);
        let v = compare_text(&healthy, &slow2).unwrap();
        assert!(
            v.iter().any(|m| m.contains("below the 1.3x floor")),
            "{v:?}"
        );
        // Injected regression: scaling goes backwards past 2 workers
        // (s2 = 2.0x but s4 = 1.25x).
        let sag4 = par_scaling_doc(4, &[(1, 100_000.0), (2, 50_000.0), (4, 80_000.0)]);
        let v = compare_text(&healthy, &sag4).unwrap();
        assert!(v.iter().any(|m| m.contains("speedup degrades")), "{v:?}");
        // Mild sag within the 0.9x slack band passes.
        let flat = par_scaling_doc(4, &[(1, 100_000.0), (2, 50_000.0), (4, 52_000.0)]);
        let v = compare_text(&healthy, &flat).unwrap();
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn par_gate_skips_scaling_where_cores_are_absent() {
        let healthy = par_scaling_doc(4, &[(1, 100_000.0), (2, 55_000.0), (4, 30_000.0)]);
        // A 1-CPU box oversubscribes the spin-paced compute: terrible
        // "speedups" are expected and must not fail the gate.
        let single = par_scaling_doc(1, &[(1, 100_000.0), (2, 190_000.0), (4, 390_000.0)]);
        let v = compare_text(&healthy, &single).unwrap();
        assert!(v.is_empty(), "{v:?}");
        // Worker counts beyond the core count are exempt too: with 2
        // cpus the 4-worker sag is ignored, the in-core band enforced.
        let two = par_scaling_doc(2, &[(1, 100_000.0), (2, 55_000.0), (4, 120_000.0)]);
        let v = compare_text(&healthy, &two).unwrap();
        assert!(v.is_empty(), "{v:?}");
        // Legacy artifacts without a machine section skip the band.
        let v = compare_text(&par_doc(60.0, 4), &par_doc(60.0, 4)).unwrap();
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn audit_gate_catches_model_and_overhead_regressions() {
        let base = audit_doc(40.0, 100.0, 1.0);
        // MAPE blowing past max(2x, +25) fails.
        let v = compare_text(&base, &audit_doc(90.0, 100.0, 1.0)).unwrap();
        assert!(v.iter().any(|m| m.contains("MAPE")), "{v:?}");
        // ...but headroom within the band passes.
        let v = compare_text(&base, &audit_doc(64.0, 100.0, 1.0)).unwrap();
        assert!(v.is_empty(), "{v:?}");
        // Sign agreement collapsing fails.
        let v = compare_text(&base, &audit_doc(40.0, 40.0, 1.0)).unwrap();
        assert!(v.iter().any(|m| m.contains("sign agreement")), "{v:?}");
        // Recorder overhead over the ceiling fails.
        let v = compare_text(&base, &audit_doc(40.0, 100.0, 7.5)).unwrap();
        assert!(v.iter().any(|m| m.contains("self-overhead")), "{v:?}");
    }

    #[test]
    fn missing_fields_are_structural_errors() {
        let err = compare_text(
            r#"{"schema": "tahoe-bench-audit/v1"}"#,
            r#"{"schema": "tahoe-bench-audit/v1"}"#,
        )
        .unwrap_err();
        assert!(err.contains("missing field"), "{err}");
    }
}
