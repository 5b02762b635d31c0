//! Metric names, units and the one-line JSON result.

/// End-to-end metrics every untraced run prints, with their units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("tahoe_ms_p50", "ms"),
    ("tahoe_ms_tail", "ms"),
    ("first_touch_ms_p50", "ms"),
    ("dram_only_ms_p50", "ms"),
    ("nvm_only_ms_p50", "ms"),
    ("jobs_per_s", "1/s"),
    ("setup_s", "s"),
    ("rss_peak_mb", "MiB"),
];

/// Per-layer metrics every traced run prints, with their units.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("memprof.calibrate_ms", "ms"),
    ("memprof.fit_gbps_iqr_pct", "%"),
    ("core.prepare_ms.tahoe", "ms"),
    ("core.prepare_ms.first_touch", "ms"),
    ("core.prepare_ms.dram_only", "ms"),
    ("core.prepare_ms.nvm_only", "ms"),
    ("core.nvm_access_ms", "ms"),
    ("core.dram_access_ms", "ms"),
    ("placement.solve_us", "us"),
    ("sanitize.audit_us", "us"),
    ("sanitize.verify_us.tahoe", "us"),
    ("sanitize.verify_us.first_touch", "us"),
    ("sanitize.verify_us.dram_only", "us"),
    ("sanitize.verify_us.nvm_only", "us"),
    ("taskrt.dispatch_us_per_task", "us"),
    ("taskrt.window_us", "us"),
    ("pool.dispatch_us_per_task", "us"),
    ("pool.window_us", "us"),
    ("taskrt.steals_per_job", "count"),
    ("taskrt.worker_util", "ratio"),
    ("hms.pin_unpin_ns", "ns"),
    ("hms.cas_retries_per_job", "count"),
    ("hms.parks_per_job", "count"),
    ("hms.gate_wait_ms", "ms"),
    ("realmem.copy_gbps", "GB/s"),
    ("realmem.memcpy_gbps", "GB/s"),
    ("realmem.migrations_per_job", "count"),
    ("realmem.migrated_mib_per_job", "MiB"),
    ("realmem.pct_overlap", "%"),
    ("realmem.exposed_copy_ms", "ms"),
    ("server.queue_wait_ms_p50", "ms"),
    ("server.preempted_per_job", "count"),
    ("server.migrations_per_job", "count"),
    ("server.promoted_mib_per_job", "MiB"),
    ("server.exposed_copy_ms", "ms"),
    ("obs.emit_ns", "ns"),
    ("obs.trace_overhead_pct", "%"),
    ("obs.ring_dropped", "count"),
    ("obs.task_us_p50", "us"),
    ("crit.compute_ms", "ms"),
    ("crit.stall_ms", "ms"),
    ("crit.idle_ms", "ms"),
    ("crit.residual_pct", "%"),
];

/// Whether `name` follows the metric-name grammar: 1 to 64 characters
/// of ASCII letters, digits, `_`, `.` and `-`, starting with a letter or
/// a digit.
pub fn valid_name(name: &str) -> bool {
    let b = name.as_bytes();
    !b.is_empty()
        && b.len() <= 64
        && b[0].is_ascii_alphanumeric()
        && b.iter()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, b'_' | b'.' | b'-'))
}

/// Whether `unit` follows the unit grammar: 1 to 16 characters of ASCII
/// letters, digits, `_`, `/`, `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .bytes()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, b'_' | b'/' | b'%' | b'.' | b'-'))
}

/// The result of one run: operation counts plus named measurements.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations (timed jobs, checked probes) attempted.
    pub attempted: u64,
    /// Of those, operations that failed: a checksum mismatch, an `Err`
    /// or a shed submission.
    pub failed: u64,
    metrics: Vec<(&'static str, f64)>,
}

impl Outcome {
    /// Record one operation's success or failure.
    pub fn count(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Record a measurement.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    /// The JSON result line, after checking that the recorded metrics are
    /// exactly `expected` (same names, each once) with finite values.
    pub fn to_json(&self, expected: &[(&str, &str)]) -> Result<String, String> {
        let mut fields = Vec::with_capacity(expected.len());
        for (name, unit) in expected {
            if !valid_name(name) || !valid_unit(unit) {
                return Err(format!(
                    "metric {name} ({unit}) breaks the name or unit grammar"
                ));
            }
            let mut hits = self.metrics.iter().filter(|(n, _)| n == name);
            let (_, value) = hits
                .next()
                .ok_or_else(|| format!("metric {name} missing"))?;
            if hits.next().is_some() {
                return Err(format!("metric {name} recorded twice"));
            }
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            fields.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        if let Some((extra, _)) = self
            .metrics
            .iter()
            .find(|(n, _)| !expected.iter().any(|(e, _)| e == n))
        {
            return Err(format!("metric {extra} is not in this run's metric list"));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            fields.join(", ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tahoe_obs::json::{self, Value};

    #[test]
    fn grammar_accepts_and_rejects() {
        for ok in ["setup_s", "core.prepare_ms.tahoe", "9lives", "a-b_c.d"] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in ["", "_x", ".x", "-x", "a b", "a/b", "µs", long.as_str()] {
            assert!(!valid_name(bad), "{bad:?}");
        }
        assert!(valid_name(&"x".repeat(64)));
        for ok in ["ms", "1/s", "%", "GB/s", "count", "MiB"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "m s", "µs", "abcdefghijklmnopq"] {
            assert!(!valid_unit(bad), "{bad:?}");
        }
    }

    #[test]
    fn every_metric_follows_the_grammar_once() {
        let all: Vec<_> = END_TO_END.iter().chain(PER_LAYER).collect();
        for (name, unit) in &all {
            assert!(valid_name(name), "{name}");
            assert!(valid_unit(unit), "{name}: {unit}");
        }
        for (i, (a, _)) in all.iter().enumerate() {
            assert!(all[i + 1..].iter().all(|(b, _)| a != b), "{a} twice");
        }
        assert!(END_TO_END.contains(&("setup_s", "s")));
    }

    /// The lists above and `BENCHMARK.json` must name the same metrics
    /// with the same units, in the same order, and every workload it
    /// gates on must be one this program runs.
    #[test]
    fn benchmark_json_matches_the_lists() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Value::as_array)
                .unwrap_or_else(|| panic!("{key} array"))
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(Value::as_str).expect(k).to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |l: &[(&str, &str)]| -> Vec<(String, String)> {
            l.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), own(END_TO_END));
        assert_eq!(listed("per_layer"), own(PER_LAYER));
        let workloads = doc
            .get("workloads")
            .and_then(Value::as_array)
            .expect("workloads array");
        assert!(workloads.len() >= 2);
        for w in workloads {
            let name = w
                .get("name")
                .and_then(Value::as_str)
                .expect("workload name");
            assert!(
                crate::Workload::ALL.iter().any(|k| k.name() == name),
                "unknown workload {name}"
            );
        }
    }

    #[test]
    fn outcome_json_requires_exactly_the_listed_metrics() {
        let list: &[(&str, &str)] = &[("a", "ms"), ("b", "s")];
        let mut o = Outcome::default();
        o.count(true);
        o.set("a", 1.25);
        assert!(o.to_json(list).unwrap_err().contains("b missing"));
        o.set("b", 0.5);
        let line = o.to_json(list).unwrap();
        let v = json::parse(&line).unwrap();
        assert_eq!(v.get("correct").and_then(Value::as_bool), Some(true));
        assert_eq!(
            v.get("metrics")
                .and_then(|m| m.get("a"))
                .and_then(|a| a.get("value"))
                .and_then(Value::as_f64),
            Some(1.25)
        );
        o.set("c", 1.0);
        assert!(o.to_json(list).unwrap_err().contains("c is not"));
        let mut bad = Outcome::default();
        bad.count(false);
        bad.set("a", f64::NAN);
        bad.set("b", 1.0);
        assert!(bad.to_json(list).unwrap_err().contains("not finite"));
    }
}
