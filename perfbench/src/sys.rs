//! Process-level readings from `/proc` (Linux).

/// Peak resident set size of this process, MiB (`VmHWM`).
pub fn rss_peak_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// User plus system CPU time this process has used, seconds.
///
/// `/proc` reports it in clock ticks of `USER_HZ`, which Linux fixes at
/// 100 for every user-space interface.
pub fn cpu_seconds() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat")
        .map_err(|e| format!("read /proc/self/stat: {e}"))?;
    // The command name (field 2) may hold spaces; fields resume after
    // its closing parenthesis, starting at field 3.
    let rest = stat.rsplit_once(')').ok_or("malformed /proc/self/stat")?.1;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .ok_or_else(|| "malformed /proc/self/stat".to_string())
    };
    // utime and stime are fields 14 and 15, i.e. indices 11 and 12 here.
    Ok((tick(11)? + tick(12)?) / 100.0)
}

/// Machine-wide CPU time counters, in `USER_HZ` ticks.
#[derive(Debug, Clone, Copy)]
pub struct CpuTicks {
    total: u64,
    steal: u64,
}

impl CpuTicks {
    /// Read the all-CPU line of `/proc/stat`.
    pub fn now() -> Result<Self, String> {
        let stat =
            std::fs::read_to_string("/proc/stat").map_err(|e| format!("read /proc/stat: {e}"))?;
        let fields: Vec<u64> = stat
            .lines()
            .next()
            .and_then(|l| l.strip_prefix("cpu "))
            .ok_or("no cpu line in /proc/stat")?
            .split_whitespace()
            .map(|f| f.parse().map_err(|_| "malformed /proc/stat".to_string()))
            .collect::<Result<_, _>>()?;
        // user nice system idle iowait irq softirq steal [guest ...];
        // guest time is already counted in user.
        let steal = *fields.get(7).ok_or("no steal column in /proc/stat")?;
        Ok(CpuTicks {
            total: fields[..8].iter().sum(),
            steal,
        })
    }

    /// Share of all CPU time since `self` that the hypervisor gave to
    /// other guests, %.
    pub fn steal_pct_since(self) -> Result<f64, String> {
        let now = CpuTicks::now()?;
        let total = now.total.saturating_sub(self.total).max(1);
        Ok(100.0 * now.steal.saturating_sub(self.steal) as f64 / total as f64)
    }
}

/// Worker threads to run: `want`, but never more than the machine's
/// cores.
pub fn workers_within_cores(want: usize) -> usize {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    want.min(cores).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readings_are_positive() {
        assert!(rss_peak_mib().unwrap() > 0.0);
        let spin = std::time::Instant::now();
        while spin.elapsed().as_millis() < 30 {
            std::hint::black_box(0u64);
        }
        assert!(cpu_seconds().unwrap() > 0.0);
        let steal = CpuTicks::now().unwrap().steal_pct_since().unwrap();
        assert!((0.0..=100.0).contains(&steal));
        assert!(workers_within_cores(64) >= 1);
        assert_eq!(workers_within_cores(1), 1);
    }
}
