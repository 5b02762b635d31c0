//! The committed calibration every timed job runs with.
//!
//! A measured calibration moves from process to process (DRAM fits of
//! 6.7 to 11.6 GB/s on one 2-vCPU VM), and every injected NVM delay
//! scales with it, so timed jobs never use one. They use the fit of the
//! constant kernel readings below, made by the program's own
//! `fit_calibration` exactly as `MeasuredRuntime::calibrate` would make
//! it from a live measurement. `calibrate()` still runs in set-up, where
//! its cost and spread are reported.
//!
//! Set-up calibrates with the smoke sizing. At the full sizing (24 MB
//! of streams, an 8 MB pointer chase) one `calibrate()` took 130 to
//! 330 ms depending on the process, a spread that would bury the rest
//! of set-up; the smoke sizing takes 4 to 5 ms.

use tahoe_core::config::Platform;
use tahoe_memprof::wallclock::{
    fit_calibration, MeasuredTier, WallClockCalibration, WallClockConfig,
};

/// Kernel readings of `WallClockConfig::full()`: the medians of twelve
/// `calibrate()` passes on a 2-vCPU x86-64 VM (one NUMA node).
pub const PINNED_DRAM: MeasuredTier = MeasuredTier {
    stream_bw_gbps: 8.0,
    chase_lat_ns: 72.0,
    stream_wall_ns: 25.0e6,
    chase_wall_ns: 144.0e6,
};

/// The kernel sizing of set-up's live `calibrate()`.
pub fn setup_config() -> WallClockConfig {
    WallClockConfig::smoke()
}

/// The pinned calibration for `platform`: its capacities and DRAM→NVM
/// ratios, with the absolute scale fitted from [`PINNED_DRAM`].
pub fn pinned(platform: &Platform) -> Result<WallClockCalibration, String> {
    fit_calibration(
        &PINNED_DRAM,
        &WallClockConfig::full(),
        &platform.dram,
        &platform.nvm,
        platform.dram.capacity,
        platform.nvm.capacity,
    )
    .map_err(|e| format!("pinned calibration: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinned_fit_is_deterministic_and_scaled_from_the_constant() {
        let p = Platform::emulated_bw(0.25, 1 << 20, 1 << 24).unwrap();
        let a = pinned(&p).unwrap();
        assert_eq!(a, pinned(&p).unwrap());
        assert_eq!(a.dram.read_bw_gbps, PINNED_DRAM.stream_bw_gbps);
        assert_eq!(a.dram.read_lat_ns, PINNED_DRAM.chase_lat_ns);
        // The platform's ratio carries over: NVM at a quarter of DRAM
        // bandwidth.
        let ratio = a.nvm.read_bw_gbps / a.dram.read_bw_gbps;
        assert!((ratio - p.nvm.read_bw_gbps / p.dram.read_bw_gbps).abs() < 1e-12);
        assert!(a.cf_bw > 0.0 && a.cf_lat > 0.0);
    }
}
