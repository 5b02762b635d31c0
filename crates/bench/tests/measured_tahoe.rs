//! Measured-mode Tahoe's boundary plan on real workloads: it starts from
//! the compiler-estimate placement and migrates only moves whose
//! predicted benefit exceeds their copy cost. Every run is checked bit
//! for bit against the sequential heap reference, at 1 and 2 workers.

use tahoe_core::measured::{mck_items_for, reference_checksum_seeded, MeasuredRuntime};
use tahoe_core::prelude::*;
use tahoe_core::BoundaryPlan;
use tahoe_hms::TierSpec;
use tahoe_memprof::wallclock::{
    fit_calibration, MeasuredTier, WallClockCalibration, WallClockConfig,
};
use tahoe_workloads::{cg, health, stream, Scale};

/// DRAM holds a quarter of the footprint (no 1 MiB floor): Tahoe has
/// real placement pressure even at test scale.
fn pressured_platform(app: &App) -> Platform {
    let fp = app.footprint();
    Platform::emulated_bw(0.25, fp / 4, 4 * fp).expect("valid platform")
}

/// A calibration fitted from constant kernel readings, so plans do not
/// depend on the machine running the test.
fn constant_cal(platform: &Platform) -> WallClockCalibration {
    let readings = MeasuredTier {
        stream_bw_gbps: 8.0,
        chase_lat_ns: 72.0,
        stream_wall_ns: 25.0e6,
        chase_wall_ns: 144.0e6,
    };
    fit_calibration(
        &readings,
        &WallClockConfig::full(),
        &platform.dram,
        &platform.nvm,
        platform.dram.capacity,
        platform.nvm.capacity,
    )
    .expect("constant fit")
}

/// Run `policy` at 1 and 2 workers plus sequentially; every checksum
/// must match the reference, and every run must execute exactly the
/// plan's moves. Returns the plan.
fn run_checked(
    app: &App,
    platform: Platform,
    cal: &WallClockCalibration,
    policy: &PolicyKind,
) -> BoundaryPlan {
    let rt = MeasuredRuntime::new(platform, WallClockConfig::smoke());
    let plan = rt.boundary_plan(app, policy, cal).expect("plan");
    let audit = rt.verify_plan(app, policy, cal).expect("preflight");
    assert!(audit.is_clean(), "{}: {:?}", app.name, audit.violations);
    let moves = plan.moves.len() as u64;
    for (workers, seed) in [(1usize, 3u64), (2, 4)] {
        let r = rt
            .run_policy_parallel(app, policy, cal, workers, seed)
            .expect("parallel run");
        assert_eq!(
            r.checksum,
            reference_checksum_seeded(app, seed),
            "{} at {workers} workers",
            app.name
        );
        assert_eq!(
            r.migration.count, moves,
            "{} at {workers} workers",
            app.name
        );
        assert_eq!(r.migrations_skipped, 0, "{} at {workers} workers", app.name);
    }
    let r = rt.run_policy(app, policy, cal).expect("sequential run");
    assert_eq!(
        r.checksum,
        reference_checksum_seeded(app, 0),
        "{}",
        app.name
    );
    assert_eq!(r.migrations, moves, "{} sequential", app.name);
    plan
}

#[test]
fn default_tahoe_keeps_the_compiler_placement_on_stream_and_cg() {
    for app in [stream::app(Scale::Test), cg::app(Scale::Test)] {
        let platform = pressured_platform(&app);
        let cal = constant_cal(&platform);
        let plan = run_checked(&app, platform, &cal, &PolicyKind::tahoe());
        assert!(
            plan.plan.initial_tiers.contains(&0),
            "{}: the compiler placement fills DRAM",
            app.name
        );
        assert!(plan.moves.is_empty(), "{}: {:?}", app.name, plan.moves);
    }
}

#[test]
fn every_health_move_pays_for_its_copy() {
    let app = health::app(Scale::Test);
    let platform = pressured_platform(&app);
    let cal = constant_cal(&platform);
    // DRAM residence does pay over the whole run; only the copy cost
    // decides which moves are worth making.
    let items = mck_items_for(&app, &platform.tier_specs());
    assert!(items.iter().any(|it| it.values[0] > 0.0));
    for policy in [
        PolicyKind::tahoe(),
        PolicyKind::Tahoe(TahoeOptions {
            initial_placement: false,
            ..TahoeOptions::default()
        }),
    ] {
        let plan = run_checked(&app, platform.clone(), &cal, &policy);
        for m in &plan.moves {
            assert!(
                m.net_ns() > 0.0,
                "{}: move {m:?} does not pay",
                policy.name()
            );
        }
    }
}

/// A decoy the compiler ranks first but that goes cold after profiling,
/// and a hot object it ranks last; DRAM holds one of the two.
fn misranked_app() -> App {
    let mut b = AppBuilder::new("misranked");
    let decoy = b.object("decoy", 64 << 10);
    let hot = b.object("hot", 64 << 10);
    b.set_est_refs(decoy, 1.0e9);
    b.set_est_refs(hot, 1.0e3);
    let c = b.class("step");
    for w in 0..6 {
        if w > 0 {
            b.next_window();
        }
        if w < 2 {
            b.task(c).update_streaming(decoy, 1024).submit();
        } else {
            b.task(c).update_streaming(hot, 4096).submit();
        }
    }
    b.build()
}

#[test]
fn a_misranked_placement_is_demoted_before_the_promotion() {
    let app = misranked_app();
    let platform = Platform::emulated_bw(0.25, 96 << 10, 4 * app.footprint()).expect("platform");
    let cal = WallClockCalibration {
        dram: TierSpec::symmetric("dram", 100.0, 10.0, 96 << 10),
        nvm: TierSpec::symmetric("nvm", 300.0, 3.0, 4 * app.footprint()),
        cf_bw: 1.0,
        cf_lat: 1.0,
        measured: MeasuredTier {
            stream_bw_gbps: 10.0,
            chase_lat_ns: 100.0,
            stream_wall_ns: 1000.0,
            chase_wall_ns: 1000.0,
        },
    };
    let plan = run_checked(&app, platform, &cal, &PolicyKind::tahoe());
    assert_eq!(plan.plan.initial_tiers, vec![0, 1], "decoy starts in DRAM");
    let order: Vec<(u32, u8)> = plan.moves.iter().map(|m| (m.object, m.to_tier)).collect();
    assert_eq!(
        order,
        vec![(0, 1), (1, 0)],
        "demote the decoy, then promote"
    );
    assert!(plan.net_ns() > 0.0, "the swap pays for both copies");
    assert!(plan.moves[1].net_ns() > -plan.moves[0].net_ns());
}
