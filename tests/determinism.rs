//! The determinism contract (DESIGN.md §10.1) in one harness.
//!
//! Every golden row of `golden/mod.rs` must hit its pinned literal under
//! each axis alone, then once with every axis off its default: each SIMD
//! level the CPU runs; the invariant guards armed; a zero-probability fault
//! plan with another seed on the rows without a plan; a cold and a warm pool
//! (the first row runs first in the process and again last). The client
//! fan-out width is pinned at its seam, `train_all`'s unit test at 1 and 3
//! threads.

// Tests and benches may unwrap: a panic here IS the failure report
// (mirrors allow-unwrap-in-tests in clippy.toml for non-#[test] helpers).
#![allow(clippy::unwrap_used)]

mod golden;

use fedsu_repro::netsim::FaultConfig;
use fedsu_repro::tensor::{hardware_simd_level, invariant, set_simd_level, simd_level, SimdLevel};
use golden::Row;

/// Everything a run is set up with that must not move a bit.
#[derive(Clone, Copy, Debug)]
struct Setup {
    simd: SimdLevel,
    guards: bool,
    /// The fault plan of the rows that run without one.
    quiet_plan: Option<FaultConfig>,
}

impl Setup {
    fn check(&self, axis: &str, rows: &[Row]) {
        set_simd_level(self.simd);
        invariant::set_enabled(self.guards);
        golden::check(rows, self.quiet_plan, &format!("{axis}: {self:?}"));
    }
}

/// An axis: its name and the setup function that moves it off its default.
type Axis = (String, Box<dyn Fn(&mut Setup)>);

/// One `#[test]`: the SIMD level and the guard switch are process-global.
#[test]
fn every_golden_row_is_bit_identical_under_every_axis() {
    let rows = golden::rows();
    let default = Setup { simd: simd_level(), guards: invariant::enabled(), quiet_plan: None };
    default.check("cold pool", &rows[..1]);

    // The SIMD levels run widest first, so the corner lands on the
    // narrowest.
    let mut axes: Vec<Axis> = [SimdLevel::Avx2, SimdLevel::Scalar]
        .into_iter()
        .filter(|&level| level <= hardware_simd_level())
        .map(|level| (format!("simd {}", level.name()), Box::new(move |s: &mut Setup| s.simd = level) as _))
        .collect();
    axes.push(("guards armed".into(), Box::new(|s| s.guards = true)));
    let quiet = FaultConfig { seed: 0x5EED, ..FaultConfig::default() };
    axes.push(("zero-fault plan".into(), Box::new(move |s| s.quiet_plan = Some(quiet))));

    let mut corner = default;
    for (axis, set) in &axes {
        println!("axis: {axis}");
        let mut setup = default;
        set(&mut setup);
        setup.check(axis, &rows);
        set(&mut corner);
    }
    corner.check("every axis off its default", &rows);
    default.check("warm pool", &rows[..1]);
}
