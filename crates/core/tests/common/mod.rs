//! Helpers shared by the engine-equivalence suites.

use uavdc_net::generator::{uniform, ScenarioParams};
use uavdc_net::units::Joules;
use uavdc_net::Scenario;

/// Property-test case count: `quick` by default, 1100 under
/// `--features validate`.
pub fn cases(quick: u32) -> u32 {
    if cfg!(feature = "validate") {
        1100
    } else {
        quick
    }
}

/// A uniform instance scaled by `scale` with a `capacity_kj` battery.
pub fn scenario(seed: u64, scale: f64, capacity_kj: f64) -> Scenario {
    let params = ScenarioParams::default()
        .scaled(scale)
        .with_capacity(Joules(capacity_kj * 1000.0));
    uniform(&params, seed)
}
