//! Test-only helper: small campaigns on an A100 whose transitions take a
//! fixed time, registered under the spec's device name the way any caller
//! with a custom device resolves one.

use std::sync::Arc;

use latest_core::spec::CampaignSpecBuilder;
use latest_core::{CampaignResult, CampaignSession};
use latest_gpu_sim::devices::{a100_sxm4, DeviceEntry, DeviceRegistry};
use latest_gpu_sim::sm::WorkloadRegistry;
use latest_gpu_sim::transition::FixedTransition;
use latest_sim_clock::SimDuration;

/// Run `spec` on an A100 whose every transition takes exactly `ms`
/// milliseconds.
pub(crate) fn fixed_a100_run(ms: u64, spec: CampaignSpecBuilder) -> CampaignResult {
    let mut device = a100_sxm4();
    device.transition = Arc::new(FixedTransition {
        latency: SimDuration::from_millis(ms),
    });
    let spec = spec.build_unchecked();
    let mut devices = DeviceRegistry::empty();
    devices.register(DeviceEntry::new(
        spec.device.clone(),
        "fixed-latency A100",
        move |_| device.clone(),
    ));
    let config = spec
        .resolve_with(&devices, &WorkloadRegistry::builtin())
        .expect("test spec resolves");
    CampaignSession::new(config).run().unwrap()
}
