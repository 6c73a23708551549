//! Test-only helpers: campaigns on a modified device, resolved the way any
//! caller with a custom [`DeviceSpec`] resolves one — by registering it
//! under the spec's device name.

use std::sync::Arc;

use latest_gpu_sim::devices::{DeviceEntry, DeviceRegistry, DeviceSpec};
use latest_gpu_sim::sm::WorkloadRegistry;
use latest_gpu_sim::transition::FixedTransition;
use latest_sim_clock::SimDuration;

use crate::config::CampaignConfig;
use crate::spec::CampaignSpecBuilder;

/// `device` with every transition taking exactly `ms` milliseconds.
pub(crate) fn fixed(mut device: DeviceSpec, ms: u64) -> DeviceSpec {
    device.transition = Arc::new(FixedTransition {
        latency: SimDuration::from_millis(ms),
    });
    device
}

/// Resolve `spec` with its device name bound to `device`.
pub(crate) fn resolve_on(device: DeviceSpec, spec: CampaignSpecBuilder) -> CampaignConfig {
    let spec = spec.build_unchecked();
    let mut devices = DeviceRegistry::empty();
    devices.register(DeviceEntry::new(
        spec.device.clone(),
        "test device",
        move |_| device.clone(),
    ));
    spec.resolve_with(&devices, &WorkloadRegistry::builtin())
        .expect("test spec resolves")
}
