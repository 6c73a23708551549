//! Helpers shared by the integration tests.

use latest::core::spec::CampaignSpecBuilder;
use latest::core::CampaignConfig;
use latest::gpu_sim::devices::{DeviceEntry, DeviceRegistry, DeviceSpec};
use latest::gpu_sim::sm::WorkloadRegistry;

/// Resolve `spec` with its device name bound to `device`: how a caller with
/// a custom [`DeviceSpec`] describes a campaign.
pub fn resolve_on(device: DeviceSpec, spec: CampaignSpecBuilder) -> CampaignConfig {
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
