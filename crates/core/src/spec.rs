//! Declarative campaign specs: experiments as data.
//!
//! A [`CampaignSpec`] is the serialisable description of one measurement
//! campaign — device *name* (resolved through a
//! [`DeviceRegistry`]), workload *preset name* (resolved through a
//! [`WorkloadRegistry`]), a [`FreqSelection`], and the Sec. VI stopping-rule
//! knobs. A [`FleetSpec`] is a list of member campaign specs. Both round-trip
//! through JSON, validate with **every** violated constraint enumerated
//! ([`SpecErrors`]), and are the blessed path to a running campaign:
//!
//! ```
//! use latest_core::spec::CampaignSpec;
//!
//! let spec = CampaignSpec::builder("a100")
//!     .frequencies_mhz(&[705, 1095, 1410])
//!     .seed(7)
//!     .build()
//!     .expect("valid spec");
//! let json = spec.to_json(); // reproducible: re-runs from its own output
//! let session = CampaignSpec::from_json(&json)
//!     .expect("parses")
//!     .into_session()
//!     .expect("resolves");
//! assert_eq!(session.config().seed, 7);
//! ```
//!
//! A spec is the one way to describe a campaign: [`CampaignSpec::resolve_with`]
//! is the only constructor of a [`CampaignConfig`]. A caller with a custom
//! [`DeviceSpec`] or [`WorkloadParams`](latest_gpu_sim::sm::WorkloadParams)
//! registers it under a name
//! ([`DeviceRegistry::register`], [`WorkloadRegistry::register`]) and
//! resolves through those registries. Resolution is deterministic: the same
//! spec and registries give the same config, and so a bitwise-identical run.
//!
//! Scenario files (`scenarios/*.json`) hold one JSON object per experiment;
//! fields not present take the paper defaults, unknown fields are rejected
//! (a typoed knob must not silently fall back to a default).

use latest_gpu_sim::devices::{DeviceRegistry, DeviceSpec};
use latest_gpu_sim::freq::FreqMhz;
use latest_gpu_sim::sm::WorkloadRegistry;

use crate::config::CampaignConfig;
use crate::fleet::Fleet;
use crate::session::CampaignSession;

/// One violated constraint of a [`CampaignSpec`] / [`FleetSpec`].
/// Validation never stops at the first violation — see [`SpecErrors`].
#[derive(Clone, Debug, PartialEq)]
pub enum SpecError {
    /// The device name is not in the registry.
    UnknownDevice {
        /// The requested name.
        name: String,
        /// Every registered device name.
        known: Vec<String>,
    },
    /// The workload preset name is not in the registry.
    UnknownWorkload {
        /// The requested name.
        name: String,
        /// Every registered preset name.
        known: Vec<String>,
    },
    /// Fewer than two distinct frequencies selected.
    TooFewFrequencies {
        /// How many were given.
        got: usize,
    },
    /// A frequency appears more than once in the list.
    DuplicateFrequency {
        /// The repeated frequency (MHz).
        mhz: u32,
    },
    /// A listed frequency is not a ladder value of the selected device.
    OffLadderFrequency {
        /// The offending frequency (MHz).
        mhz: u32,
        /// The device whose ladder was checked.
        device: String,
    },
    /// A memory frequency appears more than once in the list.
    DuplicateMemFrequency {
        /// The repeated frequency (MHz).
        mhz: u32,
    },
    /// A listed memory frequency is not on the device's memory ladder.
    OffMemLadderFrequency {
        /// The offending frequency (MHz).
        mhz: u32,
        /// The device whose memory ladder was checked.
        device: String,
    },
    /// A `subset` selection of fewer than two frequencies.
    SubsetTooSmall {
        /// The requested subset size.
        n: usize,
    },
    /// A `subset` selection of more frequencies than the device ladder has.
    SubsetExceedsLadder {
        /// The requested subset size.
        n: usize,
        /// The device's ladder step count.
        steps: usize,
    },
    /// RSE stopping threshold outside (0, 1).
    RseThresholdOutOfRange {
        /// The configured value.
        value: f64,
    },
    /// `min_measurements` of zero.
    ZeroMinMeasurements,
    /// `min_measurements` exceeds `max_measurements`.
    MeasurementBoundsInverted {
        /// Configured minimum.
        min: usize,
        /// Configured maximum.
        max: usize,
    },
    /// `simulated_sms` of zero (no record streams to evaluate).
    ZeroSimulatedSms,
    /// A fleet spec with no member campaigns.
    EmptyFleet,
    /// A violation inside one member of a fleet spec.
    InMember {
        /// Member position in the fleet's `members` list.
        index: usize,
        /// The member's violation.
        inner: Box<SpecError>,
    },
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::UnknownDevice { name, known } => {
                write!(f, "unknown device {name:?} (known: {})", known.join(", "))
            }
            SpecError::UnknownWorkload { name, known } => {
                write!(f, "unknown workload {name:?} (known: {})", known.join(", "))
            }
            SpecError::TooFewFrequencies { got } => {
                write!(f, "need at least two benchmarked frequencies, got {got}")
            }
            SpecError::DuplicateFrequency { mhz } => {
                write!(f, "frequency {mhz} MHz listed more than once")
            }
            SpecError::OffLadderFrequency { mhz, device } => {
                write!(f, "frequency {mhz} MHz is not on the {device} ladder")
            }
            SpecError::DuplicateMemFrequency { mhz } => {
                write!(f, "memory frequency {mhz} MHz listed more than once")
            }
            SpecError::OffMemLadderFrequency { mhz, device } => {
                write!(
                    f,
                    "memory frequency {mhz} MHz is not on the {device} memory ladder"
                )
            }
            SpecError::SubsetTooSmall { n } => {
                write!(f, "frequency subset must select at least 2 values, got {n}")
            }
            SpecError::SubsetExceedsLadder { n, steps } => {
                write!(
                    f,
                    "frequency subset of {n} exceeds the device ladder ({steps} steps)"
                )
            }
            SpecError::RseThresholdOutOfRange { value } => {
                write!(f, "rse_threshold must be in (0, 1), got {value}")
            }
            SpecError::ZeroMinMeasurements => {
                write!(f, "min_measurements must be at least 1")
            }
            SpecError::MeasurementBoundsInverted { min, max } => {
                write!(f, "min_measurements {min} exceeds max_measurements {max}")
            }
            SpecError::ZeroSimulatedSms => {
                write!(f, "simulated_sms must be at least 1 (or null for all SMs)")
            }
            SpecError::EmptyFleet => write!(f, "fleet spec has no members"),
            SpecError::InMember { index, inner } => {
                write!(f, "member {index}: {inner}")
            }
        }
    }
}

/// Every constraint a spec violates, collected in one pass — so a scenario
/// author fixes all problems in one edit instead of replaying
/// fix-one-rerun-find-the-next.
#[derive(Clone, Debug, PartialEq)]
pub struct SpecErrors {
    errors: Vec<SpecError>,
}

impl SpecErrors {
    /// `Ok` when no violations were found, otherwise all of them at once.
    pub fn collect(errors: Vec<SpecError>) -> Result<(), SpecErrors> {
        if errors.is_empty() {
            Ok(())
        } else {
            Err(SpecErrors { errors })
        }
    }

    /// The individual violations, in the order they were found.
    pub fn errors(&self) -> &[SpecError] {
        &self.errors
    }

    /// Whether a violation of the given shape is present.
    pub fn contains(&self, f: impl Fn(&SpecError) -> bool) -> bool {
        self.errors.iter().any(f)
    }
}

impl std::fmt::Display for SpecErrors {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} spec violation(s): ", self.errors.len())?;
        for (i, e) in self.errors.iter().enumerate() {
            if i > 0 {
                write!(f, "; ")?;
            }
            write!(f, "{e}")?;
        }
        Ok(())
    }
}

impl std::error::Error for SpecErrors {}

/// Which frequencies a campaign benchmarks.
///
/// Serialised forms: an explicit list (`[705, 1095, 1410]`), an evenly
/// spaced ladder subset (`{"subset": 18}`, the paper's heatmap shape), or
/// the whole ladder (`"ladder"`).
#[derive(Clone, Debug, PartialEq)]
pub enum FreqSelection {
    /// Explicit frequencies in MHz (the tool's mandatory argument).
    List(Vec<u32>),
    /// Evenly spaced `n`-value subset of the device ladder.
    Subset(usize),
    /// Every selectable ladder step.
    Ladder,
}

impl serde::Serialize for FreqSelection {
    fn to_value(&self) -> serde::Value {
        match self {
            FreqSelection::List(mhz) => mhz.to_value(),
            FreqSelection::Subset(n) => {
                serde::Value::Map(vec![("subset".to_string(), n.to_value())])
            }
            FreqSelection::Ladder => serde::Value::Str("ladder".to_string()),
        }
    }
}

impl serde::Deserialize for FreqSelection {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        match value {
            serde::Value::Seq(_) => Ok(FreqSelection::List(serde::Deserialize::from_value(value)?)),
            serde::Value::Str(s) if s == "ladder" => Ok(FreqSelection::Ladder),
            serde::Value::Map(entries) => {
                check_known_fields(entries, &["subset"], "FreqSelection")?;
                let n = serde::field(entries, "subset", "FreqSelection")?;
                Ok(FreqSelection::Subset(serde::Deserialize::from_value(n)?))
            }
            other => Err(serde::Error::custom(format!(
                "frequencies must be a list of MHz values, {{\"subset\": n}}, or \"ladder\"; got {other:?}"
            ))),
        }
    }
}

/// Serialisable description of one measurement campaign on one device.
///
/// See the [module docs](self) for the tour; construct through
/// [`CampaignSpec::builder`] (validated) or deserialise from JSON
/// ([`CampaignSpec::from_json`], validated on resolution).
#[derive(Clone, Debug, PartialEq)]
pub struct CampaignSpec {
    /// Free-text description (carried through serialisation; shown by
    /// `latest validate`).
    pub description: String,
    /// Device registry name (e.g. `a100`; see
    /// [`DeviceRegistry::builtin`]).
    pub device: String,
    /// Device unit index: selects per-unit variants on families that model
    /// them and names output files.
    pub device_index: usize,
    /// Hostname used in output file names.
    pub hostname: String,
    /// Benchmarked frequencies.
    pub frequencies: FreqSelection,
    /// Benchmarked memory (DRAM) frequencies in MHz. Empty = core-only
    /// campaign; the field is omitted from JSON when empty so pre-memory
    /// specs serialise byte-identically (content-addressed run ids are
    /// unchanged).
    pub mem_frequencies: Vec<u32>,
    /// Master simulation seed.
    pub seed: u64,
    /// RSE stopping threshold (Sec. VI; 0.05 in the paper).
    pub rse_threshold: f64,
    /// Measurements before RSE checks begin.
    pub min_measurements: usize,
    /// Hard cap on measurements per pair.
    pub max_measurements: usize,
    /// Simulated SM record streams (`None` = all SMs).
    pub simulated_sms: Option<u32>,
    /// Workload preset name (see [`WorkloadRegistry::builtin`]).
    pub workload: String,
}

impl Default for CampaignSpec {
    /// The paper defaults with an empty frequency list (which fails
    /// validation until frequencies are selected). The one home of the
    /// defaults of every knob a [`CampaignConfig`] takes from its spec.
    fn default() -> Self {
        CampaignSpec {
            description: String::new(),
            device: "a100".to_string(),
            device_index: 0,
            hostname: "simnode".to_string(),
            frequencies: FreqSelection::List(Vec::new()),
            mem_frequencies: Vec::new(),
            seed: 0,
            rse_threshold: 0.05,
            min_measurements: 25,
            max_measurements: 150,
            simulated_sms: Some(8),
            workload: "paper-default".to_string(),
        }
    }
}

impl CampaignSpec {
    /// Start building a spec for the named device.
    pub fn builder(device: impl Into<String>) -> CampaignSpecBuilder {
        CampaignSpecBuilder {
            spec: CampaignSpec {
                device: device.into(),
                ..CampaignSpec::default()
            },
        }
    }

    /// Validate against the built-in registries, collecting every violation.
    pub fn validate(&self) -> Result<(), SpecErrors> {
        self.validate_with(&DeviceRegistry::builtin(), &WorkloadRegistry::builtin())
    }

    /// Validate against explicit registries, collecting every violation.
    pub fn validate_with(
        &self,
        devices: &DeviceRegistry,
        workloads: &WorkloadRegistry,
    ) -> Result<(), SpecErrors> {
        SpecErrors::collect(self.violations(devices, workloads).0)
    }

    /// Every violated constraint, and the device the name resolved to (if
    /// it did), built once for the ladder checks and handed on to
    /// [`Self::resolve_with`].
    fn violations(
        &self,
        devices: &DeviceRegistry,
        workloads: &WorkloadRegistry,
    ) -> (Vec<SpecError>, Option<DeviceSpec>) {
        let mut errors = Vec::new();
        let device = devices.find(&self.device);
        if device.is_none() {
            errors.push(SpecError::UnknownDevice {
                name: self.device.clone(),
                known: devices.names(),
            });
        }
        if workloads.get(&self.workload).is_none() {
            errors.push(SpecError::UnknownWorkload {
                name: self.workload.clone(),
                known: workloads.names(),
            });
        }
        // Build the device once: the ladder checks below and the resolved
        // config reuse it instead of reconstructing a DeviceSpec (transition
        // model and all).
        let resolved_device = device.map(|entry| entry.make(self.device_index));
        match &self.frequencies {
            FreqSelection::List(mhz) => {
                if mhz.len() < 2 {
                    errors.push(SpecError::TooFewFrequencies { got: mhz.len() });
                }
                let mut seen = std::collections::BTreeSet::new();
                for &m in mhz {
                    if !seen.insert(m) {
                        if !errors.iter().any(
                            |e| matches!(e, SpecError::DuplicateFrequency { mhz } if *mhz == m),
                        ) {
                            errors.push(SpecError::DuplicateFrequency { mhz: m });
                        }
                        continue;
                    }
                    if let Some(spec) = &resolved_device {
                        if !spec.ladder.contains(FreqMhz(m)) {
                            errors.push(SpecError::OffLadderFrequency {
                                mhz: m,
                                device: spec.name.clone(),
                            });
                        }
                    }
                }
            }
            FreqSelection::Subset(n) => {
                if *n < 2 {
                    errors.push(SpecError::SubsetTooSmall { n: *n });
                } else if let Some(spec) = &resolved_device {
                    // A subset larger than the ladder would silently
                    // truncate to the whole ladder — reject it instead, as
                    // a typoed size (180 for 18) must not run quietly.
                    if *n > spec.ladder.len() {
                        errors.push(SpecError::SubsetExceedsLadder {
                            n: *n,
                            steps: spec.ladder.len(),
                        });
                    }
                }
            }
            FreqSelection::Ladder => {}
        }
        let mut seen_mem = std::collections::BTreeSet::new();
        for &m in &self.mem_frequencies {
            if !seen_mem.insert(m) {
                if !errors
                    .iter()
                    .any(|e| matches!(e, SpecError::DuplicateMemFrequency { mhz } if *mhz == m))
                {
                    errors.push(SpecError::DuplicateMemFrequency { mhz: m });
                }
                continue;
            }
            if let Some(spec) = &resolved_device {
                if !spec.mem_ladder.contains(FreqMhz(m)) {
                    errors.push(SpecError::OffMemLadderFrequency {
                        mhz: m,
                        device: spec.name.clone(),
                    });
                }
            }
        }
        if !(self.rse_threshold > 0.0 && self.rse_threshold < 1.0) {
            errors.push(SpecError::RseThresholdOutOfRange {
                value: self.rse_threshold,
            });
        }
        if self.min_measurements == 0 {
            errors.push(SpecError::ZeroMinMeasurements);
        } else if self.min_measurements > self.max_measurements {
            errors.push(SpecError::MeasurementBoundsInverted {
                min: self.min_measurements,
                max: self.max_measurements,
            });
        }
        if self.simulated_sms == Some(0) {
            errors.push(SpecError::ZeroSimulatedSms);
        }
        (errors, resolved_device)
    }

    /// Resolve to a [`CampaignConfig`] through the built-in registries.
    pub fn resolve(&self) -> Result<CampaignConfig, SpecErrors> {
        self.resolve_with(&DeviceRegistry::builtin(), &WorkloadRegistry::builtin())
    }

    /// Resolve to a [`CampaignConfig`] through explicit registries: the only
    /// constructor of a config. Validates first, then builds the config
    /// from the spec's knobs, the device the validation built and the named
    /// workload; the knobs a spec does not name take the paper's values.
    /// Deterministic: the same spec and registries give the same config.
    ///
    /// Registry contract: a [`RunId`](crate::store::RunId) hashes the
    /// spec's bytes, which name the device but not its parameters. Every
    /// caller that archives a run (`latest run --store`, the queue's worker
    /// pool, the tests that build archives) resolves through the built-in
    /// registries, where a name means one device, so two devices never
    /// share a RunId. A custom registry is for runs that are not archived.
    pub fn resolve_with(
        &self,
        devices: &DeviceRegistry,
        workloads: &WorkloadRegistry,
    ) -> Result<CampaignConfig, SpecErrors> {
        let (errors, device) = self.violations(devices, workloads);
        SpecErrors::collect(errors)?;
        let device = device.expect("a valid spec names a registered device");
        let workload = workloads
            .get(&self.workload)
            .expect("a valid spec names a registered workload");
        let frequencies = match &self.frequencies {
            FreqSelection::List(mhz) => mhz.iter().map(|&m| FreqMhz(m)).collect(),
            FreqSelection::Subset(n) => device.ladder.subset(*n),
            FreqSelection::Ladder => device.ladder.steps().to_vec(),
        };
        Ok(CampaignConfig {
            spec: device,
            device_index: self.device_index,
            hostname: self.hostname.clone(),
            frequencies,
            mem_frequencies: self.mem_frequencies.iter().map(|&m| FreqMhz(m)).collect(),
            seed: self.seed,
            rse_threshold: self.rse_threshold,
            min_measurements: self.min_measurements,
            max_measurements: self.max_measurements,
            confidence: 0.95,
            max_retries: 8,
            probe_safety_factor: 10.0,
            initial_latency_guess_ms: 50.0,
            phase1_iters: 800,
            workload,
            simulated_sms: self.simulated_sms,
        })
    }

    /// Resolve and wrap in a ready-to-run [`CampaignSession`] (built-in
    /// registries).
    pub fn into_session(self) -> Result<CampaignSession, SpecErrors> {
        self.into_session_with(&DeviceRegistry::builtin(), &WorkloadRegistry::builtin())
    }

    /// Resolve and wrap in a ready-to-run [`CampaignSession`] (explicit
    /// registries).
    pub fn into_session_with(
        self,
        devices: &DeviceRegistry,
        workloads: &WorkloadRegistry,
    ) -> Result<CampaignSession, SpecErrors> {
        Ok(CampaignSession::new(self.resolve_with(devices, workloads)?))
    }

    /// Serialise to pretty JSON (the scenario-file format).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("campaign spec serialises")
    }

    /// Parse a spec from JSON. Missing fields take the paper defaults;
    /// unknown fields are rejected.
    pub fn from_json(text: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(text)
    }
}

const CAMPAIGN_SPEC_FIELDS: &[&str] = &[
    "description",
    "device",
    "device_index",
    "hostname",
    "frequencies",
    "mem_frequencies",
    "seed",
    "rse_threshold",
    "min_measurements",
    "max_measurements",
    "simulated_sms",
    "workload",
];

impl serde::Serialize for CampaignSpec {
    fn to_value(&self) -> serde::Value {
        let mut entries = vec![
            ("description".to_string(), self.description.to_value()),
            ("device".to_string(), self.device.to_value()),
            ("device_index".to_string(), self.device_index.to_value()),
            ("hostname".to_string(), self.hostname.to_value()),
            ("frequencies".to_string(), self.frequencies.to_value()),
        ];
        // Emitted only when non-empty: a core-only spec must serialise to
        // the exact pre-memory bytes, or its content-addressed RunId — and
        // with it every existing archive — would silently change.
        if !self.mem_frequencies.is_empty() {
            entries.push((
                "mem_frequencies".to_string(),
                self.mem_frequencies.to_value(),
            ));
        }
        entries.extend([
            ("seed".to_string(), self.seed.to_value()),
            ("rse_threshold".to_string(), self.rse_threshold.to_value()),
            (
                "min_measurements".to_string(),
                self.min_measurements.to_value(),
            ),
            (
                "max_measurements".to_string(),
                self.max_measurements.to_value(),
            ),
            ("simulated_sms".to_string(), self.simulated_sms.to_value()),
            ("workload".to_string(), self.workload.to_value()),
        ]);
        serde::Value::Map(entries)
    }
}

/// Reject typoed keys: a scenario knob that silently falls back to its
/// default is worse than a parse error.
fn check_known_fields(
    entries: &[(String, serde::Value)],
    known: &[&str],
    type_name: &str,
) -> Result<(), serde::Error> {
    for (key, _) in entries {
        if !known.contains(&key.as_str()) {
            return Err(serde::Error::custom(format!(
                "unknown field `{key}` in {type_name} (known fields: {})",
                known.join(", ")
            )));
        }
    }
    Ok(())
}

impl serde::Deserialize for CampaignSpec {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let entries = value.as_map().ok_or_else(|| {
            serde::Error::custom(format!("expected map for CampaignSpec, got {value:?}"))
        })?;
        check_known_fields(entries, CAMPAIGN_SPEC_FIELDS, "CampaignSpec")?;
        let mut spec = CampaignSpec::default();
        for (key, v) in entries {
            match key.as_str() {
                "description" => spec.description = serde::Deserialize::from_value(v)?,
                "device" => spec.device = serde::Deserialize::from_value(v)?,
                "device_index" => spec.device_index = serde::Deserialize::from_value(v)?,
                "hostname" => spec.hostname = serde::Deserialize::from_value(v)?,
                "frequencies" => spec.frequencies = serde::Deserialize::from_value(v)?,
                "mem_frequencies" => spec.mem_frequencies = serde::Deserialize::from_value(v)?,
                "seed" => spec.seed = serde::Deserialize::from_value(v)?,
                "rse_threshold" => spec.rse_threshold = serde::Deserialize::from_value(v)?,
                "min_measurements" => spec.min_measurements = serde::Deserialize::from_value(v)?,
                "max_measurements" => spec.max_measurements = serde::Deserialize::from_value(v)?,
                "simulated_sms" => spec.simulated_sms = serde::Deserialize::from_value(v)?,
                "workload" => spec.workload = serde::Deserialize::from_value(v)?,
                _ => unreachable!("checked above"),
            }
        }
        Ok(spec)
    }
}

/// Typed builder for [`CampaignSpec`] whose [`CampaignSpecBuilder::build`]
/// validates the spec (against the built-in registries) before handing it
/// out — a builder-accepted spec always serialises, round-trips and
/// resolves.
#[derive(Clone, Debug)]
pub struct CampaignSpecBuilder {
    spec: CampaignSpec,
}

impl CampaignSpecBuilder {
    /// Free-text description.
    pub fn description(mut self, text: impl Into<String>) -> Self {
        self.spec.description = text.into();
        self
    }

    /// Explicit benchmarked frequencies (MHz).
    pub fn frequencies_mhz(mut self, mhz: &[u32]) -> Self {
        self.spec.frequencies = FreqSelection::List(mhz.to_vec());
        self
    }

    /// Evenly spaced `n`-frequency ladder subset (the paper's heatmaps).
    pub fn frequency_subset(mut self, n: usize) -> Self {
        self.spec.frequencies = FreqSelection::Subset(n);
        self
    }

    /// Benchmark the whole ladder.
    pub fn full_ladder(mut self) -> Self {
        self.spec.frequencies = FreqSelection::Ladder;
        self
    }

    /// Benchmarked memory (DRAM) frequencies (MHz); empty keeps the
    /// campaign core-only.
    pub fn mem_frequencies_mhz(mut self, mhz: &[u32]) -> Self {
        self.spec.mem_frequencies = mhz.to_vec();
        self
    }

    /// Master seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.spec.seed = seed;
        self
    }

    /// Device unit index.
    pub fn device_index(mut self, index: usize) -> Self {
        self.spec.device_index = index;
        self
    }

    /// Hostname used in output file names.
    pub fn hostname(mut self, hostname: impl Into<String>) -> Self {
        self.spec.hostname = hostname.into();
        self
    }

    /// RSE stopping threshold.
    pub fn rse_threshold(mut self, rse: f64) -> Self {
        self.spec.rse_threshold = rse;
        self
    }

    /// Minimum and maximum measurements per pair.
    pub fn measurements(mut self, min: usize, max: usize) -> Self {
        self.spec.min_measurements = min;
        self.spec.max_measurements = max;
        self
    }

    /// Simulated SM record streams (`None` = all).
    pub fn simulated_sms(mut self, n: Option<u32>) -> Self {
        self.spec.simulated_sms = n;
        self
    }

    /// Workload preset name.
    pub fn workload(mut self, name: impl Into<String>) -> Self {
        self.spec.workload = name.into();
        self
    }

    /// Validate and finish: every violated constraint is reported at once.
    pub fn build(self) -> Result<CampaignSpec, SpecErrors> {
        self.spec.validate()?;
        Ok(self.spec)
    }

    /// Finish without validating (for specs validated later against custom
    /// registries).
    pub fn build_unchecked(self) -> CampaignSpec {
        self.spec
    }
}

/// Serialisable description of a multi-device fleet campaign: one
/// [`CampaignSpec`] per member, run as a [`Fleet`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FleetSpec {
    /// Free-text description.
    pub description: String,
    /// Member campaigns, one per device slot.
    pub members: Vec<CampaignSpec>,
}

impl FleetSpec {
    /// An empty fleet spec (invalid until members are added).
    pub fn new() -> Self {
        FleetSpec::default()
    }

    /// Set the description.
    pub fn description(mut self, text: impl Into<String>) -> Self {
        self.description = text.into();
        self
    }

    /// Add one member campaign.
    pub fn member(mut self, spec: CampaignSpec) -> Self {
        self.members.push(spec);
        self
    }

    /// Validate against the built-in registries, collecting every violation
    /// of every member (tagged with the member index).
    pub fn validate(&self) -> Result<(), SpecErrors> {
        self.validate_with(&DeviceRegistry::builtin(), &WorkloadRegistry::builtin())
    }

    /// Validate against explicit registries.
    pub fn validate_with(
        &self,
        devices: &DeviceRegistry,
        workloads: &WorkloadRegistry,
    ) -> Result<(), SpecErrors> {
        self.resolve_members(devices, workloads).map(drop)
    }

    /// Resolve every member and assemble a ready-to-run [`Fleet`] (built-in
    /// registries).
    pub fn into_fleet(self) -> Result<Fleet, SpecErrors> {
        self.into_fleet_with(&DeviceRegistry::builtin(), &WorkloadRegistry::builtin())
    }

    /// Resolve every member and assemble a ready-to-run [`Fleet`] (explicit
    /// registries).
    pub fn into_fleet_with(
        self,
        devices: &DeviceRegistry,
        workloads: &WorkloadRegistry,
    ) -> Result<Fleet, SpecErrors> {
        let configs = self.resolve_members(devices, workloads)?;
        Ok(configs.into_iter().fold(Fleet::new(), Fleet::add_campaign))
    }

    /// Resolve every member, collecting every violation of every member
    /// (tagged with the member index).
    fn resolve_members(
        &self,
        devices: &DeviceRegistry,
        workloads: &WorkloadRegistry,
    ) -> Result<Vec<CampaignConfig>, SpecErrors> {
        let mut errors = Vec::new();
        if self.members.is_empty() {
            errors.push(SpecError::EmptyFleet);
        }
        let mut configs = Vec::new();
        for (index, member) in self.members.iter().enumerate() {
            match member.resolve_with(devices, workloads) {
                Ok(config) => configs.push(config),
                Err(e) => errors.extend(e.errors.into_iter().map(|inner| SpecError::InMember {
                    index,
                    inner: Box::new(inner),
                })),
            }
        }
        SpecErrors::collect(errors)?;
        Ok(configs)
    }

    /// Serialise to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("fleet spec serialises")
    }

    /// Parse from JSON (the `members` field is mandatory).
    pub fn from_json(text: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(text)
    }
}

impl serde::Serialize for FleetSpec {
    fn to_value(&self) -> serde::Value {
        serde::Value::Map(vec![
            ("description".to_string(), self.description.to_value()),
            ("members".to_string(), self.members.to_value()),
        ])
    }
}

impl serde::Deserialize for FleetSpec {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let entries = value.as_map().ok_or_else(|| {
            serde::Error::custom(format!("expected map for FleetSpec, got {value:?}"))
        })?;
        check_known_fields(entries, &["description", "members"], "FleetSpec")?;
        let members = serde::field(entries, "members", "FleetSpec")?;
        let description = match entries.iter().find(|(k, _)| k == "description") {
            Some((_, v)) => serde::Deserialize::from_value(v)?,
            None => String::new(),
        };
        Ok(FleetSpec {
            description,
            members: serde::Deserialize::from_value(members)?,
        })
    }
}

/// A scenario file's content: either one campaign or a fleet of them.
///
/// Disambiguated by shape — a JSON object with a `members` key is a fleet,
/// anything else a single campaign — so `latest run` takes any scenario
/// file without a mode flag.
#[derive(Clone, Debug, PartialEq)]
pub enum ScenarioSpec {
    /// One device, one campaign.
    Campaign(CampaignSpec),
    /// Multiple member campaigns run as a fleet.
    Fleet(FleetSpec),
}

impl ScenarioSpec {
    /// Validate whichever shape this is (built-in registries).
    pub fn validate(&self) -> Result<(), SpecErrors> {
        match self {
            ScenarioSpec::Campaign(c) => c.validate(),
            ScenarioSpec::Fleet(f) => f.validate(),
        }
    }

    /// Serialise to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("scenario spec serialises")
    }

    /// Parse from JSON, picking the shape by the presence of `members`.
    pub fn from_json(text: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(text)
    }
}

impl serde::Serialize for ScenarioSpec {
    fn to_value(&self) -> serde::Value {
        match self {
            ScenarioSpec::Campaign(c) => c.to_value(),
            ScenarioSpec::Fleet(f) => f.to_value(),
        }
    }
}

impl serde::Deserialize for ScenarioSpec {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let entries = value.as_map().ok_or_else(|| {
            serde::Error::custom(format!("expected map for ScenarioSpec, got {value:?}"))
        })?;
        if entries.iter().any(|(k, _)| k == "members") {
            Ok(ScenarioSpec::Fleet(serde::Deserialize::from_value(value)?))
        } else {
            Ok(ScenarioSpec::Campaign(serde::Deserialize::from_value(
                value,
            )?))
        }
    }
}

/// The `latest run --checkpoint` file format: the *effective spec* stored
/// alongside the partial [`CampaignResult`](crate::campaign::CampaignResult).
///
/// The session's own resume validation compares device, seed and pair set
/// — it cannot see knobs the result does not record (measurement bounds,
/// RSE threshold, workload). Persisting the spec next to the result lets a
/// resume refuse a checkpoint taken under a different configuration
/// instead of silently merging pairs measured under mixed knobs.
#[derive(Clone, Debug)]
pub struct SpecCheckpoint {
    /// The effective campaign spec the checkpointed run was started from.
    pub spec: CampaignSpec,
    /// The (typically partial) result to resume from.
    pub result: crate::campaign::CampaignResult,
}

impl SpecCheckpoint {
    /// Serialise to pretty JSON (the checkpoint-file format).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("spec checkpoint serialises")
    }

    /// Parse a checkpoint file back from JSON.
    pub fn from_json(text: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(text)
    }

    /// Write the checkpoint to `path` atomically
    /// ([`write_atomic`](crate::store::write_atomic)), so a crash mid-write
    /// can never corrupt an existing checkpoint. The single
    /// checkpoint-persistence path shared by `latest run --checkpoint` and
    /// the queue service's worker pool.
    pub fn save(&self, path: &std::path::Path) -> std::io::Result<()> {
        crate::store::write_atomic(path, self.to_json())
    }

    /// Read a checkpoint file back; a parse failure surfaces as
    /// [`std::io::ErrorKind::InvalidData`].
    pub fn load(path: &std::path::Path) -> std::io::Result<Self> {
        let text = std::fs::read_to_string(path)?;
        Self::from_json(&text)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
    }
}

impl serde::Serialize for SpecCheckpoint {
    fn to_value(&self) -> serde::Value {
        serde::Value::Map(vec![
            ("spec".to_string(), self.spec.to_value()),
            ("result".to_string(), self.result.to_value()),
        ])
    }
}

impl serde::Deserialize for SpecCheckpoint {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let entries = value.as_map().ok_or_else(|| {
            serde::Error::custom(format!("expected map for SpecCheckpoint, got {value:?}"))
        })?;
        Ok(SpecCheckpoint {
            spec: serde::Deserialize::from_value(serde::field(entries, "spec", "SpecCheckpoint")?)?,
            result: serde::Deserialize::from_value(serde::field(
                entries,
                "result",
                "SpecCheckpoint",
            )?)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_match_config_defaults() {
        let spec = CampaignSpec::builder("a100")
            .frequencies_mhz(&[705, 1410])
            .build()
            .unwrap();
        let config = spec.resolve().unwrap();
        let defaults = CampaignSpec::default();
        assert_eq!(config.rse_threshold, defaults.rse_threshold);
        assert_eq!(config.min_measurements, defaults.min_measurements);
        assert_eq!(config.max_measurements, defaults.max_measurements);
        assert_eq!(config.hostname, defaults.hostname);
        assert_eq!(config.device_index, defaults.device_index);
        assert_eq!(config.seed, defaults.seed);
        assert_eq!(config.simulated_sms, defaults.simulated_sms);
        assert_eq!(
            config.workload,
            latest_gpu_sim::sm::WorkloadParams::default_micro()
        );
        assert_eq!(config.frequencies, vec![FreqMhz(705), FreqMhz(1410)]);
        assert_eq!(config.spec.name, latest_gpu_sim::devices::a100_sxm4().name);
    }

    #[test]
    fn resolve_builds_the_device_once() {
        use latest_gpu_sim::devices::{a100_sxm4, DeviceEntry};
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        let builds = Arc::new(AtomicUsize::new(0));
        let counter = builds.clone();
        let mut devices = DeviceRegistry::empty();
        devices.register(DeviceEntry::new(
            "counted",
            "counts its builds",
            move |_| {
                counter.fetch_add(1, Ordering::SeqCst);
                a100_sxm4()
            },
        ));
        let spec = CampaignSpec::builder("counted")
            .frequency_subset(4)
            .build_unchecked();
        let config = spec
            .resolve_with(&devices, &WorkloadRegistry::builtin())
            .unwrap();
        assert_eq!(config.frequencies.len(), 4);
        assert_eq!(builds.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn validation_enumerates_every_violation_at_once() {
        let spec = CampaignSpec {
            device: "h100".to_string(),
            workload: "compute-heavy".to_string(),
            frequencies: FreqSelection::List(vec![705]),
            rse_threshold: 1.5,
            min_measurements: 0,
            simulated_sms: Some(0),
            ..CampaignSpec::default()
        };
        let errs = spec.validate().unwrap_err();
        assert!(errs.errors().len() >= 5, "collected: {errs}");
        assert!(errs.contains(|e| matches!(e, SpecError::UnknownDevice { .. })));
        assert!(errs.contains(|e| matches!(e, SpecError::UnknownWorkload { .. })));
        assert!(errs.contains(|e| matches!(e, SpecError::TooFewFrequencies { got: 1 })));
        assert!(errs.contains(|e| matches!(e, SpecError::RseThresholdOutOfRange { .. })));
        assert!(errs.contains(|e| matches!(e, SpecError::ZeroMinMeasurements)));
        assert!(errs.contains(|e| matches!(e, SpecError::ZeroSimulatedSms)));
    }

    #[test]
    fn subset_and_ladder_selections_resolve() {
        let subset = CampaignSpec::builder("gh200")
            .frequency_subset(5)
            .build()
            .unwrap()
            .resolve()
            .unwrap();
        assert_eq!(subset.frequencies.len(), 5);
        let ladder = CampaignSpec::builder("quadro")
            .full_ladder()
            .build()
            .unwrap()
            .resolve()
            .unwrap();
        assert_eq!(ladder.frequencies.len(), 120);
    }

    #[test]
    fn core_only_spec_serialisation_omits_mem_frequencies() {
        let spec = CampaignSpec::builder("a100")
            .frequencies_mhz(&[705, 1410])
            .build()
            .unwrap();
        assert!(!spec.to_json().contains("mem_frequencies"));
        // And a 2-D spec round-trips with the field present.
        let plane = CampaignSpec::builder("a100")
            .frequencies_mhz(&[705, 1410])
            .mem_frequencies_mhz(&[810, 1215])
            .build()
            .unwrap();
        assert!(plane.to_json().contains("mem_frequencies"));
        assert_eq!(CampaignSpec::from_json(&plane.to_json()).unwrap(), plane);
        let config = plane.resolve().unwrap();
        assert_eq!(config.mem_frequencies, vec![FreqMhz(810), FreqMhz(1215)]);
        assert_eq!(config.states().len(), 4);
    }

    #[test]
    fn mem_frequencies_validate_against_the_memory_ladder() {
        let spec = CampaignSpec::builder("a100")
            .frequencies_mhz(&[705, 1410])
            .mem_frequencies_mhz(&[810, 810, 999])
            .build_unchecked();
        let errs = spec.validate().unwrap_err();
        assert!(errs.contains(|e| matches!(e, SpecError::DuplicateMemFrequency { mhz: 810 })));
        assert!(errs.contains(|e| matches!(e, SpecError::OffMemLadderFrequency { mhz: 999, .. })));
    }

    #[test]
    fn unknown_fields_are_rejected() {
        let err = CampaignSpec::from_json(r#"{"device": "a100", "frequncies": [705, 1410]}"#)
            .unwrap_err();
        assert!(err.to_string().contains("frequncies"), "{err}");
        assert!(err.to_string().contains("known fields"), "{err}");
    }

    #[test]
    fn missing_fields_take_paper_defaults() {
        let spec =
            CampaignSpec::from_json(r#"{"device": "gh200", "frequencies": [705, 1980]}"#).unwrap();
        assert_eq!(spec.rse_threshold, 0.05);
        assert_eq!(spec.min_measurements, 25);
        assert_eq!(spec.max_measurements, 150);
        assert_eq!(spec.hostname, "simnode");
        assert_eq!(spec.simulated_sms, Some(8));
        assert_eq!(spec.workload, "paper-default");
        assert!(spec.validate().is_ok());
    }

    #[test]
    fn scenario_shape_is_picked_by_members_key() {
        let campaign =
            ScenarioSpec::from_json(r#"{"device": "a100", "frequencies": [705, 1410]}"#).unwrap();
        assert!(matches!(campaign, ScenarioSpec::Campaign(_)));
        let fleet = ScenarioSpec::from_json(
            r#"{"members": [{"device": "a100", "frequencies": [705, 1410]}]}"#,
        )
        .unwrap();
        assert!(matches!(fleet, ScenarioSpec::Fleet(_)));
        // And both round-trip through their own JSON.
        for s in [campaign, fleet] {
            assert_eq!(ScenarioSpec::from_json(&s.to_json()).unwrap(), s);
        }
    }

    #[test]
    fn fleet_violations_carry_member_indices() {
        let fleet = FleetSpec::new()
            .member(
                CampaignSpec::builder("a100")
                    .frequencies_mhz(&[705, 1410])
                    .build_unchecked(),
            )
            .member(
                CampaignSpec::builder("h100")
                    .frequencies_mhz(&[705])
                    .build_unchecked(),
            );
        let errs = fleet.validate().unwrap_err();
        assert!(errs
            .errors()
            .iter()
            .all(|e| matches!(e, SpecError::InMember { index: 1, .. })));
        assert_eq!(errs.errors().len(), 2);
    }

    #[test]
    fn custom_registries_extend_the_vocabulary() {
        use latest_gpu_sim::devices::{gh200, DeviceEntry, DeviceRegistry};
        use latest_gpu_sim::sm::{WorkloadParams, WorkloadRegistry};
        let mut devices = DeviceRegistry::builtin();
        devices.register(DeviceEntry::new("h200", "hypothetical refresh", |_| {
            let mut d = gh200();
            d.name = "NVIDIA H200".to_string();
            d
        }));
        let mut workloads = WorkloadRegistry::builtin();
        workloads.register("tiny", "fast tests", WorkloadParams::default_micro());

        let spec = CampaignSpec::builder("h200")
            .frequencies_mhz(&[705, 1980])
            .workload("tiny")
            .build_unchecked();
        assert!(spec.validate().is_err(), "builtin registries reject h200");
        let config = spec.resolve_with(&devices, &workloads).unwrap();
        assert_eq!(config.spec.name, "NVIDIA H200");
    }
}
