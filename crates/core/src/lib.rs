//! The LATEST methodology: accelerator frequency-switching-latency
//! measurement (Sections V and VI of the paper).
//!
//! This crate is the paper's primary contribution, implemented faithfully
//! over the simulated CUDA/NVML substrate:
//!
//! * **Phase 1** ([`phase1`]) — warm-up and per-frequency characterisation:
//!   run the microbenchmark under every frequency, pool per-SM iteration
//!   statistics, and validate every ordered frequency pair with a
//!   confidence-interval test on the difference of means (Algorithm 1).
//! * **Phase 2** ([`phase2`]) — the switching benchmark: IEEE 1588 timer
//!   sync, start the kernel at the initial frequency, sleep through the
//!   delay period, stamp `t_s`, issue the frequency change, synchronise and
//!   collect per-SM records (Algorithm 2, lines 1–8).
//! * **Phase 3** ([`phase3`]) — per-core evaluation: find the first
//!   iteration inside the two-standard-deviation band of the target
//!   frequency, confirm the remaining iterations match the target mean, and
//!   aggregate `max(t_e − t_s)` over cores (Algorithm 2, lines 9–24).
//! * **Controller** ([`controller`]) — repetition with the relative-
//!   standard-error stopping rule (checked every 25 passes), throttle
//!   polling every 5 passes with discard + 10 s backoff on thermal events
//!   and pair-skip on power events (Sec. VI).
//! * **Analysis** ([`analysis`]) — the adaptive DBSCAN outlier filter
//!   (Algorithm 3) applied per pair, with cluster census and silhouette
//!   validation.
//! * **Session** ([`session`]) — the campaign runner,
//!   [`CampaignSession::run`]: pairs measured one after another in
//!   canonical order on the calling thread, each on its own seeded
//!   platform (the queue's worker pool runs them as tasks on threads),
//!   typed progress events through observer hooks or channels, cooperative
//!   cancellation, and checkpoint/resume over the serialisable
//!   [`CampaignResult`].
//! * **Fleet** ([`fleet`]) — multi-device orchestration: one campaign per
//!   device spec, run one after another, aggregated into per-device
//!   results and cross-device summary rows.
//! * **Store** ([`store`]) — the results archive: campaign runs persisted
//!   under content-addressed [`RunId`]s with the effective spec and
//!   provenance, so experiments accumulate into a queryable corpus instead
//!   of evaporating.
//! * **View** ([`view`]) — typed query views over results:
//!   [`LatencyView`]/[`PairView`] filter by frequency pair, direction,
//!   outcome and percentile band, replacing ad-hoc pair iteration in every
//!   consumer.
//! * **Spec** ([`spec`]) — declarative campaign descriptions: serialisable
//!   [`CampaignSpec`]/[`FleetSpec`] with fail-fast validation that
//!   enumerates every violated constraint, resolved through device and
//!   workload registries into sessions and fleets.
//! * **State** ([`state`]) — [`FreqState`], a point in the (core, memory)
//!   clock plane and the one pair coordinate of configs, phase 1, results
//!   and views: every pair lookup takes `impl Into<FreqState>`, so a bare
//!   core frequency names the core-only state.
//! * **Platform** ([`platform`]) — the backend abstraction the methodology
//!   is generic over: NVML-style control plus CUDA-style execution, with
//!   memory clocks and ground truth (one ledger per clock domain) as
//!   optional capabilities only the simulator implements.
//! * **Output** ([`output`]) — the `.csv` convention of Sec. VI:
//!   `latest_{init}MHz_{target}MHz_{hostname}_gpu{index}.csv`.
//!
//! Closed-loop validation: the simulated device records ground-truth
//! transition times, so integration tests assert that the tool's measured
//! switching latency matches what the silicon actually did — a check that is
//! impossible on physical hardware and the main payoff of the simulation
//! substrate.

pub mod analysis;
pub mod campaign;
pub mod config;
pub mod controller;
pub mod error;
pub mod fleet;
pub mod output;
pub mod phase1;
pub mod phase2;
pub mod phase3;
pub mod platform;
pub mod probe;
pub mod session;
pub mod spec;
pub mod state;
pub mod store;
pub mod view;

pub use analysis::{analyze_pair, PairAnalysis};
pub use campaign::{CampaignResult, PairMeasurement};
pub use config::CampaignConfig;
pub use controller::{PairOutcome, PairRun};
pub use error::{CoreError, CoreResult};
pub use fleet::{Fleet, FleetDeviceSummary, FleetObserver, FleetResult};
pub use phase1::{FreqCharacterization, Phase1Result};
pub use platform::{
    GroundTruth, MemoryClocks, Platform, PlatformFactory, SimPlatform, SimPlatformFactory,
};
pub use session::{
    CampaignEvent, CampaignObserver, CampaignPrelude, CampaignSession, CancelToken,
    ChannelObserver, PairTask, SkipReason,
};
pub use spec::{
    CampaignSpec, CampaignSpecBuilder, FleetSpec, FreqSelection, ScenarioSpec, SpecCheckpoint,
    SpecError, SpecErrors,
};
pub use state::{FreqState, PairKind};
pub use store::{Provenance, ResultStore, RunId, StoreError, StoreResult, StoredRun};
pub use view::{Direction, LatencyView, OutcomeKind, PairStat, PairView};

#[cfg(test)]
mod testing;
