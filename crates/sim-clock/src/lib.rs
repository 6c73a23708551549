//! Virtual-time substrate for the `latest-rs` simulation stack.
//!
//! The paper's methodology is defined entirely in terms of timestamps: host
//! timestamps around driver calls, and device (`%globaltimer`) timestamps
//! around microbenchmark iterations. Reproducing the methodology on a
//! simulator therefore requires a faithful notion of *time* first:
//!
//! * a single global virtual timeline ([`SimTime`], nanosecond resolution),
//! * a shared, thread-safe clock that host-side operations advance
//!   ([`SharedClock`]),
//! * derived clock *views* with offset, drift and read-quantisation
//!   ([`ClockView`]) so that the CPU clock and the GPU `globaltimer` disagree
//!   exactly the way real ones do (the GPU timer refreshes at ~1 µs, see the
//!   paper's footnote 1).
//!
//! Everything downstream (the GPU simulator, the simulated machine's
//! NVML/CUDA cost model, the IEEE 1588 synchroniser and the LATEST tool
//! itself) tells time exclusively through this crate, which is what makes
//! whole measurement campaigns run in milliseconds of wall-clock time while
//! remaining bit-deterministic.

pub mod clock;
pub mod time;

pub use clock::{ClockView, SharedClock};
pub use time::{round_ns, SimDuration, SimTime};
