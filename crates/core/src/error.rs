//! Error types for the LATEST pipeline.

use latest_gpu_sim::freq::FreqMhz;
use latest_gpu_sim::{KernelId, LaunchError};
use std::fmt;

/// Result alias for pipeline operations.
pub type CoreResult<T> = Result<T, CoreError>;

/// Errors surfaced by the LATEST pipeline.
#[derive(Debug)]
pub enum CoreError {
    /// A locked-clocks request outside the domain's ladder range
    /// (`NVML_ERROR_INVALID_ARGUMENT`).
    InvalidClock {
        /// Requested frequency (MHz).
        requested: u32,
        /// Lowest supported frequency (MHz).
        min: u32,
        /// Highest supported frequency (MHz).
        max: u32,
    },
    /// The device rejected a kernel launch.
    Launch(LaunchError),
    /// The kernel id is unknown, unfinished, or its records were already
    /// consumed.
    NoRecords(KernelId),
    /// Fewer than two distinct frequencies requested.
    NotEnoughFrequencies {
        /// How many were given.
        got: usize,
    },
    /// A requested frequency is not on the device ladder.
    UnknownFrequency {
        /// The offending frequency.
        freq: FreqMhz,
    },
    /// A requested memory frequency is not on the device memory ladder.
    UnknownMemFrequency {
        /// The offending frequency.
        freq: FreqMhz,
    },
    /// The campaign sweeps memory clocks but the platform does not offer
    /// the [`MemoryClocks`](crate::platform::MemoryClocks) capability.
    MemoryClocksUnsupported,
    /// Phase 2/3 retried more than the configured bound without producing a
    /// single valid per-core latency (Algorithm 2's GOTO-line-1 loop guard).
    RetriesExhausted {
        /// Initial frequency of the pair.
        init: FreqMhz,
        /// Target frequency of the pair.
        target: FreqMhz,
        /// Number of attempts made.
        attempts: usize,
    },
    /// CSV parse failure.
    CsvFormat {
        /// Line number (1-based).
        line: usize,
        /// Description.
        message: String,
    },
    /// The session was cancelled before phase 1 produced anything worth
    /// checkpointing.
    Cancelled,
    /// A resume checkpoint does not match the configured campaign.
    CheckpointMismatch {
        /// What disagreed.
        reason: String,
    },
    /// A declarative campaign spec failed validation or resolution.
    Spec(crate::spec::SpecErrors),
    /// Underlying I/O failure.
    Io(std::io::Error),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::InvalidClock {
                requested,
                min,
                max,
            } => write!(
                f,
                "NVML: clock {requested} MHz outside supported range [{min}, {max}] MHz"
            ),
            CoreError::Launch(e) => write!(f, "CUDA: kernel launch failed: {e}"),
            CoreError::NoRecords(id) => write!(f, "CUDA: no records available for kernel {id:?}"),
            CoreError::NotEnoughFrequencies { got } => {
                write!(f, "need at least two distinct frequencies, got {got}")
            }
            CoreError::UnknownFrequency { freq } => {
                write!(f, "frequency {freq} MHz is not on the device ladder")
            }
            CoreError::UnknownMemFrequency { freq } => {
                write!(f, "memory frequency {freq} MHz is not on the device memory ladder")
            }
            CoreError::MemoryClocksUnsupported => {
                write!(f, "the platform does not expose memory-clock control")
            }
            CoreError::RetriesExhausted { init, target, attempts } => write!(
                f,
                "no valid switching-latency sample for {init}->{target} MHz after {attempts} attempts"
            ),
            CoreError::CsvFormat { line, message } => {
                write!(f, "CSV line {line}: {message}")
            }
            CoreError::Cancelled => write!(f, "campaign cancelled before any pair was measured"),
            CoreError::CheckpointMismatch { reason } => {
                write!(f, "resume checkpoint mismatch: {reason}")
            }
            CoreError::Spec(e) => write!(f, "invalid campaign spec: {e}"),
            CoreError::Io(e) => write!(f, "I/O: {e}"),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Spec(e) => Some(e),
            CoreError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CoreError {
    fn from(e: std::io::Error) -> Self {
        CoreError::Io(e)
    }
}

impl From<crate::spec::SpecErrors> for CoreError {
    fn from(e: crate::spec::SpecErrors) -> Self {
        CoreError::Spec(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        let e = CoreError::NotEnoughFrequencies { got: 1 };
        assert!(e.to_string().contains("at least two"));
        let e = CoreError::UnknownFrequency { freq: FreqMhz(999) };
        assert!(e.to_string().contains("999"));
        let e = CoreError::RetriesExhausted {
            init: FreqMhz(300),
            target: FreqMhz(600),
            attempts: 12,
        };
        assert!(e.to_string().contains("300->600"));
        assert!(e.to_string().contains("12"));
    }

    /// The simulated machine's three failure messages, word for word.
    #[test]
    fn display_messages() {
        let e = CoreError::InvalidClock {
            requested: 99,
            min: 210,
            max: 1410,
        };
        assert_eq!(
            e.to_string(),
            "NVML: clock 99 MHz outside supported range [210, 1410] MHz"
        );
        let e = CoreError::Launch(LaunchError::EmptyKernel);
        assert_eq!(
            e.to_string(),
            "CUDA: kernel launch failed: kernel must run at least one iteration"
        );
        let e = CoreError::NoRecords(KernelId(7));
        assert_eq!(
            e.to_string(),
            "CUDA: no records available for kernel KernelId(7)"
        );
    }

    #[test]
    fn conversions() {
        let e: CoreError = std::io::Error::other("boom").into();
        assert!(matches!(e, CoreError::Io(_)));
    }
}
