//! Typed failures of a federated run.
//!
//! Training dynamics (divergence, loss guards, quorum skips) are *not*
//! errors — they are recorded in [`crate::metrics::History`]. A
//! [`FedError`] means the run itself could not proceed: a public API was
//! driven outside its contract, or the simulated transport failed.

use fedprox_net::NetError;
use std::fmt;

/// Why a federated run (or a single local update) could not proceed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FedError {
    /// An FSVRG local update was requested without the
    /// server-distributed global gradient `∇F̄(w̄)` it anchors on.
    MissingGlobalGradient {
        /// The global round the update was asked for.
        round: usize,
    },
    /// The networked backend's transport layer failed (see [`NetError`]
    /// — in the in-process simulation these are protocol or
    /// configuration bugs, never training dynamics).
    Net(NetError),
    /// The federation has no devices.
    EmptyFederation,
    /// A materialized device's `id` is not its position in the slice
    /// (aggregation weights and fault plans address devices by id).
    DeviceIdMismatch {
        /// Position in the device slice.
        position: usize,
        /// The `id` the device carries.
        id: usize,
    },
    /// A device holds no training samples.
    EmptyShard {
        /// The device's id.
        device: usize,
    },
    /// FSVRG was selected on a backend that cannot distribute its
    /// full-population global gradient `∇F̄(w̄)`.
    FsvrgUnsupported {
        /// The backend that was asked to.
        backend: &'static str,
    },
    /// `participation < 1` was selected on the networked backend, which
    /// only runs full participation.
    PartialParticipationUnsupported,
}

impl fmt::Display for FedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FedError::MissingGlobalGradient { round } => write!(
                f,
                "fsvrg: round {round} local update requires the server-distributed global gradient"
            ),
            FedError::Net(e) => write!(f, "networked backend: {e}"),
            FedError::EmptyFederation => write!(f, "the federation has no devices"),
            FedError::DeviceIdMismatch { position, id } => {
                write!(f, "device at position {position} has id {id}; ids must match positions")
            }
            FedError::EmptyShard { device } => write!(f, "device {device} has no data"),
            FedError::FsvrgUnsupported { backend } => write!(
                f,
                "fsvrg: the global-gradient exchange is not supported by {backend}"
            ),
            FedError::PartialParticipationUnsupported => {
                write!(f, "the networked backend requires full participation")
            }
        }
    }
}

impl std::error::Error for FedError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FedError::Net(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NetError> for FedError {
    fn from(e: NetError) -> Self {
        FedError::Net(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = FedError::MissingGlobalGradient { round: 3 };
        assert!(e.to_string().contains("round 3"));
        let n: FedError = NetError::RetryLimit.into();
        assert!(n.to_string().contains("networked backend"));
        assert!(std::error::Error::source(&n).is_some());
        assert!(std::error::Error::source(&e).is_none());
    }
}
