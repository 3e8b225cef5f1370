//! Typed campaign execution errors.
//!
//! Every failure the campaign engine can hit is a [`CampaignError`]
//! value, never a panic: a spec rejected by
//! [`super::CampaignSpec::validate`], a drawn instance that cannot take
//! its platform point's granularity, a scheduler run failing inside a
//! cell, a stream cell evaluated without an arrival axis, or a failed
//! durable-store operation. A service front end (`experiments::serve`)
//! relies on this — a worker thread must not die on user input. `validate`
//! rejects every spec shape it can see statically; what depends on the
//! drawn instance (a workload whose graphs have no edges, a granularity
//! the drawn times cannot reach) surfaces as
//! [`CampaignError::Granularity`] from the cell.

use ftsched_core::ScheduleError;
use platform::granularity::GranularityError;
use std::fmt;
use std::sync::Arc;

/// A shared, comparable wrapper over [`std::io::Error`] so persistence
/// failures can live inside [`CampaignError`] (which is `Clone +
/// PartialEq` for test ergonomics and result fan-out). Equality compares
/// the error kind and rendered message — good enough for assertions,
/// while [`std::error::Error::source`] still exposes the real chain.
#[derive(Debug, Clone)]
pub struct StoreIoError(pub Arc<std::io::Error>);

impl StoreIoError {
    /// Wraps an io error.
    pub fn new(err: std::io::Error) -> StoreIoError {
        StoreIoError(Arc::new(err))
    }
}

impl PartialEq for StoreIoError {
    fn eq(&self, other: &StoreIoError) -> bool {
        self.0.kind() == other.0.kind() && self.0.to_string() == other.0.to_string()
    }
}

impl fmt::Display for StoreIoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

impl std::error::Error for StoreIoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        self.0.source()
    }
}

/// Errors raised by campaign execution.
#[derive(Debug, Clone, PartialEq)]
pub enum CampaignError {
    /// The spec failed [`super::CampaignSpec::validate`].
    InvalidSpec(String),
    /// A scheduler run inside a cell failed.
    Schedule {
        /// The campaign id.
        campaign: String,
        /// Name of the algorithm that failed.
        algorithm: &'static str,
        /// The ε the run was attempted at.
        epsilon: usize,
        /// Processor count of the cell's platform point.
        procs: usize,
        /// The underlying scheduler error.
        source: ScheduleError,
    },
    /// A streaming run inside a stream cell failed.
    Stream {
        /// The campaign id.
        campaign: String,
        /// Name of the algorithm that failed.
        algorithm: &'static str,
        /// The ε the run was attempted at.
        epsilon: usize,
        /// Processor count of the cell's platform point.
        procs: usize,
        /// The underlying scheduler error.
        source: ScheduleError,
    },
    /// A cell's drawn instance could not be rescaled to its platform
    /// point's granularity.
    Granularity {
        /// The campaign id.
        campaign: String,
        /// Label of the cell's workload.
        workload: String,
        /// Index of the cell's platform point.
        platform: usize,
        /// The point's effective granularity.
        granularity: f64,
        /// Why the rescale failed.
        source: GranularityError,
    },
    /// A stream cell was evaluated on a spec without an arrival axis.
    MissingArrivals {
        /// The campaign id.
        campaign: String,
    },
    /// A durable-store operation (run record, spec, or WAL persistence)
    /// failed mid-run. The run halts loudly — partial durable state is
    /// kept for resume — and the server stays alive.
    Store {
        /// The campaign id.
        campaign: String,
        /// What the store was doing when it failed.
        operation: &'static str,
        /// The underlying io error.
        source: StoreIoError,
    },
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::InvalidSpec(msg) => write!(f, "invalid campaign spec: {msg}"),
            CampaignError::Schedule {
                campaign,
                algorithm,
                epsilon,
                procs,
                source,
            } => write!(
                f,
                "campaign {campaign}: {algorithm} at eps {epsilon} on {procs} procs \
                 failed: {source}"
            ),
            CampaignError::Stream {
                campaign,
                algorithm,
                epsilon,
                procs,
                source,
            } => write!(
                f,
                "campaign {campaign}: stream of {algorithm} at eps {epsilon} on \
                 {procs} procs failed: {source}"
            ),
            CampaignError::Granularity {
                campaign,
                workload,
                platform,
                granularity,
                source,
            } => write!(
                f,
                "campaign {campaign}: workload {workload} on platform point {platform} \
                 cannot take granularity {granularity:?}: {source}"
            ),
            CampaignError::MissingArrivals { campaign } => write!(
                f,
                "campaign {campaign}: stream cell evaluated without an arrival axis"
            ),
            CampaignError::Store {
                campaign,
                operation,
                source,
            } => write!(
                f,
                "campaign {campaign}: durable store failed while {operation}: {source}"
            ),
        }
    }
}

impl std::error::Error for CampaignError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CampaignError::Schedule { source, .. } | CampaignError::Stream { source, .. } => {
                Some(source)
            }
            CampaignError::Store { source, .. } => Some(source),
            CampaignError::Granularity { source, .. } => Some(source),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = CampaignError::InvalidSpec("no workloads".into());
        assert!(e.to_string().contains("no workloads"));
        let e = CampaignError::Schedule {
            campaign: "fig1".into(),
            algorithm: "FTSA",
            epsilon: 3,
            procs: 2,
            source: ScheduleError::NotEnoughProcessors {
                epsilon: 3,
                procs: 2,
            },
        };
        assert!(e.to_string().contains("fig1"));
        assert!(e.to_string().contains("FTSA"));
        assert!(std::error::Error::source(&e).is_some());
    }

    #[test]
    fn store_variant_chains_and_compares() {
        let make = || CampaignError::Store {
            campaign: "ci-smoke".into(),
            operation: "appending group frame",
            source: StoreIoError::new(std::io::Error::other("disk full")),
        };
        let e = make();
        assert!(e.to_string().contains("appending group frame"));
        assert!(e.to_string().contains("disk full"));
        assert!(std::error::Error::source(&e).is_some());
        assert_eq!(e, make(), "equality by kind + message");
        let _cloned = e.clone();
    }
}
