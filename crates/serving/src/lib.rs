//! # shfl-serving — the bucketed, multi-stream serving stack
//!
//! The paper's layout decisions pay off at *serving* time: its TileWise
//! baseline shows per-stream launch overheads eating the sparse-format win,
//! and EIE / NVIDIA's 2:4 work both keep their speedups only because the
//! serving layer batches and schedules around the packed format instead of
//! re-staging weights per call. This crate is that serving layer for the
//! reproduction:
//!
//! * [`engine::ServingEngine`] — the layer registry and bucketed executor:
//!   every registered layer's plans are built per power-of-two N-bucket
//!   ([`shfl_core::bucket::BucketPolicy`]) and cached in an LRU
//!   [`shfl_kernels::cache::PlanCache`] keyed by `(layer, n_bucket)`.
//!   Incoming activations are zero-padded up to their bucket or split into
//!   bucket-wide column segments — both **bit-identical** to the un-bucketed
//!   execution (every output column depends only on its own activation
//!   column; the property tests assert exact equality, including `N = 1` and
//!   `N` one past a bucket boundary).
//! * [`server::Server`] — the one serving front door: callers
//!   [`server::Server::submit`] [`Request`]s independently (or
//!   [`server::Server::submit_batch`] a batch atomically) and get
//!   [`server::Ticket`]s that resolve to [`Response`]s; a dispatcher holds a
//!   configurable admission window and coalesces same-layer arrivals into
//!   shared fused executes, ordered by a pluggable [`policy::QueuePolicy`]
//!   (FIFO / LPT / shortest-job-first / deadline-class SLO scheduling), with
//!   typed [`server::SubmitError::QueueFull`] backpressure and per-class
//!   latency percentiles in [`server::ServerStats`]. Every server executes
//!   over a [`replica::ReplicaSet`] — a single-replica set for
//!   [`server::Server::start`] — and plans are `Sync`, so one prepared plan
//!   serves any number of concurrent workers.
//! * [`ServingError`] — typed rejection of malformed traffic (unknown layer,
//!   reduction-dimension mismatch) instead of panics or debug-only asserts.
//! * **Live weight updates** — every layer is a versioned slot:
//!   [`engine::ServingEngine::update_layer`] probe-validates a candidate off
//!   to the side and publishes it with one atomic swap; same-pattern
//!   magnitude updates delta re-pack resident plans (payload bytes only),
//!   failed updates leave the old version serving with a typed
//!   [`engine::UpdateError`], and [`engine::ServingEngine::rollback_layer`]
//!   republishes the previous weights. Zero requests are dropped across a
//!   swap (see `tests/live_update.rs`).
//!
//! ## Example
//!
//! ```
//! use gpu_sim::GpuArch;
//! use rand::{rngs::StdRng, SeedableRng};
//! use shfl_core::bucket::BucketPolicy;
//! use shfl_core::{DenseMatrix, ShflBwMatrix};
//! use shfl_serving::engine::ServingEngine;
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let dense = DenseMatrix::from_fn(32, 32, |r, c| {
//!     if (c + r / 8) % 4 == 0 { 0.5 } else { 0.0 }
//! });
//! let weights = ShflBwMatrix::from_dense(&dense, 8).unwrap();
//!
//! let mut engine = ServingEngine::new(GpuArch::a100(), BucketPolicy::new(8, 64).unwrap(), 16);
//! let layer = engine.register_layer("ffn1", weights);
//!
//! // Requests of any width share the bucketed plans.
//! for n in [1, 5, 8, 9, 64, 65] {
//!     let acts = DenseMatrix::random(&mut rng, 32, n);
//!     let out = engine.execute(layer, &acts).unwrap();
//!     assert_eq!(out.shape(), (32, n));
//! }
//! assert!(engine.cache_stats().hits > 0);
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

#[cfg(feature = "chaos")]
pub mod chaos;
pub mod engine;
pub mod policy;
pub mod replica;
pub mod router;
pub mod server;
pub mod session;

pub use engine::{ServingEngine, ServingStats, UpdateError, UpdateReport, UpdateStats};
pub use policy::{Fifo, GroupMeta, Lpt, QueuePolicy, ShortestJobFirst, SloAware};
pub use replica::{ReplicaConfig, ReplicaHealth, ReplicaSet, ReplicaSetStats, ReplicaStats};
pub use router::HashRing;
pub use server::{
    Completion, Request, Response, Server, ServerConfig, ServerStats, SubmitError, Ticket,
};
pub use session::{
    decode_oracle, DecodeModel, DecodeStage, DecodeState, DecodeToken, SessionHandle, SessionStats,
    SessionTicket,
};

use shfl_kernels::KernelError;
use std::fmt;

/// Errors returned by the serving stack.
#[derive(Debug, Clone, PartialEq)]
pub enum ServingError {
    /// A request referenced a layer id that was never registered.
    UnknownLayer {
        /// The offending layer id.
        layer: usize,
    },
    /// A request's activation row count does not match the layer's packed
    /// reduction dimension (`k`).
    KMismatch {
        /// The layer the request addressed.
        layer: usize,
        /// The layer's packed reduction dimension.
        expected: usize,
        /// The activation row count the request carried.
        got: usize,
    },
    /// An error bubbled up from the kernel layer (plan build or execution).
    Kernel(KernelError),
    /// The serving front-end was stopped before the request was executed
    /// (a [`Server`] dropped without draining). A drained shutdown never
    /// produces this: [`Server::drain`] delivers every admitted ticket.
    ShutDown,
    /// The request was shed by overload protection: it was queued bulk-class
    /// work evicted (oldest first) to make room for latency-sensitive
    /// traffic when the bounded queue was full. Only bulk-class requests are
    /// ever shed; resubmit when the overload clears. A decode-session resume
    /// refused under capacity pressure (no Bulk victim to evict) surfaces
    /// the same error — retry once the session tier drains.
    Shed,
    /// The worker thread serving this request's group panicked mid-service.
    /// Only the group's own tickets fail — the worker is respawned and the
    /// server keeps dispatching (see the `worker_panics` / `worker_respawns`
    /// counters in [`server::ServerStats`]).
    WorkerPanic {
        /// The panic message, when it carried one.
        context: String,
    },
    /// [`server::Ticket::wait_timeout`] elapsed before the response arrived.
    /// The ticket is still live: the response can be collected later with
    /// another wait or [`server::Ticket::try_take`].
    WaitTimeout,
    /// The request was routed to a dead replica and no surviving replica
    /// could take the work within the failover retry bounds (see
    /// [`replica::ReplicaSet`]).
    ReplicaDown {
        /// The last replica the dispatch tried.
        replica: usize,
    },
    /// The decode session was evicted under capacity pressure (or by an
    /// explicit eviction request). Its state was snapshotted first:
    /// [`server::Server::resume_session`] continues the sequence
    /// bit-identically from the evicted step.
    Evicted {
        /// The evicted session's id.
        session: u64,
    },
    /// [`server::Server::resume_session`] was asked for a session id with no
    /// parked snapshot — never opened, still live, or already resumed.
    UnknownSession {
        /// The offending session id.
        session: u64,
    },
}

impl fmt::Display for ServingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServingError::UnknownLayer { layer } => {
                write!(f, "layer {layer} is not registered with the serving engine")
            }
            ServingError::KMismatch {
                layer,
                expected,
                got,
            } => write!(
                f,
                "layer {layer} is packed for k={expected} activation rows but the request has {got}"
            ),
            ServingError::Kernel(e) => write!(f, "{e}"),
            ServingError::ShutDown => {
                f.write_str("the serving front-end shut down before executing the request")
            }
            ServingError::Shed => {
                f.write_str("bulk-class request shed by overload protection; resubmit later")
            }
            ServingError::WorkerPanic { context } => {
                write!(f, "worker panicked while serving the request: {context}")
            }
            ServingError::WaitTimeout => {
                f.write_str("timed out waiting for the response; the ticket is still live")
            }
            ServingError::ReplicaDown { replica } => write!(
                f,
                "replica {replica} is down and no surviving replica could take the request"
            ),
            ServingError::Evicted { session } => write!(
                f,
                "decode session {session} was evicted under pressure; resume_session({session}) continues it bit-identically"
            ),
            ServingError::UnknownSession { session } => write!(
                f,
                "no parked snapshot for decode session {session}; it was never opened, is still live, or was already resumed"
            ),
        }
    }
}

impl std::error::Error for ServingError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServingError::Kernel(e) => Some(e),
            _ => None,
        }
    }
}

impl From<KernelError> for ServingError {
    fn from(e: KernelError) -> Self {
        ServingError::Kernel(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_names_the_offence() {
        let e = ServingError::KMismatch {
            layer: 3,
            expected: 128,
            got: 64,
        };
        let s = format!("{e}");
        assert!(s.contains("128") && s.contains("64") && s.contains('3'));
        assert!(format!("{}", ServingError::UnknownLayer { layer: 7 }).contains('7'));
        let k = ServingError::Kernel(KernelError::ShapeMismatch {
            context: "x".into(),
        });
        assert!(std::error::Error::source(&k).is_some());
    }
}
