//! Helpers shared by the serving integration suites.

use shfl_serving::policy::{Fifo, Lpt, QueuePolicy};
use shfl_serving::server::{Request, Response, Server, ServerConfig, Ticket};
use shfl_serving::ServingEngine;
use std::sync::Arc;

/// Serves one batch through a zero-window server over `engine` and returns
/// the responses in request order. The batch is submitted atomically, so the
/// dispatcher plans it in one admission round: with `coalesce`, same-layer
/// requests pack into width-capped fused groups dispatched heaviest-first
/// ([`Lpt`]); without it, every request is its own dispatch in arrival order
/// ([`Fifo`]).
pub fn serve_batch(
    engine: &Arc<ServingEngine>,
    requests: Vec<Request>,
    workers: usize,
    coalesce: bool,
) -> Vec<Response> {
    let policy: Arc<dyn QueuePolicy> = if coalesce {
        Arc::new(Lpt)
    } else {
        Arc::new(Fifo)
    };
    let server = Server::start(
        Arc::clone(engine),
        ServerConfig::new()
            .with_workers(workers)
            .with_admission_window_us(0)
            .with_queue_depth(requests.len())
            .with_coalesce(coalesce)
            .with_policy(policy),
    );
    let tickets = server
        .submit_batch(requests)
        .expect("the queue is sized to the batch");
    let responses = tickets.into_iter().map(Ticket::wait).collect();
    server.shutdown();
    responses
}
