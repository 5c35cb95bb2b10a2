//! Replicated serving tier integration tests (no chaos feature): routing
//! transparency, admin kill/revive failover, graceful degradation, the
//! cross-replica update barrier, and the satellite `wait_timeout` /
//! `class_percentile_ms` hardening. The scripted-fault variants live in
//! `tests/replica_chaos.rs`.

use gpu_sim::GpuArch;
use rand::rngs::StdRng;
use rand::SeedableRng;
use shfl_core::bucket::BucketPolicy;
use shfl_core::formats::{ShflBwMatrix, VectorWiseMatrix};
use shfl_core::matrix::DenseMatrix;
use shfl_core::slo::{SloClass, SloKind};
use shfl_serving::server::{Completion, Server, ServerConfig, ServerStats};
use shfl_serving::Request;
use shfl_serving::{ReplicaConfig, ReplicaSet, ServingEngine, ServingError, UpdateError};
use std::sync::Arc;
use std::time::Duration;

fn engine_with_layers(layers: usize) -> ServingEngine {
    let mut engine =
        ServingEngine::new(GpuArch::t4(), BucketPolicy::new(8, 32).unwrap(), 8 * layers);
    for l in 0..layers {
        let dense = DenseMatrix::from_fn(16, 16, |r, c| {
            if (c + r / 4 + l) % 3 == 0 {
                0.5 + l as f32
            } else {
                0.0
            }
        });
        let weights = ShflBwMatrix::from_dense(&dense, 4).unwrap();
        engine.register_layer(&format!("layer{l}"), weights);
    }
    engine
}

fn bits(m: &DenseMatrix) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// A same-pattern magnitude update of `weights` (the delta re-pack payload).
fn scaled(weights: &ShflBwMatrix, factor: f32) -> ShflBwMatrix {
    let vw = weights.vector_wise();
    let values: Vec<f32> = vw.values().iter().map(|x| x * factor).collect();
    let inner = VectorWiseMatrix::from_parts(
        vw.rows(),
        vw.cols(),
        vw.vector_size(),
        vw.group_ptr().to_vec(),
        vw.col_idx().to_vec(),
        values,
    )
    .unwrap();
    ShflBwMatrix::from_vector_wise(inner, weights.row_indices().to_vec()).unwrap()
}

fn mixed_trace(rng: &mut StdRng, count: u64, layers: usize) -> Vec<Request> {
    (0..count)
        .map(|i| Request {
            id: i,
            layer: (i as usize) % layers,
            activations: DenseMatrix::random(rng, 16, 1 + (i as usize * 5) % 20),
        })
        .collect()
}

#[test]
fn replicated_server_is_bit_identical_to_a_single_engine() {
    let oracle = engine_with_layers(2);
    let mut rng = StdRng::seed_from_u64(9);
    let requests = mixed_trace(&mut rng, 16, 2);
    let expected: Vec<DenseMatrix> = requests
        .iter()
        .map(|r| oracle.execute(r.layer, &r.activations).unwrap())
        .collect();

    let set = ReplicaSet::replicate(&oracle, 3, ReplicaConfig::new());
    let server = Server::start_replicated(
        set,
        ServerConfig::new()
            .with_workers(2)
            .with_admission_window_us(100),
    );
    let classes = [
        SloClass::Standard,
        SloClass::Deadline {
            deadline_us: 500_000,
        },
        SloClass::Standard,
    ];
    let tickets: Vec<_> = requests
        .into_iter()
        .enumerate()
        .map(|(i, r)| {
            server
                .submit_classed(r, classes[i % classes.len()])
                .expect("queue has room")
        })
        .collect();
    for (i, ticket) in tickets.into_iter().enumerate() {
        let got = ticket.wait().result.expect("healthy fleet serves all");
        assert_eq!(
            bits(&got),
            bits(&expected[i]),
            "request {i} must be bit-identical across the replica tier"
        );
    }
    server.drain();
    let stats = server.stats();
    let replicas = stats.replicas;
    assert_eq!(replicas.replicas.len(), 3);
    assert_eq!(replicas.failovers, 0, "no replica died");
    assert_eq!(replicas.degraded_sheds, 0);
    let total: u64 = replicas.replicas.iter().map(|r| r.executes).sum();
    assert!(total > 0, "the tier actually served the trace");
    server.shutdown();
}

#[test]
fn killing_a_replica_fails_over_and_revival_restores_routing() {
    let oracle = engine_with_layers(1);
    let mut rng = StdRng::seed_from_u64(21);
    let requests = mixed_trace(&mut rng, 8, 1);
    let expected: Vec<DenseMatrix> = requests
        .iter()
        .map(|r| oracle.execute(r.layer, &r.activations).unwrap())
        .collect();

    let set = ReplicaSet::replicate(&oracle, 3, ReplicaConfig::new());
    let victim = set.home(0);
    let server = Server::start_replicated(set, ServerConfig::new().with_workers(1));
    server.replica_set().kill_replica(victim);

    let tickets: Vec<_> = requests
        .into_iter()
        .map(|r| server.submit(r).expect("queue has room"))
        .collect();
    for (i, ticket) in tickets.into_iter().enumerate() {
        let got = ticket.wait().result.expect("failover serves every ticket");
        assert_eq!(bits(&got), bits(&expected[i]), "request {i}");
    }
    let replicas = server.stats().replicas;
    assert!(
        replicas.failovers >= 1,
        "routing around the dead home must count as failover, got {replicas:?}"
    );
    assert_eq!(
        replicas.replicas[victim].executes, 0,
        "a dead replica must not serve"
    );

    // Revival puts the home back in rotation.
    server.replica_set().revive_replica(victim);
    let more = mixed_trace(&mut rng, 4, 1);
    let oracle_more: Vec<DenseMatrix> = more
        .iter()
        .map(|r| oracle.execute(r.layer, &r.activations).unwrap())
        .collect();
    let tickets: Vec<_> = more
        .into_iter()
        .map(|mut r| {
            r.id += 100;
            server.submit(r).expect("queue has room")
        })
        .collect();
    for (i, ticket) in tickets.into_iter().enumerate() {
        let got = ticket.wait().result.expect("revived fleet serves");
        assert_eq!(bits(&got), bits(&oracle_more[i]), "post-revive request {i}");
    }
    server.drain();
    let stats = server.stats();
    assert_eq!(stats.completed, stats.submitted);
    let after = stats.replicas;
    assert!(
        after.replicas[victim].executes > 0,
        "the revived home must take its layer back"
    );
    server.shutdown();
}

#[test]
fn degraded_fleet_sheds_bulk_and_keeps_serving_the_rest() {
    let oracle = engine_with_layers(1);
    let mut rng = StdRng::seed_from_u64(33);
    let set = ReplicaSet::replicate(&oracle, 3, ReplicaConfig::new());
    let server = Server::start_replicated(set, ServerConfig::new().with_workers(1));
    // Two of three replicas down: routable fraction 1/3 < the 0.5 default.
    let survivors: Vec<usize> = (0..3).collect();
    server.replica_set().kill_replica(survivors[0]);
    server.replica_set().kill_replica(survivors[1]);

    let acts = DenseMatrix::random(&mut rng, 16, 4);
    let bulk = server
        .submit_classed(
            Request {
                id: 0,
                layer: 0,
                activations: acts.clone(),
            },
            SloClass::Bulk,
        )
        .expect("admission is open");
    let standard = server
        .submit_classed(
            Request {
                id: 1,
                layer: 0,
                activations: acts.clone(),
            },
            SloClass::Standard,
        )
        .expect("admission is open");

    assert!(
        matches!(bulk.wait().result, Err(ServingError::Shed)),
        "bulk must shed when capacity collapses"
    );
    let got = standard.wait().result.expect("standard still serves");
    assert_eq!(bits(&got), bits(&oracle.execute(0, &acts).unwrap()));

    server.drain();
    let replicas = server.stats().replicas;
    assert!(replicas.degraded_sheds >= 1);
    server.shutdown();
}

#[test]
fn update_fan_out_keeps_replica_versions_uniform() {
    let oracle = engine_with_layers(2);
    let new_weights = scaled(&oracle.layer_weights(0).unwrap(), 2.0);
    let set = ReplicaSet::replicate(&oracle, 3, ReplicaConfig::new());
    let server = Server::start_replicated(set, ServerConfig::new().with_workers(2));

    server
        .update_layer(0, new_weights.clone())
        .expect("healthy fleet accepts the fan-out");
    let set = server.replica_set();
    let versions: Vec<u64> = (0..set.len())
        .map(|r| set.engine(r).layer_version(0).unwrap())
        .collect();
    assert!(
        versions.windows(2).all(|w| w[0] == w[1]),
        "fan-out must leave every replica on one version, got {versions:?}"
    );

    // A dead replica refuses the whole fan-out — updates are never applied
    // to a partial fleet.
    set.kill_replica(1);
    let err = server
        .update_layer(0, scaled(&oracle.layer_weights(0).unwrap(), 3.0))
        .expect_err("partial fleets refuse updates");
    assert!(
        matches!(
            err,
            UpdateError::ReplicaDown {
                layer: 0,
                replica: 1
            }
        ),
        "got {err:?}"
    );
    let after: Vec<u64> = (0..set.len())
        .map(|r| set.engine(r).layer_version(0).unwrap())
        .collect();
    assert_eq!(versions, after, "a refused fan-out must change nothing");

    // Traffic keeps flowing on the new weights, bit-identically.
    let mut rng = StdRng::seed_from_u64(4);
    let acts = DenseMatrix::random(&mut rng, 16, 6);
    let want = engine_with_layers(2);
    want.update_layer(0, new_weights).unwrap();
    let ticket = server
        .submit(Request {
            id: 7,
            layer: 0,
            activations: acts.clone(),
        })
        .unwrap();
    let got = ticket.wait().result.expect("updated fleet serves");
    assert_eq!(bits(&got), bits(&want.execute(0, &acts).unwrap()));
    server.shutdown();
}

#[test]
fn partial_fan_out_failure_rolls_back_the_applied_replicas() {
    // Replica 1 deliberately lacks layer 1, so a fan-out for it succeeds on
    // replica 0 and then fails — exercising the undo path.
    let full = Arc::new(engine_with_layers(2));
    let short = Arc::new(engine_with_layers(1));
    let set = ReplicaSet::new(vec![Arc::clone(&full), short], ReplicaConfig::new());

    let oracle = engine_with_layers(2);
    let mut rng = StdRng::seed_from_u64(17);
    let acts = DenseMatrix::random(&mut rng, 16, 5);
    let before = oracle.execute(1, &acts).unwrap();

    let err = set
        .update_layer_all(1, scaled(&oracle.layer_weights(1).unwrap(), 2.0))
        .expect_err("the short replica cannot apply layer 1");
    assert!(
        matches!(err, UpdateError::UnknownLayer { layer: 1 }),
        "got {err:?}"
    );
    // The applied replica was rolled back: it serves the original weights.
    let got = full.execute(1, &acts).unwrap();
    assert_eq!(
        bits(&got),
        bits(&before),
        "a failed fan-out must leave the original weights serving everywhere"
    );
}

#[test]
fn wait_timeout_is_typed_and_leaves_the_ticket_live() {
    let engine = engine_with_layers(1);
    let mut rng = StdRng::seed_from_u64(2);
    let acts = DenseMatrix::random(&mut rng, 16, 3);
    let expected = engine.execute(0, &acts).unwrap();
    // A long admission window holds the response back past the first wait.
    let server = Server::start(
        engine,
        ServerConfig::new()
            .with_workers(1)
            .with_admission_window_us(300_000),
    );
    let ticket = server
        .submit(Request {
            id: 0,
            layer: 0,
            activations: acts,
        })
        .unwrap();
    match ticket.wait_timeout(Duration::from_millis(5)) {
        Err(ServingError::WaitTimeout) => {}
        other => panic!("expected WaitTimeout, got {other:?}"),
    }
    // The ticket stayed live: a later bounded wait collects the response.
    let response = ticket
        .wait_timeout(Duration::from_secs(30))
        .expect("the request still executes after a timed-out wait");
    assert_eq!(bits(&response.result.unwrap()), bits(&expected));
    server.shutdown();
}

#[test]
fn class_percentile_is_none_on_empty_and_clamps_the_argument() {
    let mut stats = ServerStats::default();
    assert_eq!(stats.class_percentile_ms(SloKind::Standard, 0.99), None);

    for (i, total_ms) in [1.0, 2.0, 3.0, 4.0].into_iter().enumerate() {
        stats.completions.push(Completion {
            id: i as u64,
            kind: SloKind::Standard,
            queue_ms: 0.0,
            service_ms: total_ms,
            total_ms,
            deadline_met: None,
        });
    }
    // Out-of-range percentiles clamp instead of indexing out of bounds.
    assert_eq!(stats.class_percentile_ms(SloKind::Standard, 1.7), Some(4.0));
    assert_eq!(
        stats.class_percentile_ms(SloKind::Standard, -0.3),
        Some(1.0)
    );
    assert_eq!(
        stats.class_percentile_ms(SloKind::Standard, f64::NAN),
        Some(1.0)
    );
    assert_eq!(stats.class_percentile_ms(SloKind::Standard, 0.5), Some(2.0));
    // A class with no completions stays `None` even when others have data.
    assert_eq!(stats.class_percentile_ms(SloKind::Bulk, 0.99), None);
}
