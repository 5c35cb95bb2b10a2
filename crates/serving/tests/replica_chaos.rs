//! Chaos tests for the replicated serving tier (`--features chaos`):
//! scripted replica kills/revivals at exact attempt indices, scripted probe
//! failures walking the health ladder, a slowed home losing a hedge race,
//! and the version barrier under coalesced traffic. The headline property —
//! every accepted ticket resolves, and every success is bit-identical to the
//! fault-free single-engine oracle — is checked both on a hand-picked
//! schedule and under a proptest sweep of kill/revive points.
#![cfg(feature = "chaos")]

use gpu_sim::GpuArch;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use shfl_core::bucket::BucketPolicy;
use shfl_core::formats::{ShflBwMatrix, VectorWiseMatrix};
use shfl_core::matrix::DenseMatrix;
use shfl_core::slo::SloClass;
use shfl_serving::chaos::FaultPlan;
use shfl_serving::server::{Server, ServerConfig};
use shfl_serving::Request;
use shfl_serving::{HashRing, ReplicaConfig, ReplicaHealth, ReplicaSet, ServingEngine};
use std::sync::Arc;

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

/// A scripted kill of the home replica mid-trace, then a scripted revival:
/// the failed attempt retries onto a survivor, later dispatches route around
/// the corpse, and everything stays bit-identical to the fault-free oracle.
#[test]
fn scripted_kill_and_revive_mid_trace_resolves_every_ticket() {
    let oracle = engine_with_layers(1);
    let mut rng = StdRng::seed_from_u64(5);
    let requests: Vec<Request> = (0..8)
        .map(|i| Request {
            id: i,
            layer: 0,
            activations: DenseMatrix::random(&mut rng, 16, 1 + (i as usize * 5) % 20),
        })
        .collect();
    let expected: Vec<DenseMatrix> = requests
        .iter()
        .map(|r| oracle.execute(r.layer, &r.activations).unwrap())
        .collect();

    let set = ReplicaSet::replicate(&oracle, 3, ReplicaConfig::new());
    let victim = set.home(0);
    // Attempt 3 kills the home at the start of its own execute (the attempt
    // fails and retries onto a survivor); attempt 6 revives it.
    let plan = Arc::new(
        FaultPlan::new()
            .kill_replica_at(3, victim)
            .revive_replica_at(6, victim),
    );
    let server = Server::start_replicated(
        set,
        ServerConfig::new()
            .with_workers(1)
            .with_coalesce(false)
            .with_fault_plan(Arc::clone(&plan)),
    );
    let tickets: Vec<_> = requests
        .into_iter()
        .map(|r| server.submit(r).expect("queue has room"))
        .collect();
    for (i, ticket) in tickets.into_iter().enumerate() {
        let got = ticket
            .wait()
            .result
            .unwrap_or_else(|e| panic!("request {i} must fail over, got {e}"));
        assert_eq!(bits(&got), bits(&expected[i]), "request {i}");
    }
    server.drain();
    let stats = server.stats();
    assert_eq!(stats.completed, stats.submitted);
    let replicas = stats.replicas;
    assert!(
        replicas.failover_retries >= 1,
        "the killed attempt must retry, got {replicas:?}"
    );
    assert!(replicas.failovers >= 1, "got {replicas:?}");
    assert!(
        replicas.failover_p99_ms().is_some(),
        "failed-over dispatches must record their wall clock"
    );
    assert!(plan.attempts_seen() >= 8, "every dispatch polls the plan");
    server.shutdown();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The satellite property: under *any* scripted kill point, victim, and
    /// revival offset, a trace served by the replicated tier resolves every
    /// accepted ticket with output bit-identical to the fault-free
    /// single-engine oracle.
    #[test]
    fn scripted_replica_loss_stays_bit_identical(
        (kill_at, victim, revive_after) in (0u64..12, 0usize..3, 1u64..6)
    ) {
        let oracle = engine_with_layers(2);
        let mut rng = StdRng::seed_from_u64(kill_at ^ (victim as u64) << 8);
        let requests: Vec<Request> = (0..10)
            .map(|i| Request {
                id: i,
                layer: (i % 2) as usize,
                activations: DenseMatrix::random(&mut rng, 16, 1 + (i as usize * 5) % 20),
            })
            .collect();
        let expected: Vec<DenseMatrix> = requests
            .iter()
            .map(|r| oracle.execute(r.layer, &r.activations).unwrap())
            .collect();

        let set = ReplicaSet::replicate(&oracle, 3, ReplicaConfig::new());
        let plan = Arc::new(
            FaultPlan::new()
                .kill_replica_at(kill_at, victim)
                .revive_replica_at(kill_at + revive_after, victim),
        );
        let server = Server::start_replicated(
            set,
            ServerConfig::new()
                .with_workers(1)
                .with_coalesce(false)
                .with_fault_plan(plan),
        );
        let classes = [
            SloClass::Standard,
            SloClass::Deadline { deadline_us: 500_000 },
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
            let response = ticket.wait();
            let got = match response.result {
                Ok(got) => got,
                Err(e) => panic!("request {i} must survive the replica loss, got {e}"),
            };
            prop_assert_eq!(bits(&got), bits(&expected[i]), "request {}", i);
        }
        server.drain();
        let stats = server.stats();
        prop_assert_eq!(stats.completed, stats.submitted);
        server.shutdown();
    }
}

/// Scripted probe failures drive Healthy → Degraded → Down; the first clean
/// probe restores a living replica to Healthy.
#[test]
fn scripted_probe_failures_walk_the_health_ladder() {
    let oracle = engine_with_layers(1);
    let mut set = ReplicaSet::replicate(
        &oracle,
        2,
        ReplicaConfig::new().with_failure_thresholds(1, 2),
    );
    set.attach_fault_plan(Arc::new(FaultPlan::new().fail_probe_at(0).fail_probe_at(1)));

    assert_eq!(set.health(1), ReplicaHealth::Healthy);
    assert!(!set.probe(1), "probe 0 is scripted to fail");
    assert_eq!(set.health(1), ReplicaHealth::Degraded);
    assert!(!set.probe(1), "probe 1 is scripted to fail");
    assert_eq!(set.health(1), ReplicaHealth::Down);
    // The replica is still alive — the next clean probe revives it.
    assert!(set.probe(1));
    assert_eq!(set.health(1), ReplicaHealth::Healthy);

    let stats = set.stats();
    assert_eq!(stats.probes, 3);
    assert_eq!(stats.probe_failures, 2);
}

/// A slowed home replica loses the hedge race: the deadline-class dispatch
/// fires on both the home and the alternate, the fast alternate's output
/// wins, and the result is still bit-identical.
#[test]
fn slow_home_loses_the_hedge_race() {
    let oracle = engine_with_layers(1);
    let mut rng = StdRng::seed_from_u64(13);
    let acts = DenseMatrix::random(&mut rng, 16, 6);
    let expected = oracle.execute(0, &acts).unwrap();

    // The ring is deterministic, so the home of layer 0 is known before the
    // set exists (default config: 16 virtual nodes per replica).
    let home = HashRing::new(2, 16).home(0);
    let set = ReplicaSet::replicate(
        &oracle,
        2,
        ReplicaConfig::new().with_hedge_slack_us(u64::MAX),
    );
    assert_eq!(set.home(0), home);
    let plan = Arc::new(FaultPlan::new().slow_replica(home, 30_000));
    let server = Server::start_replicated(
        set,
        ServerConfig::new().with_workers(1).with_fault_plan(plan),
    );
    let ticket = server
        .submit_classed(
            Request {
                id: 0,
                layer: 0,
                activations: acts,
            },
            SloClass::Deadline {
                deadline_us: 10_000_000,
            },
        )
        .expect("queue has room");
    let got = ticket.wait().result.expect("hedged dispatch serves");
    assert_eq!(bits(&got), bits(&expected));
    server.drain();
    let replicas = server.stats().replicas;
    assert!(replicas.hedged_dispatches >= 1, "got {replicas:?}");
    assert!(
        replicas.hedges_won >= 1,
        "the 30 ms stall must lose to the fast alternate, got {replicas:?}"
    );
    server.shutdown();
}

/// The version barrier under coalesced traffic: a fan-out update lands
/// between waves, every response matches the old **or** new oracle (never a
/// mix within a group), and the replicas finish on one uniform version.
#[test]
fn barriered_fan_out_keeps_coalesced_groups_on_one_version() {
    let oracle_old = engine_with_layers(1);
    let new_weights = scaled(&oracle_old.layer_weights(0).unwrap(), 2.0);
    let oracle_new = engine_with_layers(1);
    oracle_new.update_layer(0, new_weights.clone()).unwrap();

    let set = ReplicaSet::replicate(&oracle_old, 3, ReplicaConfig::new());
    let server = Server::start_replicated(
        set,
        ServerConfig::new()
            .with_workers(2)
            .with_admission_window_us(200),
    );
    let mut rng = StdRng::seed_from_u64(29);
    let mut tickets = Vec::new();
    let mut operands = Vec::new();
    for i in 0..6u64 {
        let acts = DenseMatrix::random(&mut rng, 16, 1 + (i as usize * 3) % 12);
        tickets.push(
            server
                .submit(Request {
                    id: i,
                    layer: 0,
                    activations: acts.clone(),
                })
                .expect("queue has room"),
        );
        operands.push(acts);
    }
    // The update races the wave: the barrier serialises it against every
    // in-flight dispatch for the layer.
    server.update_layer(0, new_weights).expect("healthy fleet");
    for i in 6..12u64 {
        let acts = DenseMatrix::random(&mut rng, 16, 1 + (i as usize * 3) % 12);
        tickets.push(
            server
                .submit(Request {
                    id: i,
                    layer: 0,
                    activations: acts.clone(),
                })
                .expect("queue has room"),
        );
        operands.push(acts);
    }
    for (i, ticket) in tickets.into_iter().enumerate() {
        let got = ticket.wait().result.expect("every ticket resolves");
        let old = oracle_old.execute(0, &operands[i]).unwrap();
        let new = oracle_new.execute(0, &operands[i]).unwrap();
        let got_bits = bits(&got);
        assert!(
            got_bits == bits(&old) || got_bits == bits(&new),
            "request {i} must match exactly one published version"
        );
    }
    server.drain();
    let set = server.replica_set();
    let versions: Vec<u64> = (0..set.len())
        .map(|r| set.engine(r).layer_version(0).unwrap())
        .collect();
    assert!(
        versions.windows(2).all(|w| w[0] == w[1]),
        "the fleet must finish on one version, got {versions:?}"
    );
    server.shutdown();
}
