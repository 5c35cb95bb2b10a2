//! The replicated serving tier: N data-parallel [`ServingEngine`] replicas
//! behind one [`crate::server::Server`].
//!
//! # Routing
//!
//! Every layer is homed on one replica by a consistent-hash ring
//! ([`crate::router::HashRing`]), so a layer's plans are built once and its
//! plan cache stays warm on its home. When the home's in-flight depth
//! exceeds [`ReplicaConfig::steal_depth`], the dispatch *work-steals* to the
//! least-loaded healthy replica instead (the stolen replica builds the
//! layer's plans on first touch and keeps them — stealing is a deliberate
//! warmth-for-latency trade under load).
//!
//! # Health and failover
//!
//! Each replica carries a health state — [`ReplicaHealth::Healthy`],
//! [`ReplicaHealth::Degraded`], [`ReplicaHealth::Down`] — driven by
//! consecutive-failure counters (execute faults and failed heartbeat
//! probes) and revived by successful probes ([`ReplicaSet::probe`]). `Down`
//! replicas are excluded from routing. A dispatch that hits a dead or
//! faulting replica *fails over*: it retries on the next replica in the
//! ring's candidate order with exponential backoff, bounded per dispatch by
//! [`ReplicaConfig::max_retries`] and globally by
//! [`ReplicaConfig::retry_budget`]. Only replica faults (a down replica, a
//! contained panic) are retried — deterministic request errors
//! (`UnknownLayer`, `KMismatch`, kernel build failures) surface immediately,
//! and **update operations are never retried** (they are not idempotent).
//! Because replicas serve identical weights bit-identically, a failed-over
//! response is indistinguishable from the home replica's.
//!
//! # Hedging and degradation
//!
//! With [`ReplicaConfig::with_hedge_slack_us`] set, a Deadline-class group
//! whose remaining slack has shrunk below the threshold is dispatched to
//! *two* replicas concurrently and the first result wins — bit-identity
//! makes the duplicate execute harmless. When the routable fraction of the
//! fleet drops below [`ReplicaConfig::shed_capacity`], Bulk-class groups
//! are shed with the typed [`ServingError::Shed`] before any replica is
//! touched, preserving the surviving capacity for Deadline and Standard
//! traffic.
//!
//! # The version barrier
//!
//! [`ReplicaSet::update_layer_all`] / [`ReplicaSet::rollback_layer_all`]
//! fan a weight update out to every replica under a per-layer write barrier
//! that excludes group executes for that layer (executes hold the read
//! side). No coalesced group can ever observe two replicas serving
//! different versions of the same layer: the group either runs entirely
//! before the fan-out or entirely after it. A fan-out is refused up front
//! if any replica is down ([`UpdateError::ReplicaDown`]), and a mid-fan-out
//! failure rolls the already-updated replicas back so every replica keeps
//! serving the same weights bit-for-bit.

use crate::engine::{ServingEngine, UpdateError, UpdateReport};
use crate::router::HashRing;
use crate::ServingError;
use shfl_core::formats::ShflBwMatrix;
use shfl_core::matrix::DenseMatrix;
use shfl_core::slo::SloKind;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};
use std::time::{Duration, Instant};

#[cfg(feature = "chaos")]
use crate::chaos::FaultPlan;

/// Exponential backoff between failover retries is capped here (µs).
const BACKOFF_CAP_US: u64 = 5_000;
/// Bounded log of failover service times (for `failover_p99_ms`).
const FAILOVER_LOG_CAP: usize = 4_096;

/// A replica's health as seen by the router.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicaHealth {
    /// Serving normally; routable.
    Healthy,
    /// Consecutive failures at or above
    /// [`ReplicaConfig::degraded_after`]; still routable, one step from
    /// `Down`.
    Degraded,
    /// Killed, or consecutive failures reached
    /// [`ReplicaConfig::down_after`]; excluded from routing until a probe
    /// succeeds or [`ReplicaSet::revive_replica`] runs.
    Down,
}

impl std::fmt::Display for ReplicaHealth {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ReplicaHealth::Healthy => "healthy",
            ReplicaHealth::Degraded => "degraded",
            ReplicaHealth::Down => "down",
        })
    }
}

/// Tuning knobs for a [`ReplicaSet`]. All builders are chainable;
/// [`ReplicaConfig::default`] matches a small same-box fleet.
#[derive(Debug, Clone)]
pub struct ReplicaConfig {
    /// Virtual ring points per replica (routing smoothness).
    pub vnodes: usize,
    /// Consecutive failures that mark a replica `Degraded`.
    pub degraded_after: u32,
    /// Consecutive failures that mark a replica `Down`.
    pub down_after: u32,
    /// Home in-flight depth above which a dispatch work-steals to the
    /// least-loaded healthy replica.
    pub steal_depth: usize,
    /// Failover retries allowed per dispatch.
    pub max_retries: u32,
    /// Total failover retries the set will ever spend (a global budget so a
    /// flapping fleet cannot retry-storm itself).
    pub retry_budget: u64,
    /// First backoff delay (µs); doubles per retry, capped internally.
    pub backoff_base_us: u64,
    /// Hedge Deadline-class groups whose remaining slack (µs) is at or
    /// below this; `None` disables hedging.
    pub hedge_slack_us: Option<u64>,
    /// Shed Bulk groups when the routable fraction of the fleet falls
    /// strictly below this (graceful degradation).
    pub shed_capacity: f64,
}

impl Default for ReplicaConfig {
    fn default() -> Self {
        ReplicaConfig {
            vnodes: 16,
            degraded_after: 1,
            down_after: 3,
            steal_depth: 2,
            max_retries: 4,
            retry_budget: 4_096,
            backoff_base_us: 50,
            hedge_slack_us: None,
            shed_capacity: 0.5,
        }
    }
}

impl ReplicaConfig {
    /// A default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the virtual ring points per replica.
    pub fn with_vnodes(mut self, vnodes: usize) -> Self {
        self.vnodes = vnodes.max(1);
        self
    }

    /// Sets the consecutive-failure thresholds for `Degraded` and `Down`.
    pub fn with_failure_thresholds(mut self, degraded_after: u32, down_after: u32) -> Self {
        self.degraded_after = degraded_after.max(1);
        self.down_after = down_after.max(self.degraded_after);
        self
    }

    /// Sets the work-stealing in-flight depth threshold.
    pub fn with_steal_depth(mut self, steal_depth: usize) -> Self {
        self.steal_depth = steal_depth;
        self
    }

    /// Sets the per-dispatch retry bound and the global retry budget.
    pub fn with_retry_bounds(mut self, max_retries: u32, retry_budget: u64) -> Self {
        self.max_retries = max_retries;
        self.retry_budget = retry_budget;
        self
    }

    /// Sets the first failover backoff delay (µs).
    pub fn with_backoff_base_us(mut self, backoff_base_us: u64) -> Self {
        self.backoff_base_us = backoff_base_us;
        self
    }

    /// Enables hedged dispatch for Deadline groups at or below this slack.
    pub fn with_hedge_slack_us(mut self, hedge_slack_us: u64) -> Self {
        self.hedge_slack_us = Some(hedge_slack_us);
        self
    }

    /// Sets the routable-capacity fraction below which Bulk is shed.
    pub fn with_shed_capacity(mut self, shed_capacity: f64) -> Self {
        self.shed_capacity = shed_capacity.clamp(0.0, 1.0);
        self
    }
}

/// Mutable health state of one replica.
struct HealthState {
    health: ReplicaHealth,
    consecutive_failures: u32,
}

/// One data-parallel engine replica plus its liveness/health bookkeeping.
struct Replica {
    engine: Arc<ServingEngine>,
    /// Admin liveness: flipped by [`ReplicaSet::kill_replica`] /
    /// [`ReplicaSet::revive_replica`] (and the chaos kill/revive fault
    /// points). A dead replica fails every attempt with
    /// [`ServingError::ReplicaDown`].
    alive: AtomicBool,
    state: Mutex<HealthState>,
    /// Dispatches currently executing on this replica (the work-stealing
    /// load signal).
    in_flight: AtomicUsize,
    executes: AtomicU64,
    failures: AtomicU64,
}

/// Aggregate counters of the set (behind one mutex; touched per dispatch).
#[derive(Default)]
struct SetCounters {
    failovers: u64,
    failover_retries: u64,
    hedged_dispatches: u64,
    hedges_won: u64,
    degraded_sheds: u64,
    steals: u64,
    probes: u64,
    probe_failures: u64,
    failover_ms: Vec<f64>,
}

/// A point-in-time snapshot of one replica ([`ReplicaSetStats::replicas`]).
#[derive(Debug, Clone)]
pub struct ReplicaStats {
    /// Admin liveness (false after [`ReplicaSet::kill_replica`]).
    pub alive: bool,
    /// Router-visible health.
    pub health: ReplicaHealth,
    /// Dispatches executing on the replica right now (its queue depth).
    pub in_flight: usize,
    /// Successful executes served.
    pub executes: u64,
    /// Failed attempts charged to this replica.
    pub failures: u64,
    /// The replica's plan-cache hit rate
    /// ([`shfl_kernels::cache::PlanCacheStats::hit_rate`]; 0 when cold).
    pub cache_hit_rate: f64,
}

/// The aggregate stats plane of a [`ReplicaSet`]
/// (surfaced through [`crate::server::ServerStats::replicas`]).
#[derive(Debug, Clone, Default)]
pub struct ReplicaSetStats {
    /// Per-replica snapshots, indexed by replica id.
    pub replicas: Vec<ReplicaStats>,
    /// Dispatches that left their home replica because it was dead or
    /// `Down` (counted once per dispatch).
    pub failovers: u64,
    /// Attempt-level retries after a replica fault.
    pub failover_retries: u64,
    /// Deadline dispatches sent to two replicas at once.
    pub hedged_dispatches: u64,
    /// Hedged dispatches whose alternate replica produced the winning
    /// response.
    pub hedges_won: u64,
    /// Bulk groups shed because routable capacity fell below
    /// [`ReplicaConfig::shed_capacity`].
    pub degraded_sheds: u64,
    /// Dispatches work-stolen off an overloaded (but healthy) home.
    pub steals: u64,
    /// Heartbeat probes run.
    pub probes: u64,
    /// Heartbeat probes that failed.
    pub probe_failures: u64,
    /// Service times (ms) of dispatches that experienced failover (bounded
    /// to the first 4096).
    pub failover_ms: Vec<f64>,
}

impl ReplicaSetStats {
    /// The p99 service time of failed-over dispatches; `None` when no
    /// dispatch failed over.
    pub fn failover_p99_ms(&self) -> Option<f64> {
        if self.failover_ms.is_empty() {
            return None;
        }
        let mut sorted = self.failover_ms.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("failover times are finite"));
        let rank = ((0.99 * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        Some(sorted[rank - 1])
    }
}

/// How a dispatch's target related to its ring home.
enum Pick {
    /// Served on the home replica.
    Home,
    /// Home healthy but over the steal threshold; stolen to a lighter
    /// replica.
    Stolen,
    /// Home dead/down (or already tried and faulted); re-routed clockwise.
    Failover,
}

/// N data-parallel [`ServingEngine`] replicas with consistent-hash routing,
/// health-checked failover, hedged dispatch and barriered update fan-out.
/// See the module docs for semantics.
pub struct ReplicaSet {
    replicas: Vec<Replica>,
    ring: HashRing,
    cfg: ReplicaConfig,
    /// One per layer: executes hold the read side, update fan-outs the
    /// write side (the version barrier).
    barriers: Vec<RwLock<()>>,
    /// Remaining global failover-retry budget.
    retry_budget: AtomicU64,
    counters: Mutex<SetCounters>,
    /// Replica-scoped scripted faults (kill/revive at attempt indices, slow
    /// replicas, probe failures); attached by
    /// [`crate::server::Server::start_replicated`] from the server config.
    #[cfg(feature = "chaos")]
    fault_plan: Option<Arc<FaultPlan>>,
}

impl ReplicaSet {
    /// Builds a set over already-constructed engines. Every engine must
    /// serve the same layer ids with the same shapes (the data-parallel
    /// contract); the first engine is the *primary* whose metadata the
    /// server plans against.
    ///
    /// # Panics
    ///
    /// Panics if `engines` is empty.
    pub fn new(engines: Vec<Arc<ServingEngine>>, cfg: ReplicaConfig) -> Self {
        assert!(
            !engines.is_empty(),
            "a replica set needs at least one engine"
        );
        let layers = engines[0].num_layers();
        let ring = HashRing::new(engines.len(), cfg.vnodes);
        let replicas = engines
            .into_iter()
            .map(|engine| Replica {
                engine,
                alive: AtomicBool::new(true),
                state: Mutex::new(HealthState {
                    health: ReplicaHealth::Healthy,
                    consecutive_failures: 0,
                }),
                in_flight: AtomicUsize::new(0),
                executes: AtomicU64::new(0),
                failures: AtomicU64::new(0),
            })
            .collect();
        ReplicaSet {
            replicas,
            ring,
            retry_budget: AtomicU64::new(cfg.retry_budget),
            cfg,
            barriers: (0..layers).map(|_| RwLock::new(())).collect(),
            counters: Mutex::new(SetCounters::default()),
            #[cfg(feature = "chaos")]
            fault_plan: None,
        }
    }

    /// A single-replica set: what [`crate::server::Server::start`] wraps a
    /// lone engine in.
    pub fn single(engine: Arc<ServingEngine>) -> Self {
        Self::new(vec![engine], ReplicaConfig::default())
    }

    /// Builds `n` fresh replicas mirroring `src`'s registered layers —
    /// same architecture, same per-layer bucket policies, same (currently
    /// published) weights, same plan-cache capacity. Replica versions start
    /// at 0 regardless of `src`'s update history; the *weights* are
    /// bit-identical, which is what serving equivalence needs.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn replicate(src: &ServingEngine, n: usize, cfg: ReplicaConfig) -> Self {
        let engines = (0..n)
            .map(|_| {
                let mut engine =
                    ServingEngine::new(src.arch().clone(), src.policy(), src.cache().capacity());
                for layer in 0..src.num_layers() {
                    let name = src.layer_name(layer).expect("registered layer");
                    let weights = src.layer_weights(layer).expect("registered layer");
                    let policy = src.layer_policy(layer).expect("registered layer");
                    engine.register_layer_with_policy(&name, weights, policy);
                }
                Arc::new(engine)
            })
            .collect();
        Self::new(engines, cfg)
    }

    /// Attaches the scripted replica fault plan (chaos builds only).
    #[cfg(feature = "chaos")]
    pub fn attach_fault_plan(&mut self, plan: Arc<FaultPlan>) {
        self.fault_plan = Some(plan);
    }

    /// Number of replicas in the set.
    pub fn len(&self) -> usize {
        self.replicas.len()
    }

    /// Whether the set is empty (never true — construction requires one).
    pub fn is_empty(&self) -> bool {
        self.replicas.is_empty()
    }

    /// The set's configuration.
    pub fn config(&self) -> &ReplicaConfig {
        &self.cfg
    }

    /// A replica's engine.
    ///
    /// # Panics
    ///
    /// Panics if `replica` is out of range.
    pub fn engine(&self, replica: usize) -> &Arc<ServingEngine> {
        &self.replicas[replica].engine
    }

    /// The primary (replica 0) engine — the metadata source the server
    /// plans groups against, and what [`crate::server::Server::engine`]
    /// returns.
    pub fn primary(&self) -> &Arc<ServingEngine> {
        &self.replicas[0].engine
    }

    /// Marks a replica dead: excluded from routing, every in-flight or
    /// future attempt on it fails with [`ServingError::ReplicaDown`] (and
    /// fails over). The production face of the chaos `kill_replica_at`
    /// fault point — benches and tests script replica loss through it
    /// deterministically.
    ///
    /// # Panics
    ///
    /// Panics if `replica` is out of range.
    pub fn kill_replica(&self, replica: usize) {
        let rep = &self.replicas[replica];
        rep.alive.store(false, Ordering::SeqCst);
        let mut state = rep.state.lock().expect("replica state poisoned");
        state.health = ReplicaHealth::Down;
    }

    /// Revives a killed replica: routable again, health reset to
    /// `Healthy`, failure counter cleared. Its plan cache survives the
    /// outage, so revived traffic is warm immediately.
    ///
    /// # Panics
    ///
    /// Panics if `replica` is out of range.
    pub fn revive_replica(&self, replica: usize) {
        let rep = &self.replicas[replica];
        rep.alive.store(true, Ordering::SeqCst);
        let mut state = rep.state.lock().expect("replica state poisoned");
        state.health = ReplicaHealth::Healthy;
        state.consecutive_failures = 0;
    }

    /// Admin liveness of a replica.
    pub fn is_alive(&self, replica: usize) -> bool {
        self.replicas[replica].alive.load(Ordering::SeqCst)
    }

    /// Router-visible health of a replica.
    pub fn health(&self, replica: usize) -> ReplicaHealth {
        self.replicas[replica]
            .state
            .lock()
            .expect("replica state poisoned")
            .health
    }

    /// Runs one heartbeat probe against a replica. A successful probe
    /// revives a `Degraded`/`Down` (but alive) replica to `Healthy`; a
    /// failed probe counts toward the consecutive-failure thresholds. With
    /// the `chaos` feature, `FaultPlan::fail_probe_at` can fail exact probe
    /// indices.
    pub fn probe(&self, replica: usize) -> bool {
        self.counters().probes += 1;
        #[cfg(feature = "chaos")]
        let scripted_failure = self
            .fault_plan
            .as_ref()
            .is_some_and(|plan| plan.poll_probe());
        #[cfg(not(feature = "chaos"))]
        let scripted_failure = false;
        let ok = !scripted_failure && self.is_alive(replica);
        if ok {
            self.record_success(replica, false);
        } else {
            self.counters().probe_failures += 1;
            self.record_failure(replica);
        }
        ok
    }

    /// Probes every replica; returns how many probes succeeded.
    pub fn probe_all(&self) -> usize {
        (0..self.len()).filter(|&r| self.probe(r)).count()
    }

    /// The ring home of a layer (health-blind; see
    /// [`crate::router::HashRing::home`]).
    pub fn home(&self, layer: usize) -> usize {
        self.ring.home(layer)
    }

    /// Where a dispatch of `layer` would run right now, honoring health
    /// and work stealing; `None` when no replica is routable.
    pub fn route(&self, layer: usize) -> Option<usize> {
        self.select(&self.ring.candidates(layer), &[])
            .map(|(replica, _)| replica)
    }

    /// A point-in-time aggregate stats snapshot.
    pub fn stats(&self) -> ReplicaSetStats {
        let replicas = self
            .replicas
            .iter()
            .map(|rep| {
                let state = rep.state.lock().expect("replica state poisoned");
                let cache = rep.engine.cache_stats();
                let lookups = cache.hits + cache.misses + cache.shared_builds;
                ReplicaStats {
                    alive: rep.alive.load(Ordering::SeqCst),
                    health: state.health,
                    in_flight: rep.in_flight.load(Ordering::SeqCst),
                    executes: rep.executes.load(Ordering::SeqCst),
                    failures: rep.failures.load(Ordering::SeqCst),
                    cache_hit_rate: if lookups == 0 { 0.0 } else { cache.hit_rate() },
                }
            })
            .collect();
        let counters = self.counters();
        ReplicaSetStats {
            replicas,
            failovers: counters.failovers,
            failover_retries: counters.failover_retries,
            hedged_dispatches: counters.hedged_dispatches,
            hedges_won: counters.hedges_won,
            degraded_sheds: counters.degraded_sheds,
            steals: counters.steals,
            probes: counters.probes,
            probe_failures: counters.probe_failures,
            failover_ms: counters.failover_ms.clone(),
        }
    }

    /// Fans a weight update out to every replica under the layer's write
    /// barrier. Refused up front with [`UpdateError::ReplicaDown`] if any
    /// replica is dead — updates are non-idempotent and never retried, so a
    /// partial fleet cannot accept one. On a mid-fan-out failure the
    /// already-updated replicas are rolled back, so every replica keeps
    /// serving the same weights bit-for-bit either way. Returns the primary
    /// replica's report.
    ///
    /// # Errors
    ///
    /// Any [`UpdateError`] from a replica's engine, or
    /// [`UpdateError::ReplicaDown`] when the fleet is not fully alive.
    pub fn update_layer_all(
        &self,
        layer: usize,
        weights: ShflBwMatrix,
    ) -> Result<UpdateReport, UpdateError> {
        self.fan_out(layer, |engine| engine.update_layer(layer, weights.clone()))
    }

    /// Fans a rollback out to every replica under the layer's write
    /// barrier; same preconditions and undo semantics as
    /// [`ReplicaSet::update_layer_all`].
    ///
    /// # Errors
    ///
    /// See [`ReplicaSet::update_layer_all`].
    pub fn rollback_layer_all(&self, layer: usize) -> Result<UpdateReport, UpdateError> {
        self.fan_out(layer, |engine| engine.rollback_layer(layer))
    }

    /// Shared fan-out machinery: barrier, pre-flight liveness, sequential
    /// apply, best-effort undo on partial failure.
    fn fan_out(
        &self,
        layer: usize,
        op: impl Fn(&ServingEngine) -> Result<UpdateReport, UpdateError>,
    ) -> Result<UpdateReport, UpdateError> {
        let _version_gate = self
            .barriers
            .get(layer)
            .ok_or(UpdateError::UnknownLayer { layer })?
            .write()
            .expect("version barrier poisoned");
        for (replica, rep) in self.replicas.iter().enumerate() {
            if !rep.alive.load(Ordering::SeqCst) {
                return Err(UpdateError::ReplicaDown { layer, replica });
            }
        }
        let mut applied: Vec<usize> = Vec::new();
        let mut primary_report: Option<UpdateReport> = None;
        for (replica, rep) in self.replicas.iter().enumerate() {
            match op(&rep.engine) {
                Ok(report) => {
                    applied.push(replica);
                    if primary_report.is_none() {
                        primary_report = Some(report);
                    }
                }
                Err(err) => {
                    // Undo: the replicas that already published move back to
                    // the prior weights (a rollback republishes them under a
                    // fresh version), so the fleet keeps serving one set of
                    // bits even though this fan-out failed.
                    for &done in &applied {
                        let _ = self.replicas[done].engine.rollback_layer(layer);
                    }
                    return Err(err);
                }
            }
        }
        Ok(primary_report.expect("at least one replica"))
    }

    /// Executes a (possibly coalesced) group operand with routing,
    /// failover, hedging and degradation shedding — the one execute path of
    /// the server's workers and the decode-session driver. `fused` selects
    /// the pad-free coalesced-group path; `slack_us` is the group's
    /// remaining deadline slack (hedge trigger).
    pub(crate) fn dispatch(
        &self,
        layer: usize,
        activations: &DenseMatrix,
        fused: bool,
        kind: SloKind,
        slack_us: Option<u64>,
    ) -> Result<(DenseMatrix, f64), ServingError> {
        let _version_gate = match self.barriers.get(layer) {
            Some(barrier) => barrier.read().expect("version barrier poisoned"),
            None => return Err(ServingError::UnknownLayer { layer }),
        };
        if kind == SloKind::Bulk && self.len() > 1 {
            let fraction = self.routable_count() as f64 / self.len() as f64;
            if fraction < self.cfg.shed_capacity {
                self.counters().degraded_sheds += 1;
                return Err(ServingError::Shed);
            }
        }
        let order = self.ring.candidates(layer);
        let hedge = kind == SloKind::Deadline
            && self
                .cfg
                .hedge_slack_us
                .is_some_and(|h| slack_us.is_some_and(|s| s <= h));
        let start = Instant::now();
        let mut banned: Vec<usize> = Vec::new();
        let mut counted_steal = false;
        let mut counted_failover = false;
        let mut retries = 0u32;
        let mut last: Option<ServingError> = None;
        loop {
            let Some((target, pick)) = self.select(&order, &banned) else {
                return Err(last.unwrap_or(ServingError::ReplicaDown { replica: order[0] }));
            };
            match pick {
                Pick::Home => {}
                Pick::Stolen => {
                    if !counted_steal {
                        self.counters().steals += 1;
                        counted_steal = true;
                    }
                }
                Pick::Failover => {
                    if !counted_failover {
                        self.counters().failovers += 1;
                        counted_failover = true;
                    }
                }
            }

            // First attempt of a slack-critical Deadline group: hedge onto
            // an alternate replica; the first success wins either way.
            let outcome = if hedge && retries == 0 && banned.is_empty() {
                if let Some(alt) = order
                    .iter()
                    .copied()
                    .find(|&r| r != target && self.routable(r))
                {
                    self.counters().hedged_dispatches += 1;
                    self.hedged_attempt(target, alt, layer, activations, fused)
                } else {
                    self.attempt(target, layer, activations, fused)
                }
            } else {
                self.attempt(target, layer, activations, fused)
            };

            match outcome {
                Ok(result) => {
                    if counted_failover {
                        let counters = &mut *self.counters();
                        if counters.failover_ms.len() < FAILOVER_LOG_CAP {
                            counters
                                .failover_ms
                                .push(start.elapsed().as_secs_f64() * 1e3);
                        }
                    }
                    return Ok(result);
                }
                Err(err) if is_replica_fault(&err) => {
                    self.record_failure(target);
                    banned.push(target);
                    last = Some(err);
                    if retries >= self.cfg.max_retries || !self.take_retry_token() {
                        return Err(last.expect("just set"));
                    }
                    retries += 1;
                    self.counters().failover_retries += 1;
                    let delay =
                        (self.cfg.backoff_base_us << (retries - 1).min(6)).min(BACKOFF_CAP_US);
                    if delay > 0 {
                        std::thread::sleep(Duration::from_micros(delay));
                    }
                }
                // Deterministic request errors (unknown layer, k mismatch,
                // kernel build failures) would fail identically on every
                // replica — surface immediately, never retry.
                Err(err) => return Err(err),
            }
        }
    }

    /// One execute attempt on one replica: chaos poll, liveness check,
    /// in-flight accounting, panic containment.
    fn attempt(
        &self,
        replica: usize,
        layer: usize,
        activations: &DenseMatrix,
        fused: bool,
    ) -> Result<(DenseMatrix, f64), ServingError> {
        #[cfg(feature = "chaos")]
        if let Some(plan) = &self.fault_plan {
            let fault = plan.poll_replica_attempt(replica);
            for kill in fault.kills {
                if kill < self.len() {
                    self.kill_replica(kill);
                }
            }
            for revive in fault.revives {
                if revive < self.len() {
                    self.revive_replica(revive);
                }
            }
            if let Some(stall) = fault.stall {
                std::thread::sleep(stall);
            }
        }
        let rep = &self.replicas[replica];
        if !rep.alive.load(Ordering::SeqCst) {
            return Err(ServingError::ReplicaDown { replica });
        }
        rep.in_flight.fetch_add(1, Ordering::SeqCst);
        let engine = &rep.engine;
        let result = catch_unwind(AssertUnwindSafe(|| {
            if fused {
                engine.execute_group_profiled(layer, activations)
            } else {
                engine.execute_profiled(layer, activations)
            }
        }));
        rep.in_flight.fetch_sub(1, Ordering::SeqCst);
        match result {
            Ok(Ok(output)) => {
                self.record_success(replica, true);
                Ok(output)
            }
            // Typed engine errors are deterministic request errors, not
            // replica faults — the replica's health is not charged.
            Ok(Err(err)) => Err(err),
            Err(payload) => Err(ServingError::WorkerPanic {
                context: format!(
                    "replica {replica}: {}",
                    crate::server::panic_message(payload.as_ref())
                ),
            }),
        }
    }

    /// Runs the attempt on `primary` and `alt` concurrently; the first
    /// success wins (bit-identity makes the duplicate harmless). Falls back
    /// to whichever succeeded when the other faulted.
    fn hedged_attempt(
        &self,
        primary: usize,
        alt: usize,
        layer: usize,
        activations: &DenseMatrix,
        fused: bool,
    ) -> Result<(DenseMatrix, f64), ServingError> {
        let winner = AtomicUsize::new(usize::MAX);
        let (primary_result, alt_result) = std::thread::scope(|scope| {
            let alt_handle = scope.spawn(|| {
                let result = self.attempt(alt, layer, activations, fused);
                if result.is_ok() {
                    let _ =
                        winner.compare_exchange(usize::MAX, 1, Ordering::SeqCst, Ordering::SeqCst);
                }
                result
            });
            let primary_result = self.attempt(primary, layer, activations, fused);
            if primary_result.is_ok() {
                let _ = winner.compare_exchange(usize::MAX, 0, Ordering::SeqCst, Ordering::SeqCst);
            }
            let alt_result = alt_handle.join().unwrap_or_else(|_| {
                Err(ServingError::WorkerPanic {
                    context: "hedge thread panicked".to_string(),
                })
            });
            (primary_result, alt_result)
        });
        let alt_won = winner.load(Ordering::SeqCst) == 1;
        match (primary_result, alt_result) {
            (Ok(primary_out), Ok(alt_out)) => {
                if alt_won {
                    self.counters().hedges_won += 1;
                    Ok(alt_out)
                } else {
                    Ok(primary_out)
                }
            }
            (Ok(primary_out), Err(_)) => Ok(primary_out),
            (Err(_), Ok(alt_out)) => {
                self.counters().hedges_won += 1;
                Ok(alt_out)
            }
            (Err(primary_err), Err(_)) => Err(primary_err),
        }
    }

    /// Whether a replica may receive traffic.
    fn routable(&self, replica: usize) -> bool {
        let rep = &self.replicas[replica];
        rep.alive.load(Ordering::SeqCst)
            && rep.state.lock().expect("replica state poisoned").health != ReplicaHealth::Down
    }

    fn routable_count(&self) -> usize {
        (0..self.len()).filter(|&r| self.routable(r)).count()
    }

    /// Picks the dispatch target: the first routable, non-banned candidate
    /// in ring order, work-stealing off it when it is over the steal
    /// threshold and a strictly lighter routable replica exists.
    fn select(&self, order: &[usize], banned: &[usize]) -> Option<(usize, Pick)> {
        let usable = |r: usize| !banned.contains(&r) && self.routable(r);
        let first = order.iter().copied().find(|&r| usable(r))?;
        let pick = if first == order[0] {
            Pick::Home
        } else {
            Pick::Failover
        };
        let first_load = self.replicas[first].in_flight.load(Ordering::SeqCst);
        if first_load > self.cfg.steal_depth {
            if let Some(lighter) = order
                .iter()
                .copied()
                .filter(|&r| r != first && usable(r))
                .min_by_key(|&r| self.replicas[r].in_flight.load(Ordering::SeqCst))
            {
                if self.replicas[lighter].in_flight.load(Ordering::SeqCst) < first_load {
                    return Some((lighter, Pick::Stolen));
                }
            }
        }
        Some((first, pick))
    }

    fn record_success(&self, replica: usize, count_execute: bool) {
        let rep = &self.replicas[replica];
        if count_execute {
            rep.executes.fetch_add(1, Ordering::SeqCst);
        }
        let mut state = rep.state.lock().expect("replica state poisoned");
        state.consecutive_failures = 0;
        state.health = ReplicaHealth::Healthy;
    }

    fn record_failure(&self, replica: usize) {
        let rep = &self.replicas[replica];
        rep.failures.fetch_add(1, Ordering::SeqCst);
        let mut state = rep.state.lock().expect("replica state poisoned");
        state.consecutive_failures = state.consecutive_failures.saturating_add(1);
        if state.consecutive_failures >= self.cfg.down_after {
            state.health = ReplicaHealth::Down;
        } else if state.consecutive_failures >= self.cfg.degraded_after {
            state.health = ReplicaHealth::Degraded;
        }
    }

    /// Takes one token from the global retry budget; false when exhausted.
    fn take_retry_token(&self) -> bool {
        self.retry_budget
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |budget| {
                budget.checked_sub(1)
            })
            .is_ok()
    }

    fn counters(&self) -> MutexGuard<'_, SetCounters> {
        self.counters.lock().expect("replica counters poisoned")
    }
}

/// Whether an error is a replica fault (retryable on another replica)
/// rather than a deterministic request error.
fn is_replica_fault(err: &ServingError) -> bool {
    matches!(
        err,
        ServingError::ReplicaDown { .. } | ServingError::WorkerPanic { .. }
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::GpuArch;
    use shfl_core::bucket::BucketPolicy;
    use shfl_core::matrix::DenseMatrix;

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

    #[test]
    fn dispatch_matches_the_source_engine_bit_for_bit() {
        let src = engine_with_layers(2);
        let set = ReplicaSet::replicate(&src, 3, ReplicaConfig::default());
        let acts = DenseMatrix::from_fn(16, 7, |r, c| (r * 7 + c) as f32 * 0.25 - 3.0);
        for layer in 0..2 {
            let want = src.execute(layer, &acts).unwrap();
            let (got, _) = set
                .dispatch(layer, &acts, false, SloKind::Standard, None)
                .unwrap();
            assert_eq!(bits(&got), bits(&want));
        }
        assert_eq!(set.stats().failovers, 0);
    }

    #[test]
    fn killing_the_home_reroutes_and_counts_a_failover() {
        let src = engine_with_layers(1);
        let set = ReplicaSet::replicate(&src, 3, ReplicaConfig::default());
        let home = set.home(0);
        set.kill_replica(home);
        let acts = DenseMatrix::from_fn(16, 5, |r, c| (r + c) as f32);
        let want = src.execute(0, &acts).unwrap();
        let (got, _) = set
            .dispatch(0, &acts, false, SloKind::Standard, None)
            .unwrap();
        assert_eq!(bits(&got), bits(&want));
        let stats = set.stats();
        assert_eq!(stats.failovers, 1);
        assert!(stats.failover_p99_ms().is_some());
        set.revive_replica(home);
        assert_eq!(set.health(home), ReplicaHealth::Healthy);
    }

    #[test]
    fn overloaded_home_is_stolen_from() {
        let src = engine_with_layers(1);
        let set = ReplicaSet::replicate(&src, 2, ReplicaConfig::default().with_steal_depth(0));
        let home = set.home(0);
        // Fake a deep in-flight queue on the home replica.
        set.replicas[home].in_flight.store(4, Ordering::SeqCst);
        let routed = set.route(0).unwrap();
        assert_ne!(routed, home, "an overloaded home must be stolen from");
        let acts = DenseMatrix::from_fn(16, 5, |r, c| (r + c) as f32);
        let want = src.execute(0, &acts).unwrap();
        let (got, _) = set
            .dispatch(0, &acts, false, SloKind::Standard, None)
            .unwrap();
        assert_eq!(bits(&got), bits(&want));
        let stats = set.stats();
        assert_eq!(stats.steals, 1);
        assert_eq!(stats.failovers, 0);
    }

    #[test]
    fn degraded_capacity_sheds_bulk_only() {
        let src = engine_with_layers(1);
        let set = ReplicaSet::replicate(&src, 3, ReplicaConfig::default());
        set.kill_replica(0);
        set.kill_replica(1);
        let acts = DenseMatrix::from_fn(16, 5, |r, c| (r + c) as f32);
        // 1/3 routable < 0.5 → Bulk sheds, Standard still serves.
        assert!(matches!(
            set.dispatch(0, &acts, false, SloKind::Bulk, None),
            Err(ServingError::Shed)
        ));
        assert!(set
            .dispatch(0, &acts, false, SloKind::Standard, None)
            .is_ok());
        assert_eq!(set.stats().degraded_sheds, 1);
    }

    #[test]
    fn all_replicas_down_surfaces_replica_down() {
        let src = engine_with_layers(1);
        let set = ReplicaSet::replicate(&src, 2, ReplicaConfig::default());
        set.kill_replica(0);
        set.kill_replica(1);
        let acts = DenseMatrix::from_fn(16, 5, |r, c| (r + c) as f32);
        assert!(matches!(
            set.dispatch(0, &acts, false, SloKind::Standard, None),
            Err(ServingError::ReplicaDown { .. })
        ));
    }

    #[test]
    fn probes_drive_health_down_and_back_up() {
        let src = engine_with_layers(1);
        let set = ReplicaSet::replicate(
            &src,
            2,
            ReplicaConfig::default().with_failure_thresholds(1, 2),
        );
        set.kill_replica(1);
        assert!(!set.probe(1));
        assert!(!set.probe(1));
        assert_eq!(set.health(1), ReplicaHealth::Down);
        set.revive_replica(1);
        assert!(set.probe(1));
        assert_eq!(set.health(1), ReplicaHealth::Healthy);
        let stats = set.stats();
        assert_eq!(stats.probes, 3);
        assert_eq!(stats.probe_failures, 2);
    }

    #[test]
    fn fan_out_requires_a_fully_alive_fleet() {
        let src = engine_with_layers(1);
        let set = ReplicaSet::replicate(&src, 2, ReplicaConfig::default());
        set.kill_replica(1);
        let weights = src.layer_weights(0).unwrap();
        match set.update_layer_all(0, weights) {
            Err(UpdateError::ReplicaDown {
                layer: 0,
                replica: 1,
            }) => {}
            other => panic!("expected a replica-down refusal, got {other:?}"),
        }
        for r in 0..2 {
            assert_eq!(set.engine(r).layer_version(0).unwrap(), 0);
        }
    }
}
