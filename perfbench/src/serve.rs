//! `transformer-serve`: an open loop at [`RATE_PER_S`] independent
//! single-layer requests against the Transformer's linear layers, widths
//! drawn from 1…64, classes mixed across Deadline, Standard and Bulk, on a
//! one-worker server with an admission window, coalescing and SLO-aware
//! dispatch. A second thread publishes a same-pattern magnitude update to
//! `encoder.attn.out` about once a second, alternating with a rollback, so
//! writes run beside reads.
//!
//! Why: admission, coalescing, SLO policy, plan-cache bucket lookups, stats
//! recording and the update path do the work, while convolution and
//! sessions see none of it; a change that speeds updates at the expense of
//! reads (or the reverse) shows here.

use crate::common::{self, Opts, SetupTimes, UpdateLog};
use crate::openloop::{self, Schedule};
use crate::report::Report;
use crate::stats;
use crate::trace::{self, Tracer};
use gpu_sim::GpuArch;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use shfl_core::matrix::DenseMatrix;
use shfl_core::slo::SloClass;
use shfl_models::engine::ModelEngine;
use shfl_models::DnnModel;
use shfl_serving::{Request, ServerConfig, SloAware, Ticket};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Offered load: about half of what one worker sustains on a quiet 2-core
/// host.
pub const RATE_PER_S: f64 = 200.0;

/// Admission window of the server, µs.
const WINDOW_US: u64 = 500;

/// Widest request, columns.
const MAX_WIDTH: usize = 64;

/// Width strata: every layer gets one operand per stratum of
/// `MAX_WIDTH / STRATA` widths, so the seed moves operand values and exact
/// widths but not the mix of layer shapes and widths the server sees.
const STRATA: usize = 8;

/// Deadline-class budget, µs.
const DEADLINE_US: u64 = 10_000;

/// The layer the update thread rewrites.
const UPDATE_LAYER: &str = "encoder.attn.out";

/// Longest the generator sleeps between polls of outstanding tickets.
const POLL: Duration = Duration::from_micros(100);

/// Requests still outstanding this long after the window count as failed.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(20);

/// `Server::stats()` calls timed after the window.
const SNAPSHOTS: usize = 5;

/// Buckets warmed per layer: every width a request or a coalesced group can
/// execute on.
const WARM_WIDTHS: [usize; 6] = [8, 16, 32, 64, 128, 256];

fn class_of(draw: u32) -> SloClass {
    match draw % 4 {
        0 => SloClass::Deadline {
            deadline_us: DEADLINE_US,
        },
        1 => SloClass::Standard,
        _ => SloClass::Bulk,
    }
}

struct Operand {
    layer: usize,
    activations: DenseMatrix,
}

struct Outstanding {
    ticket: Ticket,
    index: u64,
    operand: usize,
    due: Duration,
}

/// One completed request.
struct Done {
    operand: usize,
    /// Fingerprint of the output, `None` on a typed error.
    output: Option<u64>,
    due: Duration,
    latency_ms: f64,
    service_ms: f64,
    /// Whether it was sent in a traced second.
    traced: bool,
}

/// Runs the workload.
pub fn run(opts: &Opts, tracer: Option<&Tracer>) -> Result<Report, String> {
    let arch = GpuArch::v100();
    let cfg = common::engine_config(opts.seed);
    let ((engine, server), setup_s, setup) = common::repeat_setup(|| {
        let start = Instant::now();
        let engine = ModelEngine::build(DnnModel::Transformer, &arch, &cfg)
            .map_err(|e| format!("engine build: {e}"))?;
        let built = Instant::now();
        for layer in engine.gemm_layer_indices() {
            for width in WARM_WIDTHS {
                engine
                    .serving()
                    .warm(layer, width)
                    .map_err(|e| format!("warm-up: {e}"))?;
            }
        }
        let server = engine.server(
            ServerConfig::new()
                .with_workers(1)
                .with_admission_window_us(WINDOW_US)
                .with_policy(Arc::new(SloAware)),
        );
        let warmed = Instant::now();
        if let Some(t) = tracer {
            t.record("setup.build", None, 0, start, built);
            t.record("setup.warm", None, 0, built, warmed);
        }
        Ok((
            (engine, server),
            SetupTimes {
                build_s: (built - start).as_secs_f64(),
                warm_s: (warmed - built).as_secs_f64(),
            },
        ))
    })?;

    let serving = engine.serving();
    let update_layer = serving
        .layer_index(UPDATE_LAYER)
        .ok_or("the update layer is registered")?;
    let original = serving
        .layer_weights(update_layer)
        .map_err(|e| e.to_string())?;
    let doubled = common::scaled(&original, 2.0)?;
    common::warm_update_path(
        || server.update_layer(update_layer, doubled.clone()),
        || server.rollback_layer(update_layer),
    )?;

    // Operand pool and request mix, all from the workload seed. Each
    // operand is checked against the cold oracle under both weight versions.
    let mut rng = StdRng::seed_from_u64(common::mix(opts.seed, 5));
    let stratum = MAX_WIDTH / STRATA;
    let mut pool = Vec::new();
    for layer in engine.gemm_layer_indices() {
        let k = serving.layer_k(layer).map_err(|e| e.to_string())?;
        for s in 0..STRATA {
            let width = s * stratum + rng.gen_range(1..stratum + 1);
            pool.push(Operand {
                layer,
                activations: DenseMatrix::random(&mut rng, k, width),
            });
        }
    }
    let mut schedule = Schedule::new(RATE_PER_S);
    let total = schedule.due_before(opts.window);
    let mix: Vec<(usize, SloClass)> = (0..total)
        .map(|_| (rng.gen_range(0..pool.len()), class_of(rng.gen::<u32>())))
        .collect();
    let traced_second = |due: Duration| tracer.is_some() && due.as_secs().is_multiple_of(2);

    let mut report = Report::default();
    let serving_before = serving.stats();
    let mut done: Vec<Done> = Vec::with_capacity(total as usize);
    let mut doubled_live = false;
    let mut updates = UpdateLog::default();
    let mut last_completion = Duration::ZERO;
    let window_start = Instant::now();
    std::thread::scope(|s| -> Result<(), String> {
        let updater = s.spawn(|| {
            let mut log = UpdateLog::default();
            let mut published = false;
            for tick in 1..=common::update_ticks(opts.window) {
                let due = common::UPDATE_EVERY * tick;
                std::thread::sleep(due.saturating_sub(window_start.elapsed()));
                let start = Instant::now();
                let span = if published {
                    log.time(|| server.rollback_layer(update_layer));
                    "server.rollback_layer"
                } else {
                    let weights = doubled.clone();
                    log.time(|| server.update_layer(update_layer, weights));
                    "server.update_layer"
                };
                if let Some(t) = tracer.filter(|_| traced_second(due)) {
                    t.record(span, None, u64::from(tick), start, Instant::now());
                }
                published = !published;
            }
            (log, published)
        });

        let mut outstanding: Vec<Outstanding> = Vec::new();
        let mut next = 0u64;
        let mut pending = mix.first().map(|&(op, _)| build(&pool, op, 0));
        loop {
            let now = window_start.elapsed();
            while next < total && schedule.due(next) <= now {
                let (operand, class) = mix[next as usize];
                let request = pending.take().expect("the next request is built ahead");
                let due = schedule.due(next);
                let t = tracer.filter(|_| traced_second(due));
                let submitted = trace::span(
                    t,
                    || "server.submit".into(),
                    None,
                    next,
                    || server.submit_classed(request, class),
                );
                schedule.record_send(next, window_start.elapsed());
                report.attempted += 1;
                match submitted {
                    Ok(ticket) => outstanding.push(Outstanding {
                        ticket,
                        index: next,
                        operand,
                        due,
                    }),
                    Err(_) => report.failed += 1,
                }
                next += 1;
                pending = mix
                    .get(next as usize)
                    .map(|&(op, _)| build(&pool, op, next));
            }
            outstanding.retain(|o| {
                let Some(response) = o.ticket.try_take() else {
                    return true;
                };
                let completed = window_start.elapsed();
                last_completion = completed;
                let traced = traced_second(o.due);
                if let Some(t) = tracer.filter(|_| traced) {
                    t.record(
                        "server.request",
                        None,
                        o.index,
                        window_start + o.due,
                        window_start + completed,
                    );
                }
                done.push(Done {
                    operand: o.operand,
                    output: response
                        .result
                        .ok()
                        .map(|m| stats::fingerprint(m.as_slice())),
                    due: o.due,
                    latency_ms: openloop::latency_from_due(o.due, completed).as_secs_f64() * 1e3,
                    service_ms: response.service_ms,
                    traced,
                });
                false
            });
            if next >= total && (outstanding.is_empty() || now > opts.window + DRAIN_TIMEOUT) {
                break;
            }
            let until_due = if next < total {
                schedule.due(next).saturating_sub(window_start.elapsed())
            } else {
                POLL
            };
            std::thread::sleep(until_due.min(POLL));
        }
        report.failed += outstanding.len() as u64;
        let (log, published) = updater
            .join()
            .map_err(|_| "the update thread panicked".to_string())?;
        updates = log;
        doubled_live = published;
        Ok(())
    })?;
    let serving_after = serving.stats();

    // One stats snapshot as an operator would take it, after the window.
    let mut snapshot_ms = Vec::with_capacity(SNAPSHOTS);
    let mut snapshots = Vec::with_capacity(SNAPSHOTS);
    for _ in 0..SNAPSHOTS {
        let start = Instant::now();
        snapshots.push(server.stats());
        snapshot_ms.push(start.elapsed().as_secs_f64() * 1e3);
    }
    let server_stats = snapshots.pop().expect("SNAPSHOTS > 0");
    server.shutdown();
    if doubled_live {
        serving
            .rollback_layer(update_layer)
            .map_err(|e| format!("final rollback: {e}"))?;
    }

    // Oracles outside the window: every operand used, cold, under the
    // original weights and (for the update layer) under the doubled ones.
    let mut used = vec![false; pool.len()];
    for d in &done {
        used[d.operand] = true;
    }
    let mut want: Vec<Vec<u64>> = vec![Vec::new(); pool.len()];
    let mut cold_w = vec![None; pool.len()];
    for (i, op) in pool.iter().enumerate().filter(|(i, _)| used[*i]) {
        let out = serving
            .execute_cold(op.layer, &op.activations)
            .map_err(|e| format!("cold oracle: {e}"))?;
        want[i].push(stats::fingerprint(out.as_slice()));
        if op.layer == update_layer {
            cold_w[i] = Some(out);
        }
    }
    serving
        .update_layer(update_layer, doubled.clone())
        .map_err(|e| format!("oracle update: {e}"))?;
    for (i, op) in pool.iter().enumerate() {
        let Some(base) = &cold_w[i] else { continue };
        let out = serving
            .execute_cold(op.layer, &op.activations)
            .map_err(|e| format!("cold oracle: {e}"))?;
        // Doubling the weights doubles the output exactly; anything else
        // means the oracle itself is inconsistent.
        let exact = base
            .as_slice()
            .iter()
            .zip(out.as_slice())
            .all(|(a, b)| (a * 2.0).to_bits() == b.to_bits());
        if !exact {
            return Err(format!(
                "the doubled-weight oracle of operand {i} is not 2x the original"
            ));
        }
        want[i].push(stats::fingerprint(out.as_slice()));
    }
    serving
        .rollback_layer(update_layer)
        .map_err(|e| format!("oracle rollback: {e}"))?;

    let mut latencies = Vec::with_capacity(done.len());
    let mut waits = Vec::with_capacity(done.len());
    let mut services = Vec::with_capacity(done.len());
    let mut ok = 0usize;
    let (mut ok_traced, mut ok_untraced) = (0usize, 0usize);
    for d in &done {
        match d.output {
            None => report.failed += 1,
            Some(fp) if !want[d.operand].contains(&fp) => {
                report.failed += 1;
                report.mismatches += 1;
            }
            Some(_) => {
                ok += 1;
                if d.traced {
                    ok_traced += 1;
                } else {
                    ok_untraced += 1;
                }
                latencies.push((d.due, d.latency_ms));
                services.push(d.service_ms);
                waits.push(d.latency_ms - d.service_ms);
            }
        }
    }

    if last_completion > Duration::ZERO {
        report.set(
            "items_s",
            ok as f64 / last_completion.as_secs_f64(),
            Some(ok),
        );
    }
    common::set_latency(&mut report, &latencies, opts.window);

    let mut traffic = common::Traffic::default();
    traffic.add(&serving_before, &serving_after);
    traffic.report(&mut report, ok as f64);
    report.set(
        "server.wait_ms.p50",
        stats::median(&waits).unwrap_or(0.0),
        Some(waits.len()),
    );
    report.set(
        "server.wait_ms.p90",
        stats::percentile(&waits, 0.9).unwrap_or(0.0),
        Some(waits.len()),
    );
    report.set(
        "server.service_ms.p50",
        stats::median(&services).unwrap_or(0.0),
        Some(services.len()),
    );
    if server_stats.dispatched_groups > 0 {
        report.set(
            "server.group_width_mean",
            server_stats.submitted as f64 / server_stats.dispatched_groups as f64,
            Some(server_stats.dispatched_groups as usize),
        );
    }
    if server_stats.submitted > 0 {
        report.set(
            "server.coalesced_share",
            server_stats.coalesced_requests as f64 / server_stats.submitted as f64,
            Some(server_stats.submitted as usize),
        );
    }
    let deadline = server_stats
        .completions
        .iter()
        .filter(|c| c.deadline_met.is_some())
        .count();
    if deadline > 0 {
        report.set(
            "server.deadline_miss_share",
            server_stats.deadline_misses() as f64 / deadline as f64,
            Some(deadline),
        );
    }
    report.set(
        "server.stats_snapshot_ms",
        stats::median(&snapshot_ms).unwrap_or(0.0),
        Some(snapshot_ms.len()),
    );
    report.set(
        "gen.late_share",
        schedule.late_share(),
        Some(schedule.sent() as usize),
    );

    if tracer.is_some() {
        // Traced and untraced seconds alternate; each side is half the
        // window (rounded by whole seconds).
        let secs = opts.window.as_secs().max(1);
        let traced_secs = secs.div_ceil(2) as f64;
        let untraced_secs = (secs / 2).max(1) as f64;
        common::set_overhead(
            &mut report,
            ok_traced as f64 / traced_secs,
            ok_untraced as f64 / untraced_secs,
        );
        report.set(
            "core.parallel.region_us",
            common::parallel_region_us(common::REGION_REPS),
            Some(common::REGION_REPS),
        );
    }
    common::finish(&mut report, setup_s, setup, &updates, serving);
    Ok(report)
}

fn build(pool: &[Operand], operand: usize, id: u64) -> Request {
    Request {
        id,
        layer: pool[operand].layer,
        activations: pool[operand].activations.clone(),
    }
}
