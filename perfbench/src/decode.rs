//! `transformer-decode`: one client, one decode session at a time.
//! `Server::open_session` runs the Transformer `DecodeModel` for
//! [`STEPS`] steps on a one-worker server; the next session opens when the
//! previous one has streamed its last token.
//!
//! Why: each token is 24 dependent width-1 SpMMs through the session tier,
//! so per-call fork-join cost, bucket padding and session round overhead
//! dominate, with no convolution and no admission window. Width 1 is on
//! purpose: with several sessions live, the interleave width depends on
//! thread timing and does not repeat between identical runs.

use crate::common::{self, Opts, SetupTimes, UpdateLog};
use crate::report::{Report, DECODER_LAYERS};
use crate::stats;
use crate::trace::{self, Tracer};
use gpu_sim::GpuArch;
use rand::rngs::StdRng;
use rand::SeedableRng;
use shfl_core::matrix::DenseMatrix;
use shfl_core::slo::SloClass;
use shfl_models::engine::ModelEngine;
use shfl_models::DnnModel;
use shfl_serving::{decode_oracle, ServerConfig};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Tokens each session decodes.
pub const STEPS: usize = 8;

/// A token that takes longer than this fails the session.
const TOKEN_TIMEOUT: Duration = Duration::from_secs(30);

/// Width-1 replays per decoder layer in the traced run.
const REPLAY_REPS: usize = 30;

struct Session {
    /// Prompt index (drives the prompt through the engine seed).
    prompt: u64,
    /// Fingerprint of each streamed token.
    tokens: Vec<u64>,
    /// Open to last token, seconds.
    wall_s: f64,
    traced: bool,
}

/// Runs the workload.
pub fn run(opts: &Opts, tracer: Option<&Tracer>) -> Result<Report, String> {
    let arch = GpuArch::v100();
    let cfg = common::engine_config(opts.seed);
    let ((engine, server, model), setup_s, setup) = common::repeat_setup(|| {
        let start = Instant::now();
        let engine = ModelEngine::build(DnnModel::Transformer, &arch, &cfg)
            .map_err(|e| format!("engine build: {e}"))?;
        let built = Instant::now();
        let model = engine
            .decode_model()
            .ok_or("Transformer has a decode model")?;
        for stage in model.stages() {
            engine
                .serving()
                .warm(stage.layer, 1)
                .map_err(|e| format!("warm-up: {e}"))?;
        }
        let server = engine.server(ServerConfig::new().with_workers(1));
        let warmed = Instant::now();
        if let Some(t) = tracer {
            t.record("setup.build", None, 0, start, built);
            t.record("setup.warm", None, 0, built, warmed);
        }
        Ok((
            (engine, server, model),
            SetupTimes {
                build_s: (built - start).as_secs_f64(),
                warm_s: (warmed - built).as_secs_f64(),
            },
        ))
    })?;

    let mut report = Report::default();
    // Prompts come from the engine seed, which the workload seed sets; the
    // offset keeps consecutive seeds from sharing prompts.
    let prompt_base = common::mix(opts.seed, 3) >> 16;
    // One update and one rollback of the attention output projection, once
    // a second between sessions: spread over the window and outside the
    // session walls, so every session decodes under the original weights.
    let out_layer = engine
        .serving()
        .layer_index(DECODER_LAYERS[1])
        .ok_or("decoder attention output layer is registered")?;
    let original = engine
        .serving()
        .layer_weights(out_layer)
        .map_err(|e| e.to_string())?;
    let doubled = common::scaled(&original, 2.0)?;
    common::warm_update_path(
        || server.update_layer(out_layer, doubled.clone()),
        || server.rollback_layer(out_layer),
    )?;
    let update_pair = |log: &mut UpdateLog| {
        let weights = doubled.clone();
        log.time(|| server.update_layer(out_layer, weights));
        log.time(|| server.rollback_layer(out_layer));
    };
    let mut updates = UpdateLog::default();
    let ticks = common::update_ticks(opts.window);
    let mut pairs = 0u32;
    let mut traffic = common::Traffic::default();
    let sessions_before = server.session_stats();
    let mut sessions: Vec<Session> = Vec::new();
    let mut gaps_ms = Vec::new();
    let mut rounds_ms = Vec::new();
    let mut overheads_ms = Vec::new();
    let window_start = Instant::now();
    let mut unit = 0u64;
    while window_start.elapsed() < opts.window {
        let t = tracer.filter(|_| unit.is_multiple_of(2));
        let prompt = prompt_base + unit;
        report.attempted += STEPS as u64;
        let before = engine.serving().stats();
        let open = Instant::now();
        let root = t.map(|t| t.open("session.decode", None, unit));
        let handle = trace::span(
            t,
            || "server.open_session".into(),
            root,
            unit,
            || {
                server.open_session(
                    Arc::clone(&model),
                    engine.decode_prompt(prompt),
                    SloClass::Standard,
                    STEPS,
                )
            },
        );
        let mut tokens = Vec::with_capacity(STEPS);
        if let Ok(handle) = &handle {
            let ticket = handle.ticket();
            let mut prev = open;
            while let Ok(Some(token)) = ticket.wait_timeout(TOKEN_TIMEOUT) {
                let now = Instant::now();
                let gap_ms = (now - prev).as_secs_f64() * 1e3;
                if let Some(t) = t {
                    t.record("session.token", root, unit, prev, now);
                }
                prev = now;
                gaps_ms.push((now - window_start, gap_ms));
                rounds_ms.push(token.service_ms);
                overheads_ms.push(gap_ms - token.service_ms);
                tokens.push(stats::fingerprint(&token.values));
            }
            handle.cancel();
        }
        if let (Some(t), Some(root)) = (t, root) {
            t.close(root);
        }
        let wall_s = open.elapsed().as_secs_f64();
        traffic.add(&before, &engine.serving().stats());
        report.failed += (STEPS - tokens.len().min(STEPS)) as u64;
        sessions.push(Session {
            prompt,
            tokens,
            wall_s,
            traced: t.is_some(),
        });
        while pairs < ticks && window_start.elapsed() >= common::UPDATE_EVERY * (pairs + 1) {
            update_pair(&mut updates);
            pairs += 1;
        }
        unit += 1;
    }
    // Ticks the last unit overran are made up now, so every run times the
    // same number of updates.
    for _ in pairs..ticks {
        update_pair(&mut updates);
    }
    let session_stats = server.session_stats();

    // The first and the last session against the cold width-1 oracle.
    let checked: Vec<&Session> = match (sessions.first(), sessions.last()) {
        (Some(a), Some(b)) if sessions.len() > 1 => vec![a, b],
        (Some(a), _) => vec![a],
        _ => Vec::new(),
    };
    // Two oracle threads at most: the host has two cores.
    let wants: Vec<Result<Vec<Vec<f32>>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = checked
            .iter()
            .map(|s| {
                let (engine, model) = (&engine, &model);
                scope.spawn(move || {
                    decode_oracle(
                        engine.serving(),
                        model.as_ref(),
                        &engine.decode_prompt(s.prompt),
                        STEPS,
                    )
                    .map_err(|e| format!("decode oracle: {e}"))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("decode oracle panicked".into()))
            })
            .collect()
    });
    for (s, want) in checked.iter().zip(wants) {
        for (i, w) in want?.iter().enumerate() {
            if s.tokens.get(i) != Some(&stats::fingerprint(w)) {
                report.mismatches += 1;
                if i < s.tokens.len() {
                    report.failed += 1;
                }
            }
        }
    }

    let tokens_s = |traced: Option<bool>| {
        let rates: Vec<f64> = sessions
            .iter()
            .filter(|s| traced.is_none_or(|t| s.traced == t))
            .map(|s| s.tokens.len() as f64 / s.wall_s)
            .collect();
        (stats::median(&rates).unwrap_or(0.0), rates.len())
    };
    let (items_s, n_sessions) = tokens_s(None);
    report.set("items_s", items_s, Some(n_sessions));
    common::set_latency(&mut report, &gaps_ms, opts.window);

    let streamed: usize = sessions.iter().map(|s| s.tokens.len()).sum();
    traffic.report(&mut report, streamed as f64);
    report.set(
        "session.round_ms.p50",
        stats::median(&rounds_ms).unwrap_or(0.0),
        Some(rounds_ms.len()),
    );
    report.set(
        "session.overhead_ms.p50",
        stats::median(&overheads_ms).unwrap_or(0.0),
        Some(overheads_ms.len()),
    );
    let sweeps = session_stats.sweeps - sessions_before.sweeps;
    if sweeps > 0 {
        report.set(
            "session.width_mean",
            (session_stats.sweep_columns - sessions_before.sweep_columns) as f64 / sweeps as f64,
            Some(sweeps as usize),
        );
    }

    if let Some(t) = tracer {
        // The four decoder layers replayed at width 1 through the engine's
        // bucketed execute: what one decode stage costs without the
        // session tier around it.
        let mut rng = StdRng::seed_from_u64(common::mix(opts.seed, 4));
        for name in DECODER_LAYERS {
            let layer = engine
                .serving()
                .layer_index(name)
                .ok_or("decoder layer is registered")?;
            let k = engine.serving().layer_k(layer).map_err(|e| e.to_string())?;
            let x = DenseMatrix::random(&mut rng, k, 1);
            let span_name = format!("engine.execute_w1.{name}");
            let mut ms = Vec::with_capacity(REPLAY_REPS);
            for rep in 0..REPLAY_REPS {
                let start = Instant::now();
                let out = engine.serving().execute(layer, &x);
                let end = Instant::now();
                t.record(&span_name, None, rep as u64, start, end);
                out.map_err(|e| format!("width-1 replay: {e}"))?;
                ms.push((end - start).as_secs_f64() * 1e3);
            }
            report.set(
                &format!("{span_name}.ms"),
                stats::median(&ms).unwrap_or(0.0),
                Some(ms.len()),
            );
        }
        common::set_overhead(&mut report, tokens_s(Some(true)).0, tokens_s(Some(false)).0);
        report.set(
            "core.parallel.region_us",
            common::parallel_region_us(common::REGION_REPS),
            Some(common::REGION_REPS),
        );
    }
    server.shutdown();
    common::finish(&mut report, setup_s, setup, &updates, engine.serving());
    Ok(report)
}
