//! `resnet50-forward`: one client runs ResNet-50 forwards back to back at
//! the paper's default configuration (batch 4). Every conv layer goes through
//! `ModelEngine::serve_conv` and the classifier through `serve_gemm`, each
//! as many times as its shape repeats in the model.
//!
//! Why: 13 of the 14 layer shapes are convolutions, so implicit-GEMM conv
//! plans, the SIMD microkernels and large-tile fan-out do almost all the
//! work, and the server and session tiers do none. A kernel change shows
//! here; a server change must not.

use crate::common::{self, Opts, SetupTimes, UpdateLog};
use crate::report::Report;
use crate::stats;
use crate::trace::{self, Tracer};
use gpu_sim::GpuArch;
use rand::rngs::StdRng;
use rand::SeedableRng;
use shfl_core::matrix::DenseMatrix;
use shfl_kernels::conv::{self, Conv2dParams, Tensor4};
use shfl_models::engine::ModelEngine;
use shfl_models::workload::{model_workload, LayerKind};
use shfl_models::DnnModel;
use std::time::{Duration, Instant};

/// Elements sampled per output for the in-window fingerprint.
const FINGERPRINT_SAMPLES: usize = 64;

enum Operand {
    Conv {
        input: Tensor4,
        params: Conv2dParams,
    },
    Gemm(DenseMatrix),
}

struct Layer {
    name: String,
    count: usize,
    operand: Operand,
    /// Sampled fingerprint of the output every call must reproduce.
    expected: u64,
    /// Whether that output matched the cold oracle bit for bit.
    oracle_ok: bool,
}

impl Layer {
    fn span_name(&self) -> String {
        match self.operand {
            Operand::Conv { .. } => format!("models.serve_conv.{}", self.name),
            Operand::Gemm(_) => format!("models.serve_gemm.{}", self.name),
        }
    }
}

fn serve(engine: &ModelEngine, index: usize, operand: &Operand) -> Result<Vec<f32>, String> {
    match operand {
        Operand::Conv { input, .. } => engine
            .serve_conv(index, input)
            .map(|t| t.as_slice().to_vec())
            .map_err(|e| e.to_string()),
        Operand::Gemm(act) => engine
            .serve_gemm(index, act)
            .map(|m| m.into_vec())
            .map_err(|e| e.to_string()),
    }
}

/// One timed call: its output's sampled fingerprint, or the error.
fn serve_fingerprint(engine: &ModelEngine, index: usize, operand: &Operand) -> Result<u64, ()> {
    let fp = |v: &[f32]| stats::sampled_fingerprint(v, FINGERPRINT_SAMPLES);
    match operand {
        Operand::Conv { input, .. } => engine
            .serve_conv(index, input)
            .map(|t| fp(t.as_slice()))
            .map_err(drop),
        Operand::Gemm(act) => engine
            .serve_gemm(index, act)
            .map(|m| fp(m.as_slice()))
            .map_err(drop),
    }
}

/// The cold oracle: im2col plus an exact-width cold plan, folded back.
fn oracle(engine: &ModelEngine, index: usize, operand: &Operand) -> Result<Vec<f32>, String> {
    let serving = engine.serving();
    match operand {
        Operand::Conv { input, params } => {
            let unfolded = conv::im2col(input, params);
            let cold = serving.execute_cold(index, &unfolded);
            conv::reclaim_unfolded(unfolded);
            let cold = cold.map_err(|e| e.to_string())?;
            Ok(conv::col2im_output(&cold, params).as_slice().to_vec())
        }
        Operand::Gemm(act) => serving
            .execute_cold(index, act)
            .map(|m| m.into_vec())
            .map_err(|e| e.to_string()),
    }
}

fn bits_equal(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Runs the workload.
pub fn run(opts: &Opts, tracer: Option<&Tracer>) -> Result<Report, String> {
    let arch = GpuArch::v100();
    let cfg = common::engine_config(opts.seed);
    let inventory = model_workload(DnnModel::Resnet50, cfg.batch, cfg.seq_len);
    let fc = inventory
        .iter()
        .position(|l| !l.kind.is_conv())
        .ok_or("ResNet-50 has a classifier")?;

    let ((engine, transform_bytes), setup_s, setup) = common::repeat_setup(|| {
        let start = Instant::now();
        let engine = ModelEngine::build(DnnModel::Resnet50, &arch, &cfg)
            .map_err(|e| format!("engine build: {e}"))?;
        let built = Instant::now();
        // Builds every conv plan at this batch; the classifier's bucket plan
        // is warmed directly.
        let (transform_bytes, _) = engine
            .conv_transform_bytes(cfg.batch)
            .map_err(|e| format!("conv plan warm-up: {e}"))?;
        engine
            .serving()
            .warm(fc, cfg.batch)
            .map_err(|e| format!("fc warm-up: {e}"))?;
        let warmed = Instant::now();
        if let Some(t) = tracer {
            t.record("setup.build", None, 0, start, built);
            t.record("setup.warm", None, 0, built, warmed);
        }
        Ok((
            (engine, transform_bytes),
            SetupTimes {
                build_s: (built - start).as_secs_f64(),
                warm_s: (warmed - built).as_secs_f64(),
            },
        ))
    })?;

    // Operands from the workload seed, then each layer's reference output
    // checked against the cold oracle (outside the timed window).
    let mut rng = StdRng::seed_from_u64(common::mix(opts.seed, 2));
    let mut layers = Vec::with_capacity(inventory.len());
    for (index, spec) in inventory.iter().enumerate() {
        let operand = match spec.kind {
            LayerKind::Conv2d {
                batch,
                in_channels,
                out_channels,
                input_hw,
                kernel,
                stride,
                padding,
            } => Operand::Conv {
                input: Tensor4::random(&mut rng, batch, in_channels, input_hw, input_hw),
                params: Conv2dParams {
                    batch,
                    in_channels,
                    out_channels,
                    input_h: input_hw,
                    input_w: input_hw,
                    kernel_h: kernel,
                    kernel_w: kernel,
                    stride,
                    padding,
                    dilation: 1,
                },
            },
            LayerKind::Gemm { n, k, .. } => Operand::Gemm(DenseMatrix::random(&mut rng, k, n)),
        };
        let served = serve(&engine, index, &operand)?;
        let want = oracle(&engine, index, &operand)?;
        layers.push(Layer {
            name: spec.name.clone(),
            count: spec.count,
            expected: stats::sampled_fingerprint(&served, FINGERPRINT_SAMPLES),
            oracle_ok: bits_equal(&served, &want),
            operand,
        });
    }
    let mut report = Report::default();
    report.mismatches = layers.iter().filter(|l| !l.oracle_ok).count() as u64;
    let names: Vec<String> = layers.iter().map(Layer::span_name).collect();

    // One update and one rollback of the classifier, this model's only
    // linear layer, once a second between forwards: spread over the window
    // and outside the forward walls.
    let original = engine
        .serving()
        .layer_weights(fc)
        .map_err(|e| e.to_string())?;
    let doubled = common::scaled(&original, 2.0)?;
    common::warm_update_path(
        || engine.serving().update_layer(fc, doubled.clone()),
        || engine.serving().rollback_layer(fc),
    )?;
    let update_pair = |log: &mut UpdateLog| {
        let weights = doubled.clone();
        log.time(|| engine.serving().update_layer(fc, weights));
        log.time(|| engine.serving().rollback_layer(fc));
    };
    let mut updates = UpdateLog::default();
    let ticks = common::update_ticks(opts.window);
    let mut pairs = 0u32;

    let mut traffic = common::Traffic::default();
    let mut forwards: Vec<(Duration, f64, bool)> = Vec::new();
    let mut forward_spans = Vec::new();
    let window_start = Instant::now();
    let mut unit = 0u64;
    while window_start.elapsed() < opts.window {
        // The traced run traces every other forward, so the untraced ones
        // measure the tracing overhead in the same process.
        let t = tracer.filter(|_| unit.is_multiple_of(2));
        let before = engine.serving().stats();
        let start = Instant::now();
        let fwd = t.map(|t| t.open("models.forward", None, unit));
        for (index, layer) in layers.iter().enumerate() {
            for _ in 0..layer.count {
                report.attempted += 1;
                let got = trace::span(
                    t,
                    || names[index].clone(),
                    fwd,
                    unit,
                    || serve_fingerprint(&engine, index, &layer.operand),
                );
                if got != Ok(layer.expected) || !layer.oracle_ok {
                    report.failed += 1;
                }
            }
        }
        if let (Some(t), Some(fwd)) = (t, fwd) {
            t.close(fwd);
            forward_spans.push(fwd.0);
        }
        let end = Instant::now();
        traffic.add(&before, &engine.serving().stats());
        forwards.push((
            end - window_start,
            (end - start).as_secs_f64() * 1e3,
            t.is_some(),
        ));
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
    let images = (forwards.len() * cfg.batch) as f64;

    let all_ms: Vec<f64> = forwards.iter().map(|f| f.1).collect();
    let timed: Vec<(Duration, f64)> = forwards.iter().map(|f| (f.0, f.1)).collect();
    let batch = cfg.batch as f64;
    let items_s = |ms: &[f64]| stats::median(ms).map_or(0.0, |m| batch * 1e3 / m);
    report.set("items_s", items_s(&all_ms), Some(all_ms.len()));
    common::set_latency(&mut report, &timed, opts.window);

    report.set(
        "kernels.conv.transform_bytes_per_image",
        transform_bytes as f64 / batch,
        None,
    );
    traffic.report(&mut report, images);

    if let Some(t) = tracer {
        let spans = t.snapshot();
        for name in &names {
            let ms: Vec<f64> = spans
                .iter()
                .filter(|s| &s.name == name)
                .map(|s| s.duration_ns() as f64 / 1e6)
                .collect();
            report.set(
                &format!("{name}.ms"),
                stats::median(&ms).unwrap_or(0.0),
                Some(ms.len()),
            );
        }
        let glue: Vec<f64> = forward_spans
            .iter()
            .map(|&i| trace::self_time_ns(&spans, i) as f64 / spans[i].duration_ns().max(1) as f64)
            .collect();
        report.set(
            "models.glue_share",
            stats::median(&glue).unwrap_or(0.0),
            Some(glue.len()),
        );
        let traced: Vec<f64> = forwards.iter().filter(|f| f.2).map(|f| f.1).collect();
        let untraced: Vec<f64> = forwards.iter().filter(|f| !f.2).map(|f| f.1).collect();
        common::set_overhead(&mut report, items_s(&traced), items_s(&untraced));
        report.set(
            "core.parallel.region_us",
            common::parallel_region_us(common::REGION_REPS),
            Some(common::REGION_REPS),
        );
    }
    common::finish(&mut report, setup_s, setup, &updates, engine.serving());
    Ok(report)
}
