//! Pieces every workload shares: the engine configuration a seed implies,
//! repeated set-up, the same-pattern weight update, and the parallel-region
//! probe.

use crate::report::Report;
use crate::stats;
use shfl_core::formats::{ShflBwMatrix, VectorWiseMatrix};
use shfl_models::engine::EngineConfig;
use shfl_serving::{ServingEngine, ServingStats, UpdateError, UpdateReport};
use std::time::{Duration, Instant};

/// Serving-engine counters summed over what was measured: each timed unit
/// on the closed loops (so the updates between units do not count), the
/// whole window on the open loop.
#[derive(Debug, Default)]
pub struct Traffic {
    columns: u64,
    padded_columns: u64,
    panel_bytes: u64,
}

impl Traffic {
    /// Adds the counters one unit moved.
    pub fn add(&mut self, before: &ServingStats, after: &ServingStats) {
        self.columns += after.columns - before.columns;
        self.padded_columns += after.padded_columns - before.padded_columns;
        self.panel_bytes += after.panel_bytes_read - before.panel_bytes_read;
    }

    /// Sets `engine.padded_share` and `engine.panel_bytes_per_item`.
    pub fn report(&self, report: &mut Report, items: f64) {
        let computed = self.columns + self.padded_columns;
        if computed > 0 {
            report.set(
                "engine.padded_share",
                self.padded_columns as f64 / computed as f64,
                None,
            );
        }
        if items > 0.0 {
            report.set(
                "engine.panel_bytes_per_item",
                self.panel_bytes as f64 / items,
                None,
            );
        }
    }
}

/// Set-up runs this many times per run; `setup_s` is the median. The first
/// one or two reps of a process pay for fresh pages; with nine, the median
/// is a settled rep.
pub const SETUP_REPS: usize = 9;

/// Time slices of the window for latency percentiles (see
/// [`stats::quietest_slice_percentile`]). With 30 s windows each slice of the decode
/// workload holds 100–200 token gaps, so its p90 has more than ten beyond.
pub const TAIL_SLICES: usize = 5;

/// Options every workload takes.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    /// Workload seed: engine weights, activations, prompts, request mix.
    pub seed: u64,
    /// Length of the timed window.
    pub window: Duration,
}

/// SplitMix64 step: decorrelates the per-purpose seeds derived from one
/// workload seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The paper's default engine configuration with weights drawn from the
/// workload seed.
pub fn engine_config(seed: u64) -> EngineConfig {
    EngineConfig {
        seed: mix(seed, 1),
        ..EngineConfig::paper_default()
    }
}

/// Phase walls of one set-up, in seconds.
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    /// Engine build: weight synthesis and layer registration.
    pub build_s: f64,
    /// Plan warm-up and, where the workload has one, server start.
    pub warm_s: f64,
}

/// Runs `setup` [`SETUP_REPS`] times and keeps the last result; returns it
/// with the medians of the total, build and warm walls.
pub fn repeat_setup<T>(
    mut setup: impl FnMut() -> Result<(T, SetupTimes), String>,
) -> Result<(T, f64, SetupTimes), String> {
    let mut totals = Vec::with_capacity(SETUP_REPS);
    let mut builds = Vec::with_capacity(SETUP_REPS);
    let mut warms = Vec::with_capacity(SETUP_REPS);
    let mut kept = None;
    for _ in 0..SETUP_REPS {
        // Drop the previous rep's engine before building the next, so the
        // peak footprint is one engine, not several.
        drop(kept.take());
        let (value, times) = setup()?;
        totals.push(times.build_s + times.warm_s);
        builds.push(times.build_s);
        warms.push(times.warm_s);
        kept = Some(value);
    }
    let med = |v: &[f64]| stats::median(v).expect("SETUP_REPS > 0");
    Ok((
        kept.expect("SETUP_REPS > 0"),
        med(&totals),
        SetupTimes {
            build_s: med(&builds),
            warm_s: med(&warms),
        },
    ))
}

/// `weights` with every kept value multiplied by `factor`: the same sparsity
/// pattern, so publishing it takes the delta re-pack path. With `factor = 2`
/// every product and partial sum doubles exactly, so the new output is
/// exactly twice the old one.
pub fn scaled(weights: &ShflBwMatrix, factor: f32) -> Result<ShflBwMatrix, String> {
    let vw = weights.vector_wise();
    let values = vw.values().iter().map(|x| x * factor).collect();
    let inner = VectorWiseMatrix::from_parts(
        vw.rows(),
        vw.cols(),
        vw.vector_size(),
        vw.group_ptr().to_vec(),
        vw.col_idx().to_vec(),
        values,
    )
    .map_err(|e| format!("scaled weights: {e}"))?;
    ShflBwMatrix::from_vector_wise(inner, weights.row_indices().to_vec())
        .map_err(|e| format!("scaled weights: {e}"))
}

/// Period of the weight updates every workload makes.
pub const UPDATE_EVERY: Duration = Duration::from_secs(1);

/// Updates (or update/rollback pairs) a window holds: one per whole second
/// strictly inside it. The count is fixed per window, not per unit of work:
/// every published version stays reachable through the engine's rollback
/// chain, so memory grows with each update, and a count that followed the
/// workload's speed would make `peak_rss_mb` follow it too.
pub fn update_ticks(window: Duration) -> u32 {
    u32::try_from(window.as_secs().saturating_sub(1).max(1)).unwrap_or(u32::MAX)
}

/// Publishes `doubled` and rolls it back once, untimed: the first update of
/// a process pays for fresh pages and would skew the few timed ones.
pub fn warm_update_path(
    update: impl FnOnce() -> Result<UpdateReport, UpdateError>,
    rollback: impl FnOnce() -> Result<UpdateReport, UpdateError>,
) -> Result<(), String> {
    update().map_err(|e| format!("update warm-up: {e}"))?;
    rollback().map_err(|e| format!("rollback warm-up: {e}"))?;
    Ok(())
}

/// Outside walls and reported swap times of update/rollback calls.
#[derive(Debug, Default)]
pub struct UpdateLog {
    /// Outside wall of each call, ms.
    pub wall_ms: Vec<f64>,
    /// The engine's own swap time of each call, ms.
    pub swap_ms: Vec<f64>,
    /// Calls that returned an error.
    pub failed: u64,
}

impl UpdateLog {
    /// Times one update or rollback call.
    pub fn time(&mut self, call: impl FnOnce() -> Result<UpdateReport, UpdateError>) {
        let start = Instant::now();
        let result = call();
        let wall = start.elapsed().as_secs_f64() * 1e3;
        match result {
            Ok(report) => {
                self.wall_ms.push(wall);
                self.swap_ms.push(report.swap_ms);
            }
            Err(_) => self.failed += 1,
        }
    }
}

/// Sets the metrics every workload reports the same way: set-up, updates,
/// plan-cache hit rate, `ok_share` and `peak_rss_mb`. Call it last, once
/// every failure is counted.
pub fn finish(
    report: &mut Report,
    setup_s: f64,
    setup: SetupTimes,
    updates: &UpdateLog,
    serving: &ServingEngine,
) {
    let reps = Some(SETUP_REPS);
    report.set("setup_s", setup_s, reps);
    report.set("setup.build_s", setup.build_s, reps);
    report.set("setup.warm_s", setup.warm_s, reps);
    report.failed += updates.failed;
    report.attempted += updates.wall_ms.len() as u64 + updates.failed;
    report.set(
        "update_ms.p50",
        stats::median(&updates.wall_ms).unwrap_or(0.0),
        Some(updates.wall_ms.len()),
    );
    report.set(
        "update.swap_ms.p50",
        stats::median(&updates.swap_ms).unwrap_or(0.0),
        Some(updates.swap_ms.len()),
    );
    let update_stats = serving.update_stats();
    if update_stats.rebuild_bytes > 0 {
        report.set(
            "update.repack_byte_ratio",
            update_stats.repack_bytes as f64 / update_stats.rebuild_bytes as f64,
            None,
        );
    }
    report.set(
        "kernels.cache.hit_rate",
        serving.cache_stats().hit_rate(),
        None,
    );
    report.set(
        "ok_share",
        report.ok_share(),
        Some(report.attempted as usize),
    );
    report.set("peak_rss_mb", stats::peak_rss_mb().unwrap_or(0.0), None);
}

/// Sets `latency_ms.p50` and `latency_ms.p90` from `(offset, ms)` samples:
/// each is the percentile of the quietest time slice (see
/// [`stats::quietest_slice_percentile`]), and the printed sample count is
/// per slice. Since every slice's p90 is at least its p50, the reported p90
/// is never below the reported p50.
pub fn set_latency(report: &mut Report, samples: &[(Duration, f64)], window: Duration) {
    let per_slice = Some(samples.len() / TAIL_SLICES);
    for (name, q) in [("latency_ms.p50", 0.5), ("latency_ms.p90", 0.9)] {
        let value = stats::quietest_slice_percentile(samples, window, TAIL_SLICES, q);
        report.set(name, value.unwrap_or(0.0), per_slice);
    }
}

/// Records the tracing overhead: `items_s` of the traced units, of the
/// untraced units, and traced minus untraced.
pub fn set_overhead(report: &mut Report, traced: f64, untraced: f64) {
    report.set("trace.items_s_traced", traced, None);
    report.set("trace.items_s_untraced", untraced, None);
    report.set("trace.overhead_items_s", traced - untraced, None);
}

/// Regions timed by the parallel-region probe of a traced run.
pub const REGION_REPS: usize = 400;

/// Median wall of one two-way fork-join region of
/// `shfl_core::parallel::par_chunks_mut_weighted`, in µs, over `reps`
/// regions. The weight is chosen so the region fans out to two workers.
pub fn parallel_region_us(reps: usize) -> f64 {
    let mut data = [0u64; 2];
    let mut walls = Vec::with_capacity(reps);
    for _ in 0..reps {
        let start = Instant::now();
        shfl_core::parallel::par_chunks_mut_weighted(&mut data, 1, 1 << 16, |i, chunk| {
            chunk[0] = std::hint::black_box(chunk[0].wrapping_add(i as u64 + 1));
        });
        walls.push(start.elapsed().as_secs_f64() * 1e6);
    }
    std::hint::black_box(data);
    stats::median(&walls).unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_decorrelate() {
        assert_ne!(mix(1, 1), mix(2, 1));
        assert_ne!(mix(1, 1), mix(1, 2));
        assert_eq!(engine_config(5), engine_config(5));
        assert_ne!(engine_config(5).seed, engine_config(6).seed);
    }

    #[test]
    fn update_ticks_are_whole_seconds_inside_the_window() {
        assert_eq!(update_ticks(Duration::from_secs(30)), 29);
        assert_eq!(update_ticks(Duration::from_secs(2)), 1);
        assert_eq!(update_ticks(Duration::from_secs(1)), 1);
    }

    #[test]
    fn setup_is_repeated_and_the_median_reported() {
        let mut calls = 0;
        let (kept, total, times) = repeat_setup(|| {
            calls += 1;
            let build_s = [3.0, 1.0, 2.0, 5.0, 4.0, 9.0, 8.0, 7.0, 6.0][calls - 1];
            Ok((
                calls,
                SetupTimes {
                    build_s,
                    warm_s: 1.0,
                },
            ))
        })
        .unwrap();
        assert_eq!(calls, SETUP_REPS);
        assert_eq!(kept, SETUP_REPS);
        assert_eq!(times.build_s, 5.0);
        assert_eq!(total, 6.0);
    }
}
