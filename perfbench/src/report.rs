//! The metric catalogue and the result line.
//!
//! Every workload reports every end-to-end metric in an untraced run and
//! every per-layer metric in a traced run. A per-layer metric whose layer a
//! workload does not exercise reads 0 and is marked "not exercised" in the
//! table.

use crate::stats;
use std::collections::BTreeMap;

/// End-to-end metrics: name and unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("items_s", "1/s"),
    ("latency_ms.p50", "ms"),
    ("latency_ms.p90", "ms"),
    ("update_ms.p50", "ms"),
    ("ok_share", "share"),
    ("peak_rss_mb", "MiB"),
];

/// The 13 ResNet-50 conv layer shapes, in inventory order.
pub const CONV_LAYERS: [&str; 13] = [
    "stem.7x7",
    "conv2.reduce",
    "conv2.3x3",
    "conv2.expand",
    "conv3.reduce",
    "conv3.3x3",
    "conv3.expand",
    "conv4.reduce",
    "conv4.3x3",
    "conv4.expand",
    "conv5.reduce",
    "conv5.3x3",
    "conv5.expand",
];

/// The four Transformer decoder layer kinds one decode step walks.
pub const DECODER_LAYERS: [&str; 4] = [
    "decoder.self_attn.qkv",
    "decoder.self_attn.out",
    "decoder.ffn1",
    "decoder.ffn2",
];

/// Per-layer metrics: name and unit.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> =
        vec![("setup.build_s".into(), "s"), ("setup.warm_s".into(), "s")];
    for layer in CONV_LAYERS {
        m.push((format!("models.serve_conv.{layer}.ms"), "ms"));
    }
    m.extend([
        ("models.serve_gemm.fc.ms".into(), "ms"),
        ("models.glue_share".into(), "share"),
        ("kernels.conv.transform_bytes_per_image".into(), "B/image"),
        ("kernels.cache.hit_rate".into(), "share"),
        ("core.parallel.region_us".into(), "us"),
    ]);
    for layer in DECODER_LAYERS {
        m.push((format!("engine.execute_w1.{layer}.ms"), "ms"));
    }
    m.extend(
        [
            ("engine.padded_share", "share"),
            ("engine.panel_bytes_per_item", "B/item"),
            ("session.round_ms.p50", "ms"),
            ("session.overhead_ms.p50", "ms"),
            ("session.width_mean", "columns"),
            ("server.wait_ms.p50", "ms"),
            ("server.wait_ms.p90", "ms"),
            ("server.service_ms.p50", "ms"),
            ("server.group_width_mean", "requests"),
            ("server.coalesced_share", "share"),
            ("server.deadline_miss_share", "share"),
            ("server.stats_snapshot_ms", "ms"),
            ("update.swap_ms.p50", "ms"),
            ("update.repack_byte_ratio", "ratio"),
            ("gen.late_share", "share"),
            ("trace.items_s_traced", "1/s"),
            ("trace.items_s_untraced", "1/s"),
            ("trace.overhead_items_s", "1/s"),
        ]
        .map(|(n, u)| (n.to_string(), u)),
    );
    m
}

/// One measured value with the number of samples behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Value {
    /// The figure.
    value: f64,
    /// Samples it summarises (`None` for a count or a single reading).
    samples: Option<usize>,
}

/// What one run measured and whether its outputs were right.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted: timed calls into the program and weight updates.
    pub attempted: u64,
    /// Operations that failed: typed errors, refused submits, timeouts and
    /// wrong outputs.
    pub failed: u64,
    /// Outputs that differed from the cold oracle (also in `failed`).
    pub mismatches: u64,
    values: BTreeMap<String, Value>,
}

impl Report {
    /// Sets a metric.
    pub fn set(&mut self, name: &str, value: f64, samples: Option<usize>) {
        self.values
            .insert(name.to_string(), Value { value, samples });
    }

    /// Share of attempted operations that succeeded with correct output.
    pub fn ok_share(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            (self.attempted - self.failed.min(self.attempted)) as f64 / self.attempted as f64
        }
    }

    /// Whether every output checked matched its oracle and nothing failed.
    pub fn correct(&self) -> bool {
        self.mismatches == 0 && self.failed == 0 && self.attempted > 0
    }

    /// The human-readable table and the result line for the chosen metric
    /// set. Errors name an end-to-end metric the run did not measure or a
    /// value that is not a finite number.
    pub fn render(&self, traced: bool) -> Result<(Vec<String>, String), String> {
        let catalogue: Vec<(String, &str)> = if traced {
            per_layer()
        } else {
            END_TO_END
                .iter()
                .map(|(n, u)| (n.to_string(), *u))
                .collect()
        };
        let mut table = Vec::with_capacity(catalogue.len());
        let mut json = Vec::with_capacity(catalogue.len());
        for (name, unit) in &catalogue {
            let (value, note) = match self.values.get(name) {
                Some(v) if !v.value.is_finite() => {
                    return Err(format!("{name} is not a finite number: {}", v.value))
                }
                Some(v) => (v.value, sample_note(name, v.samples)),
                None if traced => (0.0, "not exercised".to_string()),
                None => return Err(format!("end-to-end metric {name} was not measured")),
            };
            table.push(format!("  {name:<44} {value:>14.4} {unit:<8} {note}"));
            json.push(format!(
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        let line = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            json.join(", ")
        );
        Ok((table, line))
    }
}

/// The sample count of a figure and, for a percentile, whether at least
/// [`stats::MIN_BEYOND`] samples lie beyond it.
fn sample_note(name: &str, samples: Option<usize>) -> String {
    let Some(n) = samples else {
        return String::new();
    };
    let q = if name.ends_with(".p90") {
        0.9
    } else if name.ends_with(".p50") {
        0.5
    } else {
        return format!("n={n}");
    };
    if stats::supports(n, q) {
        format!("n={n}")
    } else {
        format!("n={n}, fewer than {} beyond", stats::MIN_BEYOND)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_follow_the_naming_rule_and_are_unique() {
        let mut names: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        names.extend(per_layer().into_iter().map(|(n, _)| n));
        let mut seen = std::collections::HashSet::new();
        for name in &names {
            assert!(seen.insert(name.clone()), "{name} listed twice");
            assert!(name.len() <= 64, "{name} too long");
            assert!(name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
    }

    #[test]
    fn conv_layer_names_match_the_model_inventory() {
        let inventory =
            shfl_models::workload::model_workload(shfl_models::DnnModel::Resnet50, 4, 1);
        let convs: Vec<&str> = inventory
            .iter()
            .filter(|l| l.kind.is_conv())
            .map(|l| l.name.as_str())
            .collect();
        assert_eq!(convs, CONV_LAYERS);
    }

    #[test]
    fn benchmark_json_lists_exactly_the_catalogue() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let listed = |name: &str, unit: &str| {
            text.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\""))
        };
        for (name, unit) in END_TO_END {
            assert!(
                listed(name, unit),
                "{name} ({unit}) missing from BENCHMARK.json"
            );
        }
        for (name, unit) in per_layer() {
            assert!(
                listed(&name, unit),
                "{name} ({unit}) missing from BENCHMARK.json"
            );
        }
        let entries = text.matches("\"unit\":").count();
        assert_eq!(entries, END_TO_END.len() + per_layer().len());
    }

    #[test]
    fn render_requires_every_end_to_end_metric() {
        let mut r = Report {
            attempted: 4,
            failed: 1,
            ..Report::default()
        };
        assert!(r.render(false).is_err());
        for (name, _) in END_TO_END {
            r.set(name, 1.5, Some(3));
        }
        let (table, line) = r.render(false).unwrap();
        assert_eq!(table.len(), END_TO_END.len());
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 4, \"failed\": 1,"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        assert!((r.ok_share() - 0.75).abs() < 1e-12);
        r.set("items_s", f64::NAN, None);
        assert!(r.render(false).is_err());
    }

    #[test]
    fn traced_render_marks_unexercised_layers() {
        let mut r = Report {
            attempted: 1,
            ..Report::default()
        };
        r.set("setup.build_s", 0.25, None);
        let (table, line) = r.render(true).unwrap();
        assert_eq!(table.len(), per_layer().len());
        assert!(line.contains("\"setup.build_s\": {\"value\": 0.25, \"unit\": \"s\"}"));
        assert!(line.contains("\"setup.warm_s\": {\"value\": 0.0, \"unit\": \"s\"}"));
        assert!(table.iter().any(|l| l.contains("not exercised")));
        assert!(r.correct());
    }

    #[test]
    fn percentiles_carry_the_sample_count_rule() {
        assert_eq!(sample_note("latency_ms.p90", Some(100)), "n=100");
        assert_eq!(
            sample_note("latency_ms.p90", Some(40)),
            "n=40, fewer than 10 beyond"
        );
        assert_eq!(sample_note("latency_ms.p50", Some(20)), "n=20");
        assert_eq!(sample_note("items_s", Some(3)), "n=3");
        assert_eq!(sample_note("peak_rss_mb", None), "");
    }
}
