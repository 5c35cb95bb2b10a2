//! Reader for `BENCH_kernels.json` (schema v2).
//!
//! The benchmark trajectory only works if later runs can read the numbers
//! earlier runs wrote. Schema **v2** records, per kernel, the naive, blocked,
//! plan-build and prepared wall-clocks, plus the git revision and the
//! end-to-end model section. [`parse_report`] reads it and rejects any other
//! schema string (the repository keeps no older file).
//!
//! The offline build has no serde, so this module carries a minimal
//! recursive-descent JSON parser (objects, arrays, strings, numbers, bools,
//! null) — enough for the fixed benchmark schema and small hand-written
//! fixtures.

use std::collections::BTreeMap;

/// A parsed JSON value (minimal offline parser).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number, kept as `f64`.
    Number(f64),
    /// A string (escape sequences decoded).
    String(String),
    /// An array.
    Array(Vec<Json>),
    /// An object (key order not preserved).
    Object(BTreeMap<String, Json>),
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(map) => map.get(key),
            _ => None,
        }
    }

    fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(x) => Some(*x),
            _ => None,
        }
    }

    fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Option<()> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Some(())
        } else {
            None
        }
    }

    fn parse_value(&mut self) -> Option<Json> {
        self.skip_ws();
        match self.peek()? {
            b'{' => self.parse_object(),
            b'[' => self.parse_array(),
            b'"' => Some(Json::String(self.parse_string()?)),
            b't' => self.parse_keyword("true", Json::Bool(true)),
            b'f' => self.parse_keyword("false", Json::Bool(false)),
            b'n' => self.parse_keyword("null", Json::Null),
            _ => self.parse_number(),
        }
    }

    fn parse_keyword(&mut self, word: &str, value: Json) -> Option<Json> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Some(value)
        } else {
            None
        }
    }

    fn parse_object(&mut self) -> Option<Json> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Some(Json::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.parse_value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Some(Json::Object(map));
                }
                _ => return None,
            }
        }
    }

    fn parse_array(&mut self) -> Option<Json> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Some(Json::Array(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Some(Json::Array(items));
                }
                _ => return None,
            }
        }
    }

    fn parse_string(&mut self) -> Option<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek()? {
                b'"' => {
                    self.pos += 1;
                    return Some(out);
                }
                b'\\' => {
                    self.pos += 1;
                    let escaped = self.peek()?;
                    self.pos += 1;
                    match escaped {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self.bytes.get(self.pos..self.pos + 4)?;
                            let code =
                                u32::from_str_radix(std::str::from_utf8(hex).ok()?, 16).ok()?;
                            self.pos += 4;
                            out.push(char::from_u32(code)?);
                        }
                        _ => return None,
                    }
                }
                _ => {
                    // Consume one UTF-8 code point.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..]).ok()?;
                    let ch = rest.chars().next()?;
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn parse_number(&mut self) -> Option<Json> {
        let start = self.pos;
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()?
            .parse::<f64>()
            .ok()
            .map(Json::Number)
    }
}

/// Parses a JSON document (returns `None` on malformed input or trailing
/// garbage).
pub fn parse_json(input: &str) -> Option<Json> {
    let mut parser = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    let value = parser.parse_value()?;
    parser.skip_ws();
    if parser.pos == parser.bytes.len() {
        Some(value)
    } else {
        None
    }
}

/// One kernel row of a benchmark report.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelRecord {
    /// Kernel name.
    pub kernel: String,
    /// Problem shape.
    pub shape: String,
    /// Naive reference wall-clock, ms.
    pub naive_ms: f64,
    /// Cold blocked wall-clock, ms.
    pub blocked_ms: f64,
    /// Plan-build wall-clock, ms (absent when the row carries none).
    pub plan_build_ms: Option<f64>,
    /// Prepared execute wall-clock, ms (absent when the row carries none).
    pub prepared_ms: Option<f64>,
    /// Recorded naive-over-blocked speedup.
    pub speedup: f64,
    /// Whether the paths were bit-identical in that run.
    pub bit_identical: bool,
    /// Whether the row carries the headline target.
    pub headline: bool,
}

/// One model row of a benchmark report.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelRecord {
    /// Model name.
    pub model: String,
    /// Batch size.
    pub batch: usize,
    /// Sequence length.
    pub seq_len: usize,
    /// Forward-pass wall-clock, ms.
    pub forward_ms: f64,
    /// Functional throughput (items/s).
    pub throughput: f64,
    /// Unit (`tokens/s` / `images/s`).
    pub unit: String,
    /// Steady-state plan-cache hit rate of the serving trace (absent before
    /// the bucketed serving stack).
    pub serving_hit_rate: Option<f64>,
    /// Aggregate items/s of the bucketed serving trace.
    pub serving_throughput: Option<f64>,
    /// Aggregate items/s of the per-request cold-plan baseline on the same
    /// trace.
    pub serving_cold_throughput: Option<f64>,
    /// Whether the bucketed trace was bit-identical to the cold oracle.
    pub serving_bit_identical: Option<bool>,
    /// Panel bytes the fused multi-segment probe streamed (absent before the
    /// fused-sweep serving path).
    pub serving_panel_bytes_fused: Option<f64>,
    /// Panel bytes the per-segment baseline streamed on the same probe.
    pub serving_panel_bytes_segmented: Option<f64>,
    /// Coalescing-server wall-clock on the fan-out trace, ms.
    pub serving_coalesced_wall_ms: Option<f64>,
    /// Uncoalesced fan-out wall-clock on the same trace, ms.
    pub serving_mt_wall_ms: Option<f64>,
    /// Continuous-batching trace: windowed-server wall, ms (absent before
    /// the `Server` front-end existed).
    pub serving_cb_windowed_wall_ms: Option<f64>,
    /// Continuous-batching trace: zero-window baseline wall, ms.
    pub serving_cb_zero_wall_ms: Option<f64>,
    /// Whether the windowed responses were bit-identical to per-request
    /// cold execution.
    pub serving_cb_bit_identical: Option<bool>,
    /// Deadline-class p99 end-to-end latency of the windowed run, ms.
    pub serving_cb_deadline_p99_ms: Option<f64>,
    /// Bulk-class p99 end-to-end latency of the windowed run, ms.
    pub serving_cb_bulk_p99_ms: Option<f64>,
    /// Best coalescing cap (columns) of the cap sweep on the recording box.
    pub serving_cb_best_cap: Option<f64>,
    /// Bulk requests shed on the overload sub-trace (door + queued).
    pub serving_cb_overload_shed: Option<f64>,
    /// Shed fraction of the overload sub-trace's bulk arrivals.
    pub serving_cb_overload_shed_rate: Option<f64>,
    /// Deadline-class p99 of the overload sub-trace, ms.
    pub serving_cb_overload_deadline_p99_ms: Option<f64>,
    /// Bulk-class p99 of the overload sub-trace, ms.
    pub serving_cb_overload_bulk_p99_ms: Option<f64>,
    /// Weight swaps published by the live-update sub-trace (absent before
    /// zero-downtime updates existed).
    pub serving_cb_update_swaps: Option<f64>,
    /// 99th-percentile swap latency of the live-update sub-trace, ms.
    pub serving_cb_update_swap_p99_ms: Option<f64>,
    /// Delta-re-pack bytes over full-rebuild bytes across the swaps.
    pub serving_cb_repack_bytes_ratio: Option<f64>,
    /// Executes that finished on a superseded version snapshot.
    pub serving_cb_stale_plan_executes: Option<f64>,
    /// Accepted tickets that failed during the update sub-trace.
    pub serving_cb_update_failed_requests: Option<f64>,
    /// Data-parallel replicas of the replicated serving sub-trace (absent
    /// before the replicated tier existed).
    pub serving_cb_replica_count: Option<f64>,
    /// Dispatches that failed over off their killed home replica.
    pub serving_cb_replica_failovers: Option<f64>,
    /// p99 service time of failed-over dispatches, ms.
    pub serving_cb_failover_p99_ms: Option<f64>,
    /// Hedged Deadline dispatches won by the alternate replica.
    pub serving_cb_hedge_wins: Option<f64>,
    /// Bulk fraction shed while the fleet was degraded below the routable
    /// capacity threshold.
    pub serving_cb_degraded_shed_rate: Option<f64>,
    /// Accepted replicated-trace tickets that failed with anything but the
    /// typed degraded-mode shed (or mismatched the oracle bits).
    pub serving_cb_replica_failed_requests: Option<f64>,
    /// Aggregate interleaved decode throughput of the decode-session
    /// sub-trace, tokens/s (absent before decode sessions existed, and on
    /// models the sub-trace skips).
    pub serving_decode_tokens_s: Option<f64>,
    /// Median per-token service time of the interleaved decode run, ms.
    pub serving_decode_token_p50_ms: Option<f64>,
    /// 99th-percentile per-token service time, ms.
    pub serving_decode_token_p99_ms: Option<f64>,
    /// Mean columns per interleave sweep (> 1 means sequences coalesced).
    pub serving_decode_mean_interleave_width: Option<f64>,
    /// Sessions evicted under the scripted mid-trace pressure.
    pub serving_decode_evictions: Option<f64>,
    /// Evicted sessions resumed.
    pub serving_decode_resumed: Option<f64>,
    /// Accepted decode tokens that never arrived (the zero-loss gate).
    pub serving_decode_lost_tokens: Option<f64>,
    /// Whether the checked decode sessions matched the cold oracle bit for
    /// bit.
    pub serving_decode_bit_identical: Option<bool>,
    /// Per-token throughput of the serial one-session-at-a-time baseline,
    /// tokens/s.
    pub serving_decode_serial_tokens_s: Option<f64>,
    /// Implicit-conv transform bytes read per forward (absent before the
    /// implicit-GEMM conv plans existed).
    pub conv_input_bytes_read: Option<f64>,
    /// Im2col bytes the implicit conv path avoids materialising per forward.
    pub conv_im2col_bytes_avoided: Option<f64>,
    /// Implicit-conv forward throughput, images/s.
    pub conv_implicit_images_s: Option<f64>,
    /// Materialised-im2col forward throughput, images/s.
    pub conv_im2col_images_s: Option<f64>,
    /// Recorded implicit-over-im2col forward speedup.
    pub conv_speedup: Option<f64>,
    /// Whether the implicit conv outputs matched the cold im2col oracle bit
    /// for bit.
    pub conv_bit_identical: Option<bool>,
    /// Bytes charged to the im2col traffic counter during an implicit
    /// forward (0 when the implicit path materialises nothing).
    pub conv_im2col_bytes_on_implicit: Option<f64>,
}

/// A parsed `BENCH_kernels.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Schema version (always 2).
    pub schema_version: u32,
    /// Thread count recorded in the run.
    pub threads: usize,
    /// Git revision, when the run recorded one.
    pub git_rev: Option<String>,
    /// Per-kernel rows.
    pub kernels: Vec<KernelRecord>,
    /// Per-model rows.
    pub models: Vec<ModelRecord>,
}

/// Parses a `BENCH_kernels.json` document of schema v2. Returns `None` for
/// malformed JSON or any other schema string.
pub fn parse_report(input: &str) -> Option<BenchReport> {
    let doc = parse_json(input)?;
    if doc.get("schema")?.as_str()? != "shfl-bw-repro/bench-kernels/v2" {
        return None;
    }
    let threads = doc.get("threads")?.as_f64()? as usize;
    let git_rev = doc
        .get("git_rev")
        .and_then(Json::as_str)
        .map(str::to_string);
    let mut kernels = Vec::new();
    for row in doc.get("results")?.as_array()? {
        kernels.push(KernelRecord {
            kernel: row.get("kernel")?.as_str()?.to_string(),
            shape: row.get("shape")?.as_str()?.to_string(),
            naive_ms: row.get("naive_ms")?.as_f64()?,
            blocked_ms: row.get("blocked_ms")?.as_f64()?,
            plan_build_ms: row.get("plan_build_ms").and_then(Json::as_f64),
            prepared_ms: row.get("prepared_ms").and_then(Json::as_f64),
            speedup: row.get("speedup")?.as_f64()?,
            bit_identical: row.get("bit_identical")?.as_bool()?,
            headline: row.get("headline")?.as_bool()?,
        });
    }
    let mut models = Vec::new();
    if let Some(rows) = doc.get("models").and_then(Json::as_array) {
        for row in rows {
            let serving = row.get("serving");
            let serving_field = |key: &str| serving.and_then(|s| s.get(key)).and_then(Json::as_f64);
            let continuous = serving.and_then(|s| s.get("continuous"));
            let cb_field = |key: &str| continuous.and_then(|c| c.get(key)).and_then(Json::as_f64);
            let decode = serving.and_then(|s| s.get("decode"));
            let decode_field = |key: &str| decode.and_then(|d| d.get(key)).and_then(Json::as_f64);
            let conv = row.get("conv_implicit");
            let conv_field = |key: &str| conv.and_then(|c| c.get(key)).and_then(Json::as_f64);
            models.push(ModelRecord {
                model: row.get("model")?.as_str()?.to_string(),
                batch: row.get("batch")?.as_f64()? as usize,
                seq_len: row.get("seq_len")?.as_f64()? as usize,
                forward_ms: row.get("forward_ms")?.as_f64()?,
                throughput: row.get("throughput")?.as_f64()?,
                unit: row.get("unit")?.as_str()?.to_string(),
                serving_hit_rate: serving_field("hit_rate"),
                serving_throughput: serving_field("throughput"),
                serving_cold_throughput: serving_field("cold_throughput"),
                serving_bit_identical: serving
                    .and_then(|s| s.get("bit_identical"))
                    .and_then(Json::as_bool),
                serving_panel_bytes_fused: serving_field("panel_bytes_fused"),
                serving_panel_bytes_segmented: serving_field("panel_bytes_segmented"),
                serving_coalesced_wall_ms: serving_field("coalesced_wall_ms"),
                serving_mt_wall_ms: serving_field("mt_wall_ms"),
                serving_cb_windowed_wall_ms: cb_field("windowed_wall_ms"),
                serving_cb_zero_wall_ms: cb_field("zero_wall_ms"),
                serving_cb_bit_identical: continuous
                    .and_then(|c| c.get("bit_identical"))
                    .and_then(Json::as_bool),
                serving_cb_deadline_p99_ms: cb_field("deadline_p99_ms"),
                serving_cb_bulk_p99_ms: cb_field("bulk_p99_ms"),
                serving_cb_best_cap: cb_field("best_cap"),
                serving_cb_overload_shed: cb_field("overload_shed"),
                serving_cb_overload_shed_rate: cb_field("overload_shed_rate"),
                serving_cb_overload_deadline_p99_ms: cb_field("overload_deadline_p99_ms"),
                serving_cb_overload_bulk_p99_ms: cb_field("overload_bulk_p99_ms"),
                serving_cb_update_swaps: cb_field("update_swaps"),
                serving_cb_update_swap_p99_ms: cb_field("update_swap_p99_ms"),
                serving_cb_repack_bytes_ratio: cb_field("repack_bytes_ratio"),
                serving_cb_stale_plan_executes: cb_field("stale_plan_executes"),
                serving_cb_update_failed_requests: cb_field("update_failed_requests"),
                serving_cb_replica_count: cb_field("replica_count"),
                serving_cb_replica_failovers: cb_field("replica_failovers"),
                serving_cb_failover_p99_ms: cb_field("failover_p99_ms"),
                serving_cb_hedge_wins: cb_field("hedge_wins"),
                serving_cb_degraded_shed_rate: cb_field("degraded_shed_rate"),
                serving_cb_replica_failed_requests: cb_field("replica_failed_requests"),
                serving_decode_tokens_s: decode_field("decode_tokens_s"),
                serving_decode_token_p50_ms: decode_field("token_p50_ms"),
                serving_decode_token_p99_ms: decode_field("token_p99_ms"),
                serving_decode_mean_interleave_width: decode_field("mean_interleave_width"),
                serving_decode_evictions: decode_field("evictions"),
                serving_decode_resumed: decode_field("resumed"),
                serving_decode_lost_tokens: decode_field("lost_tokens"),
                serving_decode_bit_identical: decode
                    .and_then(|d| d.get("bit_identical"))
                    .and_then(Json::as_bool),
                serving_decode_serial_tokens_s: decode_field("serial_tokens_s"),
                conv_input_bytes_read: conv_field("input_bytes_read"),
                conv_im2col_bytes_avoided: conv_field("im2col_bytes_avoided"),
                conv_implicit_images_s: conv_field("implicit_images_s"),
                conv_im2col_images_s: conv_field("im2col_images_s"),
                conv_speedup: conv_field("speedup"),
                conv_bit_identical: conv
                    .and_then(|c| c.get("bit_identical"))
                    .and_then(Json::as_bool),
                conv_im2col_bytes_on_implicit: conv_field("im2col_bytes_on_implicit"),
            });
        }
    }
    Some(BenchReport {
        schema_version: 2,
        threads,
        git_rev,
        kernels,
        models,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_the_v2_writer() {
        // A small synthetic run exercises the writer→reader path without the
        // cost of actually benchmarking.
        let run = crate::bench_kernels::BenchRun {
            kernels: vec![crate::bench_kernels::BenchResult {
                kernel: "shfl_bw_spmm_execute".into(),
                shape: "1024x1024x256 V=64 70% sparse".into(),
                naive_ms: 100.0,
                blocked_ms: 8.0,
                plan_build_ms: 2.0,
                prepared_ms: 4.0,
                bit_identical: true,
                headline: true,
            }],
            models: vec![crate::bench_kernels::ModelBenchResult {
                model: "GNMT".into(),
                batch: 4,
                seq_len: 1,
                layers: 6,
                build_ms: 120.0,
                forward_ms: 80.0,
                throughput: 50.0,
                modeled_throughput: 4000.0,
                unit: "tokens/s",
                serving: Some(crate::bench_serving::ServingBenchResult {
                    model: "GNMT".into(),
                    unit: "tokens/s",
                    forwards: 8,
                    hit_rate: 0.975,
                    p50_ms: 10.0,
                    p95_ms: 20.0,
                    p99_ms: 25.0,
                    throughput: 60.0,
                    cold_throughput: 40.0,
                    bit_identical: true,
                    mt_workers: 4,
                    mt_requests: 32,
                    mt_wall_ms: 120.0,
                    panel_segments: 5,
                    panel_sweep_bytes: 4096,
                    panel_bytes_fused: 4096,
                    panel_bytes_segmented: 20480,
                    coalesced_requests: 32,
                    coalesced_wall_ms: 60.0,
                    coalesced_bit_identical: true,
                    continuous: crate::bench_serving::ContinuousBenchResult {
                        layers: 6,
                        requests: 96,
                        window_us: 8_000,
                        windowed_wall_ms: 45.0,
                        zero_wall_ms: 90.0,
                        bit_identical: true,
                        windowed_groups: 30,
                        coalesced_requests: 80,
                        windowed_panel_bytes: 1_000,
                        zero_panel_bytes: 4_000,
                        deadline_p50_ms: 9.0,
                        deadline_p99_ms: 12.0,
                        standard_p99_ms: 20.0,
                        bulk_p50_ms: 18.0,
                        bulk_p99_ms: 30.0,
                        cap_sweep: vec![(256, 45.0)],
                        best_cap: 256,
                        overload_requests: 96,
                        overload_shed: 24,
                        overload_shed_rate: 0.5,
                        overload_deadline_p99_ms: 14.0,
                        overload_bulk_p99_ms: 55.0,
                        update_swaps: 8,
                        update_swap_p99_ms: 3.5,
                        repack_bytes_ratio: 0.125,
                        stale_plan_executes: 2,
                        update_failed_requests: 0,
                        replica_count: 3,
                        replica_requests: 72,
                        replica_failovers: 5,
                        failover_p99_ms: 2.25,
                        hedge_wins: 4,
                        degraded_shed_rate: 1.0,
                        replica_failed_requests: 0,
                        replica_deadline_p99_ms: 11.0,
                        replica_bulk_p99_ms: 28.0,
                    },
                    decode: Some(crate::bench_serving::DecodeBenchResult {
                        sessions: 32,
                        steps: 64,
                        tokens: 2048,
                        wall_ms: 400.0,
                        tokens_s: 5120.0,
                        token_p50_ms: 5.0,
                        token_p99_ms: 9.0,
                        mean_interleave_width: 24.5,
                        evictions: 4,
                        resumed: 4,
                        lost_tokens: 0,
                        bit_identical: true,
                        serial_sessions: 4,
                        serial_wall_ms: 200.0,
                        serial_tokens_s: 1280.0,
                    }),
                }),
                conv_implicit: Some(crate::bench_kernels::ConvImplicitBench {
                    input_bytes_read: 1_000,
                    im2col_bytes_avoided: 9_000,
                    implicit_ms: 10.0,
                    im2col_ms: 25.0,
                    implicit_images_s: 100.0,
                    im2col_images_s: 40.0,
                    bit_identical: true,
                    im2col_bytes_on_implicit: 0,
                }),
            }],
        };
        let json = crate::bench_kernels::to_json(&run);
        let report = parse_report(&json).unwrap();
        assert_eq!(report.schema_version, 2);
        assert!(report.git_rev.is_some());
        assert_eq!(report.kernels.len(), 1);
        let k = &report.kernels[0];
        assert_eq!(k.prepared_ms, Some(4.0));
        assert_eq!(k.plan_build_ms, Some(2.0));
        assert!((k.speedup - 12.5).abs() < 1e-9);
        assert_eq!(report.models.len(), 1);
        let m = &report.models[0];
        assert_eq!(m.model, "GNMT");
        assert_eq!(m.unit, "tokens/s");
        assert_eq!(m.serving_hit_rate, Some(0.975));
        assert_eq!(m.serving_throughput, Some(60.0));
        assert_eq!(m.serving_cold_throughput, Some(40.0));
        assert_eq!(m.serving_bit_identical, Some(true));
        assert_eq!(m.serving_panel_bytes_fused, Some(4096.0));
        assert_eq!(m.serving_panel_bytes_segmented, Some(20480.0));
        assert_eq!(m.serving_coalesced_wall_ms, Some(60.0));
        assert_eq!(m.serving_mt_wall_ms, Some(120.0));
        assert_eq!(m.serving_cb_windowed_wall_ms, Some(45.0));
        assert_eq!(m.serving_cb_zero_wall_ms, Some(90.0));
        assert_eq!(m.serving_cb_bit_identical, Some(true));
        assert_eq!(m.serving_cb_deadline_p99_ms, Some(12.0));
        assert_eq!(m.serving_cb_bulk_p99_ms, Some(30.0));
        assert_eq!(m.serving_cb_best_cap, Some(256.0));
        assert_eq!(m.serving_cb_overload_shed, Some(24.0));
        assert_eq!(m.serving_cb_overload_shed_rate, Some(0.5));
        assert_eq!(m.serving_cb_overload_deadline_p99_ms, Some(14.0));
        assert_eq!(m.serving_cb_overload_bulk_p99_ms, Some(55.0));
        assert_eq!(m.serving_cb_update_swaps, Some(8.0));
        assert_eq!(m.serving_cb_update_swap_p99_ms, Some(3.5));
        assert_eq!(m.serving_cb_repack_bytes_ratio, Some(0.125));
        assert_eq!(m.serving_cb_stale_plan_executes, Some(2.0));
        assert_eq!(m.serving_cb_update_failed_requests, Some(0.0));
        assert_eq!(m.serving_cb_replica_count, Some(3.0));
        assert_eq!(m.serving_cb_replica_failovers, Some(5.0));
        assert_eq!(m.serving_cb_failover_p99_ms, Some(2.25));
        assert_eq!(m.serving_cb_hedge_wins, Some(4.0));
        assert_eq!(m.serving_cb_degraded_shed_rate, Some(1.0));
        assert_eq!(m.serving_cb_replica_failed_requests, Some(0.0));
        assert_eq!(m.serving_decode_tokens_s, Some(5120.0));
        assert_eq!(m.serving_decode_token_p50_ms, Some(5.0));
        assert_eq!(m.serving_decode_token_p99_ms, Some(9.0));
        assert_eq!(m.serving_decode_mean_interleave_width, Some(24.5));
        assert_eq!(m.serving_decode_evictions, Some(4.0));
        assert_eq!(m.serving_decode_resumed, Some(4.0));
        assert_eq!(m.serving_decode_lost_tokens, Some(0.0));
        assert_eq!(m.serving_decode_bit_identical, Some(true));
        assert_eq!(m.serving_decode_serial_tokens_s, Some(1280.0));
        assert_eq!(m.conv_input_bytes_read, Some(1000.0));
        assert_eq!(m.conv_im2col_bytes_avoided, Some(9000.0));
        assert_eq!(m.conv_implicit_images_s, Some(100.0));
        assert_eq!(m.conv_im2col_images_s, Some(40.0));
        assert_eq!(m.conv_speedup, Some(2.5));
        assert_eq!(m.conv_bit_identical, Some(true));
        assert_eq!(m.conv_im2col_bytes_on_implicit, Some(0.0));
    }

    #[test]
    fn model_rows_without_serving_parse_with_absent_fields() {
        let json = r#"{
  "schema": "shfl-bw-repro/bench-kernels/v2",
  "threads": 1,
  "results": [],
  "models": [
    {"model": "Transformer", "batch": 4, "seq_len": 16, "layers": 11, "build_ms": 1.0, "forward_ms": 2.0, "throughput": 3.0, "modeled_throughput": 4.0, "unit": "tokens/s"}
  ]
}"#;
        let report = parse_report(json).unwrap();
        assert_eq!(report.models.len(), 1);
        assert_eq!(report.models[0].serving_hit_rate, None);
        assert_eq!(report.models[0].serving_bit_identical, None);
        assert_eq!(report.models[0].serving_cb_windowed_wall_ms, None);
        assert_eq!(report.models[0].serving_cb_best_cap, None);
        assert_eq!(report.models[0].serving_cb_overload_shed, None);
        assert_eq!(report.models[0].serving_cb_overload_shed_rate, None);
        assert_eq!(report.models[0].serving_cb_update_swaps, None);
        assert_eq!(report.models[0].serving_cb_repack_bytes_ratio, None);
        assert_eq!(report.models[0].serving_cb_replica_count, None);
        assert_eq!(report.models[0].serving_cb_replica_failovers, None);
        assert_eq!(report.models[0].serving_cb_degraded_shed_rate, None);
        assert_eq!(report.models[0].serving_decode_tokens_s, None);
        assert_eq!(report.models[0].serving_decode_bit_identical, None);
        assert_eq!(report.models[0].serving_decode_lost_tokens, None);
        assert_eq!(report.models[0].conv_speedup, None);
        assert_eq!(report.models[0].conv_bit_identical, None);
        assert_eq!(report.models[0].conv_im2col_bytes_on_implicit, None);
    }

    #[test]
    fn rejects_malformed_and_unknown_documents() {
        assert!(parse_report("not json").is_none());
        assert!(parse_report("{\"schema\": \"something-else\", \"threads\": 1}").is_none());
        // The retired v1 schema is an unknown schema now.
        assert!(parse_report(
            "{\"schema\": \"shfl-bw-repro/bench-kernels/v1\", \"threads\": 1, \"results\": []}"
        )
        .is_none());
        assert!(parse_json("{\"a\": [1, 2,]}").is_none());
        assert!(parse_json("{} trailing").is_none());
    }

    #[test]
    fn json_parser_handles_escapes_and_nesting() {
        let doc = parse_json(r#"{"s": "a\"b\\c\nd", "arr": [1, -2.5, 3e2, true, null], "o": {}}"#)
            .unwrap();
        assert_eq!(doc.get("s").unwrap().as_str().unwrap(), "a\"b\\c\nd");
        let arr = doc.get("arr").unwrap().as_array().unwrap();
        assert_eq!(arr[1].as_f64().unwrap(), -2.5);
        assert_eq!(arr[2].as_f64().unwrap(), 300.0);
        assert_eq!(arr[3].as_bool(), Some(true));
        assert_eq!(arr[4], Json::Null);
        assert_eq!(parse_json(r#""A""#).unwrap().as_str().unwrap(), "A");
    }
}
