//! Metric names, units and the result line.

use crate::load::OpCount;
use std::collections::BTreeMap;

/// End-to-end metrics: every workload reports every one of them (see
/// README.md for what each means per workload).
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("p50_us", "us"),
    ("throughput_per_s", "1/s"),
    ("job_s", "s"),
];

/// Per-layer metrics of the traced run. A layer a workload does not call
/// reports 0.
pub const PER_LAYER: [(&str, &str); 50] = [
    ("latency.tail_us", "us"),
    ("quality.f1", "ratio"),
    ("serve.tcp.overhead_p50_us", "us"),
    ("serve.tcp.refused", "count"),
    ("serve.proto.parse_us", "us"),
    ("serve.proto.parse_ns_per_cell", "ns"),
    ("serve.proto.render_us", "us"),
    ("serve.handle_us", "us"),
    ("serve.engine.repair_us", "us"),
    ("serve.engine.append_us", "us"),
    ("serve.append_p50_us", "us"),
    ("table.build_rows_us", "us"),
    ("table.pool_values_added", "count"),
    ("shard.repair_batch_us", "us"),
    ("shard.overhead_us", "us"),
    ("shard.routed", "count"),
    ("shard.broadcast", "count"),
    ("shard.imbalance", "ratio"),
    ("rules.batch_repair_us", "us"),
    ("rules.ns_per_row", "ns"),
    ("rules.vote_rows", "count"),
    ("rules.signature_probes", "count"),
    ("rules.signature_dedup", "ratio"),
    ("rules.rescore_us", "us"),
    ("analyze.gate_us", "us"),
    ("incr.append_us", "us"),
    ("ingest.rows_per_s", "1/s"),
    ("ingest.chunks", "count"),
    ("ingest.peak_buffer_bytes", "bytes"),
    ("rl.learn_us", "us"),
    ("rl.q_values_us", "us"),
    ("rl.learn_steps", "count"),
    ("rlminer.env_step_us", "us"),
    ("rlminer.mask_us", "us"),
    ("rlminer.steps", "count"),
    ("rlminer.episodes", "count"),
    ("rlminer.fresh_evaluations", "count"),
    ("enuminer.evaluated", "count"),
    ("enuminer.us_per_eval", "us"),
    ("enuminer.f1", "ratio"),
    ("loadgen.late_p99_us", "us"),
    ("ops.attempted", "count"),
    ("ops.failed", "count"),
    ("ops.refused", "count"),
    ("ops.failed_share", "ratio"),
    ("trace.spans", "count"),
    ("trace.roots", "count"),
    ("trace.unattributed_us", "us"),
    ("trace.root_us", "us"),
    ("trace.overhead_pct", "%"),
];

/// Everything one run measured.
#[derive(Debug, Default)]
pub struct Report {
    pub e2e: BTreeMap<&'static str, f64>,
    pub layer: BTreeMap<&'static str, f64>,
    /// Per op type: (op, how it was driven, counts).
    pub ops: Vec<(&'static str, String, OpCount)>,
    /// Correctness violations found; any one fails the run.
    pub violations: Vec<String>,
}

impl Report {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(what());
        }
    }

    pub fn attempted(&self) -> u64 {
        self.ops.iter().map(|(_, _, c)| c.attempted).sum()
    }

    /// Failed plus refused ops.
    pub fn failed(&self) -> u64 {
        self.ops.iter().map(|(_, _, c)| c.failed + c.refused).sum()
    }

    /// Fill the op accounting into the per-layer metrics.
    pub fn account_ops(&mut self) {
        let (attempted, failed) = (self.attempted(), self.failed());
        let refused: u64 = self.ops.iter().map(|(_, _, c)| c.refused).sum();
        self.layer.insert("ops.attempted", attempted as f64);
        self.layer.insert("ops.failed", (failed - refused) as f64);
        self.layer.insert("ops.refused", refused as f64);
        self.layer
            .insert("ops.failed_share", failed as f64 / attempted.max(1) as f64);
    }

    /// Human-readable accounting, printed before the result line.
    pub fn accounting_lines(&self) -> Vec<String> {
        self.ops
            .iter()
            .map(|(op, how, c)| {
                format!(
                    "ops {op:<10} {how}: attempted {} succeeded {} failed {} refused {}",
                    c.attempted, c.succeeded, c.failed, c.refused
                )
            })
            .collect()
    }

    /// The result line: end-to-end metrics untraced, per-layer ones traced.
    pub fn result_line(&self, traced: bool) -> Result<String, String> {
        let correct = self.violations.is_empty();
        let mut fields = Vec::new();
        if correct {
            let (specs, values): (&[(&str, &str)], _) = if traced {
                (&PER_LAYER, &self.layer)
            } else {
                (&END_TO_END, &self.e2e)
            };
            for (name, unit) in specs {
                let value = match values.get(name) {
                    Some(v) => *v,
                    None if traced => 0.0,
                    None => return Err(format!("metric {name} was not measured")),
                };
                if !value.is_finite() {
                    return Err(format!("metric {name} is not finite: {value}"));
                }
                fields.push(format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    number(value)
                ));
            }
        }
        Ok(format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted().max(1),
            self.failed(),
            fields.join(", ")
        ))
    }
}

/// A JSON number with every digit Rust's shortest round-trip form gives.
fn number(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Names, units and order of BENCHMARK.json must be the ones printed.
    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).unwrap();
        let doc: serde_json::Value = serde_json::from_str(&text).unwrap();
        let names = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(|v| v.as_array())
                .unwrap()
                .iter()
                .map(|m| {
                    (
                        m.get("name").and_then(|v| v.as_str()).unwrap().to_string(),
                        m.get("unit").and_then(|v| v.as_str()).unwrap().to_string(),
                    )
                })
                .collect()
        };
        let want = |specs: &[(&str, &str)]| -> Vec<(String, String)> {
            specs
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), want(&END_TO_END));
        assert_eq!(names("per_layer"), want(&PER_LAYER));
    }

    #[test]
    fn result_line_carries_every_metric_or_none() {
        let mut r = Report::default();
        for (name, _) in END_TO_END {
            r.e2e.insert(name, 1.5);
        }
        r.ops.push((
            "repair",
            "closed".into(),
            OpCount {
                attempted: 4,
                succeeded: 3,
                failed: 1,
                refused: 0,
            },
        ));
        let line = r.result_line(false).unwrap();
        let v: serde_json::Value = serde_json::from_str(&line).unwrap();
        assert_eq!(
            v.get("metrics").and_then(|m| m.as_object()).map(<[_]>::len),
            Some(END_TO_END.len())
        );
        assert!(line.contains("\"attempted\": 4, \"failed\": 1"));
        // Traced: absent layers read 0.
        let traced = r.result_line(true).unwrap();
        let v: serde_json::Value = serde_json::from_str(&traced).unwrap();
        assert_eq!(
            v.get("metrics").and_then(|m| m.as_object()).map(<[_]>::len),
            Some(PER_LAYER.len())
        );
        // A violation empties the metrics.
        r.check(false, || "bad".into());
        assert!(r.result_line(false).unwrap().contains("\"correct\": false"));
        assert!(r.result_line(false).unwrap().contains("\"metrics\": {}"));
        // A missing end-to-end metric is an error, not a silent zero.
        r.violations.clear();
        r.e2e.remove("job_s");
        assert!(r.result_line(false).is_err());
    }
}
