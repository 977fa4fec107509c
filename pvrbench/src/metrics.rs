//! The metric set, as declared in `BENCHMARK.json`, and the result line.

use std::fmt::Write as _;

/// End-to-end metrics (`--trace 0`): name, unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("run_ref", "ref"),
    ("op_ref", "ref"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (`--trace 1`): name, unit.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("wall.run_s", "s"),
    ("wall.op_us_p50", "us"),
    ("wall.host_ref_us", "us"),
    ("ult.switch_ns", "ns"),
    ("rts.ns_per_switch", "ns"),
    ("rts.ctx_switches_per_op", "count/op"),
    ("rts.epochs_per_op", "count/op"),
    ("rts.context_switches", "count"),
    ("rts.messages_delivered", "count"),
    ("rts.epochs", "count"),
    ("rts.msg_lifecycle_ns", "ns"),
    ("rts.pool_hit_frac", "fraction"),
    ("rts.msg_ns_shallow", "ns"),
    ("rts.msg_ns_deep", "ns"),
    ("rts.req_posts", "count"),
    ("rts.req_wait_blocks", "count"),
    ("rts.worker_busy_frac", "fraction"),
    ("rts.barriers", "count"),
    ("des.drain_ns_per_event", "ns"),
    ("privatize.instantiate_us_per_rank", "us"),
    ("privatize.copied_kb_per_rank", "KiB"),
    ("privatize.cow_resident_kb_per_rank", "KiB"),
    ("isomalloc.pack_gb_s", "GB/s"),
    ("isomalloc.unpack_gb_s", "GB/s"),
    ("rts.lb_rebalance_us", "us"),
    ("rts.lb_steps", "count"),
    ("rts.migrations", "count"),
    ("rts.migration_mb", "MiB"),
    ("rts.migration_wall_ms", "ms"),
    ("rts.ckpt_bases", "count"),
    ("rts.ckpt_deltas", "count"),
    ("rts.ckpt_delta_mb", "MiB"),
    ("rts.ckpt_seals", "count"),
    ("rts.ckpt_compactions", "count"),
    ("rts.ckpt_pause_ms", "ms"),
    ("rts.recoveries", "count"),
    ("rts.retransmits", "count"),
    ("rts.msgs_dropped", "count"),
    ("rts.dups_suppressed", "count"),
    ("ampi.send_ns_p50", "ns"),
    ("ampi.recv_us_p50", "us"),
    ("ampi.rtt_us_p99", "us"),
    ("ampi.irecv_post_ns_p50", "ns"),
    ("ampi.waitall_ms_p50", "ms"),
    ("apps.jacobi_kernel_mpts_s", "Mpt/s"),
    ("apps.runtime_efficiency", "fraction"),
    ("sim.makespan_ms", "sim-ms"),
    ("sim.pe_utilization", "fraction"),
    ("trace.overhead_pct", "%"),
    ("trace.events", "count"),
    ("trace.dropped", "count"),
];

/// The metrics of one invocation, in declaration order.
pub struct Metrics {
    declared: &'static [(&'static str, &'static str)],
    values: Vec<Option<f64>>,
}

impl Metrics {
    pub fn new(trace: bool) -> Metrics {
        let declared = if trace { PER_LAYER } else { END_TO_END };
        Metrics {
            declared,
            values: vec![None; declared.len()],
        }
    }

    /// Set a declared metric. Setting an undeclared name is a bug in the
    /// benchmark, so it panics.
    pub fn set(&mut self, name: &str, value: f64) {
        let i = self
            .declared
            .iter()
            .position(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not declared"));
        self.values[i] = Some(value);
    }

    /// `(name, value, unit)` for every declared metric; a metric that was
    /// never set is a bug in the benchmark, so it panics.
    pub fn entries(&self) -> Vec<(&'static str, f64, &'static str)> {
        self.declared
            .iter()
            .zip(&self.values)
            .map(|(&(name, unit), v)| {
                let v = v.unwrap_or_else(|| panic!("metric {name} was never set"));
                (name, v, unit)
            })
            .collect()
    }
}

/// A finite number as JSON, with every digit Rust's shortest round-trip
/// formatting gives. A non-finite value has no JSON form and is a bug.
fn json_number(v: f64) -> String {
    assert!(v.is_finite(), "non-finite metric value {v}");
    let s = format!("{v}");
    if s.contains('.') || s.contains('e') {
        s
    } else {
        format!("{s}.0")
    }
}

/// The result object the benchmark prints as its last line.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value, unit)) in metrics.entries().into_iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(value)
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    /// `(name, unit)` pairs of the objects in the JSON array under `key`.
    /// The file is flat enough that a scan for its keys suffices.
    fn declared_in_json(key: &str) -> Vec<(String, String)> {
        let start = BENCHMARK_JSON
            .find(&format!("\"{key}\""))
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
        let body = &BENCHMARK_JSON[start..];
        let end = body.find(']').expect("array closes");
        let field = |obj: &str, f: &str| -> String {
            let at = obj.find(&format!("\"{f}\"")).expect("field present");
            let rest = &obj[at + f.len() + 2..];
            let open = rest.find('"').expect("string value") + 1;
            let close = open + rest[open..].find('"').expect("string closes");
            rest[open..close].to_string()
        };
        body[..end]
            .split('{')
            .skip(1)
            .map(|obj| (field(obj, "name"), field(obj, "unit")))
            .collect()
    }

    fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn printed_metrics_are_the_declared_ones() {
        assert_eq!(owned(END_TO_END), declared_in_json("end_to_end"));
        assert_eq!(owned(PER_LAYER), declared_in_json("per_layer"));
    }

    #[test]
    fn result_line_has_every_metric_with_full_precision() {
        let mut m = Metrics::new(false);
        for (i, (name, _)) in END_TO_END.iter().enumerate() {
            m.set(name, 1.0 / (i as f64 + 3.0));
        }
        let line = result_line(true, 10, 0, &m);
        assert!(line
            .starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.3333333333333333, \"unit\": \"s\"}"));
        assert!(line.ends_with("}}"));
        assert_eq!(json_number(2.0), "2.0");
        assert_eq!(json_number(1e-9), "0.000000001");
    }

    #[test]
    #[should_panic(expected = "never set")]
    fn an_unset_metric_is_a_bug() {
        Metrics::new(true).entries();
    }
}
