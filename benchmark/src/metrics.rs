//! The metric tables — the same names, units, directions and bounds that
//! `BENCHMARK.json` records (a unit test holds the two together) — and the
//! sample bag per-layer numbers are collected in.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use serde::Value;

use crate::stats;

/// One end-to-end metric: what a user of the system would see.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

/// The six end-to-end metrics; every workload reports all of them on its
/// own clock. Three more were end to end in the issue that defined the
/// benchmark and are per-layer metrics now: `ttft_ms_p90` and `itl_ms_p99`
/// (`tail.*`) and `host_cpu_us_per_token` (`host.cpu_us_per_token`) did not
/// repeat within a bound from run to run.
///
/// `BENCHMARK.json` holds one bound per metric, whatever the workload's
/// clock, so a bound is what the host-clock workloads need on a shared
/// host: three times the widest spread two sets of ten runs showed
/// (README.md, "Noise"). A modeled-clock number repeats exactly for a
/// seed; `--check-noise` holds those to a bound of zero.
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "ttft_ms_p50",
        unit: "ms",
        better: "lower",
        bound: 0.20,
    },
    EndToEnd {
        name: "tpot_ms_p50",
        unit: "ms",
        better: "lower",
        bound: 0.20,
    },
    EndToEnd {
        name: "tok_s",
        unit: "tok/s",
        better: "higher",
        bound: 0.20,
    },
    EndToEnd {
        name: "slo_ok_share",
        unit: "ratio",
        better: "higher",
        bound: 0.15,
    },
    EndToEnd {
        name: "peak_heap_mb",
        unit: "MB",
        better: "lower",
        bound: 0.05,
    },
];

/// How a per-layer metric is reduced from its samples.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reduce {
    Mean,
    Median,
    Sum,
    /// Nearest-rank percentile of the pooled samples.
    Tail(u8),
}

/// One per-layer metric: a number about a single layer of the program,
/// taken in the traced run.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub reduce: Reduce,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    reduce: Reduce,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        reduce,
    }
}

use Reduce::{Mean, Median, Sum, Tail};

/// The per-layer metrics, grouped by the module they measure. README.md
/// says which end-to-end metric each should move, and on which workload.
pub const PER_LAYER: [PerLayer; 67] = [
    layer("tail.ttft_ms_p90", "ms", "lower", Tail(90)),
    layer("tail.itl_ms_p99", "ms", "lower", Tail(99)),
    layer("host.cpu_us_per_token", "us", "lower", Median),
    layer("trace.request_us_per_prompt_token", "us", "lower", Median),
    layer("trace.next_step_us", "us", "lower", Median),
    layer("cache.hit_ratio", "ratio", "higher", Mean),
    layer("cache.evictions_per_step", "count", "lower", Mean),
    layer("cache.lookup_ns", "ns", "lower", Median),
    layer("cache.hit_ratio_vs_lru", "ratio", "higher", Mean),
    layer("sched.schedule_us_per_layer.decode", "us", "lower", Median),
    layer("sched.schedule_us_per_layer.prefill", "us", "lower", Median),
    layer("sched.host_overhead_share", "ratio", "lower", Mean),
    layer("sched.cpu_expert_share", "ratio", "lower", Mean),
    layer("sched.demand_transfers_per_step", "count", "lower", Mean),
    layer("sched.tok_s_vs_ktransformers", "ratio", "higher", Mean),
    layer("sched.ttft_p50_vs_ktransformers", "ratio", "lower", Mean),
    layer("prefetch.issued", "count", "higher", Sum),
    layer("prefetch.landed", "count", "higher", Sum),
    layer("prefetch.wasted", "count", "lower", Sum),
    layer("prefetch.useful_ratio", "ratio", "higher", Mean),
    layer("prefetch.plan_us_per_layer", "us", "lower", Median),
    layer("prefetch.tok_s_vs_none", "ratio", "higher", Mean),
    layer("prefetch.hit_ratio_vs_none", "ratio", "higher", Mean),
    layer("hw.cpu_busy_share", "ratio", "lower", Mean),
    layer("hw.gpu_busy_share", "ratio", "higher", Mean),
    layer("hw.pcie_busy_share", "ratio", "lower", Mean),
    layer("hw.model_vs_measured_cpu_ratio", "ratio", "higher", Mean),
    layer("kernels.ffn_us_per_token.b1", "us", "lower", Median),
    layer("kernels.ffn_us_per_token.b32", "us", "lower", Median),
    layer("kernels.gflops.b1", "GFLOP/s", "higher", Median),
    layer("kernels.gflops.b32", "GFLOP/s", "higher", Median),
    layer("kernels.flop_per_token", "count", "lower", Mean),
    layer("kernels.weight_bytes_per_token", "count", "lower", Mean),
    layer("engine.step_us.decode", "us", "lower", Median),
    layer("engine.step_us.prefill", "us", "lower", Median),
    layer("engine.self_us_per_step", "us", "lower", Median),
    layer("realexec.layer_us.decode", "us", "lower", Median),
    layer("realexec.layer_us.prefill", "us", "lower", Median),
    layer("realexec.overhead_share", "ratio", "lower", Mean),
    layer("remote.layer_us", "us", "lower", Median),
    layer("remote.requests", "count", "higher", Sum),
    layer("remote.failovers", "count", "lower", Sum),
    layer("remote.tok_s_vs_local", "ratio", "higher", Mean),
    layer("worker.rtt_us.b1", "us", "lower", Median),
    layer("worker.rtt_us.b8", "us", "lower", Median),
    layer("worker.encode_us", "us", "lower", Median),
    layer("worker.decode_us", "us", "lower", Median),
    layer("worker.wire_bytes_per_token", "count", "lower", Mean),
    layer("batcher.step_us", "us", "lower", Median),
    layer("batcher.batch_mean", "count", "higher", Mean),
    layer("batcher.queue_wait_ms_p50", "ms", "lower", Median),
    layer("batcher.prefill_tokens_per_step", "count", "lower", Mean),
    layer("batcher.slo_rate_rps", "1/s", "higher", Mean),
    layer("server.connect_to_head_ms_p50", "ms", "lower", Median),
    layer("server.added_ttft_ms", "ms", "lower", Median),
    layer("server.delivery_gap_us_p50", "us", "lower", Median),
    layer("server.queue_wait_ms_p50", "ms", "lower", Median),
    layer("server.metrics_scrape_ms", "ms", "lower", Median),
    layer("server.admitted", "count", "higher", Sum),
    layer("server.completed", "count", "higher", Sum),
    layer("server.rejected", "count", "lower", Sum),
    layer("model.weight_setup_ms", "ms", "lower", Median),
    layer("harness.torn_segments", "count", "lower", Sum),
    layer("harness.cal_ms_p50", "ms", "lower", Median),
    layer("harness.cal_spread", "ratio", "lower", Mean),
    layer("trace.spans", "count", "higher", Sum),
    layer("trace_overhead_share", "ratio", "lower", Median),
];

/// Samples collected under metric names while a traced run executes.
#[derive(Debug, Default, Clone)]
pub struct Bag {
    samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Bag {
    pub fn push(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|m| m.name == name),
            "{name} is not a per-layer metric"
        );
        self.samples.entry(name).or_default().push(value);
    }

    pub fn extend(&mut self, name: &'static str, values: impl IntoIterator<Item = f64>) {
        for v in values {
            self.push(name, v);
        }
    }

    pub fn merge(&mut self, other: Bag) {
        for (name, values) in other.samples {
            self.samples.entry(name).or_default().extend(values);
        }
    }

    /// Every sample multiplied by `factor` (raw host durations to
    /// calibrated ones).
    pub fn scaled(mut self, factor: f64) -> Bag {
        for values in self.samples.values_mut() {
            values.iter_mut().for_each(|v| *v *= factor);
        }
        self
    }

    pub fn get(&self, name: &str) -> &[f64] {
        self.samples.get(name).map_or(&[], Vec::as_slice)
    }
}

/// One metric as reported: a value with its unit and sample count.
#[derive(Debug, Clone, PartialEq)]
pub struct Reported {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub value: f64,
    pub samples: usize,
}

impl Reported {
    /// Whether a percentile metric (`..._pNN`) has fewer than ten samples
    /// beyond its percentile, so that the tail it names is not resolved.
    pub fn thin_tail(&self) -> bool {
        let Some((_, p)) = self.name.rsplit_once("_p") else {
            return false;
        };
        let Ok(p) = p.parse::<f64>() else {
            return false;
        };
        self.samples > 0
            && stats::highest_supported_percentile(self.samples).is_none_or(|top| top < p)
    }
}

/// Reduces the bag to one reported value per per-layer metric. A metric
/// with no samples on this workload reports `0` with `n=0`.
pub fn reduce_per_layer(bag: &Bag) -> Vec<Reported> {
    PER_LAYER
        .iter()
        .map(|m| {
            let samples = bag.get(m.name);
            let value = match m.reduce {
                Reduce::Mean => stats::mean(samples),
                Reduce::Median => stats::median(samples),
                // `+ 0.0`: an empty sum is `-0.0`.
                Reduce::Sum => samples.iter().sum::<f64>() + 0.0,
                Reduce::Tail(p) => stats::percentile(&stats::sorted(samples.to_vec()), p.into()),
            };
            Reported {
                name: m.name,
                unit: m.unit,
                better: m.better,
                value,
                samples: samples.len(),
            }
        })
        .collect()
}

/// A field of a parsed JSON object; `None` if `v` is not an object or has
/// no such field.
pub fn json_field<'a>(v: &'a Value, name: &str) -> Option<&'a Value> {
    match v {
        Value::Map(map) => serde::field(map, name).ok(),
        _ => None,
    }
}

/// The last line of standard output: one JSON object with exactly the
/// keys `correct`, `attempted`, `failed` and `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Reported]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        // `{:?}` prints an f64 with every digit it has.
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn field<'a>(v: &'a Value, name: &str) -> &'a Value {
        json_field(v, name).unwrap_or_else(|| panic!("no {name} in {v:?}"))
    }

    fn text(v: &Value) -> &str {
        match v {
            Value::Str(s) => s,
            other => panic!("{other:?} is not a string"),
        }
    }

    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc: Value = serde_json::from_str(&json).expect("BENCHMARK.json parses");

        let Value::Seq(e2e) = field(&doc, "end_to_end") else {
            panic!("end_to_end is not a list")
        };
        assert_eq!(e2e.len(), END_TO_END.len());
        for (got, want) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(text(field(got, "name")), want.name);
            assert_eq!(text(field(got, "unit")), want.unit);
            assert_eq!(text(field(got, "better")), want.better);
            assert_eq!(field(got, "bound").as_f64(), Some(want.bound));
        }

        let Value::Seq(layers) = field(&doc, "per_layer") else {
            panic!("per_layer is not a list")
        };
        assert_eq!(layers.len(), PER_LAYER.len());
        for (got, want) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(text(field(got, "name")), want.name);
            assert_eq!(text(field(got, "unit")), want.unit);
            assert_eq!(text(field(got, "better")), want.better);
        }

        let Value::Seq(workloads) = field(&doc, "workloads") else {
            panic!("workloads is not a list")
        };
        let names: Vec<&str> = workloads.iter().map(|w| text(field(w, "name"))).collect();
        let ours: Vec<&str> = crate::workloads::SPECS.iter().map(|s| s.name).collect();
        assert_eq!(names, ours);
    }

    #[test]
    fn metric_names_are_unique_and_setup_has_the_largest_bound() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn result_line_is_one_json_object_with_all_digits() {
        let line = result_line(
            true,
            10,
            0,
            &[Reported {
                name: "tok_s",
                unit: "tok/s",
                better: "higher",
                value: 1.0 / 3.0,
                samples: 4,
            }],
        );
        let doc: Value = serde_json::from_str(&line).unwrap();
        let Value::Map(keys) = &doc else { panic!() };
        let keys: Vec<&str> = keys.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let v = field(field(field(&doc, "metrics"), "tok_s"), "value")
            .as_f64()
            .unwrap();
        assert_eq!(v, 1.0 / 3.0);
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        let metric = |name, samples| Reported {
            name,
            unit: "ms",
            better: "lower",
            value: 1.0,
            samples,
        };
        assert!(metric("ttft_ms_p90", 99).thin_tail());
        assert!(!metric("ttft_ms_p90", 100).thin_tail());
        assert!(metric("itl_ms_p99", 999).thin_tail());
        assert!(!metric("itl_ms_p99", 3000).thin_tail());
        assert!(metric("ttft_ms_p50", 19).thin_tail());
        assert!(!metric("server.queue_wait_ms_p50", 0).thin_tail());
        assert!(!metric("tok_s", 2).thin_tail());
    }

    #[test]
    fn a_metric_without_samples_reports_zero() {
        let mut bag = Bag::default();
        bag.extend("trace.spans", [2.0, 3.0]);
        let out = reduce_per_layer(&bag);
        let spans = out.iter().find(|m| m.name == "trace.spans").unwrap();
        assert_eq!((spans.value, spans.samples), (5.0, 2));
        let rtt = out.iter().find(|m| m.name == "worker.rtt_us.b1").unwrap();
        assert_eq!((rtt.value, rtt.samples), (0.0, 0));
        // A tail is the nearest-rank percentile of the pooled samples.
        bag.extend("tail.ttft_ms_p90", (1..=20).rev().map(f64::from));
        let out = reduce_per_layer(&bag);
        let tail = out.iter().find(|m| m.name == "tail.ttft_ms_p90").unwrap();
        assert_eq!((tail.value, tail.samples), (18.0, 20));
    }
}
