//! Turns a run's jobs into named metrics: the median over jobs of each
//! per-job figure, the throughput and wall time of the untraced jobs
//! averaged per fault list, and the few figures that combine untraced
//! and traced jobs. `METRICS.md` defines each metric.

use crate::check::Checked;
use crate::stats::median;
use crate::traced::ratio;
use std::collections::{BTreeMap, HashMap};

/// One job's figures by metric name.
pub type Sample = HashMap<String, f64>;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The end-to-end metrics, in `BENCHMARK.json` order, with units.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("exp_per_s", "1/s"),
    ("wall_s", "s"),
    ("rss_peak_mb", "MB"),
    ("db_mb", "MB"),
];

/// The per-layer metrics, in `BENCHMARK.json` order, with units.
pub const PER_LAYER: [(&str, &str); 44] = [
    ("db.open_s", "s"),
    ("db.wal_bytes", "bytes"),
    ("core.store.log_s", "s"),
    ("core.store.log_us_p50", "us"),
    ("core.store.log_us_p99", "us"),
    ("core.store.record_s", "s"),
    ("core.store.rows", "count"),
    ("core.store.save_s", "s"),
    ("core.runner.plan_s", "s"),
    ("core.runner.execute_self_s", "s"),
    ("core.service.submit_s", "s"),
    ("core.service.setup_gap_s", "s"),
    ("analysis.static_s", "s"),
    ("core.staticanalysis.pruned", "count"),
    ("core.staticanalysis.predicted", "count"),
    ("core.staticanalysis.decided_ratio", "ratio"),
    ("core.checkpoint.snapshots", "count"),
    ("core.checkpoint.snapshot_s", "s"),
    ("core.checkpoint.restores", "count"),
    ("core.checkpoint.restore_s", "s"),
    ("thor.run_s", "s"),
    ("thor.instructions", "count"),
    ("thor.ns_per_instr", "ns"),
    ("thor.timeouts", "count"),
    ("thor.timeout_instr_ratio", "ratio"),
    ("targets.inject_s", "s"),
    ("targets.observe_s", "s"),
    ("targets.control_s", "s"),
    ("core.analysis.classify_s", "s"),
    ("server.init_s", "s"),
    ("server.chunks", "count"),
    ("server.chunk_rtt_ms_p50", "ms"),
    ("server.chunk_rtt_ms_p90", "ms"),
    ("server.wait_s", "s"),
    ("net.frames", "count"),
    ("net.bytes", "bytes"),
    ("net.encode_s", "s"),
    ("net.decode_s", "s"),
    ("net.events", "count"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
    ("fixture.rows", "count"),
    ("fixture.bytes", "bytes"),
    ("failed_ratio", "ratio"),
];

fn values(samples: &[Sample], name: &str) -> Vec<f64> {
    samples
        .iter()
        .filter_map(|s| s.get(name).copied())
        .collect()
}

/// Median over `samples` of the figure `name`; 0 when no job has it.
fn med(samples: &[Sample], name: &str) -> f64 {
    median(&values(samples, name))
}

/// Throughput and wall time of the untraced jobs, balanced over the
/// fault lists.
///
/// The jobs of each fault list are averaged first, so a run whose last
/// cycle through the lists stopped part-way weighs every list the same.
/// Returns `(exp_per_s, wall_s)`: experiments settled after the first of
/// each job over the time from the first to the last settled one, pooled
/// over the fault lists, and the mean over the fault lists of the
/// submit-to-`Completed` time. Pooling puts every fault list's time-outs
/// into one figure, where a median over jobs would report one list.
pub fn per_list_means(untraced: &[Sample]) -> (f64, f64) {
    let mut lists: BTreeMap<u64, Vec<&Sample>> = BTreeMap::new();
    for s in untraced {
        let variant = s.get("variant").copied().unwrap_or(0.0);
        lists.entry(variant as u64).or_default().push(s);
    }
    let mean = |jobs: &[&Sample], name: &str| {
        jobs.iter()
            .map(|s| s.get(name).copied().unwrap_or(f64::NAN))
            .sum::<f64>()
            / jobs.len() as f64
    };
    let (mut settled, mut run_s, mut wall_s) = (0.0, 0.0, 0.0);
    for jobs in lists.values() {
        settled += mean(jobs, "settled");
        run_s += mean(jobs, "run_s");
        wall_s += mean(jobs, "wall_s");
    }
    (ratio(settled, run_s), ratio(wall_s, lists.len() as f64))
}

/// The end-to-end metrics of the untraced jobs: `exp_per_s` and `wall_s`
/// by [`per_list_means`], the rest as medians over the jobs.
pub fn end_to_end(untraced: &[Sample]) -> Vec<Metric> {
    let (exp_per_s, wall_s) = per_list_means(untraced);
    END_TO_END
        .iter()
        .map(|&(name, unit)| {
            let value = match name {
                "exp_per_s" => exp_per_s,
                "wall_s" => wall_s,
                _ => med(untraced, name),
            };
            Metric { name, value, unit }
        })
        .collect()
}

/// The per-layer metrics of the traced jobs. The untraced jobs of the
/// same run are the baseline of `core.service.setup_gap_s`,
/// `trace.overhead` and `net.events`.
pub fn per_layer(
    untraced: &[Sample],
    traced: &[Sample],
    checked: Checked,
    fixture: (u64, u64),
) -> Vec<Metric> {
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = match name {
                "core.service.setup_gap_s" => {
                    med(untraced, "setup_s")
                        - med(traced, "db.open_s")
                        - med(traced, "core.runner.plan_s")
                }
                "trace.overhead" => ratio(med(traced, "wall_s"), med(untraced, "wall_s")) - 1.0,
                "net.events" => med(untraced, name),
                "fixture.rows" => fixture.0 as f64,
                "fixture.bytes" => fixture.1 as f64,
                "failed_ratio" => ratio(checked.failed as f64, checked.attempted as f64),
                _ => med(traced, name),
            };
            Metric { name, value, unit }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(variant: usize, settled: f64, run_s: f64, wall_s: f64) -> Sample {
        [
            ("variant", variant as f64),
            ("settled", settled),
            ("run_s", run_s),
            ("wall_s", wall_s),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_owned(), v))
        .collect()
    }

    #[test]
    fn per_list_means_weighs_every_fault_list_the_same() {
        // List 0 ran twice, list 1 once: each list's mean counts once.
        let jobs = [
            job(0, 99.0, 1.0, 2.0),
            job(0, 99.0, 3.0, 4.0),
            job(1, 99.0, 6.0, 9.0),
        ];
        let (exp_per_s, wall_s) = per_list_means(&jobs);
        assert_eq!(exp_per_s, 198.0 / 8.0);
        assert_eq!(wall_s, 6.0);
    }
}
