//! The result every workload hands back, and its printing.

use std::collections::BTreeMap;

/// End-to-end metrics: every workload reports every one of them.
pub const END_TO_END: [(&str, &str); 6] = [
    ("robot_rounds_per_s", "1/s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p95_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics of the traced run. Every workload reports every
/// one; a layer the workload never enters reads 0, which is the
/// prediction for a control workload.
pub const PER_LAYER: [(&str, &str); 41] = [
    ("workloads.generate_us", "us"),
    ("packed.pack_us", "us"),
    ("engine.compute_share", "ratio"),
    ("engine.guard_share", "ratio"),
    ("engine.apply_share", "ratio"),
    ("engine.merge_share", "ratio"),
    ("chain_sim.guard_cancels_per_robot_round", "ratio"),
    ("kernel.compass-se.robot_rounds_per_s", "1/s"),
    ("kernel.global-vision.robot_rounds_per_s", "1/s"),
    ("kernel.naive-local.robot_rounds_per_s", "1/s"),
    ("engine.round_us_p50", "us"),
    ("bench.run_scenario_us", "us"),
    ("bench.run_scenario_self_share", "ratio"),
    ("engine.rounds", "count"),
    ("engine.robot_rounds", "count"),
    ("engine.merged_robots", "count"),
    ("core.run_merge_ratio", "ratio"),
    ("client.send_us", "us"),
    ("client.wait_us", "us"),
    ("client.read_us", "us"),
    ("client.miss_p50_ms", "ms"),
    ("client.miss_p95_ms", "ms"),
    ("wire.decode_us", "us"),
    ("campaign.spec_hash_us", "us"),
    ("cache.get_us", "us"),
    ("campaign.row_json_us", "us"),
    ("gatherd.request_us.run_hit.p50", "us"),
    ("gatherd.request_us.run_miss.p50", "us"),
    ("cache.insert_us", "us"),
    ("gatherd.queue_wait_us.p50", "us"),
    ("gatherd.queue_wait_us.p95", "us"),
    ("gatherd.run_duration_us.p50", "us"),
    ("gatherd.hits", "count"),
    ("gatherd.misses", "count"),
    ("gatherd.rejected", "count"),
    ("service.hit_wall_share", "ratio"),
    ("service.miss_wall_share", "ratio"),
    ("service.result_wall_share", "ratio"),
    ("trace.overhead_pct", "%"),
    ("trace.untraced_op_p50_ms", "ms"),
    ("trace.traced_op_p50_ms", "ms"),
];

/// What one run of one workload measured.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Checks outside the per-op ones (setup fingerprints, server-side
    /// counters) that did not hold.
    pub problems: Vec<String>,
    /// Metric values by name.
    pub values: BTreeMap<&'static str, f64>,
    /// Sample counts behind percentile metrics, by name.
    pub samples: BTreeMap<&'static str, String>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    pub fn set_pct(&mut self, name: &'static str, value: f64, samples: String) {
        self.values.insert(name, value);
        self.samples.insert(name, samples);
    }

    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.problems.len() < 20 {
            self.problems.push(what);
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// Print the human table, then the one-line JSON result with the
    /// metric set `names` (missing values read 0).
    pub fn print(&self, names: &[(&'static str, &'static str)]) {
        for note in &self.notes {
            println!("{note}");
        }
        for problem in &self.problems {
            println!("FAILED: {problem}");
        }
        println!("attempted {} failed {}", self.attempted, self.failed);
        let mut metrics = String::new();
        for (i, (name, unit)) in names.iter().enumerate() {
            let value = self.values.get(name).copied().unwrap_or(0.0);
            let samples = self.samples.get(name).map(String::as_str).unwrap_or("");
            println!("{name:<42} {value:>16.6} {unit:<6} {samples}");
            if i > 0 {
                metrics.push(',');
            }
            let value = if value.is_finite() { value } else { 0.0 };
            metrics.push_str(&format!(
                "\"{name}\":{{\"value\":{value:?},\"unit\":\"{unit}\"}}"
            ));
        }
        println!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
            self.correct(),
            self.attempted,
            self.failed
        );
    }
}

/// Peak resident set (VmHWM) of this process, in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .unwrap_or(0.0)
}

/// Times in seconds as one space-separated line, for the human report.
pub fn seconds_list(secs: &[f64]) -> String {
    let parts: Vec<String> = secs.iter().map(|s| format!("{s:.3}")).collect();
    parts.join(" ")
}
