//! The metric names of the ledger — the same lists as `../BENCHMARK.json`,
//! which a harness test compares against — and the report a run fills.
//!
//! Every workload reports every name. A per-layer metric of a layer the
//! workload bypasses reads 0: that is the statement that the layer did no
//! work there.

use std::collections::BTreeMap;

/// A metric's name and unit. (Which direction is better, and the bound, are
/// the contract's business: `../BENCHMARK.json`.)
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// What a user of the solver sees. Printed by `--trace 0`.
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s"),
    m("refactor_s", "s"),
    m("solve_ms", "ms"),
    m("solve_rhs_per_s", "rhs/s"),
    m("factor_mib", "MiB"),
];

/// One row per number a layer (= crate) exposes. Printed by `--trace 1`.
pub const PER_LAYER: &[MetricDef] = &[
    m("tree.build_s", "s"),
    m("tree.knn_s", "s"),
    m("tree.knn_tiles", "count"),
    m("tree.knn_recall", "ratio"),
    m("askit.skeletonize_s", "s"),
    m("askit.skeleton_total", "count"),
    m("askit.rank_max", "count"),
    m("askit.hier_matvec_s", "s"),
    m("askit.matvec_err", "ratio"),
    m("kernels.eval_block_gelem_s", "Gelem/s"),
    m("kernels.gsks_gflops", "GFLOP/s"),
    m("kernels.gsks16_gflops", "GFLOP/s"),
    m("la.gemm_peak_gflops", "GFLOP/s"),
    m("la.gemm_skinny_gflops", "GFLOP/s"),
    m("la.cpqr_ms", "ms"),
    m("la.lu128_us", "us"),
    m("la.pool_hit_rate", "ratio"),
    m("core.factor_s", "s"),
    m("core.factor_flops", "count"),
    m("core.factor_gflops", "GFLOP/s"),
    m("core.factor_frac_peak", "ratio"),
    m("core.factor_leaf_level_share", "ratio"),
    m("core.assemble_s", "s"),
    m("core.assemble_mib", "MiB"),
    m("core.refactor_vs_fresh_x", "x"),
    m("core.solve1_s", "s"),
    m("core.solve1_p90_ms", "ms"),
    m("core.solve1_eff_gbs", "GB/s"),
    m("core.solve16_s", "s"),
    m("core.solve16_amortization_x", "x"),
    m("core.compression_ratio", "ratio"),
    m("core.min_pivot_ratio", "ratio"),
    m("core.unstable_factorizations", "count"),
    m("core.hybrid_reduced_dim", "count"),
    m("core.hybrid_apply_vw_ms", "ms"),
    m("core.hybrid_iter_ms", "ms"),
    m("core.partition_s", "s"),
    m("core.partition_solve16_s", "s"),
    m("core.dist_factor_s", "s"),
    m("core.dist_solve_s", "s"),
    m("core.factor_nsweep_slope", "exponent"),
    m("core.baseline_nsweep_slope", "exponent"),
    m("core.factor_vs_baseline_x", "x"),
    m("krylov.gmres_iters", "count"),
    m("krylov.gmres_self_s", "s"),
    m("rt.block_roundtrip_us", "us"),
    m("shard.serve_rps_p2", "req/s"),
    m("shard.fallbacks", "count"),
    m("shard.lane_rows_imbalance", "ratio"),
    m("serve.mean_batch", "count"),
    m("serve.batches", "count"),
    m("serve.cache_hit_rate", "ratio"),
    m("serve.setup_builds", "count"),
    m("serve.factor_builds", "count"),
    m("serve.rejected_overload", "count"),
    m("serve.rejected_deadline", "count"),
    m("serve.errors", "count"),
    m("serve.max_queue_depth", "count"),
    m("serve.total_p90_ms", "ms"),
    m("serve.total_p99_ms", "ms"),
    m("serve.efficiency", "ratio"),
    m("bench.trace_overhead_frac", "ratio"),
    m("bench.first_rep_setup_s", "s"),
    m("bench.threads", "count"),
    m("bench.nproc", "count"),
];

/// A reported value and the number of samples behind it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Sample {
    pub value: f64,
    pub n: usize,
}

/// The metrics of one run of one workload, and its operation counts.
pub struct Report {
    defs: &'static [MetricDef],
    values: BTreeMap<&'static str, Sample>,
    pub attempted: u64,
    pub failed: u64,
}

impl Report {
    /// An end-to-end report starts empty and must be filled completely; a
    /// per-layer report starts at 0 everywhere (see the module comment).
    pub fn new(trace: bool) -> Self {
        let defs = if trace { PER_LAYER } else { END_TO_END };
        let values = if trace {
            defs.iter().map(|d| (d.name, Sample { value: 0.0, n: 0 })).collect()
        } else {
            BTreeMap::new()
        };
        Report { defs, values, attempted: 0, failed: 0 }
    }

    /// Records `value`, backed by `n` samples, under a listed name.
    ///
    /// # Panics
    /// Panics on a name that is not in this report's list.
    pub fn set(&mut self, name: &str, value: f64, n: usize) {
        let def = self.defs.iter().find(|d| d.name == name);
        let def = def.unwrap_or_else(|| panic!("metric {name} is not in the ledger"));
        self.values.insert(def.name, Sample { value, n });
    }

    /// Records one operation; `ok == false` counts it as failed.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    pub fn get(&self, name: &str) -> Option<Sample> {
        self.values.get(name).copied()
    }

    /// `true` when no operation failed and every value is a finite number.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.values.values().all(|s| s.value.is_finite())
    }

    /// `(definition, sample)` rows in ledger order.
    ///
    /// # Panics
    /// Panics if a listed metric was never set: every workload reports
    /// every metric.
    pub fn rows(&self) -> Vec<(&'static MetricDef, Sample)> {
        self.defs
            .iter()
            .map(|d| {
                let s = self.values.get(d.name);
                (d, *s.unwrap_or_else(|| panic!("metric {} was not reported", d.name)))
            })
            .collect()
    }

    /// One `name value unit n=samples` line per metric.
    pub fn to_text(&self) -> String {
        self.rows()
            .iter()
            .map(|(d, s)| format!("{} {} {} n={}\n", d.name, s.value, d.unit, s.n))
            .collect()
    }

    /// The result object the driver reads: one line, values with all their
    /// digits.
    pub fn to_json_line(&self) -> String {
        let metrics: Vec<String> = self
            .rows()
            .iter()
            .map(|(d, s)| {
                // JSON has no NaN; a failed run's missing value reads null.
                let value = if s.value.is_finite() { s.value.to_string() } else { "null".into() };
                format!("\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}", d.name, d.unit)
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(d.name), "duplicate metric {}", d.name);
            assert!(d.name.len() <= 64 && d.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(d.name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d.unit.len() <= 16);
            assert!(d.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END.iter().any(|d| d.name == "setup_s" && d.unit == "s"));
    }

    #[test]
    fn a_failed_operation_makes_the_run_incorrect() {
        let mut r = Report::new(true);
        r.op(true);
        assert!(r.correct());
        r.op(false);
        assert!(!r.correct());
        assert!(r
            .to_json_line()
            .starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1"));
    }

    #[test]
    fn json_line_keeps_all_digits() {
        let mut r = Report::new(true);
        r.set("tree.build_s", 0.1234567890123, 3);
        assert!(r.to_json_line().contains("\"tree.build_s\": {\"value\": 0.1234567890123, "));
        assert!(r.to_text().contains("tree.build_s 0.1234567890123 s n=3\n"));
    }

    #[test]
    #[should_panic(expected = "was not reported")]
    fn an_end_to_end_report_must_be_complete() {
        let mut r = Report::new(false);
        r.set("setup_s", 1.0, 1);
        let _ = r.rows();
    }
}
