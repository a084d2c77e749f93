//! # kfds-switches — the runtime-switch registry
//!
//! Every `KFDS_*` environment variable the workspace reacts to is declared
//! here, exactly once, with its name, default, accepted disabling values,
//! and documentation. All other crates query the environment **only**
//! through this registry — `kfds-lint` (`cargo run -p xtask -- lint`)
//! rejects any raw `env::var("KFDS_…")` elsewhere, and the runtime-switch
//! table in `README.md` is generated from [`ALL`]
//! (`cargo run -p xtask -- switch-table --write`), so neither the code nor
//! the docs can drift from this file.
//!
//! ## Conventions
//!
//! No switch is live. Each of the nine names selected a path that is gone
//! or that now gives the same bits as the default one; no crate reads it,
//! and it stays registered only so the benchmark harness keeps refusing to
//! run with it set (ROADMAP item 1(a)).

#![forbid(unsafe_code)]
#![warn(unreachable_pub, unnameable_types)]

use std::ffi::OsString;

/// One registered runtime switch.
///
/// The registry is data, not behavior: consumers decide *when* to sample
/// ([`Switch::is_off`]) and how to cache the answer; the registry owns the
/// name, the default, and the documentation.
#[derive(Debug, Clone, Copy)]
pub struct Switch {
    /// Environment variable name (`KFDS_…`).
    pub name: &'static str,
    /// Human-readable default state (the fast path).
    pub default: &'static str,
    /// Values that select the reference/disabled path. Any other value —
    /// including unset — leaves the default behavior.
    pub off_values: &'static [&'static str],
    /// What disabling the switch does (README "Effect" column).
    pub doc: &'static str,
}

impl Switch {
    /// Raw environment value, if set. This is the single place in the
    /// workspace where a `KFDS_*` variable is read.
    pub fn raw(&self) -> Option<OsString> {
        std::env::var_os(self.name)
    }

    /// `true` if the environment selects this switch's disabled/reference
    /// path (i.e. the value is one of [`Switch::off_values`]).
    pub fn is_off(&self) -> bool {
        self.raw().is_some_and(|v| self.off_values.iter().any(|off| v == *off))
    }

    /// The README table cell listing the disabling values, e.g.
    /// `` `off` / `0` ``.
    pub fn off_values_markdown(&self) -> String {
        self.off_values.iter().map(|v| format!("`{v}`")).collect::<Vec<_>>().join(" / ")
    }
}

/// `KFDS_SIMD`: retired. It switched the explicit vector microkernels off
/// for the process; the portable lanes now give the vector bits, so it
/// chose speed only, `kfds_la::simd::set_simd_enabled` stays as the
/// in-process seam, and no crate reads the variable. The entry stays only
/// because `benchmark/tests/ledger.rs` pins the registry at nine names
/// (ROADMAP item 1(a) unpins it; then this goes).
pub const KFDS_SIMD: Switch = Switch {
    name: "KFDS_SIMD",
    default: "on",
    off_values: &["off", "0"],
    doc: "retired — selects nothing. It turned the `kfds_la::simd` vector \
          microkernels off for the process; the portable lanes give the same \
          bits, `kfds_la::simd::set_simd_enabled` is the in-process seam, and \
          no crate reads the variable (the benchmark harness still refuses to \
          run with it set, like any registered switch)",
};

/// `KFDS_WS_POOL`: retired. It sent every workspace take to the global
/// allocator; the pool is the only path now and no crate reads the
/// variable. The entry stays only because `benchmark/tests/ledger.rs` pins
/// the registry at nine names (ROADMAP item 1(a) unpins it; then this goes).
pub const KFDS_WS_POOL: Switch = Switch {
    name: "KFDS_WS_POOL",
    default: "on",
    off_values: &["off", "0"],
    doc: "retired — selects nothing. It sent every `kfds_la::workspace` \
          scratch take to the global allocator; the pool is the only path \
          now and no crate reads the variable (the benchmark harness still \
          refuses to run with it set, like any registered switch)",
};

/// `KFDS_CPQR`: retired. It forced the unblocked column-pivoted QR at
/// every size; `ColPivQr::factor_truncated` now picks the blocked or the
/// unblocked rendering by size alone and no crate reads the variable. The
/// entry stays only because `benchmark/tests/ledger.rs` pins the registry
/// at nine names (ROADMAP item 1(a) unpins it; then this goes).
pub const KFDS_CPQR: Switch = Switch {
    name: "KFDS_CPQR",
    default: "blocked",
    off_values: &["unblocked", "off", "0"],
    doc: "retired — selects nothing. It forced the one-reflector \
          column-pivoted QR at every size; the factorization's size alone \
          picks the blocked or unblocked rendering now and no crate reads \
          the variable (the benchmark harness still refuses to run with it \
          set, like any registered switch)",
};

/// `KFDS_EVAL_GEMM`: retired. It selected a scalar entry-by-entry kernel
/// block assembly; the GEMM assembly is the only one, held to pointwise
/// `Kernel::eval` by its tests, and no crate reads the variable. The entry
/// stays only because `benchmark/tests/ledger.rs` pins the registry at
/// nine names (ROADMAP item 1(a) unpins it; then this goes).
pub const KFDS_EVAL_GEMM: Switch = Switch {
    name: "KFDS_EVAL_GEMM",
    default: "on",
    off_values: &["off", "0"],
    doc: "retired — selects nothing. It chose an entry-by-entry scalar \
          kernel block assembly over the GEMM one; the GEMM assembly is the \
          only one now and no crate reads the variable (the benchmark \
          harness still refuses to run with it set, like any registered \
          switch)",
};

/// `KFDS_KNN`: retired. It selected a per-query scalar neighbour search;
/// the blocked searches are the only ones, held to `knn_brute_force` and
/// `knn_approximate_brute_force` by their tests, and no crate reads the
/// variable. The entry stays only because `benchmark/tests/ledger.rs` pins
/// the registry at nine names (ROADMAP item 1(a) unpins it; then this
/// goes).
pub const KFDS_KNN: Switch = Switch {
    name: "KFDS_KNN",
    default: "blocked",
    off_values: &["scalar", "off", "0"],
    doc: "retired — selects nothing. It chose a per-query scalar \
          k-nearest-neighbor search over the blocked filter-and-refine one; \
          the blocked search is the only one now and no crate reads the \
          variable (the benchmark harness still refuses to run with it set, \
          like any registered switch)",
};

/// `KFDS_REFACTOR`: retired. It made a λ sweep re-assemble per λ; every
/// sweep assembles once now and no crate reads the variable. The entry
/// stays only because `benchmark/tests/ledger.rs` pins the registry at
/// nine names (ROADMAP item 1(a) unpins it; then this goes).
pub const KFDS_REFACTOR: Switch = Switch {
    name: "KFDS_REFACTOR",
    default: "on",
    off_values: &["off", "0"],
    doc: "retired — selects nothing. It made `lambda_sweep`, the GP \
          noise-grid fit and `SharedFactor::refactorize` re-assemble per λ; \
          they all assemble once and refactor now, and no crate reads the \
          variable (the benchmark harness still refuses to run with it set, \
          like any registered switch)",
};

/// `KFDS_SERVE_BATCH`: retired. It forced batches of one, which
/// `ServeConfig::with_max_batch(1)` already says; no crate reads the
/// variable. The entry stays only because `benchmark/tests/ledger.rs` pins
/// the registry at nine names (ROADMAP item 1(a) unpins it; then this
/// goes).
pub const KFDS_SERVE_BATCH: Switch = Switch {
    name: "KFDS_SERVE_BATCH",
    default: "on",
    off_values: &["off", "0"],
    doc: "retired — selects nothing. It forced `kfds-serve` to dispatch \
          every request as a batch of 1, which `max_batch = 1` says; no \
          crate reads the variable (the benchmark harness still refuses to \
          run with it set, like any registered switch)",
};

/// `KFDS_SHARD`: retired. It turned a `shards(p)` service into a
/// single-node one, which `ServeConfig::with_shards(1)` already says; no
/// crate reads the variable. The entry stays only because
/// `benchmark/tests/ledger.rs` pins the registry at nine names (ROADMAP
/// item 1(a) unpins it; then this goes).
pub const KFDS_SHARD: Switch = Switch {
    name: "KFDS_SHARD",
    default: "on",
    off_values: &["off", "0"],
    doc: "retired — selects nothing. It made a `shards(p)` service skip the \
          shard router, which `shards = 1` says; no crate reads the variable \
          (the benchmark harness still refuses to run with it set, like any \
          registered switch)",
};

/// `KFDS_BATCH`: retired. It selected between the level-batched
/// factorization engine and the per-node one; the batched engine is gone
/// and no crate reads the variable. The entry stays only because
/// `benchmark/tests/ledger.rs` pins the registry at nine names (ROADMAP
/// item 1(a) unpins it; then this goes).
pub const KFDS_BATCH: Switch = Switch {
    name: "KFDS_BATCH",
    default: "on",
    off_values: &["off", "0"],
    doc: "retired — selects nothing. It chose the per-node factorization \
          engine over the level-batched one; the per-node engine is the \
          only one now and no crate reads the variable (the benchmark \
          harness still refuses to run with it set, like any registered \
          switch)",
};

/// Every registered switch, in README table order. New switches must be
/// added here (and nowhere else) — the lint and the README generator both
/// iterate this array.
pub const ALL: &[&Switch] = &[
    &KFDS_SIMD,
    &KFDS_WS_POOL,
    &KFDS_CPQR,
    &KFDS_EVAL_GEMM,
    &KFDS_KNN,
    &KFDS_REFACTOR,
    &KFDS_SERVE_BATCH,
    &KFDS_SHARD,
    &KFDS_BATCH,
];

/// Renders the README runtime-switch table (markdown). The table between
/// the `<!-- switch-table:begin -->` / `<!-- switch-table:end -->` markers
/// in `README.md` is exactly this string (`cargo run -p xtask --
/// switch-table --write` regenerates it; `-- lint` fails on drift).
pub fn markdown_table() -> String {
    let mut out =
        String::from("| Variable | Disabling values | Default | Effect |\n|---|---|---|---|\n");
    for sw in ALL {
        // Collapse the multi-line doc strings into single table cells.
        let doc = sw.doc.split_whitespace().collect::<Vec<_>>().join(" ");
        out.push_str(&format!(
            "| `{}` | {} | {} | {} |\n",
            sw.name,
            sw.off_values_markdown(),
            sw.default,
            doc
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_prefixed() {
        let mut names: Vec<&str> = ALL.iter().map(|s| s.name).collect();
        names.sort_unstable();
        let n = names.len();
        names.dedup();
        assert_eq!(names.len(), n, "duplicate switch names in registry");
        for name in names {
            assert!(name.starts_with("KFDS_"), "switch {name} must be KFDS_-prefixed");
        }
    }

    #[test]
    fn is_off_honors_every_registered_off_value() {
        // Uses a scratch name so the test cannot race other tests that
        // configure real switches through the process environment.
        let sw = Switch {
            name: "KFDS_TEST_SCRATCH_SWITCH",
            default: "on",
            off_values: &["off", "0"],
            doc: "test-only",
        };
        std::env::remove_var(sw.name);
        assert!(!sw.is_off(), "unset must mean default-on");
        for v in sw.off_values {
            std::env::set_var(sw.name, v);
            assert!(sw.is_off(), "value {v} must disable");
        }
        std::env::set_var(sw.name, "definitely-not-an-off-value");
        assert!(!sw.is_off());
        std::env::remove_var(sw.name);
    }

    #[test]
    fn markdown_table_covers_all_switches() {
        let t = markdown_table();
        for sw in ALL {
            assert!(t.contains(sw.name), "table must mention {}", sw.name);
        }
        assert_eq!(t.lines().count(), 2 + ALL.len(), "one row per switch plus header");
    }
}
