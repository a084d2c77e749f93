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
//! Switches are kill-switches for performance subsystems: they default to
//! the fast path being **on**, and are read **once** per process (the
//! consumer caches the answer behind a `Once`; programmatic overrides like
//! `kfds_la::simd::set_simd_enabled` exist for benches and A/B tests).
//! Setting the variable to one of its `off_values` selects the reference
//! path bitwise.

#![forbid(unsafe_code)]

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

/// `KFDS_SIMD`: kill-switch for the explicit vector microkernels.
pub const KFDS_SIMD: Switch = Switch {
    name: "KFDS_SIMD",
    default: "on",
    off_values: &["off", "0"],
    doc: "disables the `kfds_la::simd` vector microkernels; every primitive \
          takes its scalar reference path, reproducing the pre-SIMD numerics \
          **bitwise**",
};

/// `KFDS_WS_POOL`: kill-switch for the thread-local workspace pool.
pub const KFDS_WS_POOL: Switch = Switch {
    name: "KFDS_WS_POOL",
    default: "on",
    off_values: &["off", "0"],
    doc: "disables the `kfds_la::workspace` buffer pool; every scratch take \
          allocates, reproducing pre-pool allocation behavior bitwise",
};

/// `KFDS_CPQR`: selects the legacy unblocked column-pivoted QR.
pub const KFDS_CPQR: Switch = Switch {
    name: "KFDS_CPQR",
    default: "blocked",
    off_values: &["unblocked", "off", "0"],
    doc: "forces the legacy one-reflector column-pivoted QR instead of the \
          blocked (`DLAQPS`-style) panel factorization, reproducing \
          pre-blocking skeletonization numerics **bitwise**",
};

/// `KFDS_EVAL_GEMM`: kill-switch for GEMM-backed kernel block assembly.
pub const KFDS_EVAL_GEMM: Switch = Switch {
    name: "KFDS_EVAL_GEMM",
    default: "on",
    off_values: &["off", "0"],
    doc: "disables GEMM-backed kernel block assembly (`eval_block` / \
          `eval_symmetric`); blocks are evaluated entry-by-entry on the \
          scalar path, bitwise-identical to the pre-GEMM code",
};

/// `KFDS_KNN`: selects the per-query scalar k-nearest-neighbor reference.
pub const KFDS_KNN: Switch = Switch {
    name: "KFDS_KNN",
    default: "blocked",
    off_values: &["scalar", "off", "0"],
    doc: "forces the per-query scalar kNN reference (per-point ball-tree \
          descent, per-pair candidate scoring) instead of the blocked \
          filter-and-refine search (a fused distance-filter kernel nominates \
          pairs, the scalar `sq_dist` decides); both return the same indices \
          and distance bits, so this is a speed A/B only",
};

/// `KFDS_REFACTOR`: kill-switch for λ-sweep refactorization.
pub const KFDS_REFACTOR: Switch = Switch {
    name: "KFDS_REFACTOR",
    default: "on",
    off_values: &["off", "0"],
    doc: "disables λ-sweep refactorization: `lambda_sweep`, the GP noise-grid \
          fit, and the serve tier's factor stage rebuild every factorization \
          from scratch per λ (re-evaluating the coupling blocks, the legacy \
          path) instead of refactoring over cached λ-independent \
          `AssembledBlocks`",
};

/// `KFDS_SERVE_BATCH`: kill-switch for multi-RHS request coalescing.
pub const KFDS_SERVE_BATCH: Switch = Switch {
    name: "KFDS_SERVE_BATCH",
    default: "on",
    off_values: &["off", "0"],
    doc: "disables `kfds-serve`'s multi-RHS request coalescing; every queued \
          request dispatches as a batch of 1 (unbatched serving, for A/B \
          throughput comparisons)",
};

/// `KFDS_SHARD`: kill-switch for the sharded serve tier.
pub const KFDS_SHARD: Switch = Switch {
    name: "KFDS_SHARD",
    default: "on",
    off_values: &["off", "0"],
    doc: "disables the sharded serve tier: `sharded(p)` services skip the \
          shard router and run every solve on the single-node blocked path \
          (bitwise-identical answers — the router only repartitions the \
          same arithmetic)",
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
