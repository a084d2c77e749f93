//! # kfds-switches — the benchmark's list of retired `KFDS_*` names
//!
//! No crate reads a `KFDS_*` variable: every stage has one path. The nine
//! names below each selected a path that is gone, or one that now gives the
//! default path's bits. They are listed only for `benchmark/`'s provenance
//! guard, which refuses to run while one of them is set to an off-value, so
//! that a ledger row never comes from an environment that once meant a
//! reference path. The list moves into `benchmark/` with ROADMAP item 1(a),
//! and this crate goes.

#![forbid(unsafe_code)]
#![warn(unreachable_pub, unnameable_types)]

/// One retired `KFDS_*` name and the values that used to turn it off.
#[derive(Debug, Clone, Copy)]
pub struct Switch {
    /// Environment variable name (`KFDS_…`).
    pub name: &'static str,
    /// Values the benchmark refuses to run under.
    pub off_values: &'static [&'static str],
}

impl Switch {
    /// `true` if the environment sets this name to one of its off-values.
    pub fn is_off(&self) -> bool {
        std::env::var_os(self.name).is_some_and(|v| self.off_values.iter().any(|off| v == *off))
    }
}

const OFF: &[&str] = &["off", "0"];

/// Every retired name, in the order the benchmark reports them.
pub const ALL: &[&Switch] = &[
    &Switch { name: "KFDS_SIMD", off_values: OFF },
    &Switch { name: "KFDS_WS_POOL", off_values: OFF },
    &Switch { name: "KFDS_CPQR", off_values: &["unblocked", "off", "0"] },
    &Switch { name: "KFDS_EVAL_GEMM", off_values: OFF },
    &Switch { name: "KFDS_KNN", off_values: &["scalar", "off", "0"] },
    &Switch { name: "KFDS_REFACTOR", off_values: OFF },
    &Switch { name: "KFDS_SERVE_BATCH", off_values: OFF },
    &Switch { name: "KFDS_SHARD", off_values: OFF },
    &Switch { name: "KFDS_BATCH", off_values: OFF },
];
