//! `xtask` — repo automation, run as `cargo run -p xtask -- <command>`.
//!
//! * `lint` — **kfds-lint**: machine-checks the safety invariants
//!   documented in `DESIGN.md` §7 over every `.rs` file in the repo
//!   (SAFETY comments on `unsafe`, no `KFDS_*` environment reads,
//!   allocation-free hot-path modules, `debug_assert!` preconditions on
//!   public unsafe helpers, ranked locks and panic-free non-test code in
//!   the concurrency crates, pinned `#![forbid(unsafe_code)]` attributes).
//!   A rule that checked no file, or a path list entry that names no file
//!   in the tree, is a finding too. Exits non-zero on any finding and
//!   prints, per rule, its findings and the files it checked.

#![forbid(unsafe_code)]

mod rules;
mod scan;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use rules::Finding;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => run_lint(&repo_root()),
        Some(other) => usage(&format!("unknown command `{other}`")),
        None => usage("missing command"),
    }
}

fn usage(err: &str) -> ExitCode {
    eprintln!(
        "error: {err}\n\nusage: cargo run -p xtask -- <command>\n\
         \n\
         commands:\n\
         \x20 lint    run kfds-lint over the whole repo"
    );
    ExitCode::FAILURE
}

/// Repo root, resolved from this crate's manifest directory
/// (`crates/xtask` → two levels up), so the commands work from any CWD.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").canonicalize().expect("repo root exists")
}

fn run_lint(root: &Path) -> ExitCode {
    let (findings, checked) = lint_repo(root);
    let counts: String = rules::RULES
        .iter()
        .zip(&checked)
        .map(|(r, files)| {
            let n = findings.iter().filter(|f| f.rule == r.name).count();
            format!(" {}={n} ({files} files)", r.name)
        })
        .collect();
    println!("kfds-lint rules:{counts}");
    if findings.is_empty() {
        println!("kfds-lint: 0 findings.");
        return ExitCode::SUCCESS;
    }
    for f in &findings {
        eprintln!("{f}");
    }
    eprintln!("kfds-lint: {} finding(s).", findings.len());
    ExitCode::FAILURE
}

/// All findings over every tracked `.rs` file, the coverage findings
/// among them, and the number of files each rule of [`rules::RULES`]
/// checked.
fn lint_repo(root: &Path) -> (Vec<Finding>, Vec<usize>) {
    let mut findings = Vec::new();
    let mut scanned = Vec::new();
    for path in rust_files(root) {
        let rel = path
            .strip_prefix(root)
            .expect("walked paths live under root")
            .to_string_lossy()
            .replace('\\', "/");
        match std::fs::read_to_string(&path) {
            Ok(text) => findings.extend(rules::check_source(&scan::scan_str(&rel, &text))),
            Err(e) => findings.push(Finding {
                path: rel.clone(),
                line: 0,
                rule: "io",
                msg: format!("unreadable: {e}"),
            }),
        }
        scanned.push(rel);
    }
    findings.extend(rules::coverage_findings(&scanned));
    findings.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    let checked =
        rules::RULES.iter().map(|r| scanned.iter().filter(|p| (r.applies)(p)).count()).collect();
    (findings, checked)
}

/// Every `.rs` file under `root`, skipping build output and VCS metadata.
fn rust_files(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let entries = match std::fs::read_dir(&dir) {
            Ok(e) => e,
            Err(_) => continue,
        };
        for entry in entries.flatten() {
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if name == "target" || name.starts_with('.') {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The repo's own tree must lint clean — this is the self-test that
    /// keeps `cargo test` and `cargo run -p xtask -- lint` in agreement,
    /// and (together with the fixture tests in `rules`) the guarantee
    /// that reintroducing an uncommented `unsafe` or a raw
    /// `env::var("KFDS_…")` read fails CI. Its coverage findings make it
    /// fail, too, when a rule stops checking any file, or a listed path
    /// no longer names one.
    #[test]
    fn repo_tree_lints_clean() {
        let (findings, _) = lint_repo(&repo_root());
        assert!(
            findings.is_empty(),
            "kfds-lint findings in the committed tree:\n{}",
            findings.iter().map(|f| format!("  {f}\n")).collect::<String>()
        );
    }

    #[test]
    fn walker_finds_this_file_and_skips_target() {
        let files = rust_files(&repo_root());
        assert!(files.iter().any(|p| p.ends_with("crates/xtask/src/main.rs")));
        assert!(files.iter().all(|p| !p.components().any(|c| c.as_os_str() == "target")));
    }
}
