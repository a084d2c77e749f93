//! The `kfds-lint` rules.
//!
//! Each rule consumes a scanned [`Source`] and yields [`Finding`]s. The
//! repo invariants enforced here (see `DESIGN.md` §7 "Safety &
//! invariants"):
//!
//! * **unsafe-safety** — every `unsafe` block, `unsafe fn`, and
//!   `unsafe impl` carries a `// SAFETY:` justification (items may use a
//!   `/// # Safety` doc section instead), adjacent above or on the line.
//! * **env-registry** — `KFDS_*` environment variables are read only
//!   through the `kfds-switches` registry; raw `env::var("KFDS_…")` /
//!   `var_os` / `env!` / `option_env!` reads anywhere else are rejected.
//!   (Writes — `set_var` in tests — are fine; the registry is the single
//!   source of truth for *reads*.)
//! * **hot-path-alloc** — modules on the [`HOT_PATH_MODULES`] list (the
//!   allocation-free kernels that take scratch from
//!   `kfds_la::workspace`) must not call `Vec::new`, `vec![…]`, or
//!   `.to_vec()` outside `#[cfg(test)]` modules. A deliberate cold-path
//!   exception carries a `lint:allow(hot-path-alloc)` comment on the
//!   same or previous line.
//! * **unsafe-preconditions** — every `pub … unsafe fn` in `kfds-la`
//!   declares its preconditions executably: the body must contain at
//!   least one `debug_assert!`/`assert!` family call.
//! * **lock-discipline** — the concurrency crates (`kfds-serve`,
//!   `kfds-shard`, `kfds-rt`) use the ranked wrappers from
//!   [`kfds_rt::sync`], never raw `Mutex`/`RwLock`/`Condvar`
//!   (`lint:allow(raw-lock)` waives a deliberate exception), and every
//!   statically visible nested acquisition of ranked fields takes locks
//!   in strictly increasing [`LockRank`] order — the static half of the
//!   runtime rank checker.
//! * **panic-path** — the same crates' non-test code is panic-free:
//!   `.unwrap()`, `.expect(…)`, `panic!`, `unreachable!`, `todo!`, and
//!   `unimplemented!` must be replaced by typed-error returns or carry a
//!   `// PANIC-OK:` justification (same adjacency mechanism as SAFETY).
//! * **forbid-unsafe** — crate roots on the [`FORBID_UNSAFE_ROOTS`]
//!   list keep their `#![forbid(unsafe_code)]` attribute.
//! * **switch-coverage** — every switch in the `kfds-switches` registry
//!   has a README table row, a `ci.sh` lane, and a test referencing it
//!   (checked repo-wide from `lint_repo`).

use crate::scan::{Source, Tok, Token};
use kfds_rt::sync::{LockRank, FIELD_RANKS};

/// Modules that must stay allocation-free outside tests (the workspace
/// pool exists precisely so these never touch the global heap on the hot
/// path). Paths are repo-relative with `/` separators.
pub const HOT_PATH_MODULES: &[&str] = &[
    "crates/la/src/simd.rs",
    "crates/la/src/blas1.rs",
    "crates/la/src/blas2.rs",
    "crates/la/src/tri.rs",
    "crates/kernels/src/gsks.rs",
    "crates/tree/src/dist_tiles.rs",
    "crates/core/src/solve.rs",
];

/// Files allowed to read `KFDS_*` environment variables directly: the
/// registry itself.
pub const ENV_REGISTRY_PREFIX: &str = "crates/switches/";

/// Path prefix whose public unsafe helpers must declare executable
/// preconditions.
pub const UNSAFE_PRECONDITION_PREFIX: &str = "crates/la/src/";

/// The concurrency crates: non-test code here must use the ranked lock
/// wrappers and stay panic-free.
pub const CONCURRENCY_PREFIXES: &[&str] =
    &["crates/serve/src/", "crates/shard/src/", "crates/rt/src/"];

/// The ranked-wrapper implementation itself — the one file allowed to
/// name the raw primitives it wraps.
pub const LOCK_WRAPPER_IMPL: &str = "crates/rt/src/sync.rs";

/// Crate roots that contain no `unsafe` code and must say so with
/// `#![forbid(unsafe_code)]` (keeps the attribute from silently
/// disappearing in a refactor).
pub const FORBID_UNSAFE_ROOTS: &[&str] = &[
    "crates/askit/src/lib.rs",
    "crates/bench/src/lib.rs",
    "crates/kernels/src/lib.rs",
    "crates/krylov/src/lib.rs",
    "crates/rt/src/lib.rs",
    "crates/serve/src/lib.rs",
    "crates/shard/src/lib.rs",
    "crates/switches/src/lib.rs",
    "crates/tree/src/lib.rs",
    "crates/xtask/src/main.rs",
    "src/lib.rs",
];

/// Every rule name `check_source`/`lint_repo` can emit, in report order —
/// `run_lint` prints a per-rule count so CI can assert each family ran.
pub const RULE_NAMES: &[&str] = &[
    "unsafe-safety",
    "env-registry",
    "hot-path-alloc",
    "unsafe-preconditions",
    "lock-discipline",
    "panic-path",
    "forbid-unsafe",
    "switch-coverage",
    "switch-table",
];

/// One lint violation.
#[derive(Debug, Clone)]
pub struct Finding {
    pub path: String,
    pub line: usize,
    pub rule: &'static str,
    pub msg: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.path, self.line, self.rule, self.msg)
    }
}

/// Runs every rule that applies to `src` (path-scoped rules check
/// `src.path` themselves).
pub fn check_source(src: &Source) -> Vec<Finding> {
    let mut out = rule_unsafe_safety(src);
    if !src.path.starts_with(ENV_REGISTRY_PREFIX) {
        out.extend(rule_env_registry(src));
    }
    if HOT_PATH_MODULES.contains(&src.path.as_str()) {
        out.extend(rule_hot_path_alloc(src));
    }
    if src.path.starts_with(UNSAFE_PRECONDITION_PREFIX) {
        out.extend(rule_unsafe_preconditions(src));
    }
    if CONCURRENCY_PREFIXES.iter().any(|p| src.path.starts_with(p)) {
        out.extend(rule_panic_path(src));
        if src.path != LOCK_WRAPPER_IMPL {
            out.extend(rule_lock_discipline(src));
        }
    }
    if FORBID_UNSAFE_ROOTS.contains(&src.path.as_str()) {
        out.extend(rule_forbid_unsafe(src));
    }
    out
}

fn ident_at(tokens: &[Token], i: usize) -> Option<&str> {
    match tokens.get(i).map(|t| &t.kind) {
        Some(Tok::Ident(s)) => Some(s.as_str()),
        _ => None,
    }
}

fn punct_at(tokens: &[Token], i: usize) -> Option<char> {
    match tokens.get(i).map(|t| &t.kind) {
        Some(Tok::Punct(c)) => Some(*c),
        _ => None,
    }
}

/// Is the `unsafe` at `line` justified by an adjacent SAFETY comment?
/// Items (`unsafe fn` / `unsafe impl`) may instead carry a `/// # Safety`
/// doc section; attribute lines between the comment and the item are
/// skipped.
fn safety_covered(src: &Source, line: usize, is_item: bool) -> bool {
    let accepts = |c: &str| c.contains("SAFETY:") || (is_item && c.contains("# Safety"));
    if accepts(src.comment(line)) {
        return true;
    }
    let mut l = line.saturating_sub(1);
    while l >= 1 {
        if src.line_has_code(l) {
            if src.is_attr_line(l) {
                l -= 1;
                continue;
            }
            return false;
        }
        let c = src.comment(l);
        if c.is_empty() {
            return false; // blank line: the justification must be adjacent
        }
        if accepts(c) {
            return true;
        }
        l -= 1;
    }
    false
}

/// **unsafe-safety**: every `unsafe` occurrence needs a justification.
pub fn rule_unsafe_safety(src: &Source) -> Vec<Finding> {
    let mut out = Vec::new();
    for (i, t) in src.tokens.iter().enumerate() {
        let Tok::Ident(id) = &t.kind else { continue };
        if id != "unsafe" {
            continue;
        }
        let next = ident_at(&src.tokens, i + 1);
        let (is_item, what) = match next {
            Some("fn") => (true, "unsafe fn"),
            Some("impl") => (true, "unsafe impl"),
            Some("trait") => (true, "unsafe trait"),
            _ => (false, "unsafe block"),
        };
        if !safety_covered(src, t.line, is_item) {
            out.push(Finding {
                path: src.path.clone(),
                line: t.line,
                rule: "unsafe-safety",
                msg: format!(
                    "{what} without an adjacent `// SAFETY:` comment{}",
                    if is_item { " (or `/// # Safety` doc section)" } else { "" }
                ),
            });
        }
    }
    out
}

/// **env-registry**: no raw reads of `KFDS_*` environment variables
/// outside `kfds-switches`.
pub fn rule_env_registry(src: &Source) -> Vec<Finding> {
    let mut out = Vec::new();
    for (i, t) in src.tokens.iter().enumerate() {
        let Tok::Str(s) = &t.kind else { continue };
        if !s.starts_with("KFDS_") {
            continue;
        }
        // `var("KFDS_…")` / `var_os("KFDS_…")` function reads.
        let fn_read = punct_at(&src.tokens, i.wrapping_sub(1)) == Some('(')
            && matches!(ident_at(&src.tokens, i.wrapping_sub(2)), Some("var") | Some("var_os"));
        // `env!("KFDS_…")` / `option_env!("KFDS_…")` macro reads.
        let macro_read = punct_at(&src.tokens, i.wrapping_sub(1)) == Some('(')
            && punct_at(&src.tokens, i.wrapping_sub(2)) == Some('!')
            && matches!(ident_at(&src.tokens, i.wrapping_sub(3)), Some("env") | Some("option_env"));
        if fn_read || macro_read {
            out.push(Finding {
                path: src.path.clone(),
                line: t.line,
                rule: "env-registry",
                msg: format!(
                    "raw environment read of \"{s}\" — route it through the \
                     kfds-switches registry (the single source of truth for KFDS_* switches)"
                ),
            });
        }
    }
    out
}

/// Token index ranges (inclusive start, exclusive end) covered by
/// `#[cfg(test)] mod … { … }` blocks.
fn test_mod_regions(tokens: &[Token]) -> Vec<(usize, usize)> {
    let mut regions = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        // Match `# [ cfg ( test ) ]`.
        let is_cfg_test = punct_at(tokens, i) == Some('#')
            && punct_at(tokens, i + 1) == Some('[')
            && ident_at(tokens, i + 2) == Some("cfg")
            && punct_at(tokens, i + 3) == Some('(')
            && ident_at(tokens, i + 4) == Some("test")
            && punct_at(tokens, i + 5) == Some(')')
            && punct_at(tokens, i + 6) == Some(']');
        if !is_cfg_test {
            i += 1;
            continue;
        }
        // Find the `mod` this attribute decorates (skipping further
        // attributes), then its opening brace, then brace-match.
        let mut j = i + 7;
        while j < tokens.len() && ident_at(tokens, j) != Some("mod") {
            j += 1;
        }
        let mut k = j;
        while k < tokens.len() && punct_at(tokens, k) != Some('{') {
            k += 1;
        }
        let mut depth = 0;
        let mut end = k;
        while end < tokens.len() {
            match punct_at(tokens, end) {
                Some('{') => depth += 1,
                Some('}') => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            end += 1;
        }
        regions.push((i, end + 1));
        i = end + 1;
    }
    regions
}

/// **hot-path-alloc**: no `Vec::new` / `vec!` / `.to_vec()` in hot-path
/// modules outside tests.
pub fn rule_hot_path_alloc(src: &Source) -> Vec<Finding> {
    let tokens = &src.tokens;
    let regions = test_mod_regions(tokens);
    let in_test = |i: usize| regions.iter().any(|&(s, e)| i >= s && i < e);
    let waived = |line: usize| {
        src.comment(line).contains("lint:allow(hot-path-alloc)")
            || src.comment(line.saturating_sub(1)).contains("lint:allow(hot-path-alloc)")
    };
    let mut out = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        let Tok::Ident(id) = &t.kind else { continue };
        if in_test(i) || waived(t.line) {
            continue;
        }
        let hit = match id.as_str() {
            // `Vec :: new(` and `Vec :: with_capacity(` — fresh heap
            // allocations on a pool-only path.
            "Vec" => {
                punct_at(tokens, i + 1) == Some(':')
                    && punct_at(tokens, i + 2) == Some(':')
                    && matches!(ident_at(tokens, i + 3), Some("new") | Some("with_capacity"))
            }
            // `vec![…]` macro.
            "vec" => punct_at(tokens, i + 1) == Some('!'),
            // `.to_vec()`.
            "to_vec" => punct_at(tokens, i.wrapping_sub(1)) == Some('.'),
            _ => false,
        };
        if hit {
            out.push(Finding {
                path: src.path.clone(),
                line: t.line,
                rule: "hot-path-alloc",
                msg: format!(
                    "`{id}` allocation in a hot-path module — take scratch from \
                     kfds_la::workspace, or waive with `// lint:allow(hot-path-alloc): why`"
                ),
            });
        }
    }
    out
}

/// **unsafe-preconditions**: `pub … unsafe fn` in `kfds-la` must assert
/// its preconditions (at least one `debug_assert!`/`assert!` in the body).
pub fn rule_unsafe_preconditions(src: &Source) -> Vec<Finding> {
    let tokens = &src.tokens;
    let mut out = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if ident_at(tokens, i) != Some("pub") {
            i += 1;
            continue;
        }
        // Skip a `pub(crate)` / `pub(super)` visibility scope.
        let mut j = i + 1;
        if punct_at(tokens, j) == Some('(') {
            while j < tokens.len() && punct_at(tokens, j) != Some(')') {
                j += 1;
            }
            j += 1;
        }
        if ident_at(tokens, j) != Some("unsafe") || ident_at(tokens, j + 1) != Some("fn") {
            i += 1;
            continue;
        }
        let name = ident_at(tokens, j + 2).unwrap_or("?").to_string();
        let sig_line = tokens[j].line;
        // Body: first `{` after the signature, brace-matched.
        let mut k = j + 2;
        while k < tokens.len() && punct_at(tokens, k) != Some('{') {
            k += 1;
        }
        let body_start = k;
        let mut depth = 0;
        while k < tokens.len() {
            match punct_at(tokens, k) {
                Some('{') => depth += 1,
                Some('}') => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            k += 1;
        }
        let has_assert = tokens[body_start..=k.min(tokens.len().saturating_sub(1))]
            .iter()
            .any(|t| matches!(&t.kind, Tok::Ident(id) if id.starts_with("debug_assert") || id.starts_with("assert")));
        if !has_assert {
            out.push(Finding {
                path: src.path.clone(),
                line: sig_line,
                rule: "unsafe-preconditions",
                msg: format!(
                    "public unsafe fn `{name}` declares no executable preconditions — \
                     add `debug_assert!`s for its index/stride/feature contract"
                ),
            });
        }
        i = k + 1;
    }
    out
}

/// Is line `line` justified by a comment containing `needle`, on the
/// same line or adjacent above (attribute lines skipped, blank lines
/// break adjacency)? The shared waiver mechanism for `PANIC-OK:` and
/// `lint:allow(…)` comments, mirroring [`safety_covered`].
fn comment_justified(src: &Source, line: usize, needle: &str) -> bool {
    if src.comment(line).contains(needle) {
        return true;
    }
    let mut l = line.saturating_sub(1);
    while l >= 1 {
        if src.line_has_code(l) {
            if src.is_attr_line(l) {
                l -= 1;
                continue;
            }
            return false;
        }
        let c = src.comment(l);
        if c.is_empty() {
            return false; // blank line: the justification must be adjacent
        }
        if c.contains(needle) {
            return true;
        }
        l -= 1;
    }
    false
}

/// **panic-path**: the concurrency crates' non-test code must not
/// contain panicking calls — return a typed error instead, or justify
/// the invariant with an adjacent `// PANIC-OK:` comment.
pub fn rule_panic_path(src: &Source) -> Vec<Finding> {
    let tokens = &src.tokens;
    let regions = test_mod_regions(tokens);
    let in_test = |i: usize| regions.iter().any(|&(s, e)| i >= s && i < e);
    let mut out = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        let Tok::Ident(id) = &t.kind else { continue };
        if in_test(i) {
            continue;
        }
        let what = match id.as_str() {
            // `.unwrap()` / `.expect(` method calls — `unwrap_or_else`
            // and friends are distinct idents and stay legal.
            "unwrap" | "expect"
                if punct_at(tokens, i.wrapping_sub(1)) == Some('.')
                    && punct_at(tokens, i + 1) == Some('(') =>
            {
                format!(".{id}(…)")
            }
            "panic" | "unreachable" | "todo" | "unimplemented"
                if punct_at(tokens, i + 1) == Some('!') =>
            {
                format!("{id}!(…)")
            }
            _ => continue,
        };
        if comment_justified(src, t.line, "PANIC-OK:") {
            continue;
        }
        out.push(Finding {
            path: src.path.clone(),
            line: t.line,
            rule: "panic-path",
            msg: format!(
                "{what} on the data plane — return a typed error (ServeError/ShardError), \
                 or justify the invariant with an adjacent `// PANIC-OK: why`"
            ),
        });
    }
    out
}

/// A statically tracked held lock: the guard's binding name (None for a
/// temporary that dies at the statement's `;`), the field it locked, its
/// rank, and the brace depth it was acquired at.
struct HeldLock {
    name: Option<String>,
    field: &'static str,
    rank: LockRank,
    depth: usize,
}

/// Receiver field of the `.lock()`/`.read()`/`.write()` whose `.` sits at
/// token index `dot`: the identifier before the dot, walking back over
/// one trailing `[…]`/`(…)` group (`self.mailboxes[dst].lock()`).
fn receiver_ident(tokens: &[Token], dot: usize) -> Option<&str> {
    let mut j = dot.checked_sub(1)?;
    if let Some(close @ (']' | ')')) = punct_at(tokens, j) {
        let open = if close == ']' { '[' } else { '(' };
        let mut depth = 0i32;
        loop {
            match punct_at(tokens, j) {
                Some(c) if c == close => depth += 1,
                Some(c) if c == open => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            j = j.checked_sub(1)?;
        }
        j = j.checked_sub(1)?;
    }
    ident_at(tokens, j)
}

/// If the statement containing token `i` is a `let` binding, the bound
/// identifier (`let mut g = …` → `g`). Scans back to the nearest
/// statement boundary (`;`, `{`, `}`).
fn let_binding_name(tokens: &[Token], i: usize) -> Option<String> {
    let mut j = i;
    while j > 0 {
        if matches!(punct_at(tokens, j - 1), Some(';') | Some('{') | Some('}')) {
            break;
        }
        j -= 1;
    }
    if ident_at(tokens, j) != Some("let") {
        return None;
    }
    let mut k = j + 1;
    if ident_at(tokens, k) == Some("mut") {
        k += 1;
    }
    ident_at(tokens, k).map(String::from)
}

/// **lock-discipline**: the concurrency crates must not name the raw
/// `std::sync` primitives (use the ranked wrappers; waive a deliberate
/// exception with `lint:allow(raw-lock)`), and statically visible nested
/// acquisitions of the ranked fields in [`FIELD_RANKS`] must take locks
/// in strictly increasing rank order — the same invariant the
/// debug-build thread-local checker enforces at runtime, caught at lint
/// time instead. `lint:allow(lock-order)` waives a nesting the analysis
/// cannot see through (e.g. a guard moved across a closure boundary).
pub fn rule_lock_discipline(src: &Source) -> Vec<Finding> {
    let tokens = &src.tokens;
    let regions = test_mod_regions(tokens);
    let in_test = |i: usize| regions.iter().any(|&(s, e)| i >= s && i < e);
    let mut out = Vec::new();

    // Part 1: raw primitives are banned outright.
    for (i, t) in tokens.iter().enumerate() {
        let Tok::Ident(id) = &t.kind else { continue };
        if !matches!(id.as_str(), "Mutex" | "RwLock" | "Condvar") || in_test(i) {
            continue;
        }
        if comment_justified(src, t.line, "lint:allow(raw-lock)") {
            continue;
        }
        out.push(Finding {
            path: src.path.clone(),
            line: t.line,
            rule: "lock-discipline",
            msg: format!(
                "raw `{id}` in a concurrency crate — use the ranked wrapper from \
                 `kfds_rt::sync` (Ranked{id}), or waive with `// lint:allow(raw-lock): why`"
            ),
        });
    }

    // Part 2: rank order across statically visible nested acquisitions.
    let mut held: Vec<HeldLock> = Vec::new();
    let mut depth = 0usize;
    for i in 0..tokens.len() {
        match punct_at(tokens, i) {
            Some('{') => {
                depth += 1;
                continue;
            }
            Some('}') => {
                depth = depth.saturating_sub(1);
                // Let-bound guards die with their scope.
                held.retain(|h| h.depth <= depth);
                continue;
            }
            Some(';') => {
                // Temporaries die at the end of their statement.
                held.retain(|h| h.name.is_some() || h.depth < depth);
                continue;
            }
            _ => {}
        }
        // `drop(g)` releases the named guard early.
        if ident_at(tokens, i) == Some("drop") && punct_at(tokens, i + 1) == Some('(') {
            if let (Some(name), Some(')')) = (ident_at(tokens, i + 2), punct_at(tokens, i + 3)) {
                held.retain(|h| h.name.as_deref() != Some(name));
            }
        }
        // A ranked acquisition: `<field>.lock()` / `.read()` / `.write()`
        // with no arguments, receiver field found in FIELD_RANKS.
        if !matches!(ident_at(tokens, i), Some("lock") | Some("read") | Some("write"))
            || punct_at(tokens, i.wrapping_sub(1)) != Some('.')
            || punct_at(tokens, i + 1) != Some('(')
            || punct_at(tokens, i + 2) != Some(')')
        {
            continue;
        }
        let Some(field) = receiver_ident(tokens, i - 1) else { continue };
        let Some(&(field, rank)) = FIELD_RANKS.iter().find(|(f, _)| *f == field) else {
            continue;
        };
        let line = tokens[i].line;
        if !in_test(i) && !comment_justified(src, line, "lint:allow(lock-order)") {
            for h in &held {
                if h.rank >= rank {
                    out.push(Finding {
                        path: src.path.clone(),
                        line,
                        rule: "lock-discipline",
                        msg: format!(
                            "acquiring `{field}` ({:?}, rank {}) while `{}` ({:?}, rank {}) is \
                             held — lock ranks must strictly increase (see the LockRank registry \
                             in kfds_rt::sync)",
                            rank, rank as u8, h.field, h.rank, h.rank as u8
                        ),
                    });
                }
            }
        }
        held.push(HeldLock { name: let_binding_name(tokens, i), field, rank, depth });
    }
    out
}

/// **forbid-unsafe**: listed crate roots keep `#![forbid(unsafe_code)]`.
pub fn rule_forbid_unsafe(src: &Source) -> Vec<Finding> {
    let t = &src.tokens;
    let present = (0..t.len()).any(|i| {
        punct_at(t, i) == Some('#')
            && punct_at(t, i + 1) == Some('!')
            && punct_at(t, i + 2) == Some('[')
            && ident_at(t, i + 3) == Some("forbid")
            && punct_at(t, i + 4) == Some('(')
            && ident_at(t, i + 5) == Some("unsafe_code")
            && punct_at(t, i + 6) == Some(')')
            && punct_at(t, i + 7) == Some(']')
    });
    if present {
        return Vec::new();
    }
    vec![Finding {
        path: src.path.clone(),
        line: 1,
        rule: "forbid-unsafe",
        msg: "crate root must keep its `#![forbid(unsafe_code)]` attribute (this crate is \
              unsafe-free by policy; remove it from FORBID_UNSAFE_ROOTS only with a SAFETY \
              story for the new unsafe code)"
            .into(),
    }]
}

/// Registry switch names referenced from test code in `src`: the whole
/// file when it lives under a `tests/` directory, otherwise only tokens
/// inside `#[cfg(test)]` modules. Both identifiers (`KFDS_SIMD.is_off()`)
/// and string literals (`set_var("KFDS_SIMD", …)`) count. xtask itself is
/// excluded — its lint fixtures mention switch names without testing them.
pub fn test_switch_refs(src: &Source) -> Vec<&'static str> {
    if src.path.starts_with("crates/xtask/") {
        return Vec::new();
    }
    let whole_file = src.path.contains("/tests/");
    let regions = if whole_file { Vec::new() } else { test_mod_regions(&src.tokens) };
    let in_test = |i: usize| whole_file || regions.iter().any(|&(s, e)| i >= s && i < e);
    let mut out = Vec::new();
    for (i, t) in src.tokens.iter().enumerate() {
        if !in_test(i) {
            continue;
        }
        let text = match &t.kind {
            Tok::Ident(s) => s.as_str(),
            Tok::Str(s) => s.as_str(),
            Tok::Punct(_) => continue,
        };
        for sw in kfds_switches::ALL {
            if text.contains(sw.name) && !out.contains(&sw.name) {
                out.push(sw.name);
            }
        }
    }
    out
}

/// **switch-coverage**: every switch in the `kfds-switches` registry must
/// be (1) documented in the README switch table, (2) exercised by a
/// `ci.sh` lane, and (3) referenced by at least one test. Called from
/// `lint_repo`, which supplies the README/ci.sh texts and the union of
/// [`test_switch_refs`] over every scanned file.
pub fn rule_switch_coverage(readme: &str, ci: &str, tested: &[&str]) -> Vec<Finding> {
    let mut out = Vec::new();
    for sw in kfds_switches::ALL {
        let name = sw.name;
        if !readme.contains(&format!("`{name}`")) {
            out.push(Finding {
                path: "README.md".into(),
                line: 0,
                rule: "switch-coverage",
                msg: format!("`{name}` has no row in the runtime-switch table"),
            });
        }
        if !ci.contains(name) {
            out.push(Finding {
                path: "ci.sh".into(),
                line: 0,
                rule: "switch-coverage",
                msg: format!("`{name}` is not exercised by any ci.sh lane"),
            });
        }
        if !tested.contains(&name) {
            out.push(Finding {
                path: "crates/switches/src/lib.rs".into(),
                line: 0,
                rule: "switch-coverage",
                msg: format!(
                    "`{name}` is not referenced by any test (neither a tests/ file nor a \
                     #[cfg(test)] module mentions it)"
                ),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::scan_str;

    fn lint(path: &str, text: &str) -> Vec<Finding> {
        check_source(&scan_str(path, text))
    }

    // --- unsafe-safety -------------------------------------------------

    #[test]
    fn unsafe_block_without_safety_comment_fails() {
        let f = lint("crates/x/src/a.rs", "fn f(p: *const u8) -> u8 { unsafe { *p } }\n");
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "unsafe-safety");
    }

    #[test]
    fn deleting_a_safety_comment_is_what_fails() {
        // The acceptance criterion, as a pair: with the comment the file is
        // clean; with the comment deleted (only change) it is not.
        let with = "fn f(p: *const u8) -> u8 {\n    // SAFETY: caller guarantees p is valid.\n    unsafe { *p }\n}\n";
        let without = "fn f(p: *const u8) -> u8 {\n    unsafe { *p }\n}\n";
        assert!(lint("crates/x/src/a.rs", with).is_empty());
        assert_eq!(lint("crates/x/src/a.rs", without).len(), 1);
    }

    #[test]
    fn safety_comment_on_same_line_counts() {
        let f =
            lint("crates/x/src/a.rs", "let v = unsafe { g() }; // SAFETY: g is infallible here.\n");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn unsafe_fn_accepts_doc_safety_section_through_attributes() {
        let src = "/// Does things.\n///\n/// # Safety\n/// Caller must uphold X.\n#[inline]\npub unsafe fn g(n: usize) { debug_assert!(n > 0); }\n";
        let f = lint("crates/x/src/a.rs", src);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn unsafe_impl_needs_its_own_comment() {
        let src =
            "// SAFETY: T is plain data.\nunsafe impl Send for A {}\nunsafe impl Sync for A {}\n";
        let f = lint("crates/x/src/a.rs", src);
        assert_eq!(f.len(), 1, "the second impl is uncovered: {f:?}");
        assert_eq!(f[0].line, 3);
    }

    #[test]
    fn unsafe_in_comment_or_string_is_ignored() {
        let src = "// this mentions unsafe code\nlet s = \"unsafe { }\";\n";
        assert!(lint("crates/x/src/a.rs", src).is_empty());
    }

    #[test]
    fn blank_line_breaks_safety_adjacency() {
        let src = "// SAFETY: stale justification far above.\n\nlet v = unsafe { g() };\n";
        assert_eq!(lint("crates/x/src/a.rs", src).len(), 1);
    }

    // --- env-registry --------------------------------------------------

    #[test]
    fn raw_kfds_env_read_fails() {
        // The acceptance criterion: adding a raw env::var("KFDS_X") to any
        // non-registry file is a finding.
        let src = "fn f() -> bool { std::env::var(\"KFDS_X\").is_ok() }\n";
        let f = lint("crates/x/src/a.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "env-registry");
    }

    #[test]
    fn var_os_and_option_env_reads_fail() {
        let src = "fn f() { let _ = std::env::var_os(\"KFDS_SIMD\"); let _ = option_env!(\"KFDS_Y\"); }\n";
        let f = lint("crates/x/src/a.rs", src);
        assert_eq!(f.len(), 2, "{f:?}");
    }

    #[test]
    fn registry_file_and_test_set_var_are_allowed() {
        let read = "pub fn raw(&self) -> Option<OsString> { std::env::var_os(self.name) }\n";
        // (filtering forbid-unsafe: the fixture is a snippet, not the
        // whole crate root, so the attribute is legitimately absent)
        let f = lint("crates/switches/src/lib.rs", read);
        assert!(!f.iter().any(|f| f.rule == "env-registry"), "{f:?}");
        let set = "fn t() { std::env::set_var(\"KFDS_SIMD\", \"off\"); std::env::remove_var(\"KFDS_SIMD\"); }\n";
        assert!(lint("crates/x/tests/t.rs", set).is_empty());
    }

    #[test]
    fn kfds_literal_not_passed_to_env_is_allowed() {
        let src = "const NAME: &str = \"KFDS_SIMD\"; // doc tables etc.\n";
        assert!(lint("crates/x/src/a.rs", src).is_empty());
    }

    // --- hot-path-alloc ------------------------------------------------

    #[test]
    fn alloc_in_hot_module_fails_but_test_mod_is_exempt() {
        let src = "fn hot() { let v = vec![0.0; 8]; let w = Vec::new(); let u = x.to_vec(); }\n\
                   #[cfg(test)]\nmod tests {\n    fn t() { let v = vec![1]; let w = Vec::new(); }\n}\n";
        // The first and the last entry of the list: a kernel and the solve.
        assert_eq!(HOT_PATH_MODULES.len(), 7);
        for path in ["crates/la/src/simd.rs", "crates/core/src/solve.rs"] {
            let f = lint(path, src);
            assert_eq!(f.len(), 3, "{path}: {f:?}");
            assert!(f.iter().all(|f| f.rule == "hot-path-alloc"));
        }
    }

    #[test]
    fn alloc_waiver_comment_is_honored() {
        let src = "fn cold() {\n    // lint:allow(hot-path-alloc): one-time table build at init.\n    let v = vec![0.0; 8];\n}\n";
        assert!(lint("crates/la/src/blas1.rs", src).is_empty());
    }

    #[test]
    fn alloc_in_unlisted_module_is_fine() {
        let src = "fn f() { let v = vec![0.0; 8]; }\n";
        assert!(lint("crates/core/src/factor.rs", src).is_empty());
    }

    // --- unsafe-preconditions ------------------------------------------

    #[test]
    fn pub_unsafe_fn_without_assert_fails_in_la() {
        let src = "/// # Safety\n/// p valid.\npub unsafe fn f(p: *const f64) -> f64 { *p }\n";
        let f = lint("crates/la/src/simd.rs", src);
        assert!(f.iter().any(|f| f.rule == "unsafe-preconditions"), "{f:?}");
    }

    #[test]
    fn pub_crate_unsafe_fn_with_debug_assert_passes() {
        let src = "/// # Safety\n/// p valid for n elements.\npub(crate) unsafe fn f(p: *const f64, n: usize) -> f64 {\n    debug_assert!(!p.is_null() && n > 0);\n    *p.add(n - 1)\n}\n";
        let f = lint("crates/la/src/simd.rs", src);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn precondition_rule_scoped_to_la() {
        let src = "/// # Safety\n/// fine.\npub unsafe fn f(p: *const f64) -> f64 { *p }\n";
        assert!(lint("crates/core/src/share.rs", src).is_empty());
    }

    // --- lock-discipline ------------------------------------------------

    #[test]
    fn raw_mutex_in_serve_fails() {
        // The acceptance criterion: reintroducing a raw std primitive in
        // a concurrency crate is a finding.
        let src = "use std::sync::Mutex;\nstruct S { m: Mutex<i32> }\n";
        let f = lint("crates/serve/src/service.rs", src);
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f.iter().all(|f| f.rule == "lock-discipline"));
    }

    #[test]
    fn raw_lock_waiver_and_test_mod_are_honored() {
        let waived =
            "// lint:allow(raw-lock): FFI handoff needs the std type.\nuse std::sync::Condvar;\n";
        assert!(lint("crates/shard/src/router.rs", waived).is_empty());
        let in_test = "#[cfg(test)]\nmod tests {\n    use std::sync::Mutex;\n}\n";
        assert!(lint("crates/rt/src/comm.rs", in_test).is_empty());
    }

    #[test]
    fn ranked_wrapper_impl_and_other_crates_are_exempt() {
        let src = "use std::sync::{Mutex, Condvar};\n";
        assert!(
            lint("crates/rt/src/sync.rs", src).is_empty(),
            "the wrapper impl names what it wraps"
        );
        assert!(
            lint("crates/core/src/factor.rs", src).is_empty(),
            "rule is scoped to concurrency crates"
        );
    }

    #[test]
    fn rank_inverted_nested_lock_fails() {
        // `workers` (RouterControl) under `plane`
        // (RouterDataPlane) is exactly the inversion the runtime checker
        // panics on — the lint catches it statically.
        let src = "fn shutdown(&self) {\n    let p = self.plane.lock();\n    let w = self.workers.lock();\n}\n";
        let f = lint("crates/shard/src/router.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "lock-discipline");
        assert_eq!(f[0].line, 3);
        assert!(f[0].msg.contains("strictly increase"), "{}", f[0].msg);
    }

    #[test]
    fn increasing_rank_nesting_passes() {
        let src = "fn f(&self) {\n    let q = self.queue.lock();\n    let s = self.slot.lock();\n    let e = self.errs.lock();\n}\n";
        assert!(lint("crates/serve/src/service.rs", src).is_empty());
    }

    #[test]
    fn same_rank_nesting_fails() {
        let src =
            "fn f(&self) {\n    let a = self.plane.lock();\n    let b = self.plane.lock();\n}\n";
        let f = lint("crates/shard/src/router.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
    }

    #[test]
    fn drop_and_scope_exit_release_held_ranks() {
        // Explicit drop() releases; so does leaving the binding's block.
        let dropped = "fn f(&self) {\n    let p = self.plane.lock();\n    drop(p);\n    let w = self.workers.lock();\n}\n";
        assert!(lint("crates/shard/src/router.rs", dropped).is_empty());
        let scoped = "fn f(&self) {\n    { let p = self.plane.lock(); }\n    let w = self.workers.lock();\n}\n";
        assert!(lint("crates/shard/src/router.rs", scoped).is_empty());
        let temp =
            "fn f(&self) {\n    self.plane.lock().route();\n    let w = self.workers.lock();\n}\n";
        assert!(lint("crates/shard/src/router.rs", temp).is_empty(), "temporary guard dies at `;`");
    }

    #[test]
    fn indexed_receiver_resolves_to_its_field() {
        // `self.mailboxes[dst].lock()` must resolve to `mailboxes`
        // (RtMailbox, the top rank) — nesting anything under it fails.
        let src = "fn f(&self) {\n    let mb = self.mailboxes[dst].lock();\n    let e = self.errs.lock();\n}\n";
        let f = lint("crates/rt/src/comm.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].msg.contains("mailboxes"), "{}", f[0].msg);
    }

    #[test]
    fn unranked_receivers_are_ignored() {
        // `state` is deliberately absent from FIELD_RANKS (per-instance
        // rank); the static analysis must not guess.
        let src =
            "fn f(&self) {\n    let st = self.state.lock();\n    let q = self.queue.lock();\n}\n";
        assert!(lint("crates/serve/src/cache.rs", src).is_empty());
    }

    #[test]
    fn lock_order_waiver_is_honored() {
        let src = "fn f(&self) {\n    let p = self.plane.lock();\n    // lint:allow(lock-order): guard provably dropped on the other thread.\n    let w = self.workers.lock();\n}\n";
        assert!(lint("crates/shard/src/router.rs", src).is_empty());
    }

    // --- panic-path ------------------------------------------------------

    #[test]
    fn unwaivered_unwrap_on_data_plane_fails() {
        // The acceptance criterion: a bare .unwrap() in serve/shard/rt
        // non-test code is a finding.
        let src = "fn f(v: Option<u32>) -> u32 { v.unwrap() }\n";
        let f = lint("crates/serve/src/service.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "panic-path");
    }

    #[test]
    fn panic_macros_fail_and_panic_ok_waives() {
        let bare = "fn f(x: u8) {\n    match x {\n        0 => panic!(\"zero\"),\n        1 => unreachable!(),\n        _ => todo!(),\n    }\n}\n";
        let f = lint("crates/shard/src/router.rs", bare);
        assert_eq!(f.len(), 3, "{f:?}");
        let waived = "fn f(h: std::thread::JoinHandle<()>) {\n    // PANIC-OK: worker panics are contained by catch_unwind upstream.\n    h.join().expect(\"worker panicked\");\n}\n";
        assert!(lint("crates/rt/src/comm.rs", waived).is_empty());
    }

    #[test]
    fn panic_rule_spares_tests_adapters_and_other_crates() {
        let in_test = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { Some(1).unwrap(); panic!(\"boom\"); }\n}\n";
        assert!(lint("crates/serve/src/cache.rs", in_test).is_empty());
        let adapters =
            "fn f(v: Option<u32>) -> u32 { v.unwrap_or_default().max(v.unwrap_or(0)) }\n";
        assert!(
            lint("crates/serve/src/stats.rs", adapters).is_empty(),
            "unwrap_or_* are not unwrap"
        );
        let elsewhere = "fn f(v: Option<u32>) -> u32 { v.unwrap() }\n";
        assert!(lint("crates/core/src/factor.rs", elsewhere).is_empty());
    }

    // --- forbid-unsafe ---------------------------------------------------

    #[test]
    fn missing_forbid_attribute_fails_on_listed_roots() {
        let f = lint("crates/switches/src/lib.rs", "pub struct Switch;\n");
        assert!(f.iter().any(|f| f.rule == "forbid-unsafe"), "{f:?}");
        let with = "#![forbid(unsafe_code)]\npub struct Switch;\n";
        assert!(lint("crates/switches/src/lib.rs", with).is_empty());
        assert!(
            lint("crates/la/src/lib.rs", "pub mod simd;\n").is_empty(),
            "unlisted root is fine"
        );
    }

    // --- switch-coverage -------------------------------------------------

    #[test]
    fn switch_coverage_requires_all_three_legs() {
        // Full coverage: every registry switch appears everywhere.
        let readme: String =
            kfds_switches::ALL.iter().map(|s| format!("| `{}` | row |\n", s.name)).collect();
        let ci: String =
            kfds_switches::ALL.iter().map(|s| format!("{}=off lane\n", s.name)).collect();
        let tested: Vec<&str> = kfds_switches::ALL.iter().map(|s| s.name).collect();
        assert!(rule_switch_coverage(&readme, &ci, &tested).is_empty());

        // Drop one switch from each leg: exactly three findings, one per
        // missing leg, all for that switch.
        let victim = kfds_switches::ALL[0].name;
        let readme2: String =
            kfds_switches::ALL[1..].iter().map(|s| format!("| `{}` | row |\n", s.name)).collect();
        let ci2: String =
            kfds_switches::ALL[1..].iter().map(|s| format!("{}=off lane\n", s.name)).collect();
        let tested2: Vec<&str> = kfds_switches::ALL[1..].iter().map(|s| s.name).collect();
        let f = rule_switch_coverage(&readme2, &ci2, &tested2);
        assert_eq!(f.len(), 3, "{f:?}");
        assert!(f.iter().all(|f| f.rule == "switch-coverage" && f.msg.contains(victim)), "{f:?}");
    }

    #[test]
    fn test_switch_refs_sees_tests_and_skips_xtask_fixtures() {
        let t = scan_str(
            "crates/la/tests/simd_equiv.rs",
            "fn t() { std::env::set_var(\"KFDS_SIMD\", \"off\"); }\n",
        );
        assert_eq!(test_switch_refs(&t), vec!["KFDS_SIMD"]);
        // Non-test code referencing a switch does not count…
        let s =
            scan_str("crates/la/src/simd.rs", "fn f() { kfds_switches::KFDS_SIMD.is_off(); }\n");
        assert!(test_switch_refs(&s).is_empty());
        // …but a #[cfg(test)] module in src does.
        let m = scan_str(
            "crates/la/src/simd.rs",
            "#[cfg(test)]\nmod tests {\n    fn t() { kfds_switches::KFDS_SIMD.is_off(); }\n}\n",
        );
        assert_eq!(test_switch_refs(&m), vec!["KFDS_SIMD"]);
        // xtask's own fixtures never count as test coverage.
        let x = scan_str(
            "crates/xtask/src/rules.rs",
            "#[cfg(test)]\nmod tests {\n    fn t() { let _ = \"KFDS_SIMD\"; }\n}\n",
        );
        assert!(test_switch_refs(&x).is_empty());
    }
}
