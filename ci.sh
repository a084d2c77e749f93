#!/usr/bin/env bash
# Local CI gate: format, clippy, kfds-lint, release build, the workspace
# tests under the default environment and once per reference path a
# KFDS_* switch selects, the benchmark package's own tests, and the
# kfds-serve smoke runs. Correctness only: nothing here asserts a timing
# (timings, bytes and throughput are benchmark/'s — see BENCHMARK.json).
# Every step prints the seconds it took and `CI OK` a table of them, so a
# lane has a price before anyone argues for deleting it.
#
#   ./ci.sh            # everything
#   ./ci.sh --fast     # skip the release build
#   ./ci.sh --miri     # additionally run the Miri lane (needs nightly + miri)
#   ./ci.sh --tsan     # additionally run the ThreadSanitizer lane
#                      # (needs nightly + rust-src; see DESIGN.md §7)
#
# Mirrors what a hosted pipeline would run; keep it green before pushing.
set -euo pipefail
cd "$(dirname "$0")"

fast=0
miri=0
tsan=0
for arg in "$@"; do
  case "$arg" in
    --fast) fast=1 ;;
    --miri) miri=1 ;;
    --tsan) tsan=1 ;;
    *) echo "unknown flag: $arg" >&2; exit 2 ;;
  esac
done

# `step "name"` opens a step: prints its banner and, first, what the step
# before it took (bash SECONDS; reported, never asserted). `step ""` only
# closes the last one.
step_name=""
step_t0=0
timings=()
step() {
  if [[ -n $step_name ]]; then
    local took=$((SECONDS - step_t0))
    echo "-- ${took} s: ${step_name}"
    timings+=("$(printf '%6d s  %s' "$took" "$step_name")")
  fi
  step_name="$1"
  step_t0=$SECONDS
  if [[ -n $1 ]]; then echo "== $1 =="; fi
}

# Does the nightly toolchain have a given component (miri, rust-src)?
nightly_has() {
  rustup component list --toolchain nightly --installed 2>/dev/null | grep -q "^$1"
}

step "cargo fmt --check"
cargo fmt --all --check

step "cargo clippy (all targets, warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

step "kfds-lint (SAFETY comments, switch registry, hot-path allocs, unsafe preconditions, lock discipline, panic-free data plane, forbid-unsafe, switch coverage)"
# The machine-checked safety invariants — see DESIGN.md §7. Always on:
# the lint is pure source analysis and takes well under a second. The
# per-rule count line is asserted below so a rule family that silently
# stopped running (refactor regression in xtask) cannot read as green.
lint_out="$(cargo run -q -p xtask -- lint)"
echo "$lint_out"
for rule in unsafe-safety env-registry hot-path-alloc unsafe-preconditions \
            lock-discipline panic-path forbid-unsafe switch-coverage switch-table; do
  if ! grep -q " ${rule}=" <<<"$lint_out"; then
    echo "kfds-lint did not report the ${rule} rule — lint harness regression" >&2
    exit 1
  fi
done

if [[ $fast -eq 0 ]]; then
  step "cargo build --release"
  cargo build --release
fi

step "cargo test (workspace, SIMD default)"
cargo test -q --workspace

step "cargo test (workspace, KFDS_SIMD=off — scalar reference paths)"
KFDS_SIMD=off cargo test -q --workspace

step "cargo test (workspace, KFDS_CPQR=unblocked + KFDS_EVAL_GEMM=off — BLAS-2 setup paths)"
# The legacy one-reflector CPQR and the scalar kernel-block assembly are the
# bitwise reference for the blocked setup pipeline; keep them green.
KFDS_CPQR=unblocked KFDS_EVAL_GEMM=off cargo test -q --workspace

step "cargo test (kfds-la, KFDS_WS_POOL=off — global-allocator workspace path)"
# The pool kill-switch must leave every factorization/solve result
# untouched (the pool only changes where scratch memory comes from).
KFDS_WS_POOL=off cargo test -q -p kfds-la

step "cargo test (kfds-tree, KFDS_KNN=scalar — scalar-distance kNN reference)"
# The GEMM-tile neighbor search must agree with the scalar reference
# under both search modes; this lane runs the tree suite on that path.
KFDS_KNN=scalar cargo test -q -p kfds-tree

step "cargo test (kfds-core, KFDS_REFACTOR=off — per-λ rebuild reference)"
# lambda_sweep, the GP noise grid and SharedFactor::refactorize fall back
# to a fresh factorization per λ; the suite asserts the switch is honored
# and that the two routes agree bitwise.
KFDS_REFACTOR=off cargo test -q -p kfds-core

step "cargo test (kfds-core solve_digests, KFDS_SIMD=off KFDS_BATCH=off — the golden table, retired switch set)"
# The digest table is asserted only on the scalar kernel bodies, so this is
# the lane that holds skeletons, factors and solves to the recorded bits.
# KFDS_BATCH is retired (no crate reads it; the registry entry waits on
# ROADMAP 1(a)): setting it must move no digest.
KFDS_SIMD=off KFDS_BATCH=off cargo test -q -p kfds-core --test solve_digests

if [[ $miri -eq 1 ]]; then
  step "miri lane (kfds-la deterministic suite under the interpreter)"
  # Checks the raw-pointer/`set_len` unsafe core for UB. SIMD dispatch is
  # hard-wired scalar under Miri (`cpu_supported()` returns false), and the
  # proptest suite is compiled out (`#![cfg(not(miri))]` in props.rs).
  if nightly_has miri; then
    cargo +nightly miri test -p kfds-la --test miri
  else
    echo "WARNING: skipping Miri lane — 'miri' component not installed on the"
    echo "         nightly toolchain (rustup component add --toolchain nightly miri)."
  fi
fi

if [[ $tsan -eq 1 ]]; then
  step "tsan lane (kfds-rt + kfds-shard + kfds-serve under ThreadSanitizer)"
  # Race-checks the channel runtime, the shard router's scatter/gather
  # data plane, and the serve queue/cache/shutdown paths; the loom stress
  # tests give the detector real interleavings to observe. Needs
  # -Zbuild-std, hence nightly + the rust-src component.
  if nightly_has rust-src; then
    RUSTFLAGS="-Zsanitizer=thread" \
      cargo +nightly test -Zbuild-std --target x86_64-unknown-linux-gnu \
      -p kfds-rt -p kfds-shard -p kfds-serve
  else
    echo "WARNING: skipping TSan lane — 'rust-src' component not installed on the"
    echo "         nightly toolchain (rustup component add --toolchain nightly rust-src)."
  fi
fi

step "cargo test (benchmark/ — the ledger harness and a --quick run of every workload)"
# benchmark/ is a package of its own (the root workspace does not build
# it), and it is the only place timings, bytes and throughput are
# recorded. Its suite runs all four workloads at smoke sizes with their
# own answer checks on, so a change under crates/ that stops the benchmark
# compiling, or makes a workload wrong, fails here.
cargo test -q --manifest-path benchmark/Cargo.toml

step "kfds-serve smoke (single-node, then sharded)"
# Stands up the batched solve service under closed-loop load and asserts a
# clean run: zero errors, every request answered, cache hit rate > 0, and
# exactly one λ-free setup build across the λ-only key spread (the
# two-level cache contract). The --shards 2 lane routes every batch
# through the shard tier and additionally asserts the routed answer is
# bitwise-identical to the unsharded blocked solve plus what each shard
# lane did: one request per batch, zero errors, zero fallbacks, and
# rows_solved equal to the shard's row count times the right-hand sides
# answered.
if [[ $fast -eq 0 ]]; then
  cargo run -q --release -p kfds-serve --bin kfds-serve -- --smoke --n 1024 --keys 2 --clients 8 --requests 64
  cargo run -q --release -p kfds-serve --bin kfds-serve -- --smoke --shards 2 --n 1024 --keys 2 --clients 8 --requests 64
  # Kill-switch lanes: KFDS_SERVE_BATCH=off must still answer every
  # request (batches of one), and KFDS_SHARD=off must turn a --shards
  # request back into the bitwise-identical single-node service.
  KFDS_SERVE_BATCH=off cargo run -q --release -p kfds-serve --bin kfds-serve -- --smoke --n 1024 --keys 2 --clients 8 --requests 64
  KFDS_SHARD=off cargo run -q --release -p kfds-serve --bin kfds-serve -- --smoke --shards 2 --n 1024 --keys 2 --clients 8 --requests 64
else
  cargo run -q -p kfds-serve --bin kfds-serve -- --smoke --n 512 --keys 2 --clients 4 --requests 32
  cargo run -q -p kfds-serve --bin kfds-serve -- --smoke --shards 2 --n 512 --keys 2 --clients 4 --requests 32
  KFDS_SERVE_BATCH=off cargo run -q -p kfds-serve --bin kfds-serve -- --smoke --n 512 --keys 2 --clients 4 --requests 32
  KFDS_SHARD=off cargo run -q -p kfds-serve --bin kfds-serve -- --smoke --shards 2 --n 512 --keys 2 --clients 4 --requests 32
fi

step ""
printf '%s\n' "${timings[@]}"
echo "CI OK (${SECONDS} s)"
