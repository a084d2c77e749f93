#!/usr/bin/env bash
# Local CI gate: the host's vector flags (which kernel bodies the vector
# lane runs), then format, clippy, rustdoc, kfds-lint, release build, the
# eight examples, one small Table IV run (its schemes must agree), the
# workspace tests, the golden digests on one rayon
# thread (the rayon shim's tests too) and on three (odd row-group counts
# per GSKS band), the benchmark package's own tests, and the kfds-serve
# smoke runs. The golden digests run the vector and the portable lanes in
# process and bind one table in both, on any host (the AVX-512 bodies give
# the AVX2 bodies' bits, the portable lanes run the same chains).
# Correctness only: nothing here asserts a timing
# (timings, bytes and throughput are benchmark/'s — see BENCHMARK.json).
# Every step prints the seconds it took and `CI OK` a table of them, so a
# lane has a price before anyone argues for deleting it.
#
#   ./ci.sh            # everything
#   ./ci.sh --fast     # skip the release build and the examples run on it
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

step "host vector bodies"
# The host's avx2 / fma / avx512f flags, once, so a green log says which
# bodies the vector lane ran. They decide speed only: every digest lane
# binds GOLDEN on any host, AVX2+FMA, AVX-512F or neither.
flags="$(grep -m1 -E '^flags' /proc/cpuinfo 2>/dev/null || true)"
has() { grep -qw "$1" <<<"$flags"; }
if [[ -z $flags ]]; then
  echo "no /proc/cpuinfo: vector flags unknown on this host"
else
  for f in avx2 fma avx512f; do
    if has "$f"; then echo "$f: yes"; else echo "$f: no"; fi
  done
  if has avx2 && has fma; then
    echo "SIMD on: the vector bodies run (the AVX-512 ones too where avx512f is yes);"
    echo "the digest tests run them and the portable lanes, both binding GOLDEN"
  else
    echo "no AVX2 + FMA: the portable lanes only, binding GOLDEN"
  fi
fi

step "cargo fmt --check"
cargo fmt --all --check

step "cargo clippy (all targets, warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

step "cargo doc (workspace, warnings are errors)"
# A broken intra-doc link, or one into an item that is no longer public,
# fails here rather than rotting in the rendered docs.
RUSTDOCFLAGS="-D warnings" cargo doc -q --workspace --no-deps

step "kfds-lint (SAFETY comments, no environment-switch reads, hot-path allocs, unsafe preconditions, lock discipline, panic-free data plane, forbid-unsafe)"
# The machine-checked safety invariants — see DESIGN.md §7. Always on:
# the lint is pure source analysis and takes well under a second. A rule
# that checked no file, or a listed path that names none, is a finding
# (`repo_tree_lints_clean` holds the same under `cargo test`).
cargo run -q -p xtask -- lint

if [[ $fast -eq 0 ]]; then
  step "cargo build --release"
  cargo build --release

  step "examples (release; each asserts its own accuracy)"
  # The examples drive the prelude's front doors end to end and each one
  # asserts its own residual or accuracy, so they run here, not just
  # compile. An example's output is printed only when it fails. --fast
  # skips this step with the release build it runs on.
  for ex in examples/*.rs; do
    name="$(basename "$ex" .rs)"
    echo "example ${name}"
    if ! out="$(cargo run -q --release --example "$name" 2>&1)"; then
      echo "$out"
      echo "example ${name} failed" >&2
      exit 1
    fi
  done

  step "table4_single_node --scale 0.25 (release; the schemes must agree)"
  # The one bench bin run here. N = 4096 is the smallest scale whose
  # L = 3 frontier nodes have children, so the stored and GSKS rows apply
  # V below the frontier and the derived re-evaluated-GEMM row times the
  # two-pass reference there; the bin asserts the schemes agree.
  cargo run -q --release -p kfds-bench --bin table4_single_node -- --scale 0.25
fi

step "cargo test (workspace)"
# Every test, in the default environment. The lane tests and the digests
# flip SIMD in process (`kfds_la::simd::set_simd_enabled`), so the
# portable lanes are held to the vector bits here.
cargo test -q --workspace

step "cargo test (kfds-core and kfds-kernels digests, kfds-tree, rayon shim, RAYON_NUM_THREADS=1 — one thread)"
# The other lanes run the pool at the host's width; the tables claim the
# same rows on one thread, in both lanes. Every level's par_iter and every
# row-split GEMM then runs serially, so a kernel whose bits depended on
# the split would show here. The GSKS engine's own table too: its band
# split, and so which row groups share a run contraction, follows the
# thread count. The tree crate's suite: the ball tree's pool-split passes
# and the neighbour searches' parallel rounds must give their references'
# bits with no worker either. The shim's own tests last: at N = 1 the pool has no
# worker, only the waiting caller, so its `install(4)` scope (which still
# pushes jobs), `deep_recursive_join` and the width test show that the
# caller alone completes every job, without hanging.
RAYON_NUM_THREADS=1 cargo test -q -p kfds-core --lib digests
RAYON_NUM_THREADS=1 cargo test -q -p kfds-kernels --test digests
RAYON_NUM_THREADS=1 cargo test -q -p kfds-tree
RAYON_NUM_THREADS=1 cargo test -q -p rayon

step "cargo test (kfds-kernels and kfds-core digests, RAYON_NUM_THREADS=3 — odd row-group bands)"
# The GSKS Gram tile covers two row groups of a band at once, and an odd
# last group of a band is paired with itself. A band holds at most
# ceil(groups / threads) groups, so on three threads the split differs
# from one and two threads' (6 row groups go as bands of 1 + 2 + 1 + 2,
# not 3 + 3): other groups pair up and others are paired with themselves,
# and both digest tables must still bind without moving a bit.
RAYON_NUM_THREADS=3 cargo test -q -p kfds-kernels --test digests
RAYON_NUM_THREADS=3 cargo test -q -p kfds-core --lib digests

if [[ $miri -eq 1 ]]; then
  step "miri lane (kfds-la deterministic suite under the interpreter)"
  # Checks the raw-pointer/`set_len` unsafe core for UB. SIMD dispatch is
  # hard-wired to the portable lanes under Miri (`cpu_supported()` returns
  # false), and the proptest suite is compiled out (`#![cfg(not(miri))]`
  # in props.rs).
  if nightly_has miri; then
    cargo +nightly miri test -p kfds-la --test miri
  else
    echo "WARNING: skipping Miri lane — 'miri' component not installed on the"
    echo "         nightly toolchain (rustup component add --toolchain nightly miri)."
  fi
fi

if [[ $tsan -eq 1 ]]; then
  step "tsan lane (kfds-rt + kfds-serve under ThreadSanitizer)"
  # Race-checks the channel runtime and the serve queue/cache/shutdown
  # paths; the loom stress tests give the detector real interleavings to
  # observe. Needs
  # -Zbuild-std, hence nightly + the rust-src component.
  if nightly_has rust-src; then
    RUSTFLAGS="-Zsanitizer=thread" \
      cargo +nightly test -Zbuild-std --target x86_64-unknown-linux-gnu \
      -p kfds-rt -p kfds-serve
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
# two-level cache contract). The --shards 2 lane solves every batch as two
# rank-owned subtree shards and additionally asserts the answer is
# bitwise-identical to the unsharded blocked solve, zero fallbacks, and
# each shard lane's rows_solved equal to the shard's row count times the
# right-hand sides answered.
if [[ $fast -eq 0 ]]; then
  cargo run -q --release -p kfds-serve --bin kfds-serve -- --smoke --n 1024 --keys 2 --clients 8 --requests 64
  cargo run -q --release -p kfds-serve --bin kfds-serve -- --smoke --shards 2 --n 1024 --keys 2 --clients 8 --requests 64
else
  cargo run -q -p kfds-serve --bin kfds-serve -- --smoke --n 512 --keys 2 --clients 4 --requests 32
  cargo run -q -p kfds-serve --bin kfds-serve -- --smoke --shards 2 --n 512 --keys 2 --clients 4 --requests 32
fi

step ""
printf '%s\n' "${timings[@]}"
echo "CI OK (${SECONDS} s)"
