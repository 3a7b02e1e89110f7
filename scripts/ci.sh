#!/usr/bin/env bash
# Lint gate: clippy warnings are errors, formatting is canonical
# (see rustfmt.toml), the API docs must build warning-free, and every
# doctest must pass. Run before sending changes; CI runs the same.
set -euo pipefail
cd "$(dirname "$0")/.."

# Build artifacts must never be tracked (target/ is ignored).
if git ls-files | grep -E '(^|/)target/' >/dev/null; then
  echo "error: build artifacts under target/ are git-tracked:" >&2
  git ls-files | grep -E '(^|/)target/' >&2
  exit 1
fi

# Guest-agnosticism gate: the translation core must not depend on any
# frontend crate unless its feature is asked for. `cargo tree` with
# default features shows the dependency graph the `daisy-rv32` tests
# compile against; a stray `daisy-ppc` edge here means PowerPC types
# leaked back into the core API.
if cargo tree -p daisy -e normal | grep -q 'daisy-ppc'; then
  echo "error: daisy (core) depends on daisy-ppc without the 'ppc' feature:" >&2
  cargo tree -p daisy -e normal >&2
  exit 1
fi

cargo clippy --workspace --all-targets -- -D warnings
cargo fmt --check

# The benchmark harness is a separate package (daisybench/, outside the
# workspace) that uses the core, jit and vliw crates by path; build it
# so an API change that breaks it fails here rather than at benchmark
# time, and run its own tests, which run real programs on all three
# benchmark workloads and check them against the interpreter oracle.
cargo check --offline --manifest-path daisybench/Cargo.toml
cargo test --offline -q --manifest-path daisybench/Cargo.toml
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace
cargo test --workspace --doc

# Member-crate tests: tier-1 (`cargo test` at the root) runs only the
# root package's tests, so the crates' own suites run here — among
# them the JIT's hand-built-group tests (crates/jit/tests/exec.rs),
# the cache model's proptests and the core's unit tests. The doctests
# ran in the step above, so this one leaves them out.
cargo test -q --workspace --exclude daisy-repro --lib --bins --tests

# Docs link check: every relative markdown link in README.md,
# DESIGN.md, EXPERIMENTS.md, CHANGELOG.md, ROADMAP.md and docs/*.md
# must point at an existing file, and every #anchor at a real heading
# in the target document.
scripts/check_doc_links.py README.md DESIGN.md EXPERIMENTS.md CHANGELOG.md ROADMAP.md docs/*.md

# Cross-ISA differential smoke: the same algorithms on the PowerPC and
# RV32 guests, each through translation and its interpreter oracle,
# must agree bit-exactly (scalar results and, for hist, counter
# memory). Also runs the RV32-only pin that the core builds and
# translates with the RV32 frontend alone (no `ppc` feature).
cargo test -q --test cross_isa
cargo test -q -p daisy-rv32 --test translate

# Example smoke: the four examples that assert their own results
# (precise exceptions, the quickstart, self-modifying code and the
# group inspector) must run to completion. Clippy above only builds
# them.
for example in precise_exceptions quickstart selfmod inspect; do
  cargo run -q --release --example "$example" > /dev/null
done

# Fault-injection smoke: a fixed 32-seed sweep of every fault kind on
# the fast workloads. Fails on any panic, unrecoverable error, oracle
# divergence, or a fault kind that never records a ladder step.
cargo run -q --release -p daisy-bench --bin inject -- --seeds 32

# Preemption-fuzz smoke: 32 seeds of timer/UART interrupt schedules
# against the SoC firmware on the packed and (below, on x86-64) native
# tiers; each campaign's delivery schedule is replayed instruction-
# exactly on the interpreter oracle and diffed bit for bit, UART
# transcript included (docs/soc.md). The full 256-seed matrix runs in
# the test suite (`tests/preempt.rs::preempt_acceptance_256_seeds`).
cargo run -q --release -p daisy-bench --bin inject -- \
  --seeds 32 --kind preempt

# Guest-profile smoke: the `profile` binary is the one reader of the
# guest profile's per-group timeline tables and writes its exports.
# The sort Chrome trace is kept as a CI artifact (load it in
# chrome://tracing or Perfetto — see docs/observability.md). The
# guest-level metrics of the same runs are `repro`'s guest-profile
# table, pinned with the other tables below.
artifacts=target/ci-artifacts
mkdir -p "$artifacts"
cargo run -q --release -p daisy-bench --bin profile -- --top 3 \
  --trace-dir "$artifacts" wc sort > "$artifacts/profile.smoke.txt"
grep -q '^== wc ' "$artifacts/profile.smoke.txt" || {
  echo "error: profile smoke printed no '== wc' table" >&2
  exit 1
}
[ -s "$artifacts/sort.trace.json" ] || {
  echo "error: sort Chrome trace artifact missing" >&2
  exit 1
}

# Work-count pin: the health document runs the nine workloads under
# four configurations (the packed engine alone and daisybench's
# native_suite, sim_suite and code_thrash) and holds every counter,
# gauge, degradation and histogram a metrics snapshot holds, native
# coverage, refusals by reason, stall cycles and cast-outs among them.
# The runs are deterministic, so on x86-64 a regenerated copy must match
# the committed BENCH_health.json byte for byte. Elsewhere the native
# tier declines to engage and its rows read zero, so only the packed
# document is compared there. A metric renamed, reordered or reading
# the wrong field, or a lowering change that moves native coverage,
# fails here; regenerate the file (`cargo run --release -p daisy-bench
# --bin health`) only for a change that means to move a count, and say
# so.
cargo run -q --release -p daisy-bench --bin health -- --out "$artifacts/BENCH_health.json"
if [ "$(uname -m)" = "x86_64" ]; then
  cmp "$artifacts/BENCH_health.json" BENCH_health.json || {
    echo "error: regenerated BENCH_health.json differs from the committed file" >&2
    exit 1
  }
else
  packed_doc() { sed -n '/^    {"name": "packed", "workloads": \[/,/^    \]}/p' "$1"; }
  cmp <(packed_doc "$artifacts/BENCH_health.json") <(packed_doc BENCH_health.json) || {
    echo "error: regenerated packed health document differs from BENCH_health.json's" >&2
    exit 1
  }
fi

# Simulated-results pin: `repro all` is deterministic, so its output
# must match the committed docs/repro-output.txt byte for byte. The
# Chapter 5 tables run on the native tier (including the finite-cache
# ones, where compiled code logs its cache probes for replay), so this
# also proves the tier exact on every table; the guest-profile table
# (finite-cache ILP, base instructions, speculation counts, overhead
# per base instruction, at six places) pins the guest-profiled runs.
# Any engine or translator change that moves a simulated figure fails
# here. Regenerate the file (`cargo run --release -p daisy-bench --bin
# repro -- all > docs/repro-output.txt`) only for a change that means
# to move a simulated figure, and say so.
cargo run -q --release -p daisy-bench --bin repro -- all > "$artifacts/repro-output.txt"
cmp "$artifacts/repro-output.txt" docs/repro-output.txt || {
  echo "error: regenerated repro output differs from docs/repro-output.txt" >&2
  exit 1
}

# Translation pin: the digest of every group of every workload under
# five translator configurations is a simulated count, so `pins`
# regenerates it exactly and the document must match the committed
# BENCH_translate.json byte for byte on every host. Regenerate the file
# (`cargo run --release -p daisy-bench --bin pins`) only for a change
# that means to move a translation, and say so.
cargo run -q --release -p daisy-bench --bin pins -- --out-dir "$artifacts"
cmp "$artifacts/BENCH_translate.json" BENCH_translate.json || {
  echo "error: regenerated BENCH_translate.json differs from the committed file" >&2
  exit 1
}

# Live-metrics health smoke: two workloads stepped boundary by boundary
# with periodic metrics snapshots, then the shape assertion over the
# JSON document and the Prometheus exposition (the structural
# validation is crates/bench/tests/health_schema.rs; the committed
# nine-workload document is BENCH_health.json — regenerate with
# `cargo run --release -p daisy-bench --bin health`).
cargo run -q --release -p daisy-bench --bin health -- \
  --out "$artifacts/BENCH_health.smoke.json" \
  --prom "$artifacts/health.smoke.prom" cmp hist
scripts/check_health_shape.sh \
  "$artifacts/BENCH_health.smoke.json" "$artifacts/health.smoke.prom" 2
scripts/check_health_shape.sh BENCH_health.json "" 9

# Native-tier smoke (x86-64 only): the nine-workload native ≡ packed
# observational-equivalence test under the infinite cache and under
# both paper hierarchies plus two edge ones (probe replay: stall
# cycles, miss counts and every cache level's counters), random
# programs under those edge hierarchies (a level 0 that costs cycles,
# no private instruction level), the same equivalence under cast-out
# churn (every flush reclaims the code arena and recompiles over the
# retired bytes) and under code_thrash's churn, where no compile repays
# and the threshold backs off, then a 16-seed injection sweep, with the
# ladder starting at the native rung, of the three invalidation-heavy
# fault kinds (code patches, cast-out churn and chain severs) and of
# interrupt storms. Other hosts build the same code but the tier
# declines to engage, so there is nothing extra to test.
if [ "$(uname -m)" = "x86_64" ]; then
  cargo test -q --test prop_native \
    native_is_observably_the_packed_engine_on_every_workload
  cargo test -q --test prop_native \
    native_is_observably_the_packed_engine_under_finite_caches
  cargo test -q --test prop_native \
    native_replays_probes_exactly_under_edge_hierarchies
  cargo test -q --test prop_native native_matches_packed_under_cast_out_churn
  cargo test -q --test prop_native native_backs_off_when_compiles_die_unrepaid
  for kind in hot_patch cast_out_thrash chain_sever interrupt_storm; do
    cargo run -q --release -p daisy-bench --bin inject -- \
      --native --seeds 16 --kind "$kind"
  done
  # Preemption fuzzing with compiled native groups live: deliveries
  # must land precisely at the boundaries compiled groups produce.
  cargo run -q --release -p daisy-bench --bin inject -- \
    --native --seeds 32 --kind preempt
else
  echo "skip: native-tier smoke needs an x86-64 host (this is $(uname -m));"
  echo "      the native tier falls back to packed execution here."
fi
