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
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace
cargo test --workspace --doc

# Docs link check: every relative markdown link in README.md and
# docs/*.md must point at an existing file, and every #anchor at a
# real heading in the target document.
scripts/check_doc_links.py README.md docs/*.md

# Cross-ISA differential smoke: the same algorithms on the PowerPC and
# RV32 guests, each through translation and its interpreter oracle,
# must agree bit-exactly (scalar results and, for hist, counter
# memory). Also runs the RV32-only pin that the core builds and
# translates with the RV32 frontend alone (no `ppc` feature).
cargo test -q --test cross_isa
cargo test -q -p daisy-rv32 --test translate

# Fault-injection smoke: a fixed 32-seed sweep of every fault kind on
# the fast workloads. Fails on any panic, unrecoverable error, oracle
# divergence, or a fault kind that never records a ladder step.
cargo run -q --release -p daisy-bench --bin inject -- --seeds 32

# Preemption-fuzz smoke: 32 seeds of timer/UART interrupt schedules
# against the SoC firmware on the packed and (below, on x86-64) native
# tiers; each campaign's delivery schedule is replayed instruction-
# exactly on the interpreter oracle and diffed bit for bit, UART
# transcript included (docs/soc.md). The full 256-seed matrix is
# `cargo test --release --test preempt -- --ignored`.
cargo run -q --release -p daisy-bench --bin inject -- \
  --seeds 32 --kind preempt

# Guest-profile report smoke: two workloads through the full
# provenance → attribution → export pipeline. The shape assertion
# checks all five metrics per workload; the sort Chrome trace is kept
# as a CI artifact (load it in chrome://tracing or Perfetto — see
# docs/observability.md).
artifacts=target/ci-artifacts
mkdir -p "$artifacts"
cargo run -q --release -p daisy-bench --bin report -- \
  --out "$artifacts/BENCH_report.smoke.json" \
  --trace-dir "$artifacts" wc sort
scripts/check_report_shape.sh "$artifacts/BENCH_report.smoke.json" 2
[ -s "$artifacts/sort.trace.json" ] || {
  echo "error: sort Chrome trace artifact missing" >&2
  exit 1
}

# Simulated-results pin: the full nine-workload report (finite-cache
# ILP, base instructions, speculation counts, overhead per base
# instruction) is deterministic, so a regenerated copy must match the
# committed BENCH_report.json byte for byte. Any engine or translator
# change that moves a simulated figure fails here; regenerate the file
# (`cargo run --release -p daisy-bench --bin report`) only for a change
# that means to move them, and say so.
cargo run -q --release -p daisy-bench --bin report -- --out "$artifacts/BENCH_report.json"
scripts/check_report_shape.sh "$artifacts/BENCH_report.json" 9
cmp "$artifacts/BENCH_report.json" BENCH_report.json || {
  echo "error: regenerated BENCH_report.json differs from the committed file" >&2
  exit 1
}

# Live-metrics pin: the nine-workload packed health document (every
# counter, gauge, degradation and histogram the registry publishes) is
# deterministic too, so a regenerated copy must match the committed
# BENCH_health.json byte for byte. A metric renamed, reordered or
# reading the wrong field fails here; regenerate the file (`cargo run
# --release -p daisy-bench --bin health`) only for a change that means
# to move a metric, and say so.
cargo run -q --release -p daisy-bench --bin health -- --out "$artifacts/BENCH_health.json"
cmp "$artifacts/BENCH_health.json" BENCH_health.json || {
  echo "error: regenerated BENCH_health.json differs from the committed file" >&2
  exit 1
}

# Chapter 5 tables pin: `repro all` is deterministic, so its output
# must match the committed docs/repro-output.txt byte for byte. The
# tables run on the native tier (including the finite-cache ones, where
# compiled code logs its cache probes for replay), so this also proves
# the tier exact on every table. Regenerate the file (`cargo run
# --release -p daisy-bench --bin repro -- all > docs/repro-output.txt`)
# only for a change that means to move a simulated figure, and say so.
cargo run -q --release -p daisy-bench --bin repro -- all > "$artifacts/repro-output.txt"
cmp "$artifacts/repro-output.txt" docs/repro-output.txt || {
  echo "error: regenerated repro output differs from docs/repro-output.txt" >&2
  exit 1
}

# Bench-count pins: native coverage and refusals, chained versus
# unchained dispatch counts, cold versus tiered retranslation, and the
# translation digest (every group of every workload under seven
# translator configurations) are simulated counts, so `pins`
# regenerates them exactly (guest results checked, packed and native
# VLIW counts asserted equal). The dispatch, tiered and translate
# documents must match the committed files byte for byte on every
# host; the engine document only on x86-64 (below), since
# elsewhere the native tier declines to engage and its column reads
# zero. Regenerate the files (`cargo run --release -p daisy-bench --bin
# pins`) only for a change that means to move a count, and say so.
cargo run -q --release -p daisy-bench --bin pins -- --out-dir "$artifacts"
for doc in BENCH_dispatch.json BENCH_tiered.json BENCH_translate.json; do
  cmp "$artifacts/$doc" "$doc" || {
    echo "error: regenerated $doc differs from the committed file" >&2
    exit 1
  }
done

# Live-metrics health smoke: two workloads through the metrics
# registry with periodic snapshots, then the shape assertion over the
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
# retired bytes) and under tiered retranslation (only hot translations
# compile, and they chain natively), then a 16-seed injection sweep of the two
# invalidation-heavy fault kinds with the ladder starting at the native
# rung. Other hosts build the same code but the tier declines to
# engage, so there is nothing extra to test.
if [ "$(uname -m)" = "x86_64" ]; then
  cargo test -q --test prop_native \
    native_is_observably_the_packed_engine_on_every_workload
  cargo test -q --test prop_native \
    native_is_observably_the_packed_engine_under_finite_caches
  cargo test -q --test prop_native \
    native_replays_probes_exactly_under_edge_hierarchies
  cargo test -q --test prop_native native_matches_packed_under_cast_out_churn
  cargo test -q --test tiered tiered_native_is_observably_tiered_packed
  for kind in hot_patch chain_sever interrupt_storm; do
    cargo run -q --release -p daisy-bench --bin inject -- \
      --native --seeds 16 --kind "$kind"
  done
  # Preemption fuzzing with compiled native groups live: deliveries
  # must land precisely at rerolled back-edge yields.
  cargo run -q --release -p daisy-bench --bin inject -- \
    --native --seeds 32 --kind preempt
  # Coverage gate: native template coverage and refusals are
  # deterministic, so the engine document `pins` wrote above must match
  # the committed BENCH_engine.json exactly; any difference is a real
  # lowering change, not noise.
  cmp "$artifacts/BENCH_engine.json" BENCH_engine.json || {
    echo "error: regenerated BENCH_engine.json differs from the committed file" >&2
    exit 1
  }
else
  echo "skip: native-tier smoke needs an x86-64 host (this is $(uname -m));"
  echo "      the native tier falls back to packed execution here."
fi
