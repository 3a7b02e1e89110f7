#!/usr/bin/env bash
# Shape assertion for the `health` binary's artifacts: the JSON
# document must carry the schema tag and a full metrics object per
# workload, and the optional Prometheus text must be well-formed
# exposition (every series preceded by matching # HELP / # TYPE lines,
# counters ending in _total). Pure grep/sed — no JSON tooling assumed
# on the CI host; the strict structural validation lives in
# crates/bench/tests/health_schema.rs.
set -euo pipefail

health="${1:?usage: check_health_shape.sh <BENCH_health.json> [health.prom] [expected-workloads]}"
prom="${2:-}"
expected="${3:-}"

[ -s "$health" ] || { echo "error: $health is missing or empty" >&2; exit 1; }

grep -q '"schema": "daisy-health-v1"' "$health" || {
  echo "error: schema tag daisy-health-v1 missing in $health" >&2
  exit 1
}
grep -Eq '"mode": "(packed|native)"' "$health" || {
  echo "error: mode field missing or invalid in $health" >&2
  exit 1
}

entries=$(grep -c '"name":' "$health" || true)
for key in boundaries snapshots metrics counters gauges degradations_by_cause \
           ladder_rung_entries histograms; do
  n=$(grep -c "\"$key\":" "$health" || true)
  if [ "$n" -ne "$entries" ]; then
    echo "error: key '$key' appears $n times for $entries workloads in $health" >&2
    exit 1
  fi
done

# Spot-check one counter from each publishing layer reaches the
# document: the VMM, the dispatch path, the engine, the native tier,
# and the flight recorder.
for metric in daisy_vmm_pages_translated_total daisy_dispatch_chained_total \
              daisy_engine_retired_instrs_total daisy_native_compiles_total \
              daisy_flight_recorder_dropped_total daisy_irq_latency_instrs; do
  n=$(grep -c "\"$metric\"" "$health" || true)
  if [ "$n" -ne "$entries" ]; then
    echo "error: metric '$metric' appears $n times for $entries workloads in $health" >&2
    exit 1
  fi
done

if [ -n "$expected" ] && [ "$entries" -ne "$expected" ]; then
  echo "error: expected $expected workloads, found $entries in $health" >&2
  exit 1
fi

if [ -n "$prom" ]; then
  [ -s "$prom" ] || { echo "error: $prom is missing or empty" >&2; exit 1; }
  # Every exposed metric family needs exactly one HELP and one TYPE
  # line, and they must pair up.
  helps=$(grep -c '^# HELP ' "$prom" || true)
  types=$(grep -c '^# TYPE ' "$prom" || true)
  if [ "$helps" -eq 0 ] || [ "$helps" -ne "$types" ]; then
    echo "error: $prom has $helps HELP lines but $types TYPE lines" >&2
    exit 1
  fi
  # Counters must follow the _total naming convention.
  bad=$(awk '$3 == "counter" && $2 !~ /_total$/ { print $2 }' <(grep '^# TYPE ' "$prom"))
  if [ -n "$bad" ]; then
    echo "error: counter families without _total suffix in $prom:" >&2
    echo "$bad" >&2
    exit 1
  fi
  # Histograms must expose cumulative buckets with an +Inf bound plus
  # _sum and _count series.
  for family in $(awk '$3 == "histogram" { print $2 }' <(grep '^# TYPE ' "$prom")); do
    grep -q "^${family}_bucket{.*le=\"+Inf\"" "$prom" || {
      echo "error: histogram $family lacks an le=\"+Inf\" bucket in $prom" >&2
      exit 1
    }
    grep -q "^${family}_sum" "$prom" || {
      echo "error: histogram $family lacks a _sum series in $prom" >&2
      exit 1
    }
    grep -q "^${family}_count" "$prom" || {
      echo "error: histogram $family lacks a _count series in $prom" >&2
      exit 1
    }
  done
  # No stray series without a TYPE declaration.
  undeclared=$(grep -v '^#' "$prom" | sed 's/[{ ].*//' \
    | sed 's/_bucket$//;s/_sum$//;s/_count$//' | sort -u \
    | while read -r fam; do
        grep -q "^# TYPE $fam " "$prom" || echo "$fam"
      done)
  if [ -n "$undeclared" ]; then
    echo "error: series without # TYPE declarations in $prom:" >&2
    echo "$undeclared" >&2
    exit 1
  fi
  echo "ok: $prom is well-formed exposition ($helps families)"
fi

echo "ok: $health carries full metrics for $entries workload(s)"
