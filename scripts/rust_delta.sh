#!/bin/sh
# Net Rust line delta of the working tree against a base commit, from
# `git diff --numstat`, split into test files (any path with a `tests/`
# directory) and the rest. Unit tests inside `src/` count as the rest.
# Untracked files are left out: stage new files first (`git add -A`).
#
#   scripts/rust_delta.sh BASE
set -eu
base=${1:?usage: scripts/rust_delta.sh BASE}
git diff --numstat "$base" -- '*.rs' | awk '
    {
        part = ($3 ~ /(^|\/)tests\//) ? "tests" : "rest"
        add[part] += $1; del[part] += $2
        add["total"] += $1; del["total"] += $2
    }
    END {
        split("tests rest total", parts, " ")
        for (i = 1; i <= 3; i++) {
            p = parts[i]
            printf "%-5s +%d -%d (net %+d)\n", p, add[p], del[p], add[p] - del[p]
        }
    }'
