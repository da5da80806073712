#!/bin/sh
# Pre-PR gate: lint + tier-1 tests.  Run from anywhere; exits non-zero
# on the first failure.
#
#   scripts/check.sh            # fast path (skips tests marked slow)
#   scripts/check.sh --full     # everything, slow tests included
#   scripts/check.sh --no-lint  # tests only
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
cd "$repo_root"

run_lint=1
marker='not slow'
for arg in "$@"; do
    case "$arg" in
        --no-lint) run_lint=0 ;;
        --full) marker='' ;;
        *) echo "unknown flag: $arg" >&2; exit 2 ;;
    esac
done

if [ "$run_lint" = 1 ]; then
    if command -v ruff >/dev/null 2>&1; then
        echo "== ruff check =="
        ruff check src tests benchmarks
    elif python -c "import ruff" >/dev/null 2>&1; then
        echo "== ruff check (module) =="
        python -m ruff check src tests benchmarks
    else
        echo "== ruff not installed: skipping lint =="
    fi
    if command -v mypy >/dev/null 2>&1; then
        echo "== mypy (strict: repro.analysis, repro.kernels) =="
        MYPYPATH=src mypy --strict -p repro.analysis -p repro.kernels
    elif python -c "import mypy" >/dev/null 2>&1; then
        echo "== mypy (module; strict: repro.analysis, repro.kernels) =="
        MYPYPATH=src python -m mypy --strict \
            -p repro.analysis -p repro.kernels
    else
        echo "== mypy not installed: skipping type check =="
    fi
fi

echo "== IR diagnostics gate (lint --strict) =="
# The diagnostics engine must stay clean — errors AND warnings — on
# the whole compiled/optimized/laid-out benchmark corpus.  Info-level
# findings (unreachable code, hoisting candidates) never fail.
PYTHONPATH=src python -m repro lint --strict

echo "== tier-1 tests =="
# Fast path deselects tests marked slow; --full runs them too.
# Coverage gate when pytest-cov is available (the container may not
# ship it; the plain run is the same test suite either way).
if python -c "import pytest_cov" >/dev/null 2>&1; then
    PYTHONPATH=src python -m pytest -x -q -m "$marker" \
        --cov=repro --cov-report=term-missing:skip-covered \
        --cov-fail-under=70
else
    echo "   (pytest-cov not installed: coverage gate skipped)"
    PYTHONPATH=src python -m pytest -x -q -m "$marker"
fi

echo "== marker audit =="
# The fast path above deselected -m 'not slow'; verify the convention
# held: every *_battery test is slow-marked and the marker actually
# deselects something (an unregistered marker deselects nothing).
PYTHONPATH=src python scripts/marker_audit.py

echo "== characterize self-test =="
# Black-box parameter recovery: every known configuration (including
# the paper's 256-entry SBTB/CBTB) must be recovered exactly from
# PredictionStats alone, and a deliberately mis-declared predictor
# must be flagged — exits non-zero on either failure mode.
PYTHONPATH=src python -m repro characterize --self-test

echo "== characterize output identity =="
# The characterize report prints no wall-clock field, so two runs of
# one commit must print byte-identical reports.
first=$(PYTHONPATH=src python -m repro characterize)
first=$(printf '%s\n' "$first" | sha256sum | cut -d' ' -f1)
second=$(PYTHONPATH=src python -m repro characterize)
second=$(printf '%s\n' "$second" | sha256sum | cut -d' ' -f1)
if [ "$first" != "$second" ]; then
    echo "characterize output identity: sha256 $first, then $second" >&2
    exit 1
fi
echo "   characterize: $first"

echo "== conformance smoke =="
# Small seed budget: differential replay of every predictor against
# its reference oracle plus the golden-table regression.  The full
# battery is `repro-branches conformance --seeds 200`.
PYTHONPATH=src python -m repro conformance --seeds 25

echo "== paper-output identity =="
# The rendered tables are the contract: `all --scale 0.02`, cold (VM
# traces) then warm (cached traces), must print exactly the output
# pinned in bench/expected.json.
identity_cache=$(mktemp -d)
for pass in cold warm; do
    expected=$(python -c "import json, sys
print(json.load(open('bench/expected.json'))['smoke']['paper-' + sys.argv[1]])
" "$pass")
    actual=$(REPRO_CACHE_DIR="$identity_cache" PYTHONPATH=src \
        python -m repro all --scale 0.02 --workers 1 \
        | sha256sum | cut -d' ' -f1)
    if [ "$actual" != "$expected" ]; then
        echo "paper-output identity ($pass): sha256 $actual," \
             "expected $expected" >&2
        rm -rf "$identity_cache"
        exit 1
    fi
    echo "   $pass: $actual"
done

echo "== sweeps output identity =="
# The capacity and associativity sweeps overflow the small and
# set-associative buffers, so this end-to-end gate covers the
# eviction replay.  It reuses the warm scale-0.02 cache above.
expected=$(python -c "import json
print(json.load(open('bench/expected.json'))['smoke']['sweeps-small'])")
actual=$(REPRO_CACHE_DIR="$identity_cache" PYTHONPATH=src \
    python -m repro sweeps --scale 0.02 --workers 1 \
    | sha256sum | cut -d' ' -f1)
rm -rf "$identity_cache"
if [ "$actual" != "$expected" ]; then
    echo "sweeps output identity: sha256 $actual, expected $expected" >&2
    exit 1
fi
echo "   sweeps: $actual"

echo "== fault-injection smoke =="
# Seeded recovery matrix: every fault class (torn write, bit flip,
# ENOSPC, worker crash, worker hang, corrupt manifest, a trace column
# tampered out of range under a recomputed checksum) is injected
# deterministically and must end in a verified recovery — the gate
# fails if any injected fault is silently swallowed.
PYTHONPATH=src python -m repro faults --seeds 10

echo "== trace gate =="
# Cross-process tracing: a 2-worker supervised sweep (with one
# crash-and-retry worker) must fold into one event log that merges
# into a single complete trace tree — every attempt under its shard
# span, killed attempts adopted — the `metrics --replay` ledger of
# that log must render
# byte-identically twice and sum the workers' counters, a traced
# conformance run must span each kind of check and leave at most 25%
# of conformance.differential as self time, and the
# disabled-telemetry hot path must stay allocation-free.
PYTHONPATH=src python scripts/trace_gate.py

echo "== kernel bench gate =="
# simulate_scalar vs simulate_vector on the headline workload: fails
# on any stats mismatch, a headline speedup under 25x, or CBTB under
# 15x; the cycle kernel must match OracleCycleInterpreter; and the
# headline and cycle-sim vector throughput must not regress >25%
# against the committed BENCH_kernels.json baseline.  The paired VM
# gate times Machine.run against the reference Machine._run on traced
# runs of compress, its base program with leader probes and its FS
# layout, and fails under a 1.8x speedup; the paired
# flush/tournament gate times simulate_vector against simulate_scalar
# on SBTB and CBTB with flushes and on Tournament, and fails under 4x.
PYTHONPATH=src python -m pytest -q \
    benchmarks/test_simulator_performance.py \
    -k "kernel or compiled_speedup or flush_tournament_speedup"

echo "== all checks passed =="
