#!/usr/bin/env bash
# Repo health gate: tier-1 tests, the chaos suite, the wall-clock
# benchmark's own tests and a one-second smoke run of it, the
# cross-process determinism gate, then the strict self-lint.
#
# Usage: scripts/check.sh [extra pytest args]
set -euo pipefail

cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== tier-1 tests =="
python -m pytest -x -q tests "$@"

echo
echo "== chaos suite (fault injection + liveness/privacy invariants) =="
python -m pytest -x -q tests/integration/test_chaos.py tests/network/test_faults.py \
    benchmarks/test_fault_overhead.py::test_empty_fault_plan_changes_nothing

echo
echo "== telemetry gate (leakage cross-check + strict lint of repro.telemetry) =="
python -m pytest -x -q tests/telemetry/test_leakage_crosscheck.py
python -m repro lint --strict src/repro/telemetry

echo
echo "== convergence gate (crash/recover/catch-up + strict lint of repro.recovery) =="
python -m pytest -x -q tests/recovery tests/integration/test_recovery_chaos.py
python -m repro converge
python -m repro lint --strict src/repro/recovery

echo
echo "== pipeline gate (submit/submit_many parity + driver + bench smoke) =="
python -m pytest -x -q tests/pipeline tests/driver tests/integration/test_driver_leakage.py
python -m repro bench --platform fabric --workload loc --ops 10 --batch 25 > /dev/null
python -m repro bench --platform corda --workload trades --ops 8 --json > /dev/null
python -m repro bench --platform quorum --workload kv --ops 10 --batch 5 > /dev/null
python -m repro lint --strict src/repro/driver

echo
echo "== wall-clock benchmark tests (layer targets still exist in src/) =="
python -m pytest -x -q perfbench/tests

echo
echo "== benchmark smoke (end-to-end checks: commits, fingerprints, telemetry) =="
# run.py exits non-zero unless every request commits, fingerprints agree
# across hash seeds and telemetry is identical across passes.  On success
# only its final JSON line is shown; on failure all of its output, with
# the CHECK FAILED lines.  Seed 1000 is kept for this step: it overwrites
# .bench_out/kv-hot-seed1000-trace0.json on every check.
if ! smoke=$(python perfbench/run.py --workload kv-hot --seed 1000 --seconds 1 --trace 0); then
    echo "$smoke"
    exit 1
fi
echo "${smoke##*$'\n'}"

echo
echo "== cross-process determinism gate (fingerprints + telemetry under 3 hash seeds) =="
# Every hash seed must print exactly scripts/fingerprints.expected: the same
# digests as each other, and the same as the committed reference.
for hashseed in 0 1 12345; do
    digests=$(PYTHONHASHSEED=$hashseed python scripts/fingerprints.py)
    if ! diff scripts/fingerprints.expected <(echo "$digests"); then
        echo "PYTHONHASHSEED=$hashseed digests differ from scripts/fingerprints.expected"
        exit 1
    fi
done
cat scripts/fingerprints.expected
echo "identical to scripts/fingerprints.expected under PYTHONHASHSEED 0, 1 and 12345"

echo
echo "== strict self-lint (src/repro + examples) =="
python -m repro lint --self --strict
