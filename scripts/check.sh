#!/usr/bin/env bash
# Repo health gate: tier-1 tests, the chaos suite, the cross-process
# determinism gate, then the strict self-lint.
#
# Usage: scripts/check.sh [extra pytest args]
set -euo pipefail

cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== tier-1 tests =="
python -m pytest -x -q tests "$@"

echo
echo "== chaos suite (fault injection + liveness/privacy invariants) =="
python -m pytest -x -q tests/integration/test_chaos.py tests/network/test_faults.py

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
echo "== cross-process determinism gate (fingerprints + telemetry under 3 hash seeds) =="
reference=""
for hashseed in 0 1 12345; do
    digests=$(PYTHONHASHSEED=$hashseed python scripts/fingerprints.py)
    if [ -z "$reference" ]; then
        reference=$digests
        echo "$digests"
    elif [ "$digests" != "$reference" ]; then
        echo "PYTHONHASHSEED=$hashseed changed the digests:"
        diff <(echo "$reference") <(echo "$digests") || true
        exit 1
    fi
done
echo "identical under PYTHONHASHSEED 0, 1 and 12345"

echo
echo "== strict self-lint (src/repro + examples) =="
python -m repro lint --self --strict
