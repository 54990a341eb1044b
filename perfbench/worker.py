"""One process of the benchmark (started by ``run.py``).

The measuring process repeats workload passes until its time budget is
spent: each pass stands up the three networks (timed as set-up), drives
the platforms in turn (timed per batch), then runs the correctness checks
outside the timed region.  With ``--trace 1`` the first pass is an
untraced baseline and every later pass runs under the outside-in tracer.

With ``--check`` the process only drives the first few turns of one pass
and reports the state fingerprints there, for comparison with the
measuring process, which runs under another ``PYTHONHASHSEED``.

Either way the process prints one JSON document with what it measured.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform as host
import resource
import sys
import time
from dataclasses import asdict
from pathlib import Path

from repro.crypto.groups import cached_test_group

import tracing
from stats import MIN_TAIL
from workloads import (
    CHECK_ROUNDS,
    WORKLOADS,
    check_leakage,
    check_pass,
    drive_all,
    fingerprints,
    set_up,
    telemetry_digest,
)

#: Set-ups timed before the first pass, so set-up time is a median.
SETUP_REPEATS = 3
#: Batches per platform a run needs for a p90 with MIN_TAIL samples beyond.
MIN_BATCHES = 10 * MIN_TAIL


def _counters(platform) -> dict[str, int]:
    # Read the registry's snapshot: reading ``network.stats`` would create
    # missing counters and so change the telemetry stream being checked.
    counters = platform.telemetry.metrics.snapshot()["counters"]
    caches = platform.crypto_cache_stats()
    return {
        "messages": counters.get("net.messages_sent", 0),
        "bytes": counters.get("net.bytes_transferred", 0),
        "retries": counters.get("net.retries", 0),
        "verify_hits": caches["signature_verify"]["hits"],
        "verify_misses": caches["signature_verify"]["misses"],
        "cert_hits": caches["certificate_chain"]["hits"],
        "cert_misses": caches["certificate_chain"]["misses"],
    }


def _layer_record(tracer, segments, before: dict, platform) -> dict:
    """Additive per-layer quantities for one platform's traced batches."""
    summary = tracer.recorder.summarize(segments)
    names = summary["names"]

    def total(name: str, key: str) -> int:
        return names.get(name, {}).get(key, 0)

    after = _counters(platform)
    record = {key: after[key] - before[key] for key in after}
    record.update(
        layer_self_ns={
            layer: values["self_ns"]
            for layer, values in tracing.layer_totals(summary).items()
        },
        covered_ns=summary["covered_ns"],
        verify_calls=total("crypto:SignatureScheme.verify", "calls"),
        exp_calls=total("crypto:SchnorrGroup.exp", "calls"),
        symmetric_ns=total("crypto:SymmetricKey.encrypt", "self_ns")
        + total("crypto:SymmetricKey.decrypt", "self_ns"),
        serialization_calls=total("serialization:canonical_bytes", "calls")
        + total("serialization:canonical_json", "calls"),
        snapshot_keys=total("ledger:WorldState.snapshot", "size"),
        ordered_tx=total("ledger:OrderingService.submit", "calls"),
        blocks=total("ledger:OrderingService.cut_batch", "calls"),
        checkpoint_ns=total("recovery:Platform.checkpoint_node", "inclusive_ns"),
        catchup_ns=total("recovery:Platform.recover", "inclusive_ns"),
        spans_held=len(platform.telemetry.tracer.spans),
    )
    return record


def run_pass(workload, scenarios, tracer, **drive_options) -> tuple[dict, dict]:
    """Drive the platforms; returns (runs, per-layer records when traced)."""
    gc.collect()
    if tracer is None:
        return drive_all(scenarios, workload.outage, **drive_options), {}
    before = {name: _counters(s.platform) for name, s in scenarios.items()}
    segments = {name: [] for name in scenarios}
    gc_used = {name: [0, 0] for name in scenarios}

    def traced_step(name, driver):
        first = len(tracer.recorder)
        pause_ns, collections = tracer.gc.pause_ns, tracer.gc.collections
        driver.step()
        segments[name].append((first, len(tracer.recorder)))
        gc_used[name][0] += tracer.gc.pause_ns - pause_ns
        gc_used[name][1] += tracer.gc.collections - collections

    with tracer:
        runs = drive_all(
            scenarios, workload.outage, step=traced_step, **drive_options
        )
    layers = {}
    for name, scenario in scenarios.items():
        layers[name] = _layer_record(
            tracer, segments[name], before[name], scenario.platform
        )
        layers[name]["gc_pause_ns"], layers[name]["gc_collections"] = gc_used[name]
    return runs, layers


def check_prefix(workload, seed: int) -> dict:
    """Fingerprints after the first :data:`CHECK_ROUNDS` turns of a pass."""
    scenarios = set_up(workload, seed)
    prefix: dict[str, str] = {}

    def stop() -> bool:
        prefix.update(fingerprints(scenarios))
        return True

    drive_all(scenarios, workload.outage, rounds=CHECK_ROUNDS, after_rounds=stop)
    return {"prefix": prefix}


def measure(workload, seed: int, budget: float, trace: bool, spans_out) -> dict:
    tracer = None
    if trace:
        tracing.import_all("repro")
        tracer = tracing.OutsideTracer()
    setup_s: list[float] = []
    passes: list[dict] = []
    problems: list[str] = []
    started = time.perf_counter()
    while True:
        pass_started = time.perf_counter()
        for __ in range(1 if passes else SETUP_REPEATS):
            scenarios = None
            gc.collect()
            set_up_started = time.perf_counter()
            scenarios = set_up(workload, seed)
            setup_s.append(time.perf_counter() - set_up_started)
        record: dict = {"traced": bool(trace and passes)}
        drive_options = {}
        if not passes:
            # Fingerprints part way through, for the check process.
            def keep_prefix() -> bool:
                record["prefix"] = fingerprints(scenarios)
                return False

            drive_options = {"rounds": CHECK_ROUNDS, "after_rounds": keep_prefix}
        runs, layers = run_pass(
            workload, scenarios, tracer if record["traced"] else None,
            **drive_options,
        )
        if trace and len(passes) < 2:
            # The untraced and the first traced pass must leave the same
            # telemetry stream behind.
            record["telemetry"] = {
                name: telemetry_digest(s.platform) for name, s in scenarios.items()
            }
        for name, fingerprint in fingerprints(scenarios).items():
            runs[name].fingerprint = fingerprint
        problems.extend(check_pass(workload, scenarios, runs))
        if workload.leakage and not passes:
            problems.extend(check_leakage(scenarios))
        record["runs"] = {name: asdict(run) for name, run in runs.items()}
        if layers:
            record["layers"] = layers
        passes.append(record)
        requests = {name: len(s.requests) for name, s in scenarios.items()}
        scenarios = None
        now = time.perf_counter()
        # Stop when another pass would end further past the budget than
        # stopping now falls short of it, once every platform has enough
        # batches for a p90; a traced run needs one traced pass at least.
        batches = min(
            sum(len(p["runs"][name]["batch_ms_per_tx"]) for p in passes)
            for name in requests
        )
        if (
            now - started + (now - pass_started) / 2 >= budget
            and batches >= MIN_BATCHES
            and (not trace or len(passes) > 1)
        ):
            break

    if tracer is not None and spans_out:
        Path(spans_out).parent.mkdir(parents=True, exist_ok=True)
        tracer.recorder.write(spans_out)
    leftovers = tracing.leftover_wrappers()
    if leftovers:
        problems.append(f"tracing wrappers left installed: {leftovers}")
    return {
        "environment": {
            "nproc": os.cpu_count(),
            "python": host.python_version(),
            "schnorr_group_bits": cached_test_group().p.bit_length(),
            "seed": seed,
            "requests_per_platform": requests,
        },
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setup_s,
        "passes": passes,
        "problems": problems,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--budget", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans-out", default=None)
    parser.add_argument("--check", action="store_true")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    if args.check:
        document = check_prefix(workload, args.seed)
    else:
        document = measure(
            workload, args.seed, args.budget, bool(args.trace), args.spans_out
        )
    document["pythonhashseed"] = os.environ.get("PYTHONHASHSEED")
    json.dump(document, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
