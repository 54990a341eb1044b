"""Wall-clock benchmark of the three platform simulations.

Usage (from the repository root)::

    python3 perfbench/run.py --workload kv-hot --seed 1 --seconds 28 --trace 0

Runs one measuring process for about ``--seconds`` and one short check
process under another ``PYTHONHASHSEED``; the state fingerprints both
reach part way through the workload must agree, which checks determinism
across processes.  ``--trace 0`` reports the end-to-end metrics; with
``--trace 1`` the measuring process runs an untraced baseline pass and
then traced passes, and the per-layer metrics are reported.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is 0 only when
every correctness check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

from stats import percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
#: Lists the metrics the JSON result holds, with their bounds.
BENCHMARK = ROOT / "BENCHMARK.json"
#: Hash seeds of the measuring and the check process.
MEASURE_HASH_SEED, CHECK_HASH_SEED = "0", "1"
MEASURE_TIMEOUT_S, CHECK_TIMEOUT_S = 140, 25


def _run_worker(options: list[str], hashseed: str, timeout: float):
    command = [sys.executable, str(HERE / "worker.py"), *options]
    env = {**os.environ, "PYTHONHASHSEED": hashseed, "PYTHONPATH": str(SRC)}
    try:
        done = subprocess.run(
            command, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        print(f"worker (PYTHONHASHSEED={hashseed}) timed out", file=sys.stderr)
        return None
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        print(f"worker (PYTHONHASHSEED={hashseed}) exited {done.returncode}",
              file=sys.stderr)
        return None
    return json.loads(done.stdout.strip().splitlines()[-1])


def _runs(passes: list[dict], platform: str) -> list[dict]:
    return [record["runs"][platform] for record in passes]


def _per_tx(value: float, committed: int) -> float:
    return value / committed if committed else 0.0


def _ratio(hits: int, misses: int) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def end_to_end(measured: dict, platforms) -> dict:
    metrics = {}
    for platform in platforms:
        runs = _runs(measured["passes"], platform)
        committed = sum(run["committed"] for run in runs)
        seconds = sum(run["drive_ns"] for run in runs) / 1e9
        samples = [sample for run in runs for sample in run["batch_ms_per_tx"]]
        metrics[f"{platform}.tps"] = (committed / seconds, "tx/s")
        metrics[f"{platform}.tx_ms_p10"] = (percentile(samples, 10), "ms")
        metrics[f"{platform}.tx_ms_p50"] = (percentile(samples, 50), "ms")
        metrics[f"{platform}.tx_ms_p90"] = (percentile(samples, 90), "ms")
    metrics["setup_s"] = (statistics.median(measured["setup_s"]), "s")
    metrics["peak_rss_mb"] = (measured["peak_rss_mb"], "MB")
    return metrics


def per_layer(measured: dict, platforms) -> dict:
    untraced = [p for p in measured["passes"] if not p["traced"]]
    traced = [p for p in measured["passes"] if p["traced"]]
    metrics = {}
    for platform in platforms:
        runs = _runs(traced, platform)
        layers = [record["layers"][platform] for record in traced]
        passes = len(layers)
        committed = sum(run["committed"] for run in runs)

        def total(key: str) -> float:
            return sum(layer[key] for layer in layers)

        def per_tx(key: str, scale: float = 1.0) -> float:
            return _per_tx(total(key) / scale, committed)

        def self_ms(layer_name: str) -> float:
            ns = sum(layer["layer_self_ns"].get(layer_name, 0) for layer in layers)
            return _per_tx(ns / 1e6, committed)

        drive_ns = sum(run["drive_ns"] for run in runs)
        values = {
            "crypto.self_ms_per_tx": (self_ms("crypto"), "ms/tx"),
            "crypto.verify_calls_per_tx": (per_tx("verify_calls"), "calls/tx"),
            "crypto.exp_calls_per_tx": (per_tx("exp_calls"), "calls/tx"),
            "crypto.symmetric_ms_per_tx": (per_tx("symmetric_ns", 1e6), "ms/tx"),
            "crypto.verify_cache_hit_ratio": (
                _ratio(total("verify_hits"), total("verify_misses")), "ratio"),
            "crypto.cert_cache_hit_ratio": (
                _ratio(total("cert_hits"), total("cert_misses")), "ratio"),
            "serialization.self_ms_per_tx": (self_ms("serialization"), "ms/tx"),
            "serialization.calls_per_tx": (per_tx("serialization_calls"), "calls/tx"),
            "network.self_ms_per_tx": (self_ms("network"), "ms/tx"),
            "network.messages_per_tx": (per_tx("messages"), "msgs/tx"),
            "network.bytes_per_tx": (per_tx("bytes"), "B/tx"),
            "network.retries_per_tx": (per_tx("retries"), "retries/tx"),
            "network.timeouts_per_tx": (
                _per_tx(sum(run["timed_out"] for run in runs), committed), "req/tx"),
            "ledger.self_ms_per_tx": (self_ms("ledger"), "ms/tx"),
            "ledger.snapshot_keys_per_tx": (per_tx("snapshot_keys"), "keys/tx"),
            "ledger.tx_per_block": (
                _per_tx(total("ordered_tx"), total("blocks")), "tx/block"),
            "execution.self_ms_per_tx": (self_ms("execution"), "ms/tx"),
            "platform.self_ms_per_tx": (self_ms("platform"), "ms/tx"),
            "telemetry.self_ms_per_tx": (self_ms("telemetry"), "ms/tx"),
            "telemetry.spans_held": (total("spans_held") / passes, "spans"),
            "recovery.checkpoint_ms": (total("checkpoint_ns") / 1e6 / passes, "ms"),
            "recovery.catchup_ms": (total("catchup_ns") / 1e6 / passes, "ms"),
            "recovery.divergences": (sum(run["divergences"] for run in runs), "count"),
            "recovery.refused_per_tx": (
                _per_tx(sum(run["refused"] for run in runs), committed), "req/tx"),
            "gc.pause_ms_per_tx": (per_tx("gc_pause_ns", 1e6), "ms/tx"),
            "gc.collections": (total("gc_collections") / passes, "count"),
            "other.self_ms_per_tx": (
                _per_tx((drive_ns - total("covered_ns")) / 1e6, committed), "ms/tx"),
            "sim.tps": (runs[0]["sim_tps"], "tx/sim_s"),
            "sim.latency_p50_s": (runs[0]["sim_latency_p50_s"], "sim_s"),
        }
        for name, value in values.items():
            metrics[f"{platform}.{name}"] = value

    def pass_seconds(passes: list[dict]) -> float:
        return statistics.median(
            sum(run["drive_ns"] for run in record["runs"].values()) / 1e9
            for record in passes
        )

    metrics["trace.overhead_ratio"] = (
        pass_seconds(traced) / pass_seconds(untraced), "ratio"
    )
    return metrics


def cross_checks(measured: dict, check: dict, platforms) -> list[str]:
    """Results that must not differ between passes, tracing or processes."""
    problems = list(measured["problems"])
    passes = measured["passes"]
    if passes[0]["prefix"] != check["prefix"]:
        problems.append(
            "state fingerprints part way through differ between "
            f"PYTHONHASHSEED={measured['pythonhashseed']} and "
            f"PYTHONHASHSEED={check['pythonhashseed']}"
        )
    for platform in platforms:
        outcomes = {
            (run["fingerprint"], run["sim_tps"], run["sim_latency_p50_s"])
            for run in _runs(passes, platform)
        }
        if len(outcomes) != 1:
            problems.append(
                f"{platform}: fingerprint or simulated-time results differ "
                f"between passes: {sorted(outcomes)}"
            )
        digests = {p["telemetry"][platform] for p in passes if "telemetry" in p}
        if len(digests) > 1:
            problems.append(f"{platform}: telemetry differs under tracing")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    try:
        from workloads import PLATFORMS, WORKLOADS
    except ImportError as error:
        print(f"cannot load the program from {SRC}: {error}", file=sys.stderr)
        return 1
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")

    listed = json.loads(BENCHMARK.read_text(encoding="utf-8"))[
        "per_layer" if args.trace else "end_to_end"
    ]
    stem = f"{args.workload}-seed{args.seed}"
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    check = _run_worker(common + ["--check"], CHECK_HASH_SEED, CHECK_TIMEOUT_S)
    if check is None:
        return 1
    options = common + ["--budget", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        options += ["--spans-out", str(OUT / f"{stem}-spans.tsv.gz")]
    measured = _run_worker(options, MEASURE_HASH_SEED, MEASURE_TIMEOUT_S)
    if measured is None:
        return 1

    problems = cross_checks(measured, check, PLATFORMS)
    try:
        if args.trace:
            metrics = per_layer(measured, PLATFORMS)
        else:
            metrics = end_to_end(measured, PLATFORMS)
    except ValueError as error:
        problems.append(str(error))
        metrics = {}
    reported = {m["name"]: metrics[m["name"]] for m in listed if m["name"] in metrics}
    if metrics and len(reported) != len(listed):
        problems.append(
            "metrics named in BENCHMARK.json but not measured: "
            f"{sorted(m['name'] for m in listed if m['name'] not in metrics)}"
        )
    runs = [run for p in PLATFORMS for run in _runs(measured["passes"], p)]
    attempted = sum(run["attempted"] for run in runs)
    failed = sum(run["failed"] for run in runs)

    environment = {
        **measured["environment"],
        "pythonhashseed": [measured["pythonhashseed"], check["pythonhashseed"]],
        "passes": len(measured["passes"]),
    }
    fingerprints = {p: _runs(measured["passes"], p)[0]["fingerprint"] for p in PLATFORMS}
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    print("environment " + json.dumps(environment, sort_keys=True))
    for platform, fingerprint in fingerprints.items():
        print(f"{platform}.state_fingerprint {fingerprint}")
    for name, (value, unit) in metrics.items():
        note = "" if name in reported else "  (printed only)"
        print(f"{name:40s} {value:14.4f} {unit}{note}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")

    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in reported.items()
        },
    }
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{stem}-trace{args.trace}.json", "w", encoding="utf-8") as out:
        json.dump(
            {**result, "environment": environment,
             "printed_only": {
                 name: {"value": value, "unit": unit}
                 for name, (value, unit) in metrics.items() if name not in reported
             },
             "state_fingerprints": fingerprints, "problems": problems},
            out, indent=2, sort_keys=True,
        )
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
