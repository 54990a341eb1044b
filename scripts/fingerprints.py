"""Print a determinism digest for every platform x workload scenario.

For each of the nine ``build_scenario`` pairs (fabric/corda/quorum x
kv/trades/loc) the scenario is driven through :class:`repro.driver.Driver`
with a fixed seed, then one line is printed with the platform's
``state_fingerprint()`` and the sha256 of its canonical telemetry stream.

Two runs of this program must print the same lines whatever the
interpreter's ``PYTHONHASHSEED``; ``scripts/check.sh`` runs it under
several hash seeds and compares the output.

Usage: PYTHONPATH=src python scripts/fingerprints.py
"""

from __future__ import annotations

import hashlib

from repro.common.serialization import canonical_bytes
from repro.driver import Driver, DriverConfig, build_scenario
from repro.driver.scenarios import PLATFORM_NAMES, WORKLOAD_NAMES

OPS = 120
BATCH = 10
SEED = "determinism"


def main() -> int:
    for platform_name in PLATFORM_NAMES:
        for workload in WORKLOAD_NAMES:
            scenario = build_scenario(platform_name, workload, OPS, seed=SEED)
            platform = scenario.platform
            Driver(platform, DriverConfig(batch_size=BATCH)).run(
                scenario.requests
            )
            telemetry = hashlib.sha256(
                canonical_bytes(platform.telemetry.to_dict())
            ).hexdigest()
            print(
                f"{platform_name:6s} {workload:6s} "
                f"state={platform.state_fingerprint()} telemetry={telemetry}"
            )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
