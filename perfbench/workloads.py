"""The benchmark's workloads and the closed-loop client that drives them.

Every workload stands up Fabric, Corda and Quorum through the public
``repro.driver.scenarios`` functions, then drives the platforms in turn
from one thread: a single client keeps one ``submit_many`` batch of
:data:`BATCH_SIZE` requests in flight and sends the next batch, to the
next platform, when it returns.  The seed reaches the program only as the
generated requests.
"""

from __future__ import annotations

import hashlib
import statistics
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable

from repro.common.serialization import canonical_bytes
from repro.core.audit import CONFIDENTIAL_KEY, TRADING_PARTIES, UNINVOLVED, audit_all
from repro.crypto import groups
from repro.driver.scenarios import (
    PLATFORM_NAMES as PLATFORMS,
    BenchScenario,
    kv_scenario,
    loc_scenario,
    trade_scenario,
)
from repro.faults import FaultPlan
from repro.platforms.quorum import QuorumNetwork
from repro.recovery import audit_convergence

BATCH_SIZE = 20

#: kv-hot: blind writes over a small hot key set.
KV_OPERATIONS = 1000
KV_KEYS = 64
KV_SKEW = 0.99
#: trades-growth: one new key per trade, so each ledger ends near 3000 keys.
TRADES = 3000
CONFIDENTIAL_FRACTION = 0.5
#: loc-faults: letter-of-credit applications (about 3.5 stage requests each).
LOC_APPLICATIONS = 300
LOC_VICTIM = "OrgD"
#: Batches the LoC party stays down for, starting half way through.
OUTAGE_BATCHES = 3
#: Times a request whose delivery timed out is resubmitted.
MAX_RESUBMITS = 3
#: Turns after which a second process compares state fingerprints.
CHECK_ROUNDS = 10


def loc_fault_plan() -> FaultPlan:
    """2% loss on every link plus a window of doubled latency."""
    return FaultPlan().set_default_loss(0.02).slow_all(2.0, start=2.0, end=6.0)


def _kv_hot(platform: str, seed: str) -> BenchScenario:
    return kv_scenario(
        platform, KV_OPERATIONS, skew=KV_SKEW, key_count=KV_KEYS, seed=seed
    )


def _trades_growth(platform: str, seed: str) -> BenchScenario:
    return trade_scenario(
        platform, TRADES, confidential_fraction=CONFIDENTIAL_FRACTION, seed=seed
    )


def _loc_faults(platform: str, seed: str) -> BenchScenario:
    scenario = loc_scenario(platform, LOC_APPLICATIONS, seed=seed)
    scenario.platform.resilient_delivery = True
    scenario.platform.inject_faults(loc_fault_plan())
    return scenario


@dataclass(frozen=True)
class Workload:
    build: Callable[[str, str], BenchScenario]
    #: One LoC party is checkpointed, crashed and recovered mid-run.
    outage: bool = False
    #: Leakage categories are checked against the L1 audit envelope.
    leakage: bool = False


WORKLOADS = {
    "kv-hot": Workload(_kv_hot),
    "trades-growth": Workload(_trades_growth, leakage=True),
    "loc-faults": Workload(_loc_faults, outage=True),
}


def forget_test_group() -> None:
    """Drop the memoised Schnorr test group.

    Every process pays for generating the group on first use, so each
    set-up is timed from that cold state.
    """
    groups._CACHED_TEST = None


def set_up(workload: Workload, seed: int) -> dict[str, BenchScenario]:
    """Stand up all three networks and compile their requests."""
    forget_test_group()
    return {
        platform: workload.build(platform, f"perfbench-{seed}")
        for platform in PLATFORMS
    }


@dataclass
class PlatformRun:
    """What driving one platform through one workload pass produced."""

    attempted: int = 0
    committed: int = 0
    failed: int = 0
    #: Requests refused while the LoC party was down, resubmitted later.
    refused: int = 0
    #: Requests whose delivery timed out under message loss, resubmitted.
    timed_out: int = 0
    drive_ns: int = 0
    batch_ms_per_tx: list[float] = field(default_factory=list)
    sim_tps: float = 0.0
    sim_latency_p50_s: float = 0.0
    fingerprint: str = ""
    divergences: int = 0
    problems: list[str] = field(default_factory=list)


def _involves(request, party: str) -> bool:
    return request.submitter == party or party in (request.private_for or ())


class PlatformDriver:
    """The closed-loop client of one platform, advanced one batch per step.

    With *outage* (the faulted workload), :data:`LOC_VICTIM` is
    checkpointed and crashed half way through and recovered
    :data:`OUTAGE_BATCHES` batches later.  As a client would, it resubmits
    the requests the platform refuses meanwhile because they involve the
    crashed party (after recovery), and requests whose delivery timed out
    under message loss (in the next batch, at most
    :data:`MAX_RESUBMITS` times).  Any other uncommitted receipt is a
    failure.
    """

    def __init__(self, scenario: BenchScenario, outage: bool) -> None:
        self.platform = scenario.platform
        self.queue = deque(scenario.requests)
        self.run = PlatformRun(attempted=len(self.queue))
        self.outage = outage
        self.crash_at = -(-len(self.queue) // BATCH_SIZE) // 2 if outage else -1
        self.held: list = []
        self.resubmits: dict[int, int] = {}
        self.down = False
        self.batch = 0
        self.latencies: list[float] = []
        self.sim_started = self.platform.clock.now

    @property
    def done(self) -> bool:
        return not (self.queue or self.held or self.down)

    def step(self) -> None:
        """Submit the next batch and account for its receipts."""
        clock = time.perf_counter_ns
        started = clock()
        platform, run = self.platform, self.run
        if self.batch == self.crash_at:
            platform.checkpoint_node(LOC_VICTIM)
            platform.crash(LOC_VICTIM)
            self.down = True
        elif self.down and (
            self.batch >= self.crash_at + OUTAGE_BATCHES or not self.queue
        ):
            platform.recover(LOC_VICTIM)
            if isinstance(platform, QuorumNetwork):
                platform.redeliver_pending()
            self.down = False
            self.queue.extendleft(reversed(self.held))
            self.held.clear()
        chunk = [self.queue.popleft() for __ in range(min(BATCH_SIZE, len(self.queue)))]
        self.batch += 1
        if not chunk:  # the pass ended during the outage: only recover
            run.drive_ns += clock() - started
            return
        submitted = clock()
        receipts = platform.submit_many(chunk)
        finished = clock()
        run.batch_ms_per_tx.append((finished - submitted) / 1e6 / len(chunk))
        timed_out = []
        for receipt in receipts:
            request = receipt.request
            if receipt.committed:
                run.committed += 1
                self.latencies.append(receipt.latency)
            elif (
                self.down
                and receipt.status.startswith("rejected:")
                and _involves(request, LOC_VICTIM)
            ):
                run.refused += 1
                self.held.append(request)
            elif (
                self.outage
                and receipt.status == "rejected:DeliveryTimeout"
                and self.resubmits.get(id(request), 0) < MAX_RESUBMITS
            ):
                run.timed_out += 1
                self.resubmits[id(request)] = self.resubmits.get(id(request), 0) + 1
                timed_out.append(request)
            else:
                run.failed += 1
                run.problems.append(
                    f"{platform.platform_name}: {request.function} by "
                    f"{request.submitter} ended {receipt.status}"
                )
        self.queue.extendleft(reversed(timed_out))
        run.drive_ns += finished - started

    def finish(self) -> PlatformRun:
        run = self.run
        sim_seconds = self.platform.clock.now - self.sim_started
        run.sim_tps = run.committed / sim_seconds if sim_seconds > 0 else 0.0
        run.sim_latency_p50_s = (
            statistics.median(self.latencies) if self.latencies else 0.0
        )
        return run


def drive_all(
    scenarios: dict[str, BenchScenario],
    outage: bool,
    step=None,
    rounds: int | None = None,
    after_rounds=None,
) -> dict[str, PlatformRun]:
    """Drive the platforms in turn, one batch each, until all are done.

    Taking turns batch by batch spreads every platform's samples over the
    whole run, so a slow spell of the host does not land on one platform
    only.  *step*, if given, is called as ``step(name, driver)`` in place
    of ``driver.step()`` (the traced run wraps each step).  After *rounds*
    turns, ``after_rounds()`` is called once, outside any timed step; the
    drive stops there if it returns true.
    """
    drivers = {
        name: PlatformDriver(scenario, outage) for name, scenario in scenarios.items()
    }
    played = 0
    while not all(driver.done for driver in drivers.values()):
        for name, driver in drivers.items():
            if driver.done:
                continue
            if step is None:
                driver.step()
            else:
                step(name, driver)
        played += 1
        if played == rounds and after_rounds():
            break
    return {name: driver.finish() for name, driver in drivers.items()}


def fingerprints(scenarios: dict[str, BenchScenario]) -> dict[str, str]:
    return {name: s.platform.state_fingerprint() for name, s in scenarios.items()}


def check_pass(
    workload: Workload, scenarios: dict[str, BenchScenario], runs: dict
) -> list[str]:
    """Correctness checks on one finished pass; returns what failed."""
    problems = []
    for platform, run in runs.items():
        problems.extend(run.problems)
        if run.committed != run.attempted:
            problems.append(
                f"{platform}: {run.committed} of {run.attempted} requests committed"
            )
        if workload.outage:
            if run.refused == 0:
                problems.append(f"{platform}: the outage refused no request")
            report = audit_convergence(scenarios[platform].platform)
            run.divergences = len(report.divergences)
            if report.divergences:
                problems.append(
                    f"{platform}: {len(report.divergences)} divergences after recovery"
                )
    return problems


# -- leakage envelope -------------------------------------------------------


def _ordering_observer(platform):
    if platform.platform_name == "fabric":
        return platform.orderer.observer
    if platform.platform_name == "corda":
        return platform.notary.observer
    return platform.sequencer.observer


def leakage_profile(platform) -> dict[str, bool]:
    """What uninvolved orgs and the ordering principal learned, by category."""
    platform.network.run()
    trading = set(TRADING_PARTIES)
    observers = [platform.network.node(org).observer for org in UNINVOLVED]
    ordering = _ordering_observer(platform)
    return {
        "uninvolved_sees_identities": any(
            observer.seen_identities & trading for observer in observers
        ),
        "uninvolved_sees_data": any(
            CONFIDENTIAL_KEY in observer.seen_data_keys for observer in observers
        ),
        "orderer_sees_identities": bool(ordering.seen_identities & trading),
        "orderer_sees_data": CONFIDENTIAL_KEY in ordering.seen_data_keys,
    }


def audit_envelope() -> dict[str, dict[str, bool]]:
    """The L1 audit's leakage profile per platform, in the same categories."""
    envelope = {}
    for report in audit_all(seed="perfbench-envelope"):
        row = report.summary_row()
        envelope[row["platform"]] = {
            "uninvolved_sees_identities": row["uninvolved_identity_leaks"] > 0,
            "uninvolved_sees_data": row["uninvolved_data_leaks"] > 0,
            "orderer_sees_identities": row["orderer_sees_identities"],
            "orderer_sees_data": row["orderer_sees_data"],
        }
    return envelope


def check_leakage(scenarios: dict[str, BenchScenario]) -> list[str]:
    envelope = audit_envelope()
    problems = []
    for platform, scenario in scenarios.items():
        profile = leakage_profile(scenario.platform)
        if profile != envelope[platform]:
            problems.append(
                f"{platform}: leakage {profile} differs from the L1 audit "
                f"envelope {envelope[platform]}"
            )
    return problems


def telemetry_digest(platform) -> str:
    """Hash of the platform's deterministic telemetry stream."""
    return hashlib.sha256(canonical_bytes(platform.telemetry.to_dict())).hexdigest()
