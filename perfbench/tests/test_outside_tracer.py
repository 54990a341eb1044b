"""The outside-in tracer: accounting, re-binding, and no change in behaviour."""

import sys
import types

import pytest

import tracing
import workloads
from repro.common import serialization
from repro.common.serialization import canonical_bytes
from repro.driver.scenarios import kv_scenario, loc_scenario, trade_scenario
from repro.platforms import base

TOY_LIB = """
import time

def _busy(microseconds):
    deadline = time.perf_counter_ns() + microseconds * 1000
    while time.perf_counter_ns() < deadline:
        pass

def inner():
    _busy(200)

def middle():
    _busy(100)
    inner()
    inner()

def outer():
    _busy(100)
    middle()
    return "done"

def f():
    return 42
"""

TOY_USER = """
from toy_lib import f
from toy_lib import f as g
"""


@pytest.fixture
def toy_modules():
    """``toy_lib`` defines functions; ``toy_user`` imports one of them."""
    lib = types.ModuleType("toy_lib")
    sys.modules["toy_lib"] = lib
    exec(TOY_LIB, lib.__dict__)
    user = types.ModuleType("toy_user")
    sys.modules["toy_user"] = user
    exec(TOY_USER, user.__dict__)
    yield lib, user
    del sys.modules["toy_lib"], sys.modules["toy_user"]


def test_self_times_of_nested_calls_sum_to_outermost_inclusive(toy_modules):
    lib, __ = toy_modules
    targets = {
        "toy": (("toy_lib", "outer"), ("toy_lib", "middle"), ("toy_lib", "inner"))
    }
    tracer = tracing.OutsideTracer(targets)
    with tracer:
        assert lib.outer() == "done"
    summary = tracer.recorder.summarize([(0, len(tracer.recorder))])
    names = summary["names"]
    assert [names[f"toy:{n}"]["calls"] for n in ("outer", "middle", "inner")] == [1, 1, 2]
    outer_inclusive = names["toy:outer"]["inclusive_ns"]
    assert sum(entry["self_ns"] for entry in names.values()) == outer_inclusive
    assert summary["covered_ns"] == outer_inclusive
    # Each level's own busy loop shows up as its self time.
    assert names["toy:inner"]["self_ns"] > names["toy:middle"]["self_ns"] > 0
    assert tracing.layer_totals(summary)["toy"]["self_ns"] == outer_inclusive


def test_from_import_is_rebound_and_counted_once_per_call(toy_modules):
    lib, user = toy_modules
    original = lib.f
    tracer = tracing.OutsideTracer({"toy": (("toy_lib", "f"),)})
    with tracer:
        assert user.f is lib.f is user.g is not original
        assert user.f() == 42
        assert lib.f() == 42
        assert user.g() == 42
    summary = tracer.recorder.summarize([(0, len(tracer.recorder))])
    assert summary["names"]["toy:f"]["calls"] == 3
    assert user.f is user.g is lib.f is original


def test_real_layers_install_and_uninstall_cleanly():
    tracing.import_all("repro")
    original_function = serialization.canonical_bytes
    original_method = base.Platform.recover
    tracer = tracing.OutsideTracer()
    with tracer:
        # Module-level names are re-bound everywhere, this module included.
        assert base.canonical_bytes is serialization.canonical_bytes
        assert base.canonical_bytes is canonical_bytes is not original_function
        assert base.Platform.recover is not original_method
        assert tracing.leftover_wrappers()
    assert base.canonical_bytes is canonical_bytes is original_function
    assert base.Platform.recover is original_method
    assert tracing.leftover_wrappers() == []


def test_failed_install_removes_what_it_installed():
    from repro.crypto.merkle import MerkleTree

    original = MerkleTree.inclusion_proof
    tracer = tracing.OutsideTracer({"crypto": (
        ("repro.crypto.merkle", "MerkleTree.inclusion_proof"),
        ("repro.crypto.merkle", "MerkleTree.root"),  # a property
    )})
    with pytest.raises(TypeError):
        tracer.install()
    assert MerkleTree.inclusion_proof is original
    assert tracing.leftover_wrappers() == []


def _small_scenarios(platform: str) -> list:
    loc = loc_scenario(platform, 24, seed="tracer-parity")
    loc.platform.resilient_delivery = True
    loc.platform.inject_faults(workloads.loc_fault_plan())
    return [
        (kv_scenario(platform, 60, skew=0.99, seed="tracer-parity"), False),
        (trade_scenario(platform, 60, seed="tracer-parity"), False),
        (loc, True),
    ]


def _outcome(traced: bool, platform: str) -> list:
    tracer = tracing.OutsideTracer() if traced else None
    outcomes = []
    for scenario, outage in _small_scenarios(platform):
        if tracer is not None:
            tracer.install()
        try:
            run = workloads.drive_all({platform: scenario}, outage)[platform]
        finally:
            if tracer is not None:
                tracer.uninstall()
        assert run.committed == run.attempted
        assert run.refused > 0 if outage else run.refused == 0
        outcomes.append((
            scenario.platform.state_fingerprint(),
            canonical_bytes(scenario.platform.telemetry.to_dict()),
        ))
    if tracer is not None:
        assert len(tracer.recorder) > 0
    return outcomes


@pytest.mark.parametrize("platform", workloads.PLATFORMS)
def test_tracing_leaves_state_and_telemetry_byte_identical(platform):
    tracing.import_all("repro")
    assert _outcome(False, platform) == _outcome(True, platform)
    assert tracing.leftover_wrappers() == []
