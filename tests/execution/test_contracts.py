"""Contracts, state views, and the versioning registry."""

from __future__ import annotations

import pytest

from repro.common.errors import ContractError
from repro.execution.contracts import (
    ContractRegistry,
    SmartContract,
    StateView,
)
from repro.ledger.state import WorldState


def put_fn(view, args):
    view.put(args["key"], args["value"])
    return args["value"]


@pytest.fixture
def contract():
    return SmartContract(
        contract_id="cc", version=1, language="python-chaincode",
        functions={"put": put_fn},
    )


class TestStateView:
    def test_reads_recorded_with_versions(self):
        view = StateView(
            WorldState.from_dump({"k": {"value": 5, "version": 3}})
        )
        assert view.get("k") == 5
        assert view.reads == {"k": 3}

    def test_read_of_missing_key_records_version_zero(self):
        view = StateView(WorldState())
        assert view.get("k", "default") == "default"
        assert view.reads == {"k": 0}

    def test_read_your_writes(self):
        view = StateView(
            WorldState.from_dump({"k": {"value": 1, "version": 1}})
        )
        view.put("k", 2)
        assert view.get("k") == 2

    def test_delete_then_read(self):
        view = StateView(
            WorldState.from_dump({"k": {"value": 1, "version": 1}})
        )
        view.delete("k")
        assert view.get("k", "gone") == "gone"
        assert "k" in view.deletes

    def test_put_after_delete_clears_delete(self):
        view = StateView(WorldState())
        view.delete("k")
        view.put("k", 9)
        assert "k" not in view.deletes
        assert view.writes == {"k": 9}

    def test_backing_state_not_mutated(self):
        backing = WorldState.from_dump({"k": {"value": 1, "version": 1}})
        view = StateView(backing)
        view.put("k", 2)
        view.delete("k")
        assert backing.snapshot() == {"k": 1}
        assert backing.version("k") == 1


class TestSmartContract:
    def test_invoke(self, contract):
        view = StateView(WorldState())
        assert contract.invoke("put", view, {"key": "k", "value": 7}) == 7
        assert view.writes == {"k": 7}

    def test_unknown_function_rejected(self, contract):
        with pytest.raises(ContractError, match="no function"):
            contract.invoke("missing", StateView(WorldState()), {})

    def test_code_measurement_stable(self, contract):
        assert contract.code_measurement() == contract.code_measurement()

    def test_code_measurement_version_sensitive(self, contract):
        v2 = SmartContract(
            contract_id="cc", version=2, language="python-chaincode",
            functions={"put": put_fn},
        )
        assert contract.code_measurement() != v2.code_measurement()


class TestRegistry:
    def test_install_and_lookup(self, contract):
        registry = ContractRegistry()
        registry.install("peer1", contract)
        assert registry.lookup("peer1", "cc") is contract
        assert registry.has_contract("peer1", "cc")
        assert registry.installed_on("peer1") == ["cc"]

    def test_lookup_uninstalled_rejected(self, contract):
        registry = ContractRegistry()
        with pytest.raises(ContractError, match="does not have"):
            registry.lookup("peer1", "cc")

    def test_code_visibility_tracks_installs(self, contract):
        """Section 2.3: code visible only where installed."""
        registry = ContractRegistry()
        registry.install("peer1", contract)
        registry.install("peer2", contract)
        assert registry.nodes_with_code_visibility("cc") == {"peer1", "peer2"}
        assert "peer3" not in registry.nodes_with_code_visibility("cc")

    def test_version_consistency_enforced(self, contract):
        registry = ContractRegistry(enforce_consistency=True)
        registry.install("peer1", contract)
        v2 = SmartContract("cc", 2, "python-chaincode", {"put": put_fn})
        registry.install("peer2", v2)
        with pytest.raises(ContractError, match="version drift"):
            registry.check_version_consistency(["peer1", "peer2"], "cc")

    def test_version_drift_tolerated_without_enforcement(self, contract):
        """The off-chain engine's hazard: drift is possible, not an error."""
        registry = ContractRegistry(enforce_consistency=False)
        registry.install("peer1", contract)
        v2 = SmartContract("cc", 2, "python-chaincode", {"put": put_fn})
        registry.install("peer2", v2)
        assert registry.check_version_consistency(["peer1", "peer2"], "cc") == 2

    def test_consistent_versions_pass(self, contract):
        registry = ContractRegistry()
        registry.install("peer1", contract)
        registry.install("peer2", contract)
        assert registry.check_version_consistency(["peer1", "peer2"], "cc") == 1


class TestRangeQueries:
    def test_range_returns_sorted_window(self):
        view = StateView(WorldState.from_dump({
            "a1": {"value": 1, "version": 1},
            "a2": {"value": 2, "version": 1},
            "b1": {"value": 3, "version": 1},
        }))
        assert view.get_range("a", "b") == {"a1": 1, "a2": 2}

    def test_range_sees_own_writes_and_deletes(self):
        view = StateView(WorldState.from_dump({
            "a1": {"value": 1, "version": 1}, "a2": {"value": 2, "version": 1},
        }))
        view.put("a3", 3)
        view.delete("a1")
        assert view.get_range("a", "b") == {"a2": 2, "a3": 3}

    def test_range_records_reads_for_mvcc(self):
        view = StateView(
            WorldState.from_dump({"a1": {"value": 1, "version": 7}})
        )
        view.get_range("a", "b")
        assert view.reads == {"a1": 7}
