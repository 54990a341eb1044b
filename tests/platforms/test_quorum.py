"""Quorum simulation: public/private state, tx manager, documented flaws."""

from __future__ import annotations

import pytest

from repro.common.errors import (
    ContractError,
    DoubleSpendError,
    MembershipError,
    OffChainError,
    PrivacyError,
)
from repro.execution.contracts import SmartContract
from repro.platforms.quorum import QuorumNetwork
from repro.platforms.quorum.txmanager import PrivateTransactionManager


def store_cc(cid="store"):
    def put(view, args):
        view.put(args["key"], args["value"])
        return args["value"]

    return SmartContract(
        contract_id=cid, version=1, language="evm-solidity",
        functions={"put": put},
    )


@pytest.fixture
def net():
    network = QuorumNetwork(seed="quorum-test")
    for node in ("N1", "N2", "N3", "N4"):
        network.onboard(node)
    network.deploy_contract("N1", store_cc())
    return network


class TestDeployment:
    def test_public_contract_visible_everywhere(self, net):
        assert net.code_visible_to("store") == {"N1", "N2", "N3", "N4"}

    def test_private_contract_scoped(self, net):
        net.deploy_contract("N1", store_cc("private-cc"), private_for=["N2"])
        assert net.code_visible_to("private-cc") == {"N1", "N2"}

    def test_non_evm_contract_rejected(self, net):
        bad = SmartContract("x", 1, "python-chaincode", {})
        with pytest.raises(ContractError, match="EVM"):
            net.deploy_contract("N1", bad)

    def test_unknown_party_in_private_for_rejected(self, net):
        with pytest.raises(MembershipError):
            net.deploy_contract("N1", store_cc("y"), private_for=["Ghost"])

    def test_unknown_deployer_rejected(self, net):
        with pytest.raises(MembershipError):
            net.deploy_contract("Ghost", store_cc("z"))

    def test_redeploy_under_same_id_rejected(self, net):
        """Hosts never shrink, so private-state replay keeps its code."""
        net.deploy_contract("N1", store_cc("private-cc"), private_for=["N2"])
        net.send_private_transaction(
            "N1", "private-cc", "put", {"key": "k", "value": 1},
            private_for=["N2"],
        )
        with pytest.raises(ContractError, match="already deployed"):
            net.deploy_contract("N1", store_cc("private-cc"), private_for=[])
        assert net.code_visible_to("private-cc") == {"N1", "N2"}
        assert net.verify_private_state("N2")


class TestPublicTransactions:
    def test_public_state_replicated_everywhere(self, net):
        net.send_public_transaction("N1", "store", "put", {"key": "k", "value": 5})
        for node in ("N1", "N2", "N3", "N4"):
            assert net.public_states[node].get("k") == 5

    def test_public_tx_on_chain(self, net):
        result = net.send_public_transaction(
            "N1", "store", "put", {"key": "k", "value": 5}
        )
        assert net.chain.height == 1
        assert result.tx.metadata["kind"] == "public"

    def test_public_exposure_network_wide(self, net):
        net.send_public_transaction("N1", "store", "put", {"key": "pub-k", "value": 5})
        net.network.run()
        assert "pub-k" in net.network.node("N4").observer.seen_data_keys


class TestPrivateTransactions:
    def test_private_state_only_at_participants(self, net):
        net.send_private_transaction(
            "N1", "store", "put", {"key": "priv", "value": 9}, private_for=["N2"]
        )
        assert net.private_states["N1"].get("priv") == 9
        assert net.private_states["N2"].get("priv") == 9
        assert not net.private_states["N3"].exists("priv")
        assert not net.private_states["N4"].exists("priv")

    def test_only_hash_on_chain(self, net):
        result = net.send_private_transaction(
            "N1", "store", "put", {"key": "priv", "value": 9}, private_for=["N2"]
        )
        tx = net.chain.transactions()[-1]
        assert tx.private_hashes["payload"] == result.payload_hash
        assert tx.writes == ()

    def test_participant_list_broadcast_to_all(self, net):
        """The paper's second Quorum drawback, reproduced."""
        net.send_private_transaction(
            "N1", "store", "put", {"key": "priv", "value": 9}, private_for=["N2"]
        )
        net.network.run()
        for outsider in ("N3", "N4"):
            observer = net.network.node(outsider).observer
            assert {"N1", "N2"} <= observer.seen_identities
            assert "priv" not in observer.seen_data_keys

    def test_non_participant_cannot_resolve_payload(self, net):
        result = net.send_private_transaction(
            "N1", "store", "put", {"key": "priv", "value": 9}, private_for=["N2"]
        )
        with pytest.raises(PrivacyError, match="not a party"):
            net.managers["N3"].resolve(result.payload_hash)

    def test_participants_resolve_identical_payload(self, net):
        result = net.send_private_transaction(
            "N1", "store", "put", {"key": "priv", "value": 9}, private_for=["N2"]
        )
        p1 = net.managers["N1"].resolve(result.payload_hash)
        p2 = net.managers["N2"].resolve(result.payload_hash)
        assert p1 == p2
        assert p1["args"] == {"key": "priv", "value": 9}

    def test_consensus_sees_submitter_and_participants(self, net):
        net.send_private_transaction(
            "N1", "store", "put", {"key": "priv", "value": 9}, private_for=["N2"]
        )
        assert {"N1", "N2"} <= net.sequencer.observer.seen_identities


class TestDoubleSpend:
    def test_private_double_spend_succeeds(self, net):
        """Section 5: 'it does not prevent the double spending of assets'."""
        views = net.demonstrate_private_double_spend(
            "N1", "asset", ["N2"], ["N3"]
        )
        assert views["group_a_view"] == {"owner": "N2"}
        assert views["group_b_view"] == {"owner": "N3"}

    def test_private_views_diverge(self, net):
        net.demonstrate_private_double_spend("N1", "asset", ["N2"], ["N3"])
        assert (
            net.private_states["N2"].get("asset")
            != net.private_states["N3"].get("asset")
        )

    def test_public_double_spend_rejected(self, net):
        with pytest.raises(DoubleSpendError):
            net.attempt_public_double_spend("N1", "asset-pub", "N2", "N3")

    def test_first_public_spend_committed(self, net):
        try:
            net.attempt_public_double_spend("N1", "asset-pub", "N2", "N3")
        except DoubleSpendError:
            pass
        assert net.public_states["N4"].get("asset-pub") == {"owner": "N2"}


class TestTransactionManager:
    def test_payload_hash_deterministic(self):
        m1 = PrivateTransactionManager("a")
        m2 = PrivateTransactionManager("b")
        managers = {"a": m1, "b": m2}
        h1 = m1.distribute({"x": 1}, ["a", "b"], managers)
        # Same payload from another sender: same hash (content-addressed).
        h2 = m2.distribute({"x": 1}, ["a", "b"], managers)
        assert h1 == h2

    def test_delete_breaks_replay(self):
        m1 = PrivateTransactionManager("a")
        m2 = PrivateTransactionManager("b")
        managers = {"a": m1, "b": m2}
        payload_hash = m1.distribute({"x": 1}, ["a", "b"], managers)
        m2.delete(payload_hash)
        with pytest.raises(PrivacyError):
            m2.resolve(payload_hash)

    def test_delete_missing_rejected(self):
        with pytest.raises(OffChainError):
            PrivateTransactionManager("a").delete("nope")

    def test_unknown_recipient_rejected(self):
        manager = PrivateTransactionManager("a")
        with pytest.raises(PrivacyError, match="no transaction manager"):
            manager.distribute({"x": 1}, ["ghost"], {"a": manager})

    def test_payload_encrypted_per_pair(self):
        m1 = PrivateTransactionManager("a")
        m2 = PrivateTransactionManager("b")
        managers = {"a": m1, "b": m2}
        payload_hash = m1.distribute({"secret": "v"}, ["a", "b"], managers)
        stored = m2._payloads[payload_hash]
        assert b"secret" not in stored.ciphertext.body
