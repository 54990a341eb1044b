"""Fabric batch commit: validation codes and MVCC conflicts in one block."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.common.errors import PlatformError
from repro.crypto.signatures import Signature
from repro.execution.contracts import SmartContract
from repro.ledger.transaction import Endorsement
from repro.platforms.fabric import FabricNetwork, ValidationCode


@pytest.fixture
def net():
    network = FabricNetwork(seed="batch-test")
    for org in ("Org1", "Org2"):
        network.onboard(org)
    network.create_channel("ch", ["Org1", "Org2"])

    def put(view, args):
        view.put(args["key"], args["value"])
        return args["value"]

    def transfer(view, args):
        balance = view.get("balance", 0)
        view.put("balance", balance - args["amount"])
        return balance - args["amount"]

    contract = SmartContract(
        "cc", 1, "python-chaincode", {"put": put, "transfer": transfer}
    )
    network.deploy_chaincode("ch", contract, ["Org1", "Org2"])
    return network


class TestBatchCommit:
    def test_independent_proposals_all_valid(self, net):
        proposals = [
            net.propose("ch", "Org1", "cc", "put", {"key": f"k{n}", "value": n})
            for n in range(3)
        ]
        results = net.submit_batch("ch", proposals)
        assert all(r.valid for r in results)
        assert all(r.validation_code is ValidationCode.VALID for r in results)

    def test_one_block_many_transactions(self, net):
        proposals = [
            net.propose("ch", "Org1", "cc", "put", {"key": f"k{n}", "value": n})
            for n in range(4)
        ]
        height_before = net.channel("ch").chain.height
        net.submit_batch("ch", proposals)
        chain = net.channel("ch").chain
        assert chain.height == height_before + 1
        assert len(chain.blocks()[-1].transactions) == 4
        chain.verify()

    def test_wrong_channel_rejected(self, net):
        net.create_channel("other", ["Org1"])
        proposal = net.propose("ch", "Org1", "cc", "put", {"key": "k", "value": 1})
        with pytest.raises(PlatformError, match="different channel"):
            net.submit_batch("other", [proposal])


class TestMVCCConflicts:
    def test_conflicting_reads_first_wins(self, net):
        """Two transfers endorsed over the same balance snapshot: the
        second is marked MVCC_READ_CONFLICT and does not apply."""
        net.invoke("ch", "Org1", "cc", "put", {"key": "balance", "value": 100})
        a = net.propose("ch", "Org1", "cc", "transfer", {"amount": 30})
        b = net.propose("ch", "Org2", "cc", "transfer", {"amount": 50})
        results = net.submit_batch("ch", [a, b])
        assert results[0].validation_code is ValidationCode.VALID
        assert results[1].validation_code is ValidationCode.MVCC_READ_CONFLICT
        # Only the first transfer applied — no double spend of the balance.
        assert net.channel("ch").reference_state().get("balance") == 70

    def test_conflict_ordering_is_block_order(self, net):
        net.invoke("ch", "Org1", "cc", "put", {"key": "balance", "value": 100})
        a = net.propose("ch", "Org1", "cc", "transfer", {"amount": 30})
        b = net.propose("ch", "Org2", "cc", "transfer", {"amount": 50})
        results = net.submit_batch("ch", [b, a])
        assert results[0].valid
        assert not results[1].valid
        assert net.channel("ch").reference_state().get("balance") == 50

    def test_invalid_tx_still_recorded_on_chain(self, net):
        net.invoke("ch", "Org1", "cc", "put", {"key": "balance", "value": 10})
        a = net.propose("ch", "Org1", "cc", "transfer", {"amount": 1})
        b = net.propose("ch", "Org2", "cc", "transfer", {"amount": 2})
        results = net.submit_batch("ch", [a, b])
        channel = net.channel("ch")
        chain_tx_ids = {tx.tx_id for tx in channel.chain.transactions()}
        assert results[1].tx.tx_id in chain_tx_ids
        assert results[1].tx.tx_id in channel.invalid_tx_ids

    def test_replicas_consistent_after_conflicts(self, net):
        net.invoke("ch", "Org1", "cc", "put", {"key": "balance", "value": 100})
        proposals = [
            net.propose("ch", "Org1", "cc", "transfer", {"amount": 10})
            for __ in range(4)
        ]
        results = net.submit_batch("ch", proposals)
        assert [r.valid for r in results] == [True, False, False, False]
        assert net.channel("ch").replicas_consistent()

    def test_disjoint_keys_do_not_conflict(self, net):
        a = net.propose("ch", "Org1", "cc", "put", {"key": "x", "value": 1})
        b = net.propose("ch", "Org2", "cc", "put", {"key": "y", "value": 2})
        results = net.submit_batch("ch", [a, b])
        assert all(r.valid for r in results)


class TestEndorsementPolicyAtCommit:
    @pytest.mark.parametrize("chaincodes", [1, 2])
    def test_forged_endorsements_fail_policy(self, net, chaincodes):
        """Commit checks the policy of the chaincode that produced the tx,
        however many chaincodes the channel has committed."""
        if chaincodes == 2:
            other = SmartContract(
                "cc-other", 1, "python-chaincode",
                {"noop": lambda view, args: None},
            )
            net.deploy_chaincode("ch", other, ["Org1", "Org2"])
        proposal = net.propose("ch", "Org1", "cc", "put", {"key": "k", "value": 1})
        forged = proposal.tx.with_endorsements([
            Endorsement(endorser=e.endorser, signature=Signature(1, 1))
            for e in proposal.tx.endorsements
        ])
        results = net.submit_batch("ch", [replace(proposal, tx=forged)])
        assert results[0].validation_code is ValidationCode.ENDORSEMENT_POLICY_FAILURE
        assert not net.channel("ch").reference_state().exists("k")

    def test_uncommitted_chaincode_id_fails_policy_in_block(self, net):
        """A proposal naming a chaincode the channel never committed is
        marked invalid in its block; the rest of the block still commits
        and lands on the chain."""
        first = net.propose("ch", "Org1", "cc", "put", {"key": "a", "value": 1})
        bogus = net.propose("ch", "Org1", "cc", "put", {"key": "b", "value": 2})
        last = net.propose("ch", "Org1", "cc", "put", {"key": "c", "value": 3})
        height = len(net.channel("ch").chain.transactions())
        results = net.submit_batch(
            "ch", [first, replace(bogus, contract_id="cc-missing"), last]
        )
        assert [r.validation_code for r in results] == [
            ValidationCode.VALID,
            ValidationCode.ENDORSEMENT_POLICY_FAILURE,
            ValidationCode.VALID,
        ]
        channel = net.channel("ch")
        assert len(channel.chain.transactions()) == height + 3
        assert channel.reference_state().snapshot() == {"a": 1, "c": 3}
