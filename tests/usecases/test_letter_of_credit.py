"""Letter of credit (Section 4): design agreement + executable workflow."""

from __future__ import annotations

import pytest

from repro.common.errors import ContractError, DoubleSpendError, PlatformError
from repro.core.mechanisms import Mechanism
from repro.driver.scenarios import make_platform
from repro.platforms.base import TxRequest
from repro.platforms.corda import Command, ContractState
from repro.usecases.letter_of_credit import (
    PARTIES,
    LetterOfCreditWorkflow,
    design_letter_of_credit,
    expected_paper_design,
    letter_of_credit_requirements,
)


class TestDesignAgreement:
    """U1: the guide must reach the paper's own conclusions."""

    def test_pii_goes_off_chain(self):
        design = design_letter_of_credit()
        expected = expected_paper_design()
        assert design.recommendation_for("pii").primary is expected["pii_primary"]

    def test_trade_data_uses_segregated_ledger(self):
        design = design_letter_of_credit()
        expected = expected_paper_design()
        assert (
            design.recommendation_for("trade-data").primary
            is expected["trade_primary"]
        )

    def test_interactions_use_separate_ledger(self):
        design = design_letter_of_credit()
        assert Mechanism.SEPARATION_OF_LEDGERS_PARTIES in design.interaction_mechanisms

    def test_untrusted_orderer_adds_encryption(self):
        """'If a third party is trusted to run the ordering service...
        transaction data can be encrypted' — the contrapositive."""
        design = design_letter_of_credit(orderer_trusted=False)
        assert (
            Mechanism.SYMMETRIC_ENCRYPTION
            in design.recommendation_for("trade-data").supplementary
        )

    def test_trusted_orderer_needs_no_encryption(self):
        design = design_letter_of_credit(orderer_trusted=True)
        assert (
            Mechanism.SYMMETRIC_ENCRYPTION
            not in design.recommendation_for("trade-data").supplementary
        )

    def test_logic_is_not_confidential(self):
        """'logic contained in a letter of credit is highly standardized
        and non-confidential'."""
        design = design_letter_of_credit()
        assert design.logic_mechanism is None

    def test_requirements_have_two_data_classes(self):
        requirements = letter_of_credit_requirements()
        assert {dc.name for dc in requirements.data_classes} == {"pii", "trade-data"}


@pytest.fixture(scope="module")
def workflow():
    wf = LetterOfCreditWorkflow()
    wf.setup(extra_network_members=("OtherBank",))
    return wf


class TestWorkflow:
    def test_full_lifecycle(self, workflow):
        loc = workflow.run_full_lifecycle("LC-100")
        assert loc.status == "paid"
        assert loc.amount == 250_000

    def test_all_parties_see_same_status(self, workflow):
        workflow.run_full_lifecycle("LC-101")
        statuses = {
            workflow.status_of("LC-101", party)
            for party in workflow.PARTIES
        }
        assert statuses == {"paid"}

    def test_lifecycle_order_enforced(self, workflow):
        workflow.apply_for_credit("LC-102", amount=10, buyer_passport="P-1")
        workflow.issue("LC-102")
        workflow.ship("LC-102")
        workflow.pay("LC-102")
        with pytest.raises(Exception, match="already"):
            workflow.pay("LC-102")

    def test_pii_never_on_chain(self, workflow):
        workflow.apply_for_credit("LC-103", amount=10, buyer_passport="P-SECRET-42")
        channel = workflow.network.channel(workflow.placement.channel)
        for tx in channel.chain.transactions():
            for write in tx.writes:
                assert "P-SECRET-42" not in str(write.value)

    def test_pii_anchored_by_hash(self, workflow):
        workflow.apply_for_credit("LC-104", amount=10, buyer_passport="P-2")
        channel = workflow.network.channel(workflow.placement.channel)
        anchored = [
            tx for tx in channel.chain.transactions()
            if any(k.startswith("kyc-pii/") for k in tx.private_hashes)
        ]
        assert anchored

    def test_gdpr_erasure(self, workflow):
        workflow.apply_for_credit("LC-105", amount=10, buyer_passport="P-3")
        assert not workflow.pii_is_erased("LC-105")
        workflow.erase_pii("LC-105")
        assert workflow.pii_is_erased("LC-105")

    def test_network_outsider_sees_nothing(self, workflow):
        workflow.run_full_lifecycle("LC-106")
        workflow.network.network.run()
        outsider = workflow.network.network.node("OtherBank").observer
        assert outsider.seen_data_keys == set()
        assert not (set(workflow.PARTIES) & outsider.seen_identities)

    def test_orderer_sees_loc_parties(self, workflow):
        """The trusted-third-party-orderer trade-off made visible."""
        workflow.run_full_lifecycle("LC-107")
        assert set(workflow.PARTIES) <= workflow.network.orderer.observer.seen_identities


PLATFORMS = ("fabric", "corda", "quorum")


@pytest.fixture(scope="module", params=PLATFORMS)
def any_workflow(request):
    """The one workflow on each platform, with an uninvolved member."""
    wf = LetterOfCreditWorkflow(
        network=make_platform(request.param, f"loc-any-{request.param}")
    )
    wf.setup(extra_network_members=("OtherBank",))
    return wf


def _loc_state(wf, loc_id: str, viewer: str):
    """The unconsumed Corda state holding *loc_id* in *viewer*'s vault."""
    vault = wf.network.vault(viewer)
    (ref,) = [
        ref for ref, state in vault.unconsumed.items()
        if state.data.get("loc_id") == loc_id
    ]
    return ref, vault.state_at(ref)


class TestEveryPlatform:
    """The same lifecycle and PII placement matrix on all three platforms."""

    def test_lifecycle_paid_in_every_view(self, any_workflow):
        loc = any_workflow.run_full_lifecycle("LC-ALL-1")
        assert loc.status == "paid"
        assert loc.amount == 250_000
        for party in PARTIES:
            assert any_workflow.status_of("LC-ALL-1", party) == "paid"

    def test_terminal_advance_refused(self, any_workflow):
        """A paid letter cannot advance, and the refusal leaves no trace."""
        wf = any_workflow
        wf.run_full_lifecycle("LC-ALL-2")
        before = wf.network.state_fingerprint()
        with pytest.raises(ContractError, match="already"):
            wf.pay("LC-ALL-2")
        assert wf.network.state_fingerprint() == before

    def test_terminal_advance_receipt(self, any_workflow):
        """Being a ReproError, the refusal is captured by submit_many."""
        wf = any_workflow
        wf.run_full_lifecycle("LC-ALL-3")
        request = TxRequest(
            submitter="IssuingBank",
            contract_id=wf.placement.contract_id,
            function="advance",
            args={"loc_id": "LC-ALL-3"},
            scope=wf.placement.channel,
            private_for=(
                None if wf.placement.channel else ("BuyerCo", "SellerCo")
            ),
        )
        (receipt,) = wf.network.submit_many([request])
        assert receipt.status == "rejected:ContractError"
        assert "already" in receipt.info["error"]

    def test_pii_placement(self, any_workflow):
        """Fabric PDC and Corda external store erase; Quorum refuses."""
        wf = any_workflow
        if wf.placement.pii is None:
            before = wf.network.state_fingerprint()
            with pytest.raises(PlatformError, match="deletable PII"):
                wf.apply_for_credit("LC-ALL-4", 10, buyer_passport="P-Q")
            with pytest.raises(PlatformError, match="deletable PII"):
                wf.erase_pii("LC-ALL-4")
            assert wf.network.state_fingerprint() == before
            return
        wf.apply_for_credit("LC-ALL-4", 10, buyer_passport="P-X")
        assert not wf.pii_is_erased("LC-ALL-4")
        wf.erase_pii("LC-ALL-4")
        assert wf.pii_is_erased("LC-ALL-4")
        if wf.network.platform_name == "corda":
            # The hash anchor survives in the state after erasure.
            __, state = _loc_state(wf, "LC-ALL-4", "SellerCo")
            assert state.data["kyc_anchor"]

    def test_outsider_view(self, any_workflow):
        wf = any_workflow
        wf.run_full_lifecycle("LC-ALL-5")
        wf.network.network.run()
        outsider = wf.network.network.node("OtherBank").observer
        assert outsider.seen_data_keys == set()
        # Quorum broadcasts every private transaction's participant list
        # network-wide: the design's residual there (paper Section 5).
        leaked = set(PARTIES) & outsider.seen_identities
        quorum = wf.network.platform_name == "quorum"
        assert leaked == (set(PARTIES) if quorum else set())
        if quorum:
            assert not wf.network.private_states["OtherBank"].keys()


class TestPlatformSpecifics:
    def test_corda_notary_rejects_replay(self):
        """Advancing from a stale ref is a notary-level double spend."""
        wf = LetterOfCreditWorkflow(network=make_platform("corda", "loc-corda"))
        wf.setup()
        wf.apply_for_credit("LC-C-106", amount=10, buyer_passport="P-W")
        applied_ref, __ = _loc_state(wf, "LC-C-106", "BuyerCo")
        wf.issue("LC-C-106")  # consumes applied_ref
        replay = wf.network.build_transaction(
            inputs=[applied_ref],
            outputs=[ContractState("loc", PARTIES, {"status": "issued", "amount": 10})],
            commands=[Command(name="Advance", signers=PARTIES)],
        )
        with pytest.raises(DoubleSpendError):
            wf.network.run_flow("BuyerCo", replay)

    def test_quorum_private_states_replayable(self):
        wf = LetterOfCreditWorkflow(network=make_platform("quorum", "loc-quorum"))
        wf.setup()
        wf.run_full_lifecycle("LC-Q-104")
        for party in PARTIES:
            assert wf.network.verify_private_state(party)
