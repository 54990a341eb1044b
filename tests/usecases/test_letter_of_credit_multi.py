"""The Section 4 design executed on Corda and Quorum through the one workflow."""

from __future__ import annotations

import pytest

from repro.driver.scenarios import make_platform
from repro.usecases.letter_of_credit import PARTIES, LetterOfCreditWorkflow


def _workflow(platform: str) -> LetterOfCreditWorkflow:
    wf = LetterOfCreditWorkflow(network=make_platform(platform, f"loc-{platform}-multi"))
    wf.setup(extra_network_members=("OtherBank",))
    return wf


@pytest.fixture(scope="module")
def corda_loc():
    return _workflow("corda")


@pytest.fixture(scope="module")
def quorum_loc():
    return _workflow("quorum")


class TestCordaVariant:
    def test_full_lifecycle(self, corda_loc):
        assert corda_loc.run_full_lifecycle("LC-C-100").status == "paid"
        assert corda_loc.status_of("LC-C-100", "SellerCo") == "paid"

    def test_all_parties_hold_final_state(self, corda_loc):
        corda_loc.run_full_lifecycle("LC-C-101")
        statuses = {corda_loc.status_of("LC-C-101", p) for p in PARTIES}
        assert statuses == {"paid"}

    def test_pii_off_platform_and_erasable(self, corda_loc):
        corda_loc.apply_for_credit("LC-C-103", amount=10, buyer_passport="P-X")
        assert not corda_loc.pii_is_erased("LC-C-103")
        corda_loc.erase_pii("LC-C-103")
        assert corda_loc.pii_is_erased("LC-C-103")

    def test_anchor_in_state_survives_erasure(self, corda_loc):
        corda_loc.apply_for_credit("LC-C-104", amount=10, buyer_passport="P-Y")
        corda_loc.erase_pii("LC-C-104")
        vault = corda_loc.network.vault("SellerCo")
        (recorded,) = [
            state for state in vault.unconsumed.values()
            if state.data.get("loc_id") == "LC-C-104"
        ]
        assert recorded.data["kyc_anchor"]


class TestQuorumVariant:
    def test_outsider_has_no_private_state(self, quorum_loc):
        quorum_loc.run_full_lifecycle("LC-Q-101")
        assert not quorum_loc.network.private_states["OtherBank"].exists(
            "loc/LC-Q-101"
        )

    def test_participant_list_leaks_network_wide(self, quorum_loc):
        """The design's residual on this platform (paper Section 5)."""
        quorum_loc.run_full_lifecycle("LC-Q-102")
        quorum_loc.network.network.run()
        outsider = quorum_loc.network.network.node("OtherBank").observer
        assert set(PARTIES) & outsider.seen_identities
