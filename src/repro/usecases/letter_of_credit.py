"""The Section 4 use case: letters of credit.

"A letter of credit is a financial instrument in which a bank vouches to
pay a seller if a buyer is unable to make an agreed-upon payment.  Parties
on a DLT network used to record letters of credit are banks, sellers, and
buyers.  Sellers and buyers will neither want to share that they are
entering in a business relationship nor the details of their agreement
with the network."

This module provides (a) the paper's requirements, encoded; (b) the
expected design per the paper's own walkthrough, for the U1 benchmark to
check the guide against; and (c) one executable letter-of-credit workflow
following that design on any of the three platforms: one stage table, one
contract body pair, and a per-platform placement of the segregated ledger
and the deletable PII.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import ContractError, PlatformError
from repro.core.guide import SolutionDesign, design_solution
from repro.core.mechanisms import Mechanism
from repro.core.requirements import (
    DataClassRequirements,
    DeploymentContext,
    InteractionPrivacy,
    LogicRequirements,
    UseCaseRequirements,
)
from repro.execution.contracts import SmartContract, StateView
from repro.ledger.state import WorldState
from repro.offchain.stores import Hosting, OffChainStore
from repro.platforms.base import Platform, TxRequest
from repro.platforms.corda import Command, ContractState
from repro.platforms.fabric import FabricNetwork


def letter_of_credit_requirements(
    orderer_trusted: bool = True,
) -> UseCaseRequirements:
    """The paper's Section 4 requirements, encoded for the guide.

    - Sellers and buyers keep both the relationship and the agreement
      private from the network -> group-private interactions.
    - PII is deletable on request (GDPR) -> its own data class.
    - Non-personal trade data needs no deletion, encrypted sharing is
      permitted, and validators are the transaction's own parties.
    - Logic is 'highly standardized and non-confidential'.
    """
    return UseCaseRequirements(
        name="letter-of-credit",
        interaction_privacy=InteractionPrivacy.GROUP_PRIVATE,
        data_classes=(
            DataClassRequirements(
                name="pii",
                deletion_required=True,
            ),
            DataClassRequirements(
                name="trade-data",
                deletion_required=False,
                encrypted_sharing_allowed=True,
                onchain_record_desired=True,
                uninvolved_validation_required=False,
            ),
        ),
        logic=LogicRequirements(keep_logic_private=False),
        deployment=DeploymentContext(
            ordering_service_trusted=orderer_trusted,
            third_party_node_admin=False,
        ),
    )


def expected_paper_design() -> dict:
    """What Section 4's prose concludes, as assertions for the U1 bench."""
    return {
        "pii_primary": Mechanism.OFF_CHAIN_PEER_DATA,
        "trade_primary": Mechanism.SEPARATION_OF_LEDGERS_DATA,
        "interaction": Mechanism.SEPARATION_OF_LEDGERS_PARTIES,
        # "If a third party is trusted to run the ordering service and have
        # visibility of transacting parties, transaction data can be
        # encrypted." -> with an *untrusted* orderer the guide adds
        # symmetric encryption to the trade-data class.
        "untrusted_orderer_adds": Mechanism.SYMMETRIC_ENCRYPTION,
    }


def design_letter_of_credit(orderer_trusted: bool = True) -> SolutionDesign:
    """Run the guide over the LoC requirements."""
    return design_solution(letter_of_credit_requirements(orderer_trusted))




# ---------------------------------------------------------------------------
# Executable workflow
# ---------------------------------------------------------------------------

BUYER, SELLER, BANK = "BuyerCo", "SellerCo", "IssuingBank"
PARTIES = (BUYER, SELLER, BANK)

#: The one lifecycle: stage -> (actor, status before, status after).
STAGES = {
    "apply": (BUYER, None, "applied"),
    "issue": (BANK, "applied", "issued"),
    "ship": (SELLER, "issued", "shipped"),
    "pay": (BANK, "shipped", "paid"),
}
NEXT_STATUS = {before: after for _, before, after in STAGES.values() if before}


def apply_loc(view, args):
    """Record a new letter of credit from the application's arguments."""
    loc = {**args, "status": "applied"}
    view.put(f"loc/{args['loc_id']}", loc)
    return loc


def advance_loc(view, args):
    """Move a letter of credit one stage along :data:`STAGES`."""
    key = f"loc/{args['loc_id']}"
    loc = view.get(key)
    if loc is None:
        raise ContractError(f"unknown letter of credit {args['loc_id']!r}")
    if loc["status"] not in NEXT_STATUS:
        raise ContractError(f"letter of credit already {loc['status']!r}")
    loc = {**loc, "status": NEXT_STATUS[loc["status"]]}
    view.put(key, loc)
    return loc


CONTRACT_FUNCTIONS = {"apply": apply_loc, "advance": advance_loc}

PDC = "pdc"
EXTERNAL_STORE = "external-store"
PII_COLLECTION = "kyc-pii"
PII_STORE = "loc-kyc"
ERASURE_REASON = "GDPR erasure request"
PII_REFUSED = (
    "the letter-of-credit design requires deletable PII storage; "
    "Quorum private payloads must remain replayable, so PII must "
    "be kept off-platform (see Table 1 and the S4 design)"
)


@dataclass(frozen=True)
class Placement:
    """How the one LoC design lands on one platform.

    - ``channel``: Fabric's segregated ledger shared by the three parties.
      Where it is None, each transaction is scoped to its parties instead
      (``private_for``: Corda participants, a Quorum privacy group).
    - ``pii``: where the deletable PII lives — a private data collection,
      an application-managed external store whose hash anchor rides in the
      state (Corda has no native PDC: its Table 1 '*'), or nowhere (None):
      a Quorum private payload must stay replayable, so it cannot be
      erased (Table 1 '-') and the workflow refuses to place PII there.
    """

    contract_id: str
    language: str
    channel: str | None
    pii: str | None


PLACEMENTS = {
    "fabric": Placement("loc-contract", "python-chaincode", "loc-channel", PDC),
    "corda": Placement("loc", "kotlin", None, EXTERNAL_STORE),
    "quorum": Placement("loc-evm", "evm-solidity", None, None),
}


@dataclass
class LetterOfCredit:
    """The business object tracked on the segregated ledger."""

    loc_id: str
    buyer: str
    seller: str
    issuing_bank: str
    amount: int
    status: str = "applied"  # applied -> issued -> shipped -> paid


def _verify_positive_amount(wire) -> None:
    """The Corda contract's verify: every letter carries a positive amount."""
    for state in wire.outputs:
        if state.data.get("amount", 0) <= 0:
            raise PlatformError("letter amount must be positive")


class LetterOfCreditWorkflow:
    """End-to-end LoC lifecycle on any platform, per the S4 design.

    A buyer, a seller, and the issuing bank run the lifecycle out of the
    rest of the network's sight; PII (passport numbers for KYC) goes where
    the platform can erase it on request.  Every step compiles to a
    :class:`TxRequest` through ``Platform.submit``; :data:`PLACEMENTS`
    holds everything that differs per platform.
    """

    PARTIES = PARTIES

    def __init__(self, network: Platform | None = None) -> None:
        self.network = network if network is not None else FabricNetwork(seed="loc")
        self.placement = PLACEMENTS[self.network.platform_name]
        self.contract = SmartContract(
            self.placement.contract_id, 1, self.placement.language,
            CONTRACT_FUNCTIONS,
        )
        # Corda: loc id -> the unconsumed state holding the letter.
        self._tips = {}
        self._initialized = False

    @property
    def telemetry(self):
        """The platform's telemetry bundle (spans, metrics, events)."""
        return self.network.telemetry

    def setup(
        self,
        extra_network_members: tuple[str, ...] = (),
        endorsement_policy=None,
    ) -> None:
        """Onboard parties, scope the ledger to them, deploy the logic.

        ``endorsement_policy`` overrides Fabric's default all-of policy; the
        recovery scenarios deploy with ``k_of(2, PARTIES)`` so the
        lifecycle can keep moving while one member is crashed.
        """
        for org in PARTIES + tuple(extra_network_members):
            self.network.onboard(org)
        placement = self.placement
        if self.network.platform_name == "fabric":
            channel = self.network.create_channel(placement.channel, list(PARTIES))
            channel.create_collection(PII_COLLECTION, list(PARTIES))
            self.network.deploy_chaincode(
                placement.channel, self.contract, list(PARTIES),
                policy=endorsement_policy,
            )
        elif self.network.platform_name == "corda":
            self.network.register_contract(
                placement.contract_id, _verify_positive_amount,
                language=placement.language,
            )
            for function in CONTRACT_FUNCTIONS:
                self.network.register_flow(
                    placement.contract_id, function, self._corda_flow
                )
            self.pii_store = OffChainStore(
                PII_STORE, hosting=Hosting.EXTERNAL, authorized=set(PARTIES)
            )
        else:
            self.network.deploy_contract(
                BANK, self.contract, private_for=list(PARTIES)
            )
        self._initialized = True

    def _require_setup(self) -> None:
        if not self._initialized:
            raise RuntimeError("call setup() first")

    def _corda_flow(self, net, request: TxRequest):
        """Corda's flow builder: the contract body runs over the consumed
        tip state, and its writes become the output state."""
        loc_id = request.args["loc_id"]
        tip = self._tips.get(loc_id) if request.function == "advance" else None
        state = WorldState()
        if tip is not None:
            tip_data = net.vault(request.submitter).state_at(tip).data
            state.put(f"loc/{loc_id}", tip_data)
        view = StateView(state)
        self.contract.invoke(request.function, view, dict(request.args))
        parties = {request.submitter, *request.private_for}
        participants = tuple(p for p in PARTIES if p in parties)
        outputs = [
            ContractState(request.contract_id, participants, data)
            for _, data in sorted(view.writes.items())
        ]
        return net.build_transaction(
            inputs=[] if tip is None else [tip],
            outputs=outputs,
            commands=[Command(request.function.capitalize(), participants)],
        )

    # -- crash recovery passthroughs

    def live_endorsers(self) -> list[str]:
        """Fabric channel members whose peers are currently up."""
        channel = self.network.channel(self.placement.channel)
        return [
            m for m in sorted(channel.members)
            if not self.network.network.is_crashed(m)
        ]

    def checkpoint(self, org: str):
        return self.network.checkpoint_node(org)

    def crash(self, org: str) -> None:
        self.network.crash(org)

    def recover(self, org: str):
        return self.network.recover(org)

    # -- the lifecycle

    def _submit(self, stage: str, args: dict, private_args=None) -> str:
        """Run one stage through ``Platform.submit``; returns the status
        the actor's own replica now holds."""
        actor, before, __ = STAGES[stage]
        if self.placement.channel is not None:
            scoping = {
                "scope": self.placement.channel,
                # Endorse on live peers only: with a k-of-n policy the
                # lifecycle survives a crashed member until it recovers.
                "options": {"endorsers": self.live_endorsers()},
            }
        else:
            scoping = {"private_for": tuple(p for p in PARTIES if p != actor)}
        receipt = self.network.submit(TxRequest(
            submitter=actor,
            contract_id=self.placement.contract_id,
            function="apply" if before is None else "advance",
            args=args,
            private_args=private_args,
            **scoping,
        ))
        if self.network.platform_name == "corda":
            self._tips[args["loc_id"]] = receipt.result.output_refs[0]
        return self.status_of(args["loc_id"], actor)

    def apply_for_credit(
        self, loc_id: str, amount: int, buyer_passport: str | None = None
    ) -> LetterOfCredit:
        """Buyer applies; KYC PII goes only where it can be erased."""
        self._require_setup()
        if buyer_passport is not None and self.placement.pii is None:
            raise PlatformError(PII_REFUSED)
        args = {"loc_id": loc_id, "amount": amount}
        if self.placement.channel is not None:
            # Channel state has no participant list: the letter names them.
            args.update(buyer=BUYER, seller=SELLER, issuing_bank=BANK)
        # The passport attribute is recorded on purpose: the telemetry
        # redaction filter must hash it before it ever reaches a span, and
        # the leakage cross-check test pins that behavior.
        attributes = {"loc_id": loc_id}
        if buyer_passport is not None:
            attributes["buyer_passport"] = buyer_passport
        with self.telemetry.span("loc.apply", **attributes):
            private_args = None
            if buyer_passport is not None:
                pii_key = f"passport/{loc_id}"
                pii = {"number": buyer_passport}
                if self.placement.pii == PDC:
                    private_args = {PII_COLLECTION: {pii_key: pii}}
                else:
                    args["kyc_anchor"] = self.pii_store.put(
                        pii_key, pii, now=self.network.clock.now
                    )
            status = self._submit("apply", args, private_args)
        return LetterOfCredit(loc_id, BUYER, SELLER, BANK, amount, status)

    def _advance(self, stage: str, loc_id: str) -> str:
        self._require_setup()
        with self.telemetry.span(
            f"loc.{stage}", loc_id=loc_id, actor=STAGES[stage][0]
        ):
            return self._submit(stage, {"loc_id": loc_id})

    def issue(self, loc_id: str) -> str:
        """The bank vouches for the buyer."""
        return self._advance("issue", loc_id)

    def ship(self, loc_id: str) -> str:
        """The seller ships against the issued letter."""
        return self._advance("ship", loc_id)

    def pay(self, loc_id: str) -> str:
        """Settlement (by the bank if the buyer defaults)."""
        return self._advance("pay", loc_id)

    def status_of(self, loc_id: str, viewer: str) -> str:
        """Read the LoC status from *viewer*'s own replica."""
        self._require_setup()
        key = f"loc/{loc_id}"
        if self.network.platform_name == "fabric":
            channel = self.network.channel(self.placement.channel)
            return channel.state_of(viewer).get(key)["status"]
        if self.network.platform_name == "corda":
            vault = self.network.vault(viewer)
            return vault.state_at(self._tips[loc_id]).data["status"]
        return self.network.private_states[viewer].get(key)["status"]

    def _pii_stores(self) -> list:
        """Every store holding a copy of the PII."""
        if self.placement.pii == PDC:
            channel = self.network.channel(self.placement.channel)
            return list(channel.collection(PII_COLLECTION).stores.values())
        if self.placement.pii == EXTERNAL_STORE:
            return [self.pii_store]
        raise PlatformError(PII_REFUSED)

    def erase_pii(self, loc_id: str) -> None:
        """GDPR erasure: delete the passport record from every store."""
        self._require_setup()
        for store in self._pii_stores():
            if not store.is_deleted(f"passport/{loc_id}"):
                store.delete(
                    f"passport/{loc_id}", reason=ERASURE_REASON,
                    now=self.network.clock.now,
                )
        self.telemetry.emit("loc.pii_erased", loc_id=loc_id)

    def pii_is_erased(self, loc_id: str) -> bool:
        return all(
            store.is_deleted(f"passport/{loc_id}") for store in self._pii_stores()
        )

    def run_full_lifecycle(self, loc_id: str = "LC-001") -> LetterOfCredit:
        """Apply -> issue -> ship -> pay, returning the final object.

        The application carries a passport wherever the platform can
        erase it; on Quorum, which cannot, it carries none.
        """
        passport = None if self.placement.pii is None else "P-99887766"
        with self.telemetry.span("loc.lifecycle", loc_id=loc_id):
            loc = self.apply_for_credit(loc_id, 250_000, buyer_passport=passport)
            self.issue(loc_id)
            self.ship(loc_id)
            loc.status = self.pay(loc_id)
        return loc
