"""Oracle attestation with Merkle tear-offs on Corda.

Section 5: "A common scenario for this is when an oracle is needed to
attest to a certain piece of data in a transaction, but the transaction
participants do not want all the components of the transaction visible to
the oracle."

The workflow: two parties agree an FX trade whose rate must be attested by
an oracle.  The oracle receives a filtered transaction exposing only the
rate command — the notional and counterparty details stay torn off — and
its signature over the Merkle root is valid for the complete transaction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.errors import ValidationError
from repro.platforms.corda import (
    Command,
    ComponentGroup,
    ContractState,
    CordaNetwork,
    FlowResult,
    Oracle,
)


@dataclass
class AttestedTrade:
    """The finalized trade plus what the oracle could and could not see."""

    flow: FlowResult
    oracle_saw_notional: bool
    disclosure_ratio: float


@dataclass
class OracleTradeWorkflow:
    """FX trade between two parties with a rate oracle."""

    network: CordaNetwork = field(default_factory=lambda: CordaNetwork(seed="oracle"))
    rates: dict[str, float] = field(default_factory=lambda: {"EUR/USD": 1.0842})
    _initialized: bool = False

    PARTIES = ("AlphaBank", "BetaFund")
    ORACLE_NAME = "fx-oracle"
    CONTRACT_ID = "fx-trade"

    def setup(self) -> None:
        for org in self.PARTIES:
            self.network.onboard(org)
        self.oracle = Oracle(self.ORACLE_NAME, self.network.scheme, self.rates)

        def verify(wire):
            for state in wire.outputs:
                if state.contract_id == self.CONTRACT_ID:
                    if state.data.get("notional", 0) <= 0:
                        raise ValidationError("notional must be positive")

        self.network.register_contract(self.CONTRACT_ID, verify, language="kotlin")
        self._initialized = True

    def execute_trade(
        self, pair: str, rate: float, notional: int
    ) -> AttestedTrade:
        """Build, attest (torn off), sign, notarise, and record the trade."""
        if not self._initialized:
            raise RuntimeError("call setup() first")
        alpha, beta = self.PARTIES
        state = ContractState(
            contract_id=self.CONTRACT_ID,
            participants=self.PARTIES,
            data={"pair": pair, "rate": rate, "notional": notional},
        )
        wire = self.network.build_transaction(
            inputs=[],
            outputs=[state],
            commands=[
                Command(name="Trade", signers=self.PARTIES),
                Command(
                    name="RateAttestation",
                    signers=(self.ORACLE_NAME,),
                    payload={"fact": pair, "value": rate},
                ),
            ],
        )
        # Tear off everything except the rate command (and the notary).
        filtered = wire.filtered([ComponentGroup.COMMANDS, ComponentGroup.NOTARY])
        attestation = self.oracle.attest(filtered, pair)
        oracle_saw_notional = "notional" in {
            key
            for component in filtered.visible_components()
            if isinstance(component, dict) and component.get("group") == "outputs"
            for key in component.get("data", {})
        }
        # run_flow leaves the oracle's pseudonymous label unverified, so the
        # attestation is checked here, before anything is notarised.
        if not self.network.scheme.verify(
            self.oracle.key.public, wire.signing_payload(), attestation.signature
        ):
            raise ValidationError(f"oracle {self.ORACLE_NAME!r} signature is invalid")
        flow = self.network.run_flow(
            alpha, wire,
            extra_signatures={self.ORACLE_NAME: attestation.signature},
        )
        return AttestedTrade(
            flow=flow,
            oracle_saw_notional=oracle_saw_notional,
            disclosure_ratio=filtered.tear_off.disclosure_ratio(),
        )
