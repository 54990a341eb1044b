#!/usr/bin/env python3
"""Merkle tree tear-offs: an oracle attests a rate it can see inside a
transaction it mostly cannot (the paper's Section 5 Corda scenario).

AlphaBank and BetaFund trade EUR 5M at a rate the fx-oracle must vouch
for.  The oracle receives a FilteredTransaction exposing only the rate
command; the notional and the output state are torn off.  Its signature
over the Merkle root is nevertheless valid for the full transaction.
"""

from repro.usecases.oracle_attestation import OracleTradeWorkflow


def main() -> None:
    workflow = OracleTradeWorkflow()
    workflow.setup()

    trade = workflow.execute_trade("EUR/USD", 1.0842, notional=5_000_000)

    wire = trade.flow.stx.wire
    print(f"trade finalized: {wire.tx_id}")
    print(f"signers: {sorted(trade.flow.stx.signatures)}")
    print(f"notarised by: {trade.flow.receipt.notary}")
    print()
    print("what the oracle could see:")
    print(f"  disclosure ratio: {trade.disclosure_ratio:.0%} of components")
    print(f"  saw the notional? {trade.oracle_saw_notional}")
    valid = workflow.network.scheme.verify(
        workflow.oracle.key.public, wire.signing_payload(),
        trade.flow.stx.signatures[workflow.ORACLE_NAME],
    )
    print(f"  signature valid for the FULL transaction? {valid}")
    print()
    print("and the non-validating notary's accumulated knowledge:")
    print(f"  {workflow.network.notary.knowledge()}")

    print()
    print("a lying initiator is caught:")
    try:
        workflow.execute_trade("EUR/USD", 1.2000, notional=100)
    except Exception as exc:
        print(f"  oracle refused: {exc}")


if __name__ == "__main__":
    main()
