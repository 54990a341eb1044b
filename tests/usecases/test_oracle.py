"""Oracle attestation with tear-offs on Corda."""

from __future__ import annotations

import pytest

from repro.common.errors import ValidationError
from repro.crypto.signatures import Signature
from repro.platforms.corda.oracle import OracleAttestation
from repro.usecases.oracle_attestation import OracleTradeWorkflow


@pytest.fixture(scope="module")
def workflow():
    wf = OracleTradeWorkflow()
    wf.setup()
    return wf


class TestOracleTrade:
    def test_trade_executes_with_attestation(self, workflow):
        trade = workflow.execute_trade("EUR/USD", 1.0842, 1_000_000)
        stx = trade.flow.stx
        assert workflow.network.scheme.verify(
            workflow.oracle.key.public,
            stx.wire.signing_payload(),
            stx.signatures[workflow.ORACLE_NAME],
        )
        assert trade.flow.receipt is not None

    def test_oracle_never_sees_notional(self, workflow):
        trade = workflow.execute_trade("EUR/USD", 1.0842, 9_999_999)
        assert not trade.oracle_saw_notional
        assert "notional" not in workflow.oracle.observer.seen_data_keys

    def test_partial_disclosure(self, workflow):
        trade = workflow.execute_trade("EUR/USD", 1.0842, 500)
        assert 0.0 < trade.disclosure_ratio < 1.0

    def test_wrong_rate_rejected_by_oracle(self, workflow):
        with pytest.raises(ValidationError, match="oracle says"):
            workflow.execute_trade("EUR/USD", 9.99, 500)

    def test_unknown_pair_rejected(self, workflow):
        with pytest.raises(ValidationError):
            workflow.execute_trade("XXX/YYY", 1.0, 500)

    def test_oracle_signature_included_in_final_transaction(self, workflow):
        trade = workflow.execute_trade("EUR/USD", 1.0842, 123)
        assert workflow.ORACLE_NAME in trade.flow.stx.signatures

    def test_both_parties_record_trade(self, workflow):
        trade = workflow.execute_trade("EUR/USD", 1.0842, 777)
        tx_id = trade.flow.stx.wire.tx_id
        for party in workflow.PARTIES:
            assert workflow.network.vault(party).knows_transaction(tx_id)

    def test_bogus_oracle_signature_refused_before_notarisation(self):
        wf = OracleTradeWorkflow()
        wf.setup()
        attested: list[str] = []

        def forged_attest(ftx, fact_name):
            attested.append(ftx.tx_id)
            return OracleAttestation(
                tx_id=ftx.tx_id, oracle=wf.ORACLE_NAME, fact_name=fact_name,
                signature=Signature(1, 2),
            )

        wf.oracle.attest = forged_attest
        notarised = wf.network.notary.total_notarised
        with pytest.raises(ValidationError, match="signature"):
            wf.execute_trade("EUR/USD", 1.0842, 1_000)
        (tx_id,) = attested
        for party in wf.PARTIES:
            assert not wf.network.vault(party).knows_transaction(tx_id)
        assert wf.network.notary.total_notarised == notarised

    def test_setup_required(self):
        wf = OracleTradeWorkflow()
        with pytest.raises(RuntimeError, match="setup"):
            wf.execute_trade("EUR/USD", 1.0842, 1)
