"""The cross-platform workload driver: batching, metrics, reports."""

from __future__ import annotations

import pytest

from repro.driver import (
    BENCH_ORGS,
    Driver,
    DriverConfig,
    build_scenario,
    kv_scenario,
    loc_scenario,
    trade_scenario,
)
from repro.ledger.state import WorldState
from repro.platforms.base import TxRequest


class TestConfig:
    def test_rejects_zero_batch(self):
        with pytest.raises(ValueError):
            DriverConfig(batch_size=0)

    def test_defaults_are_drip_feed_with_forced_cuts(self):
        config = DriverConfig()
        assert config.batch_size == 1
        assert config.force_cut is True


class TestRun:
    def test_all_requests_get_receipts_in_order(self):
        scenario = kv_scenario("fabric", 7, seed="driver")
        report = Driver(scenario.platform, DriverConfig(batch_size=3)).run(
            scenario.requests
        )
        assert report.operations == 7
        assert [r.request for r in report.receipts] == scenario.requests

    def test_failures_do_not_stop_the_run(self):
        scenario = kv_scenario("quorum", 2, seed="driver-fail")
        bad = TxRequest(submitter="OrgA", contract_id="kv-store",
                        function="missing", args={})
        report = Driver(scenario.platform, DriverConfig(batch_size=3)).run(
            [scenario.requests[0], bad, scenario.requests[1]]
        )
        assert report.operations == 3
        assert report.committed == 2
        assert report.failed == 1
        assert report.status_counts()["rejected:ContractError"] == 1

    def test_emits_driver_metrics(self):
        scenario = kv_scenario("corda", 5, seed="driver-metrics")
        Driver(scenario.platform, DriverConfig(batch_size=2)).run(
            scenario.requests
        )
        snapshot = scenario.platform.telemetry.metrics.snapshot()
        assert snapshot["counters"]["driver.submitted"] == 5
        assert snapshot["counters"]["driver.committed"] == 5
        assert snapshot["histograms"]["driver.batch_size"]["count"] == 3
        assert snapshot["histograms"]["driver.latency"]["count"] == 5
        assert snapshot["gauges"]["driver.last_throughput_tps"] > 0

    def test_run_span_wraps_submissions(self):
        scenario = kv_scenario("fabric", 2, seed="driver-span")
        Driver(scenario.platform).run(scenario.requests)
        spans = scenario.platform.telemetry.tracer.spans
        names = [span.name for span in spans]
        assert "driver.run" in names
        run_span = next(s for s in spans if s.name == "driver.run")
        assert run_span.attributes["operations"] == 2
        assert run_span.attributes["platform"] == "fabric"

    def test_batching_outpaces_drip_feed_on_fabric(self):
        """The orderer's cutting policy rewards full in-flight batches."""
        drip = kv_scenario("fabric", 40, seed="driver-tp")
        batched = kv_scenario("fabric", 40, seed="driver-tp")
        drip_report = Driver(
            drip.platform, DriverConfig(batch_size=1, force_cut=False)
        ).run(drip.requests)
        batched_report = Driver(
            batched.platform, DriverConfig(batch_size=40, force_cut=False)
        ).run(batched.requests)
        assert drip_report.committed == batched_report.committed == 40
        assert (
            batched_report.throughput_tps >= 2 * drip_report.throughput_tps
        )

    def test_deterministic_across_runs(self):
        reports = []
        for __ in range(2):
            scenario = trade_scenario("quorum", 6, seed="driver-det")
            reports.append(
                Driver(scenario.platform, DriverConfig(batch_size=2)).run(
                    scenario.requests
                ).to_dict()
            )
        assert reports[0] == reports[1]


class TestReport:
    def test_to_dict_round_trips_key_figures(self):
        scenario = loc_scenario("corda", 4, seed="driver-report")
        report = Driver(scenario.platform, DriverConfig(batch_size=5)).run(
            scenario.requests
        )
        payload = report.to_dict()
        assert payload["operations"] == report.operations
        assert payload["committed"] == report.committed
        assert payload["platform"] == "corda"
        assert set(payload["cache_stats"]) == {
            "signature_verify", "certificate_chain",
        }

    def test_render_text_mentions_caches_and_throughput(self):
        scenario = loc_scenario("fabric", 4, seed="driver-render")
        report = Driver(scenario.platform, DriverConfig(batch_size=5)).run(
            scenario.requests
        )
        text = report.render_text()
        assert "throughput" in text
        assert "signature_verify" in text
        assert "certificate_chain" in text


class TestScenarios:
    @pytest.mark.parametrize("platform_name", ("fabric", "corda", "quorum"))
    @pytest.mark.parametrize("workload", ("kv", "trades", "loc"))
    def test_every_pair_compiles_and_commits(self, platform_name, workload):
        scenario = build_scenario(platform_name, workload, 3, seed="matrix")
        report = Driver(scenario.platform, DriverConfig(batch_size=4)).run(
            scenario.requests
        )
        assert report.operations == len(scenario.requests) > 0
        assert report.failed == 0

    def test_same_seed_same_requests(self):
        a = build_scenario("fabric", "trades", 5, seed="stable")
        b = build_scenario("fabric", "trades", 5, seed="stable")
        assert a.requests == b.requests

    def test_bench_orgs_cover_the_audit_cast(self):
        assert set(("OrgA", "OrgB", "OrgC", "OrgD", "OrgE")) == set(BENCH_ORGS)

    @pytest.mark.parametrize("platform_name", ("fabric", "quorum"))
    def test_execution_never_copies_world_state(
        self, monkeypatch, platform_name
    ):
        """Contracts read the live replica through a view: per-tx cost must
        not include copying a state that grows with the ledger."""
        scenario = trade_scenario(platform_name, 12, seed="no-copy")
        calls = []
        original = WorldState.snapshot

        def counting_snapshot(state):
            calls.append(len(state))
            return original(state)

        monkeypatch.setattr(WorldState, "snapshot", counting_snapshot)
        receipts = scenario.platform.submit_many(scenario.requests)
        assert all(receipt.committed for receipt in receipts)
        assert calls == []
