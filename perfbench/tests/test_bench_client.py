"""The closed-loop client resubmits transient refusals and counts the rest."""

from types import SimpleNamespace

from repro.platforms.base import TxReceipt, TxRequest

import workloads


class FlakyPlatform:
    """Times out the requests in ``flaky`` a given number of times each."""

    platform_name = "stub"

    def __init__(self, flaky: dict[int, int]) -> None:
        self.clock = SimpleNamespace(now=0.0)
        self.flaky = dict(flaky)
        self.batches: list[list[int]] = []
        self.events: list[str] = []

    def submit_many(self, requests):
        self.batches.append([r.metadata["index"] for r in requests])
        receipts = []
        for request in requests:
            index = request.metadata["index"]
            timed_out = self.flaky.get(index, 0) > 0
            if timed_out:
                self.flaky[index] -= 1
            receipts.append(TxReceipt(
                request=request, platform=self.platform_name, tx_id=None,
                committed=not timed_out,
                status="rejected:DeliveryTimeout" if timed_out else "committed",
                submitted_at=0.0, committed_at=None if timed_out else 0.0,
            ))
        return receipts

    def checkpoint_node(self, name):
        self.events.append("checkpoint")

    def crash(self, name):
        self.events.append("crash")

    def recover(self, name):
        self.events.append("recover")


def _drive(flaky: dict[int, int], outage: bool = True):
    platform = FlakyPlatform(flaky)
    requests = [
        TxRequest(submitter="OrgA", contract_id="c", function="f",
                  metadata={"index": index})
        for index in range(30)
    ]
    scenario = SimpleNamespace(platform=platform, requests=requests)
    return workloads.drive_all({"stub": scenario}, outage)["stub"], platform


def test_timed_out_request_is_resubmitted_in_the_next_batch():
    run, platform = _drive({3: 1})
    assert (run.committed, run.failed, run.timed_out) == (30, 0, 1)
    assert platform.batches[1][0] == 3
    assert len(run.batch_ms_per_tx) == len(platform.batches) == 2
    assert platform.events == ["checkpoint", "crash", "recover"]


def test_a_request_that_keeps_timing_out_fails():
    run, __ = _drive({5: workloads.MAX_RESUBMITS + 1})
    assert run.timed_out == workloads.MAX_RESUBMITS
    assert (run.committed, run.failed) == (29, 1)
    assert run.problems == ["stub: f by OrgA ended rejected:DeliveryTimeout"]


def test_clean_workloads_do_not_resubmit():
    run, __ = _drive({3: 1}, outage=False)
    assert (run.committed, run.failed, run.timed_out) == (29, 1, 0)
