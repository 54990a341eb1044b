"""Memory retained per committed transaction on a sustained trade run.

Nothing on the driver path steps the network, so every envelope sent stays
queued and every span stays held until the run ends: what a transaction
leaves behind adds up over the run.  Each platform drives
:data:`TRADES` trades from ``trade_scenario`` through ``submit_many`` in
batches of :data:`BATCH` under tracemalloc, and the bytes still allocated
afterwards, per committed transaction, must stay under a fixed bound.

The bounds are the figures measured with slotted envelopes and spans,
shared empty frozensets and one exposure per Fabric fan-out (Fabric about
7.0 KB/tx, Corda 6.2, Quorum 7.8), plus about 25% headroom.  Fabric
retained about 10.5 KB/tx before that compaction, above its bound.
"""

from __future__ import annotations

import gc
import tracemalloc

import pytest

from repro.driver import trade_scenario

TRADES = 150
BATCH = 20

#: Retained bytes per committed transaction, per platform.
BOUND = {"fabric": 8750, "corda": 7750, "quorum": 9750}


def retained_bytes_per_tx(platform_name: str) -> float:
    scenario = trade_scenario(
        platform_name, TRADES, confidential_fraction=0.5, seed="retention"
    )
    platform, requests = scenario.platform, scenario.requests
    committed = 0
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for start in range(0, len(requests), BATCH):
            receipts = platform.submit_many(requests[start:start + BATCH])
            committed += sum(receipt.committed for receipt in receipts)
        gc.collect()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert committed == TRADES
    return (after - before) / committed


@pytest.mark.parametrize("platform_name", sorted(BOUND))
def test_retained_bytes_per_committed_tx_stay_bounded(platform_name):
    assert retained_bytes_per_tx(platform_name) < BOUND[platform_name]
