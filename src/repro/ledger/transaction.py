"""Transactions.

The neutral transaction model shared by every platform simulation.  A
transaction carries a read set, a write set, signer endorsements, and
optional privacy annotations (hash anchors for off-chain data, encrypted
payloads, torn-off component digests).  Platform modules wrap or extend
this with their own semantics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

from repro.common.ids import content_id
from repro.common.serialization import canonical_bytes
from repro.crypto.hashing import hash_hex
from repro.crypto.signatures import Signature


@dataclass(frozen=True)
class ReadEntry:
    """A key read at a specific committed version (for MVCC validation)."""

    key: str
    version: int


@dataclass(frozen=True)
class WriteEntry:
    """A key/value write.  ``is_delete`` tombstones the key."""

    key: str
    value: Any = None
    is_delete: bool = False


def write_set(
    writes: Mapping[str, Any], deletes: Iterable[str]
) -> tuple[WriteEntry, ...]:
    """The write set of one contract execution: puts, then deletes, by key."""
    return tuple(
        [WriteEntry(key=k, value=v) for k, v in sorted(writes.items())]
        + [WriteEntry(key=k, is_delete=True) for k in sorted(deletes)]
    )


@dataclass(frozen=True)
class Endorsement:
    """One signer's approval of the transaction's canonical content."""

    endorser: str
    signature: Signature


@dataclass(frozen=True)
class Transaction:
    """A proposed ledger update.

    ``channel`` scopes the transaction to a ledger (platform-dependent
    meaning: Fabric channel, Corda transaction universe, Quorum chain).
    ``private_hashes`` maps labels to hex digests anchoring off-chain or
    torn-off data.  ``metadata`` carries platform extensions (e.g. the
    Quorum participant list — which is itself a privacy leak the paper
    calls out, so it lives in plain sight here deliberately).
    """

    channel: str
    submitter: str
    reads: tuple[ReadEntry, ...] = ()
    writes: tuple[WriteEntry, ...] = ()
    endorsements: tuple[Endorsement, ...] = ()
    private_hashes: dict = field(default_factory=dict)
    metadata: dict = field(default_factory=dict)
    timestamp: float = 0.0

    def core_content(self) -> dict:
        """The signed/endorsed portion (everything except endorsements)."""
        return {
            "channel": self.channel,
            "submitter": self.submitter,
            "reads": [r.__dict__ for r in self.reads],
            "writes": [w.__dict__ for w in self.writes],
            "private_hashes": self.private_hashes,
            "metadata": self.metadata,
            "timestamp": self.timestamp,
        }

    def signing_bytes(self) -> bytes:
        """Canonical bytes an endorser signs."""
        return canonical_bytes(self.core_content())

    @property
    def tx_id(self) -> str:
        return content_id("tx", self.core_content())

    def with_endorsements(self, endorsements: list[Endorsement]) -> "Transaction":
        """Return a copy carrying the given endorsements."""
        return Transaction(
            channel=self.channel,
            submitter=self.submitter,
            reads=self.reads,
            writes=self.writes,
            endorsements=tuple(endorsements),
            private_hashes=dict(self.private_hashes),
            metadata=dict(self.metadata),
            timestamp=self.timestamp,
        )

    def content_hash(self) -> str:
        """Hex digest of the endorsed content (used for hash-only records)."""
        return hash_hex("repro/tx", self.core_content())
