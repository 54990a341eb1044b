"""Network message model.

Everything that crosses the simulated wire is a :class:`Message` envelope.
Privacy analysis is message-centric: the leakage auditor inspects exactly
what each principal received or could observe, so envelopes carry explicit
metadata about the identities and data classes they expose.

An undelivered envelope stays queued until the network is stepped, so
both records are kept small: they are slotted (no per-instance
``__dict__``), every empty field of an :class:`Exposure` is the one
shared :data:`_EMPTY` frozenset, and a sender that fans one transaction
out to many recipients passes the same :class:`Exposure` object to every
send.
"""

from __future__ import annotations

from dataclasses import dataclass

#: The one empty frozenset every empty :class:`Exposure` field points at.
_EMPTY: frozenset[str] = frozenset()


@dataclass(frozen=True, slots=True)
class Exposure:
    """What a message reveals to whoever can read it.

    - ``identities``: party names visible in the clear.
    - ``data_keys``: business-data identifiers visible in the clear.
    - ``code_ids``: smart-contract identifiers whose logic is visible.

    Encrypted payloads contribute nothing here; that is the point of
    encrypting them.
    """

    identities: frozenset[str] = _EMPTY
    data_keys: frozenset[str] = _EMPTY
    code_ids: frozenset[str] = _EMPTY

    @classmethod
    def of(
        cls,
        identities: set[str] | list[str] = (),
        data_keys: set[str] | list[str] = (),
        code_ids: set[str] | list[str] = (),
    ) -> "Exposure":
        return cls(
            identities=frozenset(identities) if identities else _EMPTY,
            data_keys=frozenset(data_keys) if data_keys else _EMPTY,
            code_ids=frozenset(code_ids) if code_ids else _EMPTY,
        )

    def merge(self, other: "Exposure") -> "Exposure":
        return Exposure(
            identities=self.identities | other.identities,
            data_keys=self.data_keys | other.data_keys,
            code_ids=self.code_ids | other.code_ids,
        )

    def is_empty(self) -> bool:
        return not (self.identities or self.data_keys or self.code_ids)


@dataclass(frozen=True, slots=True, weakref_slot=True)
class Message:
    """The envelope of one unit of simulated network traffic.

    ``SimNetwork.send`` only sizes the payload (``size_bytes``) and keeps
    nothing else of it.  ``message_id`` numbers sends per network.  The
    weakref slot keeps an envelope weakly referenceable, which is how the
    retention tests check that a delivered one can be collected.

    ``trace`` carries the sender's telemetry trace context —
    ``(trace_id, span_id)`` — across the wire, the way real systems put
    W3C traceparent headers on RPCs.  It holds opaque sequence-number
    ids only (never payload-derived data), so propagation adds no
    exposure: the leakage auditor ignores it and the telemetry
    cross-check test verifies it reveals nothing.

    ``dedup_key`` makes delivery idempotent at the application layer:
    two messages carrying the same key are applied at most once by the
    recipient (the second is acknowledged but not recorded again).
    Retransmissions from ``send_with_retry`` and replayed catch-up
    blocks both rely on it.  Like ``trace`` it is an opaque label, never
    payload-derived data, so it widens no observer's knowledge.
    """

    sender: str
    recipient: str
    kind: str
    message_id: int
    exposure: Exposure = Exposure()
    size_bytes: int = 0
    sent_at: float = 0.0
    trace: tuple[str, str] | None = None
    dedup_key: str | None = None
