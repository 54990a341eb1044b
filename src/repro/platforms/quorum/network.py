"""The Quorum simulation.

Section 5: "Its key differentiator is the ability to store private state
separate from the public ledger...  One key limitation of the private
transaction model in Quorum is that it does not prevent the double
spending of assets...  Another major drawback of Quorum is that the public
ledger includes private transactions, including the list of participants
of the transaction, revealing to the entire network which parties are
interacting."

Both documented weaknesses are reproduced faithfully and demonstrated by
dedicated methods: :meth:`demonstrate_private_double_spend` succeeds (the
flaw), while the same spend on public state is rejected; and every private
transaction broadcast exposes its participant list to all nodes (checked
by the leakage audit).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import (
    ContractError,
    DeliveryError,
    DoubleSpendError,
    MembershipError,
    OrderingError,
    PlatformError,
    PrivacyError,
    ValidationError,
)
from repro.core.mechanisms import Mechanism
from repro.crypto.hashing import hash_hex
from repro.crypto.symmetric import SymmetricKey
from repro.execution.contracts import SmartContract, StateView
from repro.ledger.block import Chain
from repro.ledger.ordering import OrdererVisibility, OrderingService
from repro.ledger.state import WorldState
from repro.ledger.transaction import Transaction, WriteEntry, write_set
from repro.ledger.validation import apply_write_set, apply_writes
from repro.network.messages import Exposure
from repro.platforms.base import (
    Platform,
    ProbeResult,
    SupportLevel,
    TxReceipt,
    TxRequest,
)
from repro.platforms.quorum.txmanager import PrivateTransactionManager
from repro.recovery.catchup import catchup_dedup_key, pick_provider, ship

SEQUENCER_NODE = "quorum-consensus"


@dataclass
class PendingRedelivery:
    """A private payload owed to a currently unreachable participant."""

    sender: str
    participant: str
    payload_hash: str
    position: int
    participants: tuple[str, ...]


@dataclass
class QuorumTxResult:
    """Outcome of one (public or private) transaction."""

    tx: Transaction
    payload_hash: str | None
    participants: list[str]
    return_values: dict[str, object]


class QuorumNetwork(Platform):
    """A Quorum network: shared public chain, per-node private state."""

    platform_name = "quorum"

    def __init__(
        self,
        seed: str = "quorum",
        consensus_operator: str = "member",
        resilient_delivery: bool = False,
    ) -> None:
        super().__init__(seed=seed, resilient_delivery=resilient_delivery)
        self.network.add_node(SEQUENCER_NODE)
        self.chain = Chain("quorum-public")
        self.public_states: dict[str, WorldState] = {}
        self.private_states: dict[str, WorldState] = {}
        self.managers: dict[str, PrivateTransactionManager] = {}
        self.contracts: dict[str, SmartContract] = {}
        self.contract_hosts: dict[str, set[str]] = {}
        # Recovery bookkeeping: which chain positions each node has
        # applied privately (idempotence guard for redelivery/replay),
        # the per-node public watermark, and payloads owed to peers that
        # were unreachable when their transaction committed.
        self._applied_private: dict[str, set[int]] = {}
        self._applied_upto: dict[str, int] = {}
        self._redelivery_queue: list[PendingRedelivery] = []
        self.consensus_operator = consensus_operator
        self.sequencer = OrderingService(
            SEQUENCER_NODE,
            self.clock,
            visibility=OrdererVisibility.FULL,
            operator=consensus_operator,
            telemetry=self.telemetry,
        )

    # -- membership

    def onboard(self, name: str, attributes: dict | None = None):
        party = super().onboard(name, attributes=attributes)
        self.public_states[name] = WorldState()
        self.private_states[name] = WorldState()
        self.managers[name] = PrivateTransactionManager(
            name, rng=self.rng.fork("tm:" + name)
        )
        self._applied_private[name] = set()
        self._applied_upto[name] = 0
        if self.consensus_operator == "member" and len(self.parties) == 1:
            # First onboarded member operates consensus in this deployment.
            self.sequencer.operator = name
        return party

    # -- fault injection

    def inject_faults(self, plan) -> None:
        super().inject_faults(plan)
        self.sequencer.fault_plan = plan

    def crash_ordering(self) -> None:
        """Take the consensus/sequencing layer down."""
        self.sequencer.crash()

    def recover_ordering(self) -> None:
        self.sequencer.recover()

    def _require_sequencer(self) -> None:
        # Checked before any state mutation so a failed transaction can be
        # retried after recovery without double-applying its writes.
        if not self.sequencer.available():
            raise OrderingError(f"consensus layer {SEQUENCER_NODE!r} is down")

    # -- contract deployment

    def deploy_contract(
        self,
        deployer: str,
        contract: SmartContract,
        private_for: list[str] | None = None,
    ) -> None:
        """Deploy a contract publicly or privately.

        Private deployment distributes the code only to ``private_for``
        (plus the deployer); other nodes never see the bytecode — Quorum's
        native 'install on involved nodes' equivalent.  A contract id is
        deployed once, like an EVM contract address, so the nodes hosting
        a contract never shrink and replaying a private transaction finds
        the code on every participant that applied it.
        """
        if deployer not in self.parties:
            raise MembershipError(f"{deployer!r} is not onboarded")
        if contract.language != "evm-solidity":
            raise ContractError("Quorum contracts must target the EVM")
        if contract.contract_id in self.contracts:
            raise ContractError(
                f"contract {contract.contract_id!r} is already deployed"
            )
        self.contracts[contract.contract_id] = contract
        if private_for is None:
            self.contract_hosts[contract.contract_id] = set(self.parties)
        else:
            hosts = set(private_for) | {deployer}
            unknown = hosts - set(self.parties)
            if unknown:
                raise MembershipError(f"unknown parties {sorted(unknown)}")
            self.contract_hosts[contract.contract_id] = hosts

    def code_visible_to(self, contract_id: str) -> set[str]:
        if contract_id not in self.contract_hosts:
            raise ContractError(f"unknown contract {contract_id!r}")
        return set(self.contract_hosts[contract_id])

    # -- transaction paths

    def _reachable(self, sender: str, target: str) -> bool:
        return not (
            self.network.is_crashed(target)
            or self.network.is_partitioned(sender, target)
        )

    def _broadcast_targets(self, sender: str) -> list[str]:
        """Nodes a broadcast from *sender* can reach right now.

        A crashed or partitioned peer simply misses the gossip (it would
        be dropped at delivery anyway) — it does not veto everyone
        else's transaction.
        """
        return [
            node
            for node in self.network.nodes()
            if node != sender and self._reachable(sender, node)
        ]

    def _live_parties(self) -> list[str]:
        return [
            node for node in sorted(self.parties)
            if not self.network.is_crashed(node)
        ]

    def _mark_applied(self, nodes: list[str], position: int) -> None:
        for node in nodes:
            if position > self._applied_upto.get(node, 0):
                self._applied_upto[node] = position

    def _apply_private(
        self, node: str, position: int, payload_hash: str
    ) -> tuple[object, bool]:
        """Resolve + execute one private payload on *node*, at most once.

        The chain position (not the payload hash, which repeats for
        byte-identical payloads) is the idempotence key, so replayed
        catch-up blocks and queued redeliveries never double-apply.
        """
        applied = self._applied_private.setdefault(node, set())
        if position in applied:
            return None, False
        resolved = self.managers[node].resolve(payload_hash)
        value, __ = self._execute(
            node,
            resolved["contract"],
            resolved["function"],
            resolved["args"],
            self.private_states[node],
        )
        applied.add(position)
        return value, True

    def _execute(
        self,
        node: str,
        contract_id: str,
        function: str,
        args: dict,
        state: WorldState,
    ):
        contract = self.contracts[contract_id]
        if node not in self.contract_hosts[contract_id]:
            raise PrivacyError(f"{node!r} has no code for {contract_id!r}")
        view = StateView(state)
        value = contract.invoke(function, view, args)
        apply_write_set(write_set(view.writes, view.deletes), state)
        return value, view

    def send_public_transaction(
        self, sender: str, contract_id: str, function: str, args: dict
    ) -> QuorumTxResult:
        """A normal Ethereum-style transaction: everyone sees everything."""
        if sender not in self.parties:
            raise MembershipError(f"{sender!r} is not onboarded")
        self.authenticate(sender)
        if self.network.is_crashed(sender):
            raise DeliveryError(f"node {sender!r} is down")
        self._require_sequencer()
        with self.telemetry.span(
            "quorum.public_tx", sender=sender, contract=contract_id
        ):
            # A crashed node misses the block; catch-up replays it later.
            live = self._live_parties()
            return_values = {}
            view = None
            with self.telemetry.span(
                "quorum.execute", nodes=len(live)
            ):
                for node in live:
                    value, view = self._execute(
                        node, contract_id, function, args, self.public_states[node]
                    )
                    return_values[node] = value
            writes = tuple(
                WriteEntry(key=k, value=v) for k, v in sorted(view.writes.items())
            )
            tx = Transaction(
                channel="quorum-public",
                submitter=sender,
                writes=writes,
                metadata={"kind": "public", "participants": sorted(self.parties)},
                timestamp=self.clock.now,
            )
            exposure = Exposure.of(
                identities={sender},
                data_keys=set(view.writes) | set(view.reads),
                code_ids={contract_id},
            )
            with self.telemetry.span("quorum.order"):
                self.network.broadcast(
                    sender, "public-tx", {"tx_id": tx.tx_id}, exposure=exposure,
                    recipients=self._broadcast_targets(sender),
                )
                self.sequencer.submit(tx)
                self.sequencer.cut_batch("quorum-public", force=True)
                self.chain.append([tx], self.clock.now)
            self._mark_applied(live, self.chain.height)
        return QuorumTxResult(
            tx=tx, payload_hash=None,
            participants=sorted(self.parties), return_values=return_values,
        )

    def send_private_transaction(
        self,
        sender: str,
        contract_id: str,
        function: str,
        args: dict,
        private_for: list[str],
    ) -> QuorumTxResult:
        """A private transaction: payload to participants, hash to everyone.

        Faithful to the paper's two leaks: (1) the broadcast carries the
        participant list in the clear; (2) there is no cross-group double
        spend check because non-participants cannot validate.

        Unreachable recipients: with ``resilient_delivery`` the
        transaction proceeds for the reachable participants and the
        payload is queued for redelivery-until-available
        (:meth:`redeliver_pending`); without it, the transaction fails
        fast with a typed refusal *before* any state mutation, so a
        retry after heal cannot double-apply.
        """
        if sender not in self.parties:
            raise MembershipError(f"{sender!r} is not onboarded")
        self.authenticate(sender)
        if self.network.is_crashed(sender):
            raise DeliveryError(f"node {sender!r} is down")
        self._require_sequencer()
        participants = sorted(set(private_for) | {sender})
        recipients = [p for p in participants if p != sender]
        unavailable = [
            p for p in recipients if not self._reachable(sender, p)
        ]
        if unavailable and not self.resilient_delivery:
            # Surface the same refusal a direct send would raise.
            self.network._check_link(sender, unavailable[0])
            raise DeliveryError(f"node {unavailable[0]!r} is unreachable")
        with self.telemetry.span(
            "quorum.private_tx",
            sender=sender,
            contract=contract_id,
            participants=len(participants),
        ):
            payload = {"contract": contract_id, "function": function, "args": args}
            # The encrypted payload crosses the wire once per reachable
            # recipient; the ciphertext itself exposes nothing (empty
            # exposure).  These sends precede every private-state
            # mutation (distribution itself is idempotent).
            with self.telemetry.span("quorum.distribute"):
                payload_hash = self.managers[sender].distribute(
                    payload, participants, self.managers,
                    skip=tuple(unavailable),
                )
                self.telemetry.metrics.counter(
                    "crypto.ops", mechanism="private-payload-encryption"
                ).inc(len(participants) - 1 - len(unavailable))
                for participant in recipients:
                    if participant not in unavailable:
                        self.send_critical(
                            sender, participant, "private-payload",
                            {"hash": payload_hash}, exposure=Exposure(),
                        )
            # Participants resolve the payload and update their private
            # state.  The transaction will land at the next chain height;
            # applying under that position makes replay idempotent.
            position = self.chain.height + 1
            return_values = {}
            with self.telemetry.span(
                "quorum.execute", nodes=len(participants) - len(unavailable)
            ):
                for participant in participants:
                    if participant in unavailable:
                        continue
                    value, __ = self._apply_private(
                        participant, position, payload_hash
                    )
                    return_values[participant] = value
            # The public transaction: hash only — but participants in the clear.
            tx = Transaction(
                channel="quorum-public",
                submitter=sender,
                private_hashes={"payload": payload_hash},
                metadata={"kind": "private", "participants": participants},
                timestamp=self.clock.now,
            )
            leak_exposure = Exposure.of(identities=set(participants))
            with self.telemetry.span("quorum.order"):
                self.network.broadcast(
                    sender, "private-tx", {"tx_id": tx.tx_id},
                    exposure=leak_exposure,
                    recipients=self._broadcast_targets(sender),
                )
                self.sequencer.submit(tx)
                self.sequencer.cut_batch("quorum-public", force=True)
                self.chain.append([tx], self.clock.now)
            self._mark_applied(self._live_parties(), self.chain.height)
            for participant in unavailable:
                self._redelivery_queue.append(
                    PendingRedelivery(
                        sender=sender,
                        participant=participant,
                        payload_hash=payload_hash,
                        position=position,
                        participants=tuple(participants),
                    )
                )
                self.telemetry.metrics.counter("recovery.redelivery.queued").inc()
                self.telemetry.events.emit(
                    "recovery.redelivery_queued",
                    participant=participant,
                    position=position,
                )
        return QuorumTxResult(
            tx=tx, payload_hash=payload_hash,
            participants=participants, return_values=return_values,
        )

    # ------------------------------------------------------------------
    # Unified transaction pipeline (Platform hooks)
    #
    # Quorum mapping: ``private_for`` selects the private-transaction
    # path (payload to participants, hash to everyone — with the
    # documented participant-list leak); otherwise the public path runs.
    # ``private_args`` is refused: private payloads must stay replayable
    # to rebuild private state, so deletable off-ledger data contradicts
    # the architecture (Table 1's off-chain peer data '-').  The
    # sequencer cuts per transaction natively, so ``force_cut`` has no
    # batch to act on and the default sequential batch hook applies.
    # ------------------------------------------------------------------

    def _submit_one_native(self, request: TxRequest) -> TxReceipt:
        if request.private_args is not None:
            raise PlatformError(
                "quorum private payloads must remain replayable to rebuild "
                "private state; deletable TxRequest.private_args data is "
                "architecturally unsupported"
            )
        submitted_at = self.clock.now
        if request.private_for:
            result = self.send_private_transaction(
                request.submitter,
                request.contract_id,
                request.function,
                dict(request.args),
                private_for=list(request.private_for),
            )
        else:
            result = self.send_public_transaction(
                request.submitter,
                request.contract_id,
                request.function,
                dict(request.args),
            )
        return TxReceipt(
            request=request,
            platform=self.platform_name,
            tx_id=result.tx.tx_id,
            committed=True,
            status="committed",
            submitted_at=submitted_at,
            committed_at=self.clock.now,
            result=result,
            info={
                "kind": result.tx.metadata.get("kind"),
                "participants": list(result.participants),
                "payload_hash": result.payload_hash,
                "height": self.chain.height,
            },
        )

    def _state_snapshot(self) -> dict:
        return {
            "platform": self.platform_name,
            "height": self.chain.height,
            "chain": [tx.tx_id for tx in self.chain.transactions()],
            "public": {
                name: self.public_states[name].snapshot()
                for name in sorted(self.parties)
            },
            "private": {
                name: self.private_states[name].snapshot()
                for name in sorted(self.parties)
            },
        }

    def redeliver_pending(self) -> int:
        """Serve queued private payloads to now-reachable participants.

        The retry-until-available half of resilient private delivery: a
        participant that was crashed or partitioned when its transaction
        committed receives the payload (entitlement re-checked by the
        holding manager) and applies it under the original chain
        position, so a participant that already caught up via
        :meth:`recover` is not double-applied.  Returns how many queued
        payloads were applied; still-unreachable ones stay queued.
        """
        applied = 0
        remaining: list[PendingRedelivery] = []
        for item in self._redelivery_queue:
            node = item.participant
            if item.position in self._applied_private.get(node, set()):
                continue  # already applied through crash catch-up
            if self.network.is_crashed(node):
                remaining.append(item)
                continue
            if not self._ensure_payload(node, item.payload_hash, item.participants):
                remaining.append(item)
                continue
            __, did_apply = self._apply_private(
                node, item.position, item.payload_hash
            )
            if did_apply:
                applied += 1
                self._mark_applied([node], item.position)
                self.telemetry.metrics.counter("recovery.redelivery.applied").inc()
        self._redelivery_queue = remaining
        return applied

    # ------------------------------------------------------------------
    # Crash recovery (Platform hooks)
    #
    # Durable per node: the public chain (shared, append-only) and
    # checkpoints.  Volatile: public/private state, the transaction
    # manager's payload store, and the applied-position bookkeeping.
    # Catch-up visibility rule: the public chain replays to everyone,
    # but private payloads are re-delivered only by managers that hold
    # them and only to nodes named in the payload's own participant
    # list (enforced in ``PrivateTransactionManager.redeliver``).
    # ------------------------------------------------------------------

    def _ensure_payload(
        self, name: str, payload_hash: str, participants: tuple[str, ...] | list[str]
    ) -> bool:
        """Get *payload_hash* into *name*'s manager from a live holder."""
        manager = self.managers[name]
        if manager.has_payload(payload_hash):
            return True
        for holder in sorted(participants):
            if holder == name or holder not in self.managers:
                continue
            if not self._reachable(holder, name):
                continue
            if not self.managers[holder].has_payload(payload_hash):
                continue
            self.managers[holder].redeliver(payload_hash, manager)
            ship(
                self.network,
                holder,
                name,
                "catchup-payload",
                {"hash": payload_hash},
                exposure=Exposure(),  # ciphertext: reveals nothing
                dedup_key=catchup_dedup_key("quorum", "payload", name, payload_hash),
            )
            self.telemetry.metrics.counter("recovery.redelivered").inc()
            return True
        return False

    def _checkpoint_data(self, name: str) -> dict:
        public = self.public_states[name].dump()
        private = self.private_states[name].dump()
        return {
            "heights": {"public": self._applied_upto.get(name, 0)},
            "state_hashes": {
                "public": hash_hex("repro/recovery/quorum-public", public),
                "private": hash_hex("repro/recovery/quorum-private", private),
            },
            "pending": {
                "payload_hashes": self.managers[name].payload_hashes(),
                "applied_private": sorted(self._applied_private.get(name, ())),
            },
            "snapshots": {"public": public, "private": private},
        }

    def _drop_volatile(self, name: str) -> None:
        self.public_states[name] = WorldState()
        self.private_states[name] = WorldState()
        self.managers[name] = PrivateTransactionManager(
            name, rng=self.rng.fork("tm:" + name)
        )
        self._applied_private[name] = set()
        self._applied_upto[name] = 0

    def _restore_checkpoint(self, name: str, checkpoint) -> None:
        if checkpoint is None:
            return
        self.public_states[name] = WorldState.from_dump(
            checkpoint.snapshots.get("public", {})
        )
        self.private_states[name] = WorldState.from_dump(
            checkpoint.snapshots.get("private", {})
        )
        self._applied_upto[name] = checkpoint.height_of("public")
        self._applied_private[name] = {
            int(position)
            for position in checkpoint.pending.get("applied_private", [])
        }

    def _catch_up(self, name: str, checkpoint) -> dict:
        provider = pick_provider(self.network, self.parties, name)
        if provider is None:
            return {"items": 0, "blocks_behind": 0}
        items = 0
        blocks_behind = 0
        # 1. Re-fetch the payloads the manager held at checkpoint time
        #    (the durable record of the pending queue): the ciphertexts
        #    themselves are volatile, the entitlement is not.
        held_hashes = (
            list(checkpoint.pending.get("payload_hashes", []))
            if checkpoint is not None
            else []
        )
        payload_participants: dict[str, tuple[str, ...]] = {}
        for tx in self.chain.transactions():
            if tx.metadata.get("kind") == "private":
                payload_participants[tx.private_hashes["payload"]] = tuple(
                    tx.metadata.get("participants", ())
                )
        for payload_hash in held_hashes:
            entitled = payload_participants.get(payload_hash, ())
            if name in entitled and self._ensure_payload(
                name, payload_hash, entitled
            ):
                items += 1
        # 2. Replay the public chain above the node's watermark: public
        #    writes apply directly; private transactions re-execute iff
        #    this node is in the participant list and the payload can be
        #    re-fetched from an entitled live holder.
        since = self._applied_upto.get(name, 0)
        state = self.public_states[name]
        for block in self.chain.blocks():
            if block.height <= since:
                continue
            blocks_behind += 1
            for tx in block.transactions:
                kind = tx.metadata.get("kind")
                if kind == "public":
                    ship(
                        self.network,
                        provider,
                        name,
                        "catchup-block",
                        {"tx_id": tx.tx_id, "height": block.height},
                        exposure=Exposure.of(
                            identities={tx.submitter},
                            data_keys={w.key for w in tx.writes},
                        ),
                        dedup_key=catchup_dedup_key(
                            "quorum", "public", name, block.height
                        ),
                    )
                    apply_writes(tx, state)
                    items += 1
                elif kind == "private":
                    ship(
                        self.network,
                        provider,
                        name,
                        "catchup-block",
                        {"tx_id": tx.tx_id, "height": block.height},
                        # The public chain's documented leak: the
                        # participant list travels in the clear.
                        exposure=Exposure.of(
                            identities=set(tx.metadata.get("participants", ()))
                        ),
                        dedup_key=catchup_dedup_key(
                            "quorum", "public", name, block.height
                        ),
                    )
                    if name not in tx.metadata.get("participants", ()):
                        continue
                    payload_hash = tx.private_hashes["payload"]
                    if self._ensure_payload(
                        name, payload_hash,
                        tuple(tx.metadata.get("participants", ())),
                    ):
                        __, did_apply = self._apply_private(
                            name, block.height, payload_hash
                        )
                        if did_apply:
                            items += 1
            self._applied_upto[name] = max(
                self._applied_upto.get(name, 0), block.height
            )
        self.telemetry.metrics.counter("recovery.catchup.items").inc(items)
        return {"items": items, "blocks_behind": blocks_behind}

    # -- the documented double-spend flaw

    def demonstrate_private_double_spend(
        self, owner: str, asset_key: str, group_a: list[str], group_b: list[str]
    ) -> dict:
        """Spend the same private asset into two disjoint groups.

        Succeeds — the paper's point.  Returns the resulting divergent
        private views so tests can assert both groups believe they own it.
        """
        def spend(view: StateView, args: dict):
            view.put(args["asset"], {"owner": args["to"]})
            return args["to"]

        contract = SmartContract(
            contract_id="asset-private", version=1, language="evm-solidity",
            functions={"spend": spend},
        )
        everyone = sorted(self.parties)
        self.deploy_contract(owner, contract, private_for=everyone)
        self.send_private_transaction(
            owner, "asset-private", "spend",
            {"asset": asset_key, "to": group_a[0]}, private_for=group_a,
        )
        self.send_private_transaction(
            owner, "asset-private", "spend",
            {"asset": asset_key, "to": group_b[0]}, private_for=group_b,
        )
        return {
            "group_a_view": self.private_states[group_a[0]].get(asset_key),
            "group_b_view": self.private_states[group_b[0]].get(asset_key),
        }

    def attempt_public_double_spend(
        self, owner: str, asset_key: str, first_to: str, second_to: str
    ) -> None:
        """The same spend on public state: the second transfer is rejected
        because every node validates ownership against shared state."""
        def spend(view: StateView, args: dict):
            current = view.get(args["asset"])
            if current is not None and current.get("owner") != args["from"]:
                raise DoubleSpendError(
                    f"{args['from']!r} does not own {args['asset']!r}"
                )
            view.put(args["asset"], {"owner": args["to"]})
            return args["to"]

        contract = SmartContract(
            contract_id="asset-public", version=1, language="evm-solidity",
            functions={"spend": spend},
        )
        self.deploy_contract(owner, contract)
        self.send_public_transaction(
            owner, "asset-public", "spend",
            {"asset": asset_key, "from": owner, "to": first_to},
        )
        # Second spend by the original owner must now fail on every node.
        self.send_public_transaction(
            owner, "asset-public", "spend",
            {"asset": asset_key, "from": owner, "to": second_to},
        )

    # -- private-state replay (node recovery)

    def rebuild_private_state(self, node: str) -> WorldState:
        """Reconstruct *node*'s private state by replaying the chain.

        This is how a recovering Quorum node restores its private state:
        walk the public chain, and for every private transaction whose
        payload this node's manager holds, re-execute it.  The procedure
        is also the executable reason Table 1 marks Quorum's off-chain
        peer data as requires-rewrite: if any payload was deleted (say,
        for a GDPR request), the replay raises and the node cannot
        recover — deletable data is incompatible with this architecture.
        """
        if node not in self.parties:
            raise MembershipError(f"{node!r} is not onboarded")
        manager = self.managers[node]
        rebuilt = WorldState()
        for tx in self.chain.transactions():
            if tx.metadata.get("kind") != "private":
                continue
            if node not in tx.metadata.get("participants", []):
                continue
            payload_hash = tx.private_hashes["payload"]
            resolved = manager.resolve(payload_hash)  # raises if deleted
            self._execute(
                node,
                resolved["contract"],
                resolved["function"],
                resolved["args"],
                rebuilt,
            )
        return rebuilt

    def verify_private_state(self, node: str) -> bool:
        """True iff the node's live private state matches a fresh replay."""
        return (
            self.rebuild_private_state(node).snapshot()
            == self.private_states[node].snapshot()
        )

    # -- private-state consistency checking

    def private_state_views(self, key: str) -> dict[str, object]:
        """Every node's view of a private-state key (absent nodes omitted)."""
        return {
            node: self.private_states[node].get(key)
            for node in sorted(self.parties)
            if self.private_states[node].exists(key)
        }

    def private_state_consistent(self, key: str) -> bool:
        """True iff all holders of *key* agree on its value.

        Divergence is exactly what the paper's double-spend flaw produces:
        two participant groups with contradictory private views and no
        protocol-level way to reconcile them.
        """
        views = list(self.private_state_views(key).values())
        return all(v == views[0] for v in views[1:])

    def divergent_keys(self) -> list[str]:
        """All private-state keys on which some nodes disagree."""
        keys = set()
        for node in self.parties:
            keys.update(self.private_states[node].keys())
        return sorted(
            key for key in keys if not self.private_state_consistent(key)
        )

    # ------------------------------------------------------------------
    # Table 1 capability probes (Quorum column)
    # ------------------------------------------------------------------

    def _probe_fixture(self) -> str:
        for org in ("probe-n1", "probe-n2", "probe-n3"):
            if org not in self.parties:
                self.onboard(org)
        contract_id = "probe-store"
        if contract_id not in self.contracts:
            def put(view: StateView, args: dict):
                view.put(args["key"], args["value"])
                return args["value"]

            contract = SmartContract(
                contract_id=contract_id, version=1, language="evm-solidity",
                functions={"put": put},
            )
            self.deploy_contract("probe-n1", contract)
        return contract_id

    def _probe_separation_of_ledgers_parties(self) -> ProbeResult:
        contract_id = self._probe_fixture()
        result = self.send_private_transaction(
            "probe-n1", contract_id, "put", {"key": "s", "value": 1},
            private_for=["probe-n2"],
        )
        self.network.run()
        outsider = self.network.node("probe-n3").observer
        data_leaked = "s" in outsider.seen_data_keys
        # Private state separates *data*; but participant identities leak
        # network-wide (still counts as ledger separation for parties at
        # the data level — Table 1 rates the row '+').
        return self._result(
            Mechanism.SEPARATION_OF_LEDGERS_PARTIES,
            SupportLevel.NATIVE if not data_leaked else SupportLevel.REWRITE,
            "private state partitions the ledger per participant group "
            "(though the participant list itself is broadcast — see the "
            "leakage audit)",
        )

    def _probe_one_time_public_keys(self) -> ProbeResult:
        # Ethereum-style accounts are just key pairs: a party can mint a
        # fresh externally-owned account at will, but linking certificates
        # and key management are application work: '*'.
        self._probe_fixture()
        fresh = self.scheme.keygen(self.rng.fork("quorum-fresh-account"))
        account_address = fresh.public.fingerprint()
        acceptable = len(account_address) == 16  # any key maps to an address
        return self._result(
            Mechanism.ONE_TIME_PUBLIC_KEYS,
            SupportLevel.IMPLEMENTABLE if acceptable else SupportLevel.REWRITE,
            "account-model addresses are derivable from any fresh key; the "
            "identity-linking layer must be built by the application",
        )

    def _probe_zkp_of_identity(self) -> ProbeResult:
        # Node-level permissioning with known identities; no anonymous
        # credential layer exists in the protocol: '-'.
        has_credential_hook = hasattr(self, "idemix_issuer")
        return self._result(
            Mechanism.ZKP_OF_IDENTITY,
            SupportLevel.NATIVE if has_credential_hook else SupportLevel.REWRITE,
            "the permissioned node list is identity-based; anonymous "
            "credentials would require rewriting the membership layer",
            exercised=False,
        )

    def _probe_separation_of_ledgers_data(self) -> ProbeResult:
        contract_id = self._probe_fixture()
        self.send_private_transaction(
            "probe-n1", contract_id, "put", {"key": "priv-k", "value": 9},
            private_for=["probe-n2"],
        )
        self.network.run()
        non_participant_state = self.private_states["probe-n3"]
        isolated = not non_participant_state.exists("priv-k")
        return self._result(
            Mechanism.SEPARATION_OF_LEDGERS_DATA,
            SupportLevel.NATIVE if isolated else SupportLevel.REWRITE,
            "private state updates apply only at payload recipients; the "
            "public chain carries the payload hash",
        )

    def _probe_off_chain_peer_data(self) -> ProbeResult:
        # Private payloads must remain replayable to rebuild private state;
        # deleting one breaks resolution, so deletable off-chain peer data
        # conflicts with the architecture: '-'.
        contract_id = self._probe_fixture()
        result = self.send_private_transaction(
            "probe-n1", contract_id, "put", {"key": "gdpr-k", "value": "pii"},
            private_for=["probe-n2"],
        )
        manager = self.managers["probe-n2"]
        manager.delete(result.payload_hash)
        try:
            manager.resolve(result.payload_hash)
            still_works = True
        except Exception:
            still_works = False
        return self._result(
            Mechanism.OFF_CHAIN_PEER_DATA,
            SupportLevel.NATIVE if still_works else SupportLevel.REWRITE,
            "deleting a private payload breaks state replay at that node; "
            "deletable peer data requires re-architecting private state",
        )

    def _probe_symmetric_encryption(self) -> ProbeResult:
        contract_id = self._probe_fixture()
        key = SymmetricKey.from_seed("quorum-probe-key")
        ciphertext = key.encrypt(b"confidential", self.rng.fork("sym"))
        self.send_public_transaction(
            "probe-n1", contract_id, "put",
            {"key": "enc", "value": ciphertext.body.hex()},
        )
        ok = (
            self.public_states["probe-n2"].get("enc") == ciphertext.body.hex()
            and key.decrypt(ciphertext) == b"confidential"
        )
        return self._result(
            Mechanism.SYMMETRIC_ENCRYPTION,
            SupportLevel.NATIVE if ok else SupportLevel.REWRITE,
            "contract storage is opaque bytes; encrypted values round-trip",
        )

    def _probe_merkle_tear_offs(self) -> ProbeResult:
        # Transactions are monolithic RLP payloads with no component-group
        # Merkle structure; a participant receives all or nothing: '-'.
        contract_id = self._probe_fixture()
        result = self.send_private_transaction(
            "probe-n1", contract_id, "put", {"key": "t", "value": 5},
            private_for=["probe-n2"],
        )
        resolved = self.managers["probe-n2"].resolve(result.payload_hash)
        all_or_nothing = set(resolved) == {"contract", "function", "args"}
        has_filtered_api = hasattr(result.tx, "filtered")
        level = (
            SupportLevel.NATIVE if has_filtered_api
            else SupportLevel.REWRITE if all_or_nothing
            else SupportLevel.IMPLEMENTABLE
        )
        return self._result(
            Mechanism.MERKLE_TEAR_OFFS, level,
            "payload recipients receive the full transaction payload; no "
            "partial-visibility structure exists to tear off",
        )

    def _probe_install_on_involved_nodes(self) -> ProbeResult:
        def noop(view: StateView, args: dict):
            return None

        contract = SmartContract(
            contract_id="probe-private-code", version=1, language="evm-solidity",
            functions={"noop": noop},
        )
        self._probe_fixture()
        self.deploy_contract("probe-n1", contract, private_for=["probe-n2"])
        visible = self.code_visible_to("probe-private-code")
        return self._result(
            Mechanism.INSTALL_ON_INVOLVED_NODES,
            SupportLevel.NATIVE if visible == {"probe-n1", "probe-n2"}
            else SupportLevel.REWRITE,
            f"private contract code distributed to {sorted(visible)} only",
        )

    def _probe_off_chain_execution_engine(self) -> ProbeResult:
        # EVM execution is the state-transition function of the chain
        # itself; moving it off-chain breaks consensus: '-'.
        execution_separable = False
        return self._result(
            Mechanism.OFF_CHAIN_EXECUTION_ENGINE,
            SupportLevel.NATIVE if execution_separable else SupportLevel.REWRITE,
            "EVM execution *is* the consensus state-transition function; "
            "an external engine would fork every node's state",
            exercised=False,
        )

    def _probe_trusted_execution_environment(self) -> ProbeResult:
        return self._result(
            Mechanism.TRUSTED_EXECUTION_ENVIRONMENT,
            SupportLevel.REWRITE,
            "no enclave path in the transaction pipeline; EVM execution "
            "inside TEEs requires rewriting the client",
            exercised=False,
        )

    def _probe_private_sequencing_service(self) -> ProbeResult:
        self._probe_fixture()
        member_operated = self.sequencer.is_member_operated(set(self.parties))
        return self._result(
            Mechanism.PRIVATE_SEQUENCING_SERVICE,
            SupportLevel.NATIVE if member_operated else SupportLevel.REWRITE,
            "consortium members run the consensus (Raft/IBFT) nodes "
            "themselves; no third-party sequencer exists",
        )
