"""Execution engines.

Section 3.3 names four criteria for business-logic confidentiality
mechanisms: whether an implementation (1) keeps logic private, (2) offers
in-built smart contract versioning, (3) hides data from the node
administrator, and (4) allows any programming language.

Three engines realize the paper's three mechanisms, and each reports its
own criteria via :meth:`ExecutionEngine.properties` — the design guide and
the Table 1 prober consume those self-descriptions, so the guide's
recommendations are grounded in executable artifacts rather than a table of
constants.

- :class:`LedgerEngine`    — contracts installed on (only) involved nodes,
  ledger-managed versioning, platform language, admin sees code and data.
- :class:`OffChainEngine`  — logic runs outside the DLT; the on-ledger
  contract is reduced to read/write stubs; any language; versioning is the
  operator's problem (drift is simulable); the *engine host's* admin still
  sees everything.
- :class:`TEEEngine`       — logic and data sealed inside a simulated
  enclave with remote attestation; the admin sees only ciphertext.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.common.errors import ContractError
from repro.common.rng import DeterministicRNG
from repro.common.serialization import canonical_bytes, from_canonical_json
from repro.crypto.tee import Enclave, Manufacturer
from repro.execution.contracts import (
    ContractRegistry,
    SmartContract,
    StateView,
)
from repro.ledger.state import WorldState
from repro.network.messages import Exposure
from repro.network.simnet import Observer
from repro.telemetry import Telemetry


@dataclass(frozen=True)
class EngineProperties:
    """The Section 3.3 decision criteria, self-reported by each engine."""

    keeps_logic_private: bool
    inbuilt_versioning: bool
    hides_data_from_admin: bool
    any_language: bool


@dataclass
class ExecutionResult:
    """Outcome of one contract invocation."""

    contract_id: str
    version: int
    return_value: Any
    reads: dict[str, int]
    writes: dict[str, Any]
    deletes: set[str]


class ExecutionEngine:
    """Common interface; subclasses define where code actually runs.

    Every engine carries a :class:`~repro.telemetry.Telemetry` bundle
    (the owning platform's, or a private one when standalone) and counts
    invocations and mechanism-specific crypto costs on it, so the
    ``repro metrics`` snapshot can attribute execution cost to the
    Section 3.3 mechanism that incurred it.
    """

    name = "abstract"

    def __init__(self, telemetry: Telemetry | None = None) -> None:
        self.telemetry = telemetry or Telemetry()

    def _count_invocation(self, contract_id: str) -> None:
        self.telemetry.metrics.counter("exec.invocations", engine=self.name).inc()

    def properties(self) -> EngineProperties:
        raise NotImplementedError

    def execute(
        self,
        node: str,
        contract_id: str,
        function: str,
        args: dict,
        state: WorldState,
    ) -> ExecutionResult:
        raise NotImplementedError


class LedgerEngine(ExecutionEngine):
    """Contracts installed per node; execution happens on the peer.

    The node's administrator can read both the code and the cleartext data
    (criterion 3 fails); versioning is ledger-managed (criterion 2 holds);
    logic is private exactly to the nodes it is installed on (criterion 1
    holds, given installation is scoped); language is the platform's
    (criterion 4 fails).
    """

    name = "ledger"
    platform_language = "python-chaincode"

    def __init__(
        self,
        registry: ContractRegistry | None = None,
        telemetry: Telemetry | None = None,
    ) -> None:
        super().__init__(telemetry=telemetry)
        self.registry = registry or ContractRegistry(enforce_consistency=True)
        self.admin_observers: dict[str, Observer] = {}

    def properties(self) -> EngineProperties:
        return EngineProperties(
            keeps_logic_private=True,
            inbuilt_versioning=True,
            hides_data_from_admin=False,
            any_language=False,
        )

    def install(self, node: str, contract: SmartContract) -> None:
        if contract.language != self.platform_language:
            raise ContractError(
                f"ledger engine only runs {self.platform_language!r} contracts"
            )
        self.registry.install(node, contract)

    def _admin_observer(self, node: str) -> Observer:
        if node not in self.admin_observers:
            self.admin_observers[node] = Observer(f"admin@{node}")
        return self.admin_observers[node]

    def execute(
        self,
        node: str,
        contract_id: str,
        function: str,
        args: dict,
        state: WorldState,
    ) -> ExecutionResult:
        contract = self.registry.lookup(node, contract_id)
        self._count_invocation(contract_id)
        view = StateView(state)
        value = contract.invoke(function, view, args)
        # The node admin sees the code identity and all cleartext keys.
        self._admin_observer(node).observe_exposure(
            Exposure.of(
                data_keys=set(view.reads) | set(view.writes),
                code_ids={contract_id},
            )
        )
        return ExecutionResult(
            contract_id=contract_id,
            version=contract.version,
            return_value=value,
            reads=view.reads,
            writes=view.writes,
            deletes=view.deletes,
        )


class OffChainEngine(ExecutionEngine):
    """Business logic runs outside the DLT layer (paper ref [1]).

    The ledger only sees read/write stubs.  Any language is accepted;
    versioning is not enforced (``ContractRegistry(enforce_consistency=
    False)``), so two hosts can drift — call :meth:`detect_drift` to model
    the paper's warning about "additional challenges to enforce
    simultaneous updates across all engines".
    """

    name = "offchain"

    def __init__(self, telemetry: Telemetry | None = None) -> None:
        super().__init__(telemetry=telemetry)
        self.registry = ContractRegistry(enforce_consistency=False)
        self.admin_observers: dict[str, Observer] = {}

    def properties(self) -> EngineProperties:
        return EngineProperties(
            keeps_logic_private=True,
            inbuilt_versioning=False,
            hides_data_from_admin=False,
            any_language=True,
        )

    def install(self, host: str, contract: SmartContract) -> None:
        """Any language is fine — that is the engine's selling point."""
        self.registry.install(host, contract)

    def _admin_observer(self, host: str) -> Observer:
        if host not in self.admin_observers:
            self.admin_observers[host] = Observer(f"admin@{host}")
        return self.admin_observers[host]

    def execute(
        self,
        node: str,
        contract_id: str,
        function: str,
        args: dict,
        state: WorldState,
    ) -> ExecutionResult:
        contract = self.registry.lookup(node, contract_id)
        self._count_invocation(contract_id)
        view = StateView(state)
        value = contract.invoke(function, view, args)
        self._admin_observer(node).observe_exposure(
            Exposure.of(
                data_keys=set(view.reads) | set(view.writes),
                code_ids={contract_id},
            )
        )
        return ExecutionResult(
            contract_id=contract_id,
            version=contract.version,
            return_value=value,
            reads=view.reads,
            writes=view.writes,
            deletes=view.deletes,
        )

    def detect_drift(self, hosts: list[str], contract_id: str) -> dict[str, int]:
        """Report per-host versions; the caller decides what to do.

        Unlike the ledger engine there is no enforcement — the return value
        simply makes the hazard observable.
        """
        return {
            host: self.registry.lookup(host, contract_id).version for host in hosts
        }


class TEEEngine(ExecutionEngine):
    """Contracts execute inside a simulated enclave (Section 2.2/2.3 TEEs).

    The node administrator sees only ciphertext and attestation blobs; the
    relying party verifies the enclave measurement before trusting results.
    """

    name = "tee"

    def __init__(
        self,
        manufacturer: Manufacturer | None = None,
        telemetry: Telemetry | None = None,
    ) -> None:
        super().__init__(telemetry=telemetry)
        self.manufacturer = manufacturer or Manufacturer()
        self._enclaves: dict[tuple[str, str], Enclave] = {}
        self._measurements: dict[tuple[str, str], bytes] = {}
        self._contracts: dict[tuple[str, str], SmartContract] = {}
        self._rng = DeterministicRNG("tee-engine")
        self._nonce_counter = 0

    def properties(self) -> EngineProperties:
        return EngineProperties(
            keeps_logic_private=True,
            inbuilt_versioning=True,
            hides_data_from_admin=True,
            any_language=False,
        )

    def install(self, node: str, contract: SmartContract) -> None:
        """Provision an enclave on *node* and load the contract into it."""
        enclave = self.manufacturer.provision()

        def enclave_program(payload: dict) -> dict:
            view = StateView(WorldState.from_dump(payload["state"]))
            value = contract.invoke(payload["function"], view, payload["args"])
            return {
                "return_value": value,
                "reads": view.reads,
                "writes": view.writes,
                "deletes": sorted(view.deletes),
                "version": contract.version,
            }

        measurement = enclave.load(enclave_program)
        key = (node, contract.contract_id)
        self._enclaves[key] = enclave
        self._measurements[key] = measurement
        self._contracts[key] = contract

    def measurement_of(self, node: str, contract_id: str) -> bytes:
        return self._measurements[(node, contract_id)]

    def execute(
        self,
        node: str,
        contract_id: str,
        function: str,
        args: dict,
        state: WorldState,
    ) -> ExecutionResult:
        key = (node, contract_id)
        if key not in self._enclaves:
            raise ContractError(
                f"no enclave for contract {contract_id!r} on node {node!r}"
            )
        self._count_invocation(contract_id)
        crypto = self.telemetry.metrics
        crypto.counter("crypto.ops", mechanism="tee-session-key").inc()
        crypto.counter("crypto.ops", mechanism="tee-attestation").inc()
        enclave = self._enclaves[key]
        session = enclave.establish_session_key(self._rng.fork(f"s{self._nonce_counter}"))
        self._nonce_counter += 1
        nonce = self._rng.randbytes(16)
        payload = canonical_bytes(
            {
                "function": function,
                "args": args,
                "state": state.dump(),
            }
        )
        encrypted = session.encrypt(payload, self._rng)
        output_ct, attestation = enclave.execute(encrypted, nonce)
        self.manufacturer.verify_attestation(
            attestation, self._measurements[key], nonce
        )
        result = from_canonical_json(session.decrypt(output_ct).decode("utf-8"))
        return ExecutionResult(
            contract_id=contract_id,
            version=result["version"],
            return_value=result["return_value"],
            reads=result["reads"],
            writes=result["writes"],
            deletes=set(result["deletes"]),
        )

    def admin_view(self, node: str, contract_id: str) -> list[dict]:
        """Everything the node admin could observe: opaque sizes only."""
        enclave = self._enclaves[(node, contract_id)]
        return [
            {"operation": entry.operation, "bytes": entry.visible_bytes}
            for entry in enclave.host_log
        ]
