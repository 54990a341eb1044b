"""Smart contracts and the versioning registry.

A contract is deterministic business logic operating on a key-value state
view.  The registry implements the "in-built smart contract versioning"
criterion of Section 3.3: platforms with ledger-managed contracts guarantee
every endorsing node runs the same version, while off-chain engines must
manage versions externally (and can drift — a hazard the tests exercise).
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.common.errors import ContractError
from repro.crypto.hashing import hash_hex
from repro.ledger.state import WorldState

ContractFunction = Callable[["StateView", dict], Any]


@dataclass(frozen=True)
class SourceLocation:
    """Where a registered contract function's code lives.

    The static analyzer and error messages use this to point at *user*
    contract code instead of at the execution engine.  ``introspectable``
    is False for callables whose source cannot be recovered (builtins,
    C-level callables, code defined in a REPL) — registering those makes
    the contract invisible to the linter, which is why the use cases
    register plain ``def``s.
    """

    function: str
    file: str
    line: int
    introspectable: bool
    source: str | None = None

    def describe(self) -> str:
        status = "" if self.introspectable else " (source unavailable)"
        return f"{self.function} @ {self.file}:{self.line}{status}"


class StateView:
    """The read/write interface contract code sees during execution.

    Reads go straight through to the committed :class:`WorldState` the
    contract runs against, recording each key's committed version as the
    MVCC read set; writes and deletes stay buffered in the view, so the
    state itself is never mutated (and never copied) by execution.
    """

    def __init__(self, state: WorldState) -> None:
        self._state = state
        self.reads: dict[str, int] = {}
        self.writes: dict[str, Any] = {}
        self.deletes: set[str] = set()

    def get(self, key: str, default: Any = None) -> Any:
        self.reads[key] = self._state.version(key)
        if key in self.writes:
            return self.writes[key]
        if key in self.deletes:
            return default
        return self._state.get_or(key, default)

    def put(self, key: str, value: Any) -> None:
        self.deletes.discard(key)
        self.writes[key] = value

    def delete(self, key: str) -> None:
        self.writes.pop(key, None)
        self.deletes.add(key)

    def get_range(self, start: str, end: str) -> dict[str, Any]:
        """All visible keys in [start, end), reads recorded per key.

        Mirrors Fabric's GetStateByRange: results reflect committed state
        plus this invocation's own writes and deletes.
        """
        keys = set(self._state.keys()) | set(self.writes)
        out: dict[str, Any] = {}
        for key in sorted(keys):
            if start <= key < end and key not in self.deletes:
                out[key] = self.get(key)
        return out


@dataclass(frozen=True)
class SmartContract:
    """Versioned business logic.

    ``language`` matters for the Section 3.3 criterion "allows for business
    logic to be written in any programming language": ledger-hosted engines
    pin it to the platform language, external engines accept anything.
    ``functions`` maps entry-point names to callables.
    """

    contract_id: str
    version: int
    language: str
    functions: dict[str, ContractFunction] = field(default_factory=dict)

    def code_measurement(self) -> str:
        """Stable identity of this code version.

        Covers the contract id, version, and each function's compiled
        bytecode — so two contracts that differ only in logic (same names,
        same version) still measure differently, which TEE attestation
        relies on.
        """
        return hash_hex(
            "repro/contract",
            {
                "contract_id": self.contract_id,
                "version": self.version,
                "functions": {
                    name: fn.__code__.co_code
                    for name, fn in sorted(self.functions.items())
                },
            },
        )

    def source_location(self, function: str) -> SourceLocation:
        """Introspect where *function*'s registered code was defined."""
        if function not in self.functions:
            raise ContractError(
                f"contract {self.contract_id!r} has no function {function!r}"
            )
        fn = self.functions[function]
        code = getattr(fn, "__code__", None)
        file = getattr(code, "co_filename", "<unknown>")
        line = getattr(code, "co_firstlineno", 0)
        try:
            source = inspect.getsource(fn)
            introspectable = True
        except (OSError, TypeError):
            source = None
            introspectable = False
        return SourceLocation(
            function=function,
            file=file,
            line=line,
            introspectable=introspectable,
            source=source,
        )

    def source_locations(self) -> dict[str, SourceLocation]:
        """Source locations for every registered entry point."""
        return {name: self.source_location(name) for name in sorted(self.functions)}

    def invoke(self, function: str, view: StateView, args: dict) -> Any:
        if function not in self.functions:
            available = ", ".join(
                location.describe()
                for location in self.source_locations().values()
            )
            raise ContractError(
                f"contract {self.contract_id!r} has no function {function!r}"
                + (f"; registered entry points: {available}" if available else "")
            )
        return self.functions[function](view, args)


class ContractRegistry:
    """Tracks which node has which contract version installed.

    ``enforce_consistency=True`` models ledger-managed lifecycles (Fabric
    chaincode commit): execution refuses to proceed unless all executing
    nodes hold the same version.  ``False`` models external engines where
    version control "will need to be managed outside the DLT layer".
    """

    def __init__(self, enforce_consistency: bool = True) -> None:
        self.enforce_consistency = enforce_consistency
        self._installed: dict[str, dict[str, SmartContract]] = {}

    def install(self, node: str, contract: SmartContract) -> None:
        """Install a contract version on one node."""
        self._installed.setdefault(node, {})[contract.contract_id] = contract

    def installed_on(self, node: str) -> list[str]:
        return sorted(self._installed.get(node, {}))

    def has_contract(self, node: str, contract_id: str) -> bool:
        return contract_id in self._installed.get(node, {})

    def lookup(self, node: str, contract_id: str) -> SmartContract:
        contract = self._installed.get(node, {}).get(contract_id)
        if contract is None:
            raise ContractError(
                f"node {node!r} does not have contract {contract_id!r} installed"
            )
        return contract

    def check_version_consistency(self, nodes: list[str], contract_id: str) -> int:
        """Return the common version, or raise if nodes disagree.

        Only meaningful when the registry enforces consistency; external
        engines skip this check, which is exactly their versioning hazard.
        """
        versions = {}
        for node in nodes:
            versions[node] = self.lookup(node, contract_id).version
        distinct = set(versions.values())
        if self.enforce_consistency and len(distinct) > 1:
            raise ContractError(
                f"version drift for {contract_id!r}: {versions}"
            )
        return max(distinct)

    def nodes_with_code_visibility(self, contract_id: str) -> set[str]:
        """Which nodes can read this contract's logic (Section 2.3).

        A node sees the code iff the code is installed on it — the
        'installation on involved nodes only' confidentiality mechanism.
        """
        return {
            node
            for node, contracts in self._installed.items()
            if contract_id in contracts
        }
