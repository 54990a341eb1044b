"""Outside-in wall-clock tracing of the simulator's layers.

The traced run wraps the public entry points of each layer from the
benchmark's own code, so nothing under ``src/`` changes.  Each wrapper
records one span — name, start, end and parent span, all from
``time.perf_counter_ns`` — into flat in-memory columns.  Spans are summed
into per-layer self times after the run and written out when it ends.

Self time is a span's inclusive time minus the inclusive time of the
wrapped spans directly beneath it, so the self times of a call tree sum to
the inclusive time of its outermost span and no wall time is counted twice.

A function imported with ``from x import f`` lives on as a second name in
the importing module, so installing a function wrapper re-binds every
module attribute that holds the original object, and uninstalling puts the
original back everywhere.
"""

from __future__ import annotations

import functools
import gc
import gzip
import importlib
import pkgutil
import sys
import time
import types
from array import array
from collections import Counter

#: Layer -> entry points, as ``(module, "Class.method" or "function")``.
#: Layers are named after the repository's modules; ``platform`` holds the
#: per-platform flows.
LAYER_TARGETS: dict[str, tuple[tuple[str, str], ...]] = {
    "crypto": (
        ("repro.crypto.signatures", "SignatureScheme.sign"),
        ("repro.crypto.signatures", "SignatureScheme.verify"),
        ("repro.crypto.groups", "SchnorrGroup.exp"),
        ("repro.crypto.pki", "CertificateAuthority.verify"),
        ("repro.crypto.symmetric", "SymmetricKey.encrypt"),
        ("repro.crypto.symmetric", "SymmetricKey.decrypt"),
        ("repro.crypto.merkle", "MerkleTree.__init__"),
        ("repro.crypto.merkle", "MerkleTree.inclusion_proof"),
        ("repro.crypto.merkle", "MerkleTree.tear_off"),
        ("repro.crypto.merkle", "TearOff.verify"),
        ("repro.crypto.merkle", "InclusionProof.verify"),
    ),
    "serialization": (
        ("repro.common.serialization", "canonical_bytes"),
        ("repro.common.serialization", "canonical_json"),
    ),
    "network": (
        ("repro.network.simnet", "SimNetwork.send"),
        ("repro.network.simnet", "SimNetwork.send_with_retry"),
        ("repro.network.simnet", "SimNetwork.broadcast"),
        ("repro.network.simnet", "SimNetwork.step"),
    ),
    "ledger": (
        ("repro.ledger.ordering", "OrderingService.submit"),
        ("repro.ledger.ordering", "OrderingService.cut_batch"),
        ("repro.ledger.validation", "validate_and_apply"),
        ("repro.ledger.validation", "verify_endorsements"),
        ("repro.ledger.state", "WorldState.snapshot"),
    ),
    "execution": (
        ("repro.execution.engines", "LedgerEngine.execute"),
        ("repro.execution.engines", "OffChainEngine.execute"),
        ("repro.execution.engines", "TEEEngine.execute"),
        # Quorum runs contracts without an engine object.
        ("repro.execution.contracts", "SmartContract.invoke"),
    ),
    "platform": (
        ("repro.platforms.fabric.network", "FabricNetwork.propose"),
        ("repro.platforms.fabric.network", "FabricNetwork.submit_batch"),
        ("repro.platforms.corda.network", "CordaNetwork.run_flow"),
        ("repro.platforms.corda.notary", "Notary.notarise_full"),
        ("repro.platforms.corda.notary", "Notary.notarise_filtered"),
        ("repro.platforms.quorum.network", "QuorumNetwork.send_public_transaction"),
        ("repro.platforms.quorum.network", "QuorumNetwork.send_private_transaction"),
    ),
    "telemetry": (
        ("repro.telemetry.tracing", "Tracer.start_span"),
        ("repro.telemetry.tracing", "Tracer.end_span"),
        ("repro.telemetry.tracing", "Tracer.record_span"),
        ("repro.telemetry.metrics", "MetricsRegistry.counter"),
        ("repro.telemetry.metrics", "MetricsRegistry.gauge"),
        ("repro.telemetry.metrics", "MetricsRegistry.histogram"),
        ("repro.telemetry.events", "EventLog.emit"),
    ),
    "recovery": (
        ("repro.platforms.base", "Platform.checkpoint_node"),
        ("repro.platforms.base", "Platform.recover"),
        ("repro.recovery.convergence", "audit_convergence"),
    ),
}

#: Entry points whose result size is recorded with the span: the number
#: of keys ``WorldState.snapshot`` copied.
SIZED = {"ledger:WorldState.snapshot": len}

_WRAPPED_MARK = "__perfbench_span__"


def import_all(package: str = "repro") -> None:
    """Import every submodule of *package*.

    A module imported after the wrappers are installed would bind a
    wrapper with ``from x import f`` and keep it after uninstall, so the
    whole package is loaded first.
    """
    root = importlib.import_module(package)
    for info in pkgutil.walk_packages(root.__path__, package + "."):
        importlib.import_module(info.name)


class SpanRecorder:
    """Flat span columns plus the wrappers that fill them."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_col = array("i")
        self.parent_col = array("q")
        self.start_col = array("q")
        self.end_col = array("q")
        self.size_col = array("q")
        self._stack: list[int] = []

    def __len__(self) -> int:
        return len(self.start_col)

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn, size=None):
        """A wrapper around *fn* that records one span per call."""
        code = self.name_id(name)
        names, parents = self.name_col, self.parent_col
        starts, ends, sizes = self.start_col, self.end_col, self.size_col
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(starts)
            names.append(code)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            sizes.append(0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
                if size is not None:
                    sizes[index] = size(result)
                return result
            finally:
                ends[index] = clock()
                stack.pop()

        setattr(wrapper, _WRAPPED_MARK, name)
        return wrapper

    def summarize(self, ranges: list[tuple[int, int]]) -> dict:
        """Per-name totals over the spans in the index *ranges*.

        Each range ``[first, last)`` must hold whole call trees.  Returns
        ``{"names": {name: {"calls", "self_ns", "inclusive_ns", "size"}},
        "covered_ns": ...}`` where ``covered_ns`` is the inclusive time of
        the outermost spans, i.e. the wall time spent inside any wrapped
        layer.
        """
        parents, starts, ends = self.parent_col, self.start_col, self.end_col
        totals: dict[str, dict] = {}
        covered = 0
        for first, last in ranges:
            children = [0] * (last - first)
            for index in range(first, last):
                duration = ends[index] - starts[index]
                parent = parents[index]
                if parent >= first:
                    children[parent - first] += duration
                else:
                    covered += duration
            for index in range(first, last):
                name = self.names[self.name_col[index]]
                entry = totals.get(name)
                if entry is None:
                    entry = totals[name] = {
                        "calls": 0, "self_ns": 0, "inclusive_ns": 0, "size": 0,
                    }
                duration = ends[index] - starts[index]
                entry["calls"] += 1
                entry["inclusive_ns"] += duration
                entry["self_ns"] += duration - children[index - first]
                entry["size"] += self.size_col[index]
        return {"names": totals, "covered_ns": covered}

    def write(self, path) -> None:
        """Write the spans as gzipped tab-separated text, one span a line."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write("index\tname\tparent\tstart_ns\tend_ns\n")
            for index in range(len(self)):
                out.write(
                    f"{index}\t{self.names[self.name_col[index]]}\t"
                    f"{self.parent_col[index]}\t{self.start_col[index]}\t"
                    f"{self.end_col[index]}\n"
                )


class GcMonitor:
    """Collector pauses and collection counts, from ``gc.callbacks``."""

    def __init__(self) -> None:
        self.pause_ns = 0
        self.collections = 0
        self._started = 0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = time.perf_counter_ns()
        else:
            self.pause_ns += time.perf_counter_ns() - self._started
            self.collections += 1


class OutsideTracer:
    """Install and remove span wrappers around the layers' entry points."""

    def __init__(self, targets: dict | None = None) -> None:
        self.targets = LAYER_TARGETS if targets is None else targets
        self.recorder = SpanRecorder()
        self.gc = GcMonitor()
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer is already installed")
        try:
            self._install()
        except BaseException:
            self.uninstall()
            raise
        gc.callbacks.append(self.gc)

    def _install(self) -> None:
        functions: dict[int, tuple[object, object]] = {}
        for layer, entries in self.targets.items():
            for module_name, qualname in entries:
                module = importlib.import_module(module_name)
                owner_name, __, attr = qualname.rpartition(".")
                name = f"{layer}:{qualname}"
                if owner_name:
                    owner = getattr(module, owner_name)
                    original = owner.__dict__[attr]
                    if not isinstance(original, types.FunctionType):
                        raise TypeError(f"{qualname} is not a plain method")
                    self._patch(
                        owner, attr, self.recorder.wrap(name, original, SIZED.get(name))
                    )
                else:
                    original = getattr(module, attr)
                    functions[id(original)] = (
                        original, self.recorder.wrap(name, original, SIZED.get(name))
                    )
        # Re-bind every module-level name that holds a wrapped function,
        # which covers ``from x import f`` (and ``as`` aliases) everywhere.
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for attr, value in list(namespace.items()):
                hit = functions.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(module, attr, hit[1])

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)
        if self.gc in gc.callbacks:
            gc.callbacks.remove(self.gc)

    def __enter__(self) -> "OutsideTracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


def _is_wrapper(value) -> bool:
    return isinstance(value, types.FunctionType) and _WRAPPED_MARK in value.__dict__


def leftover_wrappers() -> list[str]:
    """Names of any tracing wrapper still reachable from a module or class."""
    found = []
    for module_name, module in list(sys.modules.items()):
        namespace = getattr(module, "__dict__", None)
        if not isinstance(namespace, dict):
            continue
        for attr, value in list(namespace.items()):
            if _is_wrapper(value):
                found.append(f"{module_name}.{attr}")
            elif isinstance(value, type) and value.__module__ == module_name:
                found.extend(
                    f"{module_name}.{attr}.{member}"
                    for member, inner in vars(value).items()
                    if _is_wrapper(inner)
                )
    return found


def layer_totals(summary: dict) -> dict[str, dict[str, int]]:
    """Fold a :meth:`SpanRecorder.summarize` result into per-layer sums."""
    layers: dict[str, Counter] = {}
    for name, entry in summary["names"].items():
        layer = layers.setdefault(name.split(":", 1)[0], Counter())
        layer["self_ns"] += entry["self_ns"]
        layer["calls"] += entry["calls"]
    return {layer: dict(values) for layer, values in layers.items()}
