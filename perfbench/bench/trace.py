"""Span recorder and the layer wrappers of the traced run.

The program under test carries no instrumentation of its own.  For the
traced run, :class:`Tracer` replaces the public functions and methods of
each layer with thin wrappers that open a span on entry and close it on
exit; :meth:`Tracer.uninstall` puts every original object back.  All
wrapped functions are synchronous, and the server runs in the same
event loop as the client, so spans nest strictly: a plain stack gives
each span its parent.

A span's *self time* is its duration minus the durations of its direct
children.  Each measured iteration opens root spans (``sync`` and
``write``) from the benchmark loop; the roots' self time is the
unattributed remainder (event loop, sockets, glue), so the layer self
times plus the unattributed time add up to the roots' wall time exactly.

Counters (items hashed, cells produced, frames, ...) are taken at the
same boundaries.  A counter is recorded only on the outermost span that
carries it, so a wrapped function calling another wrapped function with
the same counter (``hash_items`` -> ``SipHasher.hash64_batch``) counts
its work once.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import weakref
from dataclasses import dataclass, field
from typing import Callable

_now = time.perf_counter_ns

ROOT_NAMES = ("sync", "write")


@dataclass
class Span:
    name: str
    start: int
    end: int = 0
    parent: int = -1
    iteration: int = -1
    counters: dict = field(default_factory=dict)


class SpanRecorder:
    """In-memory span store with a stack for parent links.

    ``iteration`` tags every span opened while it is set; spans opened
    outside a measured iteration keep ``-1`` and are left out of the
    per-iteration ledger.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._depth: dict[str, int] = {}
        self.iteration = -1

    def open(self, name: str, counter_keys: tuple = ()) -> tuple[int, tuple]:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, 0, parent=parent, iteration=self.iteration))
        self._stack.append(index)
        depth = self._depth
        owned = tuple(key for key in counter_keys if not depth.get(key))
        for key in counter_keys:
            depth[key] = depth.get(key, 0) + 1
        self.spans[index].start = _now()
        return index, owned

    def close(self, index: int, counter_keys: tuple = ()) -> None:
        self.spans[index].end = _now()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(
                f"span {self.spans[index].name} closed out of order "
                f"(top of stack is {self.spans[popped].name})"
            )
        depth = self._depth
        for key in counter_keys:
            depth[key] -= 1

    def write_jsonl(self, path) -> None:
        """Dump every span, one JSON object per line."""
        with open(path, "w", encoding="utf-8") as out:
            for index, span in enumerate(self.spans):
                out.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": span.name,
                            "start_ns": span.start,
                            "end_ns": span.end,
                            "parent": span.parent,
                            "iteration": span.iteration,
                            "counters": span.counters,
                        }
                    )
                    + "\n"
                )


def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus the durations of its direct children (ns)."""
    out = [span.end - span.start for span in spans]
    for span in spans:
        if span.parent >= 0:
            out[span.parent] -= span.end - span.start
    return out


def self_ms_name(layer: str) -> str:
    """``hashing`` -> ``hashing.self_ms``; ``encoder.ingest`` -> ``encoder.ingest_self_ms``."""
    return f"{layer}_self_ms" if "." in layer else f"{layer}.self_ms"


def ledger(spans: list[Span], iterations: list[int]) -> dict:
    """Per-iteration means of layer self times, counters and root time.

    Returns ``{metric: value}`` with every layer's self time in ms, every
    counter, ``unattributed_ms`` (root self time) and ``wall_ms`` (root
    duration), each averaged over ``iterations``.
    """
    wanted = set(iterations)
    count = max(1, len(wanted))
    selfs = self_times(spans)
    totals: dict[str, float] = {}
    unattributed = 0
    wall = 0
    for span, own in zip(spans, selfs):
        if span.iteration not in wanted:
            continue
        if span.name in ROOT_NAMES:
            unattributed += own
            wall += span.end - span.start
        else:
            key = self_ms_name(span.name)
            totals[key] = totals.get(key, 0.0) + own / 1e6
        for key, value in span.counters.items():
            totals[key] = totals.get(key, 0.0) + value
    out = {key: value / count for key, value in totals.items()}
    out["unattributed_ms"] = unattributed / 1e6 / count
    out["wall_ms"] = wall / 1e6 / count
    return out


# -- wrapper installation ---------------------------------------------------


@dataclass(frozen=True)
class Target:
    """One wrapped callable: ``owner`` is ``module`` or ``module:Class``."""

    layer: object  # str, or callable(args) -> str
    owner: str
    attr: str
    counters: tuple = ()  # (metric, fn(args, result) -> number) pairs


def _sized(value) -> int:
    try:
        return len(value)
    except TypeError:
        return 0


def _arg_len(position: int):
    return lambda args, result: _sized(args[position]) if len(args) > position else 0


def _arg_value(position: int):
    return lambda args, result: int(args[position])


def _result_len(args, result) -> int:
    return _sized(result)


def _one(args, result) -> int:
    return 1


def _result_int(args, result) -> int:
    return int(result)


def _recovered_counter():
    """Items a decoder recovered during one call (its running total's step)."""
    seen: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()

    def recovered(args, result) -> int:
        decoder = args[0]
        total = len(decoder.remote_values()) + len(decoder.local_values())
        step = total - seen.get(decoder, 0)
        seen[decoder] = total
        return step

    return recovered


def layer_targets() -> list[Target]:
    """Every wrapped boundary, grouped by layer (see README.md)."""
    from repro.protocol.machine import InitiatorMachine

    def machine_layer(args) -> str:
        if isinstance(args[0], InitiatorMachine):
            return "machine.client"
        return "machine.server"

    recovered = _recovered_counter()
    targets: list[Target] = []

    def add(layer, owner, attrs, counters=()):
        for attr in attrs:
            targets.append(Target(layer, owner, attr, tuple(counters)))

    hashed = (("hashing.items", _arg_len(1)),)
    add("hashing", "repro.service.shard", ["hash_items"], hashed)
    for hasher in ("SipHasher", "Blake2bHasher"):
        add(
            "hashing",
            f"repro.hashing.keyed:{hasher}",
            ["hash64_batch", "hash64_int_batch"],
            hashed,
        )
    add(
        "hashing",
        "repro.core.symbols:SymbolCodec",
        ["checksum_batch", "checksum_int_batch"],
        hashed,
    )
    add(
        "shard",
        "repro.service.shard",
        ["partition_with_hashes", "placements_from_hashes"],
        (("shard.items", _arg_len(0)),),
    )
    add(
        "shard",
        "repro.service.shard",
        ["shards_of", "partition_items"],
        (("shard.items", _arg_len(1)),),
    )
    add(
        "shard",
        "repro.service.shard:ShardedSet",
        ["add_many", "remove_many"],
        (("shard.items", _result_len),),
    )
    add(
        "encoder.ingest",
        "repro.core.encoder:RatelessEncoder",
        ["add_items", "remove_items"],
        (("encoder.ingest_items", _arg_len(1)),),
    )
    add(
        "encoder.ingest",
        "repro.core.encoder:RatelessEncoder",
        ["add_item", "remove_item"],
        (("encoder.ingest_items", _one),),
    )
    add(
        "encoder.produce",
        "repro.core.encoder:RatelessEncoder",
        ["produce_block"],
        (("encoder.cells_produced", _arg_value(1)),),
    )
    add(
        "encoder.produce",
        "repro.core.encoder:RatelessEncoder",
        ["produce_next"],
        (("encoder.cells_produced", _one),),
    )
    add(
        "cellbank.walk",
        "repro.core.cellbank",
        ["scatter_walk_arrays", "scatter_walk_numpy", "scatter_walk_scalar"],
        (("cellbank.walk_calls", _one),),
    )
    add("cellbank.pack", "repro.core.cellbank:CodedSymbolBank", ["pack"])
    add("cellbank.pack", "repro.core.wire:SymbolStreamWriter", ["write_block"])
    add("cellbank.unpack", "repro.core.cellbank:CodedSymbolBank", ["unpack"])
    add("cellbank.unpack", "repro.core.wire:SymbolStreamReader", ["feed_into"])
    add(
        "decoder",
        "repro.core.decoder:RatelessDecoder",
        ["add_coded_block"],
        (("decoder.cells_absorbed", _result_int), ("decoder.recovered", recovered)),
    )
    add(
        "decoder",
        "repro.core.decoder:RatelessDecoder",
        ["add_coded_symbol"],
        (("decoder.cells_absorbed", _one), ("decoder.recovered", recovered)),
    )
    add(
        "framing",
        "repro.service.framing",
        ["encode_frame"],
        (("framing.frames", _one), ("framing.bytes", _result_len)),
    )
    add(
        "framing",
        "repro.service.framing:FrameDecoder",
        ["feed"],
        (("framing.frames", _result_len), ("framing.bytes", _arg_len(1))),
    )
    add(
        machine_layer,
        "repro.protocol.machine:ReconcilerMachine",
        ["start", "bytes_received", "tick", "peer_closed", "take_output"],
    )
    add("machine.client", "repro.protocol.machine:InitiatorMachine", ["__init__"])
    add("machine.server", "repro.protocol.machine:ResponderMachine", ["__init__"])
    add(
        "backends.serve",
        "repro.service.backends:ShardStream",
        ["next_block"],
        (("backends.cells_served", _arg_value(1)),),
    )
    add(
        "backends.patch",
        "repro.service.backends:ShardBackend",
        ["add", "remove", "add_many", "remove_many"],
        (("backends.patch_calls", _one),),
    )
    add("durable", "repro.durable.store:DurableShardStore", ["journal_op", "note_churn"])
    add(
        "durable",
        "repro.durable.store:DurableShardStore",
        ["checkpoint"],
        (("durable.checkpoints", _one),),
    )
    add(
        "durable",
        "repro.durable.journal:Journal",
        ["append"],
        (("durable.journal_bytes", _arg_len(1)),),
    )
    return targets


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    module = importlib.import_module(module_name)
    return module, (getattr(module, class_name) if class_name else None)


def _class_family(cls) -> list:
    """``cls`` and every subclass currently defined, each once."""
    seen: list = []
    todo = [cls]
    while todo:
        current = todo.pop()
        if current not in seen:
            seen.append(current)
            todo.extend(current.__subclasses__())
    return seen


class Tracer:
    """Installs span wrappers around every :func:`layer_targets` boundary.

    Module-level functions are replaced at every ``repro`` module that
    binds them (``from x import f`` copies the binding), methods on the
    defining class and on every subclass that overrides them.  Only the
    traced run installs the wrappers; :meth:`uninstall` restores the
    exact original objects.
    """

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self.targets = layer_targets()
        self._sites: list[tuple[object, str, object, object]] = []
        self._plan()

    def _plan(self) -> None:
        # Import every owner first: subclasses defined in a later module
        # (DurableBackend) must exist before the class families are read.
        for target in self.targets:
            _resolve(target.owner)
        for target in self.targets:
            module, cls = _resolve(target.owner)
            if cls is None:
                original = getattr(module, target.attr)
                wrapper = self._wrap(original, target)
                for name, mod in list(sys.modules.items()):
                    if not name.startswith("repro") or mod is None:
                        continue
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._sites.append((mod, attr, original, wrapper))
                continue
            for klass in _class_family(cls):
                raw = klass.__dict__.get(target.attr)
                if raw is None:
                    continue
                if isinstance(raw, classmethod):
                    wrapper = classmethod(self._wrap(raw.__func__, target))
                elif isinstance(raw, staticmethod):
                    wrapper = staticmethod(self._wrap(raw.__func__, target))
                else:
                    wrapper = self._wrap(raw, target)
                self._sites.append((klass, target.attr, raw, wrapper))

    def _wrap(self, fn: Callable, target: Target) -> Callable:
        recorder = self.recorder
        layer = target.layer
        counters = target.counters
        keys = tuple(name for name, _ in counters)
        pick_layer = layer if callable(layer) else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = pick_layer(args) if pick_layer is not None else layer
            index, owned = recorder.open(name, keys)
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder.close(index, keys)
            if owned:
                span = recorder.spans[index]
                for key, count in counters:
                    if key in owned:
                        span.counters[key] = span.counters.get(key, 0) + count(
                            args, result
                        )
            return result

        traced.__wrapped_by_perfbench__ = True
        return traced

    def install(self) -> None:
        for owner, attr, _, wrapper in self._sites:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._sites):
            setattr(owner, attr, original)
