"""Per-layer wall-clock tracing and delay injection, applied from outside.

Nothing in ``src/`` knows about this module.  It replaces the public entry
points of each ``repro`` layer (class methods, and module functions at every
binding site) with wrappers that record one span per call:

* a span's **self time** is its duration minus the time its child spans
  cover, so the self times of all spans plus the time spent outside any
  span (the harness share) add up to the traced wall time exactly;
* a generator entry point is timed per resumption, so lazily consumed
  cursors charge their work to the layer that produces it;
* every wrapper counts its calls, and the tracer counts calls between
  layers (caller layer -> callee layer) for fan-out ratios.

Wrappers must be installed BEFORE the engine objects are built: commit
hooks are bound methods captured at construction time.

The same wrapping machinery injects fixed delays (wall-clock busy waits, or
simulated-clock advances) for the sensitivity check in ``check.py``.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import sys
from time import perf_counter_ns
from typing import Any, Callable, Iterator

#: layer -> [(dotted owner, attribute), ...]; an owner is a class
#: ("module:Class") or a module ("module") whose function is rewrapped at
#: every module that imported it by name
LAYERS: dict[str, list[tuple[str, str]]] = {
    "workloads": [
        ("repro.workloads.tpcc:TPCCRunner", "run"),
        ("repro.workloads.chbench:CHBenchmark", "run_query"),
        # the WorkloadBackend / WorkloadTxn implementations (one per
        # topology) are the workload layer's public API
        *[(f"repro.workloads.backend:{cls}", "begin")
          for cls in ("DatabaseBackend", "ServerBackend",
                      "ShardServerBackend")],
        *[("repro.workloads.backend:_DatabaseTxn", name)
          for name in ("commit", "select", "select_hits", "update")],
        *[("repro.workloads.backend:_SessionTxn", name)
          for name in ("commit", "insert", "select", "select_hits",
                       "range_select", "range_hits", "update", "delete",
                       "analytic_rows")],
        *[("repro.workloads.backend:_ShardSessionTxn", name)
          for name in ("commit", "abort", "insert", "select",
                       "select_hits", "range_select", "range_hits",
                       "update", "delete")],
    ],
    "serve": [
        *[("repro.serve.session:Session", name)
          for name in ("begin", "commit", "insert", "update_row",
                       "delete_row", "select", "select_hits", "range_hits",
                       "range_select", "batch_scan")],
        *[("repro.serve.shard_server:ShardSession", name)
          for name in ("begin", "commit", "abort", "insert", "update_hit",
                       "delete_hit", "select", "select_hits", "range_hits",
                       "range_select")],
        ("repro.serve.scheduler:FairScheduler", "acquire"),
        ("repro.serve.scheduler:FairScheduler", "release"),
        ("repro.serve.group_commit:GroupCommitter", "commit"),
    ],
    "shard": [
        *[("repro.shard.router:ShardedDatabase", name)
          for name in ("begin", "commit", "abort", "insert", "select",
                       "select_hits_tagged", "range_select",
                       "range_hits_tagged", "update_hit", "delete_hit")],
        ("repro.shard.coordinator:ShardCoordinator", "begin"),
        ("repro.shard.coordinator:ShardCoordinator", "log_decision"),
        ("repro.shard.coordinator:ShardCoordinator", "finish"),
    ],
    "engine": [
        *[("repro.engine.database:Database", name)
          for name in ("begin", "insert", "update_row", "delete_row",
                       "select", "select_hits", "range_select",
                       "range_hits")],
        ("repro.engine.executor:Executor", "lookup"),
        ("repro.engine.executor:Executor", "scan"),
    ],
    "table": [
        *[("repro.table.sias:SIASTable", name)
          for name in ("insert", "update", "delete", "fetch")],
    ],
    "txn": [
        *[("repro.txn.manager:TransactionManager", name)
          for name in ("begin", "begin_adopted", "commit", "finish_commit",
                       "abort")],
    ],
    "core": [
        *[("repro.core.tree:MVPBT", name)
          for name in ("search", "cursor", "_scan_hit_batches",
                       "range_scan", "insert", "update_nonkey", "delete",
                       "evict_partition")],
        ("repro.core.partition:PersistedPartition", "search"),
    ],
    "durability": [
        *[("repro.durability.controller:DurabilityController", name)
          for name in ("_on_commit", "drain_commit_records",
                       "append_group", "append_prepare",
                       "append_commit_marker", "on_eviction")],
        *[("repro.durability.wal:WriteAheadLog", name)
          for name in ("log", "log_group", "log_prepare")],
        ("repro.durability.manifest:ManifestStore", "write"),
    ],
    "buffer": [
        ("repro.buffer.pool:BufferPool", "get"),
        ("repro.buffer.pool:BufferPool", "put"),
        ("repro.buffer.partition_buffer:PartitionBuffer", "maybe_evict"),
    ],
    "storage": [
        ("repro.storage.keycodec", "encode_key"),
        ("repro.storage.keycodec", "encoded_size"),
        *[("repro.storage.pagefile:PageFile", name)
          for name in ("read_page", "write_page", "append_extents",
                       "flush_pages_sequential")],
        ("repro.storage.page:SlottedPage", "read"),
    ],
    "sim": [
        ("repro.sim.device:SimulatedDevice", "read"),
        ("repro.sim.device:SimulatedDevice", "write"),
    ],
}

LAYER_NAMES = tuple(LAYERS)
HARNESS = len(LAYER_NAMES)          #: pseudo-layer id of the harness


def import_all_repro() -> None:
    """Import every ``repro`` submodule, so rebinding a module function
    reaches every module that imported it by name."""
    import repro
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(info.name)


def _resolve(owner: str) -> tuple[Any, bool]:
    module_name, _, cls_name = owner.partition(":")
    module = importlib.import_module(module_name)
    if cls_name:
        return getattr(module, cls_name), True
    return module, False


class _Patch:
    """One attribute replacement, reversible."""

    def __init__(self, owner: Any, attr: str, new: Any) -> None:
        self.owner, self.attr = owner, attr
        self.old = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        setattr(owner, attr, new)

    def undo(self) -> None:
        setattr(self.owner, self.attr, self.old)


def patch_entry(owner_name: str, attr: str,
                make: Callable[[Callable[..., Any], str], Callable[..., Any]],
                label: str) -> list[_Patch]:
    """Replace one entry point by ``make(original, label)``.

    A class method is replaced on the class; a module function is replaced
    at every ``repro`` module that holds a reference to it (a wrapper on
    only the defining module would never fire for callers that imported
    the name directly).
    """
    owner, is_class = _resolve(owner_name)
    if is_class:
        raw = owner.__dict__[attr]
        if isinstance(raw, (staticmethod, classmethod, property)):
            raise TypeError(f"{label}: only plain methods can be wrapped")
        return [_Patch(owner, attr, make(raw, label))]
    import_all_repro()
    original = getattr(owner, attr)
    wrapped = make(original, label)
    return [_Patch(module, name, wrapped)
            for module in list(sys.modules.values())
            if getattr(module, "__name__", "").startswith("repro")
            for name, value in list(vars(module).items())
            if value is original]


def entry_label(owner_name: str, attr: str) -> str:
    return f"{owner_name.rpartition('.')[2].replace(':', '.')}.{attr}"


# ------------------------------------------------------------------ tracing


class Tracer:
    """Span accounting for one traced run (single client thread)."""

    def __init__(self) -> None:
        #: open spans, innermost last: time covered by each one's children
        #: and its layer id; the bottom entry is the harness
        self._child_ns: list[int] = [0]
        self._layer: list[int] = [HARNESS]
        #: entry label -> [layer_id, calls, self_ns, total_ns]
        self.entries: dict[str, list[int]] = {}
        n = HARNESS + 1
        #: calls[parent_layer][child_layer]
        self.layer_calls = [[0] * n for _ in range(n)]
        self._patches: list[_Patch] = []

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        for layer_id, layer in enumerate(LAYER_NAMES):
            for owner, attr in LAYERS[layer]:
                label = entry_label(owner, attr)
                self._patches += patch_entry(
                    owner, attr,
                    lambda fn, lbl, lid=layer_id: self._wrap(fn, lbl, lid),
                    label)

    def uninstall(self) -> None:
        for patch in reversed(self._patches):
            patch.undo()
        self._patches.clear()

    def reset(self) -> None:
        """Zero every counter (call at the start of the timed region)."""
        for rec in self.entries.values():
            rec[1:] = [0, 0, 0]
        for row in self.layer_calls:
            row[:] = [0] * len(row)
        self._child_ns[:] = [0]
        self._layer[:] = [HARNESS]

    # -- wrappers -------------------------------------------------------

    def _wrap(self, fn: Callable[..., Any], label: str,
              layer_id: int) -> Callable[..., Any]:
        rec = self.entries.setdefault(label, [layer_id, 0, 0, 0])
        child_ns, layers = self._child_ns, self._layer
        push_child, pop_child = child_ns.append, child_ns.pop
        push_layer, pop_layer = layers.append, layers.pop
        row_of = self.layer_calls

        def span(step: Callable[[], Any]) -> Any:
            """Run ``step`` as one span of this entry point."""
            push_child(0)
            push_layer(layer_id)
            t0 = perf_counter_ns()
            try:
                return step()
            finally:
                dur = perf_counter_ns() - t0
                pop_layer()
                rec[2] += dur - pop_child()
                rec[3] += dur
                child_ns[-1] += dur

        if inspect.isgeneratorfunction(fn):
            def traced_gen(*args: Any, **kwargs: Any) -> Iterator[Any]:
                rec[1] += 1
                row_of[layers[-1]][layer_id] += 1
                return resume_spans(fn(*args, **kwargs))

            def resume_spans(gen: Iterator[Any]) -> Iterator[Any]:
                # one span per resumption; closing the wrapper closes the
                # wrapped generator inside a span too (its cleanup code)
                sentinel = object()
                step = lambda: next(gen, sentinel)    # noqa: E731
                while True:
                    item = span(step)
                    if item is sentinel:
                        return
                    try:
                        yield item
                    except GeneratorExit:
                        span(gen.close)
                        raise

            traced_gen.__wrapped__ = fn     # type: ignore[attr-defined]
            return traced_gen

        def traced(*args: Any, **kwargs: Any) -> Any:
            rec[1] += 1
            row_of[layers[-1]][layer_id] += 1
            push_child(0)
            push_layer(layer_id)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter_ns() - t0
                pop_layer()
                rec[2] += dur - pop_child()
                rec[3] += dur
                child_ns[-1] += dur

        traced.__wrapped__ = fn     # type: ignore[attr-defined]
        return traced

    # -- readout --------------------------------------------------------

    @property
    def harness_ns(self) -> int:
        """Time covered by top-level spans is charged here as child time;
        the harness's own time is wall minus this."""
        return self._child_ns[0]

    def layer_self_ns(self) -> dict[str, int]:
        out = {name: 0 for name in LAYER_NAMES}
        for layer_id, _calls, self_ns, _total in self.entries.values():
            out[LAYER_NAMES[layer_id]] += self_ns
        return out

    def layer_call_counts(self) -> dict[str, int]:
        out = {name: 0 for name in LAYER_NAMES}
        for layer_id, calls, _self, _total in self.entries.values():
            out[LAYER_NAMES[layer_id]] += calls
        return out

    def calls(self, *labels: str) -> int:
        return sum(self.entries[label][1] for label in labels)

    def self_ns(self, *labels: str) -> int:
        return sum(self.entries[label][2] for label in labels)

    def total_ns(self, *labels: str) -> int:
        return sum(self.entries[label][3] for label in labels)

    def calls_between(self, parent: str, children: tuple[str, ...]) -> int:
        row = self.layer_calls[LAYER_NAMES.index(parent)]
        return sum(row[LAYER_NAMES.index(child)] for child in children)


# --------------------------------------------------------- delay injection


def spin(ns: int) -> None:
    """Busy-wait ``ns`` nanoseconds (sleep is far too coarse for µs)."""
    end = perf_counter_ns() + ns
    while perf_counter_ns() < end:
        pass


class Injector:
    """Adds a fixed delay after each call of chosen entry points.

    ``wall_us`` busy-waits on the wall clock.  ``sim_us`` advances the
    simulated clock reached through ``clock_of(self)``, and, when
    ``only_if`` is given, only for calls where ``only_if(before, self,
    *args)`` holds (``before`` is what ``probe(self, *args)`` returned
    before the call).  Delays fire only while :attr:`active` is set, so set-up
    runs undelayed.
    """

    def __init__(self) -> None:
        self.active = False
        self.fired = 0
        self._patches: list[_Patch] = []
        #: called with the built workload, for delays that need its
        #: engine objects
        self.binders: list[Callable[[Any], None]] = []

    def bind(self, workload: Any) -> None:
        for binder in self.binders:
            binder(workload)

    def add_wall(self, entries: list[tuple[str, str]], wall_us: float,
                 per_item: bool = False) -> None:
        """With ``per_item`` the delay is paid per item a generator yields
        or a returned list holds (a scan's cost per row)."""
        ns = int(wall_us * 1000)

        def pay(times: int) -> None:
            if self.active and times:
                self.fired += 1
                spin(ns * times)

        def make(fn: Callable[..., Any], _label: str) -> Callable[..., Any]:
            if per_item and inspect.isgeneratorfunction(fn):
                def delayed_gen(*args: Any, **kwargs: Any) -> Iterator[Any]:
                    gen = fn(*args, **kwargs)
                    try:
                        for item in gen:
                            pay(1)
                            yield item
                    finally:
                        gen.close()
                return delayed_gen

            def delayed(*args: Any, **kwargs: Any) -> Any:
                result = None
                try:
                    result = fn(*args, **kwargs)
                    return result
                finally:
                    pay(len(result or ()) if per_item else 1)
            return delayed
        for owner, attr in entries:
            self._patches += patch_entry(owner, attr, make,
                                         entry_label(owner, attr))

    def add_sim(self, entries: list[tuple[str, str]], sim_us: float,
                clock_of: Callable[[Any], Any],
                probe: Callable[..., Any] | None = None,
                only_if: Callable[..., bool] | None = None) -> None:
        seconds = sim_us * 1e-6

        def make(fn: Callable[..., Any], _label: str) -> Callable[..., Any]:
            def delayed(obj: Any, *args: Any, **kwargs: Any) -> Any:
                before = probe(obj, *args) if probe is not None else None
                result = fn(obj, *args, **kwargs)
                if self.active and (only_if is None
                                    or only_if(before, obj, *args)):
                    self.fired += 1
                    clock_of(obj).advance(seconds)
                return result
            return delayed
        for owner, attr in entries:
            self._patches += patch_entry(owner, attr, make,
                                         entry_label(owner, attr))
