"""Measurement helpers: per-layer self time, timed calls, the reference unit.

Per-layer self time comes from a cProfile run, grouped by the program's
modules.

The traced run profiles the same calls the untraced run times, then folds
every profiled function into the layer that owns its module.  Functions
outside the seven layers -- builtins, the standard library, helper modules
such as ``repro.units`` or ``repro.obs`` -- are charged to the layer that
called them, split by the time each caller spent in them; a caller outside
every layer passes its part on to its own callers, split by the cumulative
time each of them spent in it.  Time whose call chain reaches no layer (the
benchmark's own frames) is charged to ``harness``, which is left out of the
layer total, so the layer self times add up to the profiled wall time only
when the attribution works.
"""

from __future__ import annotations

import heapq
import pstats
import statistics
import time

#: Layer name -> module prefixes it owns.
LAYERS: dict[str, tuple[str, ...]] = {
    "engine": ("repro.sim.engine", "repro.sim.events"),
    "rng": ("repro.sim.rng",),
    "disk": ("repro.disk",),
    "alloc": ("repro.alloc", "repro.structures"),
    "fs": ("repro.fs",),
    "workload": ("repro.workload",),
    "core": ("repro.core",),
}

#: Time whose call chain never reaches a layer (the benchmark's own frames).
HARNESS = "harness"

#: Indices of a caller entry in a ``pstats`` callers dict.
_TT, _CT = 2, 3


def module_of(filename: str, src_root: str) -> str | None:
    """Dotted module name of a source file under ``src_root``, else None."""
    prefix = src_root.rstrip("/") + "/"
    if not filename.startswith(prefix) or not filename.endswith(".py"):
        return None
    dotted = filename[len(prefix):-3].replace("/", ".")
    return dotted[: -len(".__init__")] if dotted.endswith(".__init__") else dotted


def layer_of_module(module: str | None) -> str | None:
    if module is None:
        return None
    for layer, prefixes in LAYERS.items():
        for prefix in prefixes:
            if module == prefix or module.startswith(prefix + "."):
                return layer
    return None


class LayerProfile:
    """Self time and call counts per layer from one ``pstats`` table."""

    def __init__(self, stats: pstats.Stats, src_root: str) -> None:
        self._table = stats.stats  # func -> (cc, nc, tt, ct, callers)
        self._layer = {
            func: layer_of_module(module_of(func[0], src_root))
            for func in self._table
        }
        self._shares: dict[tuple, dict[str, float]] = {}
        self.self_s = {layer: 0.0 for layer in LAYERS}
        self.self_s[HARNESS] = 0.0
        self.calls = {layer: 0 for layer in LAYERS}
        for func, (_, nc, tt, _, _) in self._table.items():
            layer = self._layer[func]
            if layer is not None:
                self.self_s[layer] += tt
                self.calls[layer] += nc
                continue
            shares, _ = self._caller_shares(func, _TT, set())
            for owner, share in shares.items():
                self.self_s[owner] += tt * share

    @property
    def layers_s(self) -> float:
        """Self time charged to the seven layers (the harness left out)."""
        return sum(self.self_s[layer] for layer in LAYERS)

    def _caller_shares(
        self, func: tuple, index: int, visiting: set
    ) -> tuple[dict[str, float], bool]:
        """How time spent in a non-layer function splits over layers.

        ``index`` picks the per-caller weight: ``_TT`` (the function's own
        time under each caller) for its self time, ``_CT`` (its cumulative
        time under each caller) when a callee's time passes up through it.
        Each caller in a layer takes its part; a caller outside every layer
        passes its part on to its own callers.  Edges back into the chain
        being resolved are skipped, so a recursion cycle's time goes to the
        callers outside the cycle; a result that skipped such an edge to
        another function depends on the chain and is not cached.  Returns
        the shares and whether they were cached.
        """
        key = (func, index)
        cached = self._shares.get(key)
        if cached is not None:
            return cached, True
        visiting.add(func)
        callers = self._table[func][4]
        weights = {
            caller: entry[index]
            for caller, entry in callers.items()
            if caller not in visiting
        }
        clean = all(
            caller == func or caller not in visiting for caller in callers
        )
        total = sum(weights.values())
        if total <= 0.0:
            # No time measured per caller: split by call count instead.
            weights = {
                caller: callers[caller][1] for caller in weights
            }
            total = sum(weights.values())
        shares: dict[str, float] = {}
        if total <= 0.0:
            shares[HARNESS] = 1.0
        else:
            for caller, weight in weights.items():
                if weight <= 0.0:
                    continue
                part = weight / total
                layer = self._layer.get(caller)
                if layer is not None:
                    shares[layer] = shares.get(layer, 0.0) + part
                elif caller in self._table:
                    sub, sub_clean = self._caller_shares(caller, _CT, visiting)
                    clean = clean and sub_clean
                    for owner, value in sub.items():
                        shares[owner] = shares.get(owner, 0.0) + part * value
                else:
                    shares[HARNESS] = shares.get(HARNESS, 0.0) + part
        visiting.discard(func)
        if clean:
            self._shares[key] = shares
        return shares, clean


class Timer:
    """Accumulates host wall time of the calls it makes; with a profiler,
    profiles exactly those calls."""

    def __init__(self, profiler=None) -> None:
        self.profiler = profiler
        self.wall_s = 0.0

    def __call__(self, fn, *args, **kwargs):
        start = time.perf_counter()
        if self.profiler is not None:
            self.profiler.enable()
        try:
            return fn(*args, **kwargs)
        finally:
            if self.profiler is not None:
                self.profiler.disable()
            self.wall_s += time.perf_counter() - start


class _Node:
    __slots__ = ("key", "value", "next")

    def __init__(self, key: int, value: int, next_node) -> None:
        self.key = key
        self.value = value
        self.next = next_node


def _reference_pass() -> float:
    """One pass of the reference routine; returns its wall time."""
    started = time.perf_counter()
    state = 12345
    heap: list[tuple[int, int]] = []
    table: dict[int, int] = {}
    cells = [0] * 65_536
    head = None
    for i in range(40_000):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        slot = state & 0xFFFF
        cells[slot] += i
        heapq.heappush(heap, (state, i))
        if len(heap) > 512:
            heapq.heappop(heap)
        table[slot & 0xFFF] = table.get(slot & 0xFFF, 0) + 1
        head = _Node(slot, i, head if i % 64 else None)
    return time.perf_counter() - started


def reference_s() -> float:
    """Wall time of a fixed pure-Python routine: the unit of host speed.

    The routine does the kinds of work the simulator does -- heap pushes
    and pops, dict updates, slot-object allocation, scattered list writes
    -- and never changes, so the ratio of a round's wall time to it is
    comparable across commits and steady while the host's speed drifts.
    Median of three passes.
    """
    return statistics.median(_reference_pass() for _ in range(3))
