"""Spans around specrad's public calls, installed from the benchmark's side.

Only the traced run installs them: :meth:`Tracer.install` swaps each public
function for a wrapper in every specrad module that binds it, and
:meth:`Tracer.uninstall` puts the originals back.  A span is
``[name, start, end, parent, op, attrs]`` where ``parent`` indexes the
enclosing span of the same process (``-1`` at top level) and ``op`` is shared
by all spans of one operation.  Spans stay in memory; the run reduces each
traced op's spans to a :func:`summarize` table and writes the first op's
spans out at exit.
"""

from __future__ import annotations

import os
import time
from statistics import median

import specrad
import specrad.cli
import specrad.oracles
import specrad.solver
import specrad.structure
import specrad.tensor
import specrad.tensorfile

MODULES = (
    specrad,
    specrad.tensor,
    specrad.solver,
    specrad.structure,
    specrad.oracles,
    specrad.tensorfile,
    specrad.cli,
)


def _entries(args, result):
    first = args[0]
    tensor = getattr(first, "tensor", first)
    return {"entries": int(tensor.entries.size)}


def _path_bytes(position):
    def attrs(args, result):
        path = args[position]
        return {"bytes": os.path.getsize(path)} if isinstance(path, (str, os.PathLike)) else None

    return attrs


def _count(field, key):
    return lambda args, result: {key: int(getattr(result, field))}


# name -> (home module, attrs taken from the call's arguments and result)
TRACED = {
    "read_tensor": (specrad.tensorfile, _path_bytes(0)),
    "write_tensor": (specrad.tensorfile, _path_bytes(1)),
    "contract": (specrad.tensor, _entries),
    "diagonal_similarity": (specrad.tensor, _entries),
    "solve": (specrad.solver, _count("iterations", "sweeps")),
    "init_state": (specrad.solver, None),
    "step": (specrad.solver, _entries),
    "residual": (specrad.solver, None),
    "contraction_factor": (specrad.solver, None),
    "irreducible_iterative": (specrad.structure, None),
    "reducible_bruteforce": (specrad.structure, None),
    "power_iteration": (specrad.oracles, _count("iterations", "iterations")),
    "collatz_wielandt_bounds": (specrad.oracles, None),
    "main": (specrad.cli, None),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = 0
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, attrs_of):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if attrs_of is not None:
                span[5] = attrs_of(args, result)
            return result

        return traced

    def install(self):
        for name, (home, attrs_of) in TRACED.items():
            original = getattr(home, name)
            wrapped = self._wrap(name, original, attrs_of)
            for module in MODULES:
                if getattr(module, name, None) is original:
                    self._undo.append((module, name, original))
                    setattr(module, name, wrapped)
        init = specrad.DenseTensor.__init__
        self._undo.append((specrad.DenseTensor, "__init__", init))
        specrad.DenseTensor.__init__ = self._wrap("DenseTensor", init, None)

    def uninstall(self):
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def take(self) -> list[list]:
        """Return the spans recorded so far and start a fresh list."""
        taken = list(self.spans)
        self.spans.clear()
        return taken


def summarize(span_lists) -> dict:
    """Per span name: calls, inclusive seconds, self seconds and summed
    attrs; for ``step`` also ``sizes``, array entries -> [calls, seconds].

    Each list holds the spans of one process, so parent indices are local
    to it.  Self time is the duration minus the time direct children cover.
    """
    out: dict[str, dict] = {}
    for spans in span_lists:
        covered = [0.0] * len(spans)
        for name, start, end, parent, _op, _attrs in spans:
            if parent >= 0:
                covered[parent] += end - start
        for (name, start, end, _parent, _op, attrs), child in zip(spans, covered):
            row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["s"] += end - start
            row["self_s"] += end - start - child
            for key, value in (attrs or {}).items():
                row[key] = row.get(key, 0) + value
            if name == "step":
                size = row.setdefault("sizes", {}).setdefault(attrs["entries"], [0, 0.0])
                size[0] += 1
                size[1] += end - start
    return out


def stepped_sizes(summary: dict) -> set[int]:
    return set(summary.get("step", {}).get("sizes", {}))


def floor_of(summary: dict, floor_by_entries) -> float:
    """Seconds one read-only pass over each stepped array takes, summed over
    the same steps."""
    sizes = summary.get("step", {}).get("sizes", {})
    return sum(calls * floor_by_entries[entries] for entries, (calls, _s) in sizes.items())


# metric name -> (unit, span names that must occur for the workload to
# have exercised the layer)
LAYER_METRICS = {
    "tensorfile.read_s": ("s", ("read_tensor",)),
    "tensorfile.read_mb_per_s": ("MB/s", ("read_tensor",)),
    "tensorfile.write_s": ("s", ("write_tensor",)),
    "tensorfile.write_mb_per_s": ("MB/s", ("write_tensor",)),
    "tensorfile.file_bytes": ("bytes", ("read_tensor", "write_tensor")),
    "tensor.validate_s": ("s", ("DenseTensor",)),
    "tensor.validate_calls": ("count", ("DenseTensor", "solve")),
    "tensor.contract_s": ("s", ("contract",)),
    "tensor.contract_gbps": ("GB/s", ("contract",)),
    "tensor.diagonal_similarity_s": ("s", ("diagonal_similarity",)),
    "tensor.floor_s": ("s", ("step",)),
    "tensor.floor_gbps": ("GB/s", ("step",)),
    "solver.sweeps": ("count", ("solve",)),
    "solver.step_s": ("s", ("step",)),
    "solver.step_over_floor": ("1", ("step",)),
    "solver.step_gbps": ("GB/s", ("step",)),
    "solver.init_s": ("s", ("init_state",)),
    "solver.residual_s": ("s", ("residual",)),
    "solver.contraction_factor_s": ("s", ("contraction_factor",)),
    "structure.irreducible_iterative_s": ("s", ("irreducible_iterative",)),
    "structure.reducible_bruteforce_s": ("s", ("reducible_bruteforce",)),
    "oracles.power_iteration_s": ("s", ("power_iteration",)),
    "oracles.power_iterations": ("count", ("power_iteration",)),
    "oracles.collatz_wielandt_s": ("s", ("collatz_wielandt_bounds",)),
    "cli.self_s": ("s", ("main",)),
}


def _values(s: dict, floor_s: float) -> dict:
    """Every metric of LAYER_METRICS from one summary.  Times are inclusive
    seconds summed over the calls, except ``cli.self_s``; GB/s figures are
    computed bytes (8 per stepped or contracted entry) over time."""

    def get(name, key="s"):
        return s.get(name, {}).get(key, 0)

    def ratio(num, den):
        return num / den if den > 0 else 0.0

    read_bytes, write_bytes = get("read_tensor", "bytes"), get("write_tensor", "bytes")
    step_gb = 8e-9 * get("step", "entries")
    return {
        "tensorfile.read_s": get("read_tensor"),
        "tensorfile.read_mb_per_s": ratio(read_bytes / 1e6, get("read_tensor")),
        "tensorfile.write_s": get("write_tensor"),
        "tensorfile.write_mb_per_s": ratio(write_bytes / 1e6, get("write_tensor")),
        "tensorfile.file_bytes": read_bytes + write_bytes,
        "tensor.validate_s": get("DenseTensor"),
        "tensor.validate_calls": ratio(get("DenseTensor", "calls"), get("solve", "calls")),
        "tensor.contract_s": get("contract"),
        "tensor.contract_gbps": ratio(8e-9 * get("contract", "entries"), get("contract")),
        "tensor.diagonal_similarity_s": get("diagonal_similarity"),
        "tensor.floor_s": floor_s,
        "tensor.floor_gbps": ratio(step_gb, floor_s),
        "solver.sweeps": get("solve", "sweeps"),
        "solver.step_s": get("step"),
        "solver.step_over_floor": ratio(get("step"), floor_s),
        "solver.step_gbps": ratio(step_gb, get("step")),
        "solver.init_s": get("init_state"),
        "solver.residual_s": get("residual"),
        "solver.contraction_factor_s": get("contraction_factor"),
        "structure.irreducible_iterative_s": get("irreducible_iterative"),
        "structure.reducible_bruteforce_s": get("reducible_bruteforce"),
        "oracles.power_iteration_s": get("power_iteration"),
        "oracles.power_iterations": get("power_iteration", "iterations"),
        "oracles.collatz_wielandt_s": get("collatz_wielandt_bounds"),
        "cli.self_s": get("main", "self_s"),
    }


def layer_metrics(summaries, probe, floor_by_entries):
    """Median over traced batches of each layer metric.

    ``summaries`` holds one :func:`summarize` result per traced batch.  A
    metric whose spans never occur in them is taken from ``probe`` (the
    summary of one small fixed call of each layer) and reported in
    ``sources`` as ``"probe"``.
    """
    per_batch = [_values(s, floor_of(s, floor_by_entries)) for s in summaries]
    from_probe = _values(probe, floor_of(probe, floor_by_entries))
    values, sources = {}, {}
    for name, (_unit, needs) in LAYER_METRICS.items():
        if all(any(need in s for s in summaries) for need in needs):
            values[name] = median(v[name] for v in per_batch)
            sources[name] = "workload"
        else:
            values[name] = from_probe[name]
            sources[name] = "probe"
    return values, sources
