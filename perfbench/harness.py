"""Set-up, the measured loop, the traced run's layer metrics and the header.

The untraced run times whole ops (batches) back to back for the requested
seconds and gives the end-to-end metrics.  The traced run alternates
untraced and traced batches for the same time, so the tracing overhead is
measured within one run, and derives the per-layer metrics from the traced
batches' spans plus a few measurements of its own (the one-pass floor, the
allocation peak of one sweep, the import time and a small probe of every
layer the workload does not call).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path
from statistics import median

import numpy as np

import checks
import specrad
import specrad.cli
from tracing import LAYER_METRICS, Tracer, layer_metrics, stepped_sizes, summarize
from workloads import BENCH_DIR, WORKLOADS, Cli, write_tensor_file, sparse_tensor

ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
SETUP_REPS = 3
FLOOR_REPS = 5

END_TO_END_UNITS = {"setup_s": "s", "batch_p50_s": "s", "entries_per_s": "1/s", "peak_rss_mb": "MB"}
EXTRA_LAYER_UNITS = {"solver.step_alloc_mb": "MB", "cli.import_s": "s", "trace.overhead_ratio": "1"}


def _llc() -> str:
    """Size of the largest-level cache of cpu0, as the kernel reports it."""
    best = (-1, "unknown")
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        with contextlib.suppress(OSError, ValueError):
            level = int((index / "level").read_text())
            best = max(best, (level, (index / "size").read_text().strip()))
    return best[1]


def _llc_bytes(text: str) -> int:
    units = {"K": 2**10, "M": 2**20, "G": 2**30}
    with contextlib.suppress(ValueError, IndexError, KeyError):
        return int(text[:-1]) * units[text[-1]]
    return 0


def _commit() -> str:
    git = ROOT / ".git"
    with contextlib.suppress(OSError):
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            return (git / head[5:]).read_text().strip()
        return head
    return "unknown (not a git checkout)"


def _blas() -> str:
    with contextlib.suppress(KeyError, TypeError, AttributeError):  # config layout varies by numpy
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    return "unknown"


def header(name, seed, seconds, trace, largest_bytes) -> list[str]:
    llc = _llc()
    llc4 = 4 * _llc_bytes(llc)
    side = "under" if largest_bytes < llc4 else "at or over"
    threads = os.environ.get("OPENBLAS_NUM_THREADS")
    return [
        f"workload={name} seed={seed} seconds={seconds} trace={trace} commit={_commit()}",
        f"nproc={os.cpu_count()} python={platform.python_version()} numpy={np.__version__} "
        f"blas={_blas()} blas_threads={threads} (fixed for this process and every child)",
        f"llc={llc} 4xllc={llc4 / 2**20:.0f}MiB largest_array={largest_bytes / 2**20:.1f}MiB ({side} 4xLLC): "
        "floor and GB/s figures are computed bytes, not measured DRAM traffic",
    ]


def _floor_seconds(array: np.ndarray) -> float:
    """Median time of one read-only pass (a sum) over ``array``'s entries."""
    flat = array.reshape(-1)
    reps = max(1, min(1000, 1_000_000 // flat.size))
    samples = []
    for _ in range(FLOOR_REPS):
        begin = time.perf_counter()
        for _ in range(reps):
            np.add.reduce(flat)
        samples.append((time.perf_counter() - begin) / reps)
    return median(samples)


def _step_alloc_mb(tensors) -> float:
    """Largest tracemalloc peak of one sweep, over the workload's shapes."""
    peak, seen = 0, set()
    for t in tensors:
        if t.data.shape in seen:
            continue
        seen.add(t.data.shape)
        state = specrad.init_state(t, specrad.SolverConfig(trace=False))
        tracemalloc.start()
        try:
            specrad.step(state)
            peak = max(peak, tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        del state
    return peak / 2**20


def _probe(wl, tracer: Tracer, seed: int, workdir: Path) -> list[list]:
    """One small fixed call of every layer, traced; plus one
    ``contraction_factor`` on the initial state of each workload tensor,
    which ``solve`` never calls."""
    probe_file, golden_file = workdir / "probe.txt", workdir / "probe_golden.txt"
    write_tensor_file(golden_file, checks.golden_data())
    small = specrad.random_tensor(3, 20, seed)
    sparse = sparse_tensor(8, np.random.default_rng(seed))
    golden = specrad.DenseTensor(checks.golden_data())
    span_lists = []
    tracer.install()
    try:
        specrad.write_tensor(small, probe_file)
        specrad.read_tensor(probe_file)
        specrad.irreducible_iterative(sparse)
        specrad.reducible_bruteforce(sparse)
        specrad.power_iteration(specrad.add_identity_shift(golden, 1.0))
        with contextlib.redirect_stdout(io.StringIO()):
            specrad.cli.main(["solve", str(golden_file)])
    finally:
        tracer.uninstall()
    span_lists.append(tracer.take())
    for t in wl.probe_tensors():
        state = specrad.init_state(t, specrad.SolverConfig(trace=False))
        if state.upper > state.lower:
            tracer.install()
            try:
                specrad.contraction_factor(state)
            finally:
                tracer.uninstall()
        del state
        span_lists.append(tracer.take())
    return span_lists


def _import_seconds(workdir: Path) -> float:
    """``import specrad`` (with the CLI module) timed inside a fresh child."""
    out = workdir / "import.json"
    subprocess.run([sys.executable, str(BENCH_DIR / "child.py"), str(out)], check=True, timeout=120)
    return json.loads(out.read_text(encoding="utf-8"))["import_s"]


def _tail(times) -> str:
    """Highest percentile with at least ten samples beyond it."""
    if len(times) < 11:
        return f"batch_tail_s: omitted ({len(times)} samples, need 11)"
    ordered = sorted(times)
    return (
        f"batch_tail_s: p{100 * (len(times) - 10) / len(times):.0f} = {ordered[-11]:.6g} s "
        f"({len(times)} samples, 10 beyond)"
    )


def _peak_rss_mb(wl) -> float:
    who = resource.RUSAGE_CHILDREN if isinstance(wl, Cli) else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def _per_size(summaries, floor_by_entries) -> dict:
    """Per stepped array size: seconds per step call against the floor."""
    steps: dict[int, list] = {}
    for summary in summaries:
        for entries, (calls, seconds) in summary.get("step", {}).get("sizes", {}).items():
            total = steps.setdefault(entries, [0, 0.0])
            total[0] += calls
            total[1] += seconds
    return {
        entries: {
            "steps": calls,
            "step_s_per_call": seconds / calls,
            "floor_s": floor_by_entries[entries],
            "step_over_floor": seconds / calls / floor_by_entries[entries],
        }
        for entries, (calls, seconds) in sorted(steps.items())
    }


def run(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False):
    """Run one workload; return (result line dict, report lines)."""
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT_DIR))
    try:
        return _run(name, seed, seconds, trace, tiny, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _setup(wl, workdir):
    """Build the inputs SETUP_REPS times, each after an import in a fresh
    child, then run one untimed warm-up op."""
    imports, builds = [], []
    for _ in range(SETUP_REPS):
        imports.append(_import_seconds(workdir))
        begin = time.perf_counter()
        wl.build()
        builds.append(time.perf_counter() - begin)
    begin = time.perf_counter()
    wl.warmup()
    return imports, builds, time.perf_counter() - begin


def _measure(wl, seconds, tracer):
    """Run ops back to back for ``seconds``, alternating untraced and traced
    ops when there is a tracer, and check every op's answers."""
    m = {"untraced": [], "traced": [], "summaries": [], "first_spans": None,
         "attempted": 0, "failed": 0, "problems": [], "completed_entries": 0}
    start = time.perf_counter()
    while True:
        use_tracer = tracer is not None and len(m["untraced"]) > len(m["traced"])
        if use_tracer:
            tracer.op = len(m["traced"]) + 1
            tracer.install()
        begin = time.perf_counter()
        try:
            if use_tracer:
                results, spans = wl.traced_batch(tracer)
            else:
                results = wl.batch()
        finally:
            if use_tracer:
                tracer.uninstall()
        m["traced" if use_tracer else "untraced"].append(time.perf_counter() - begin)
        if use_tracer:
            m["summaries"].append(summarize(spans))
            m["first_spans"] = m["first_spans"] or spans
        for op_problems, entries in zip(wl.check(results), wl.op_entries):
            m["attempted"] += 1
            m["failed"] += bool(op_problems)
            m["problems"] += op_problems
            if not use_tracer and not op_problems:
                m["completed_entries"] += entries
        if time.perf_counter() - start >= seconds and (tracer is None or m["traced"]):
            return m


def _layers(wl, tracer, seed, workdir, m, imports):
    """Per-layer metrics of the traced ops, with the run's own floor,
    allocation, import and probe measurements."""
    probe = summarize(_probe(wl, tracer, seed, workdir))
    sizes = set().union(*map(stepped_sizes, m["summaries"] + [probe]))
    arrays = {t.entries.size: t.data for t in wl.probe_tensors()}
    floor_by_entries = {e: _floor_seconds(arrays[e] if e in arrays else np.full(e, 0.5)) for e in sizes}
    values, sources = layer_metrics(m["summaries"], probe, floor_by_entries)
    values["solver.step_alloc_mb"] = _step_alloc_mb(wl.probe_tensors())
    values["cli.import_s"] = median(imports)
    values["trace.overhead_ratio"] = median(m["traced"]) / median(m["untraced"])
    units = {key: unit for key, (unit, _needs) in LAYER_METRICS.items()} | EXTRA_LAYER_UNITS
    metrics = {key: (values[key], units[key]) for key in units}
    return metrics, sources, _per_size(m["summaries"], floor_by_entries)


def _run(name, seed, seconds, trace, tiny, workdir):
    wl = WORKLOADS[name](seed, tiny, workdir)
    imports, builds, warmup_s = _setup(wl, workdir)
    tracer = Tracer() if trace else None
    m = _measure(wl, seconds, tracer)
    end_to_end = {
        "setup_s": median(i + b for i, b in zip(imports, builds)),
        "batch_p50_s": median(m["untraced"]),
        "entries_per_s": m["completed_entries"] / sum(m["untraced"]),
        "peak_rss_mb": _peak_rss_mb(wl),
    }
    lines = header(name, seed, seconds, int(trace), 8 * max(wl.op_entries))
    lines.append(
        f"setup: median of {SETUP_REPS} x (import in a fresh child, median {median(imports):.6g} s "
        f"+ input build, median {median(builds):.6g} s); then one untimed warm-up op {warmup_s:.6g} s"
    )
    lines += [f"{key}: {value:.6g} {END_TO_END_UNITS[key]}" for key, value in end_to_end.items()]
    samples = f"batch samples: {len(m['untraced'])} untraced"
    lines.append(samples + (f", {len(m['traced'])} traced" if trace else ""))
    lines.append(_tail(m["untraced"]))
    lines += [f"{key}: {value:.6g} {unit}" for key, (value, unit) in wl.summary().items()]
    lines.append(f"failed_ratio: {m['failed'] / m['attempted']:.6g} ({m['failed']} of {m['attempted']} ops)")
    lines += [f"problem: {p}" for p in m["problems"][:5]]

    if not trace:
        metrics = {key: (value, END_TO_END_UNITS[key]) for key, value in end_to_end.items()}
    else:
        metrics, sources, per_size = _layers(wl, tracer, seed, workdir, m, imports)
        lines.append(
            "trace overhead: traced batch_p50_s / untraced batch_p50_s = "
            f"{metrics['trace.overhead_ratio'][0]:.4g}"
        )
        lines += [
            f"step on {e} entries: {d['step_s_per_call']:.6g} s/call over {d['steps']} calls, "
            f"floor {d['floor_s']:.6g} s, {d['step_over_floor']:.4g}x floor"
            for e, d in per_size.items()
        ]
        probed = sorted(k for k, v in sources.items() if v == "probe")
        lines.append(
            "from the fixed layer probe (not on this workload's path): " + (", ".join(probed) or "none")
        )
        lines += [f"{key}: {value:.6g} {unit}" for key, (value, unit) in metrics.items()]
        _write_trace(name, seed, lines, metrics, sources, per_size, m)

    result = {
        "correct": m["attempted"] > 0 and m["failed"] == 0,
        "attempted": m["attempted"],
        "failed": m["failed"],
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }
    return result, lines


def _write_trace(name, seed, lines, metrics, sources, per_size, m):
    """The traced run's record: report, layer metrics and where each came
    from, per-size step costs, batch times and the first traced batch's
    spans (one list per process)."""
    doc = {
        "report": lines,
        "metrics": {
            k: {"value": v, "unit": u, "source": sources.get(k, "workload")}
            for k, (v, u) in metrics.items()
        },
        "per_size": per_size,
        "untraced_batch_s": m["untraced"],
        "traced_batch_s": m["traced"],
        "first_traced_batch_spans": m["first_spans"],
    }
    path = OUT_DIR / f"trace-{name}-seed{seed}.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
