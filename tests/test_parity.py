"""The parity corpus still finds the inputs it shares with the suite and the benchmark."""

import importlib.util
import sys
from pathlib import Path

from conftest import BAD_FILES, CLI_CASES, PARITY_CASES
from test_acceptance import TABLE_SHAPES

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "parity.py"


def test_corpus_names_cover_the_shared_inputs(tmp_path, monkeypatch):
    # the script puts tests/ and perfbench/ on the path; the copy is restored afterwards
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("parity", SCRIPT)
    parity = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(parity)
    # the names alone: no case runs
    names = [name for name, _ in parity.cases(tmp_path)]
    assert len(names) == len(set(names))
    for key in [*PARITY_CASES, *BAD_FILES]:
        assert f"read_tensor stream {key}" in names
    for case in CLI_CASES:
        assert f"cli {case.id}" in names
    for n, m in TABLE_SHAPES:
        for i in range(10):
            assert f"acceptance ({n},{m}) #{i} | build" in names
    sparse = {name.split(" (dim")[0] for name in names if name.startswith("decider sparse #")}
    assert sparse == {f"decider sparse #{i}" for i in range(100)}
    # one case per benchmark instance but golden, in the benchmark's order
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import SmallSolve

    workload = SmallSolve(1, False, None)
    workload.build()
    expected = [
        kind if kind == "sparse" else f"{kind} ({t.dim},{t.order})"
        for kind, t, _ in workload.instances
        if kind != "golden"
    ]
    built = [name for name in names if name.startswith("small_solve seed 1 ") and name.endswith(" | build")]
    assert len(built) == len(expected) == 95
    for name, start in zip(built, expected):
        assert name.startswith(f"small_solve seed 1 {start}")
