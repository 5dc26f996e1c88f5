"""Self-test of the benchmark on tiny instance sets.

Usage, from the root of a checkout:  python3 perfbench/selftest.py

Runs every workload untraced and traced on tiny inputs and asserts that each
metric BENCHMARK.json names is reported with its unit and that every answer
checks.  Then hands the checkers corrupted answers (a perturbed eigenvector
inside a full run, a bogus witness, an altered file, a wrong printed rho)
and asserts that each is counted as a failure.
"""

from __future__ import annotations

import dataclasses
import json
import sys

import run


def _expect(condition, message):
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def main() -> int:
    run.prepare()
    import checks
    import harness
    import specrad

    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        want = {m["name"]: m["unit"] for m in bench[key]}
        for name in run.WORKLOADS:
            result, _lines = harness.run(name, 3, 0.2, trace, tiny=True)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            _expect(got == want, f"{name} trace={trace} reports {got}, BENCHMARK.json lists {want}")
            _expect(result["correct"] and result["failed"] == 0, f"{name} trace={trace}: {result}")
            print(f"ok {name} trace={int(trace)}: {len(got)} metrics, {result['attempted']} ops checked")

    original = specrad.solve

    def perturbed(*args, **kwargs):
        report = original(*args, **kwargs)
        x = report.eigenvector.copy()
        x[0] *= 1.01
        return dataclasses.replace(report, eigenvector=x)

    specrad.solve = perturbed
    try:
        result, _lines = harness.run("dense_solve", 3, 0.2, False, tiny=True)
    finally:
        specrad.solve = original
    _expect(result["failed"] > 0 and not result["correct"], f"perturbed eigenvectors passed: {result}")
    print(f"ok perturbed eigenvector: failed_ratio {result['failed'] / result['attempted']}")

    data = specrad.random_tensor(3, 4, 0).data
    bogus = specrad.IrreducibilityVerdict(irreducible=False, witness=(1,))
    _expect(checks.check_deciders(data, bogus, bogus), "a bogus witness passed")
    _expect(checks.check_solve_output("rho = 1\nconverged = yes\n", 2.0), "a wrong rho line passed")
    out = harness.OUT_DIR / "selftest_tensor.txt"
    harness.OUT_DIR.mkdir(exist_ok=True)
    try:
        specrad.write_tensor(specrad.DenseTensor(data), out)
        lines = out.read_text(encoding="utf-8").splitlines()
        lines[1] = lines[1].rsplit(" ", 1)[0] + " 10.5"
        out.write_text("\n".join(lines) + "\n", encoding="utf-8")
        _expect(checks.check_written_file(out, data), "an altered tensor file passed")
    finally:
        out.unlink(missing_ok=True)
    print("ok corrupted witness, rho line and tensor file are caught")
    return 0


if __name__ == "__main__":
    sys.exit(main())
