import specrad

PUBLIC_NAMES = [
    "DEFAULT_ALPHA",
    "DEFAULT_MAX_ITER",
    "DEFAULT_TOL",
    "DenseTensor",
    "IrreducibilityVerdict",
    "IterationState",
    "OracleEstimate",
    "ParseError",
    "SolveReport",
    "SolverConfig",
    "TraceRow",
    "add_identity_shift",
    "contract",
    "contraction_factor",
    "init_state",
    "irreducible_iterative",
    "power_iteration",
    "random_tensor",
    "read_tensor",
    "reducible_bruteforce",
    "row_sums",
    "solve",
    "step",
    "write_tensor",
    "write_trace_csv",
]


def test_public_names_are_pinned_and_resolve():
    assert sorted(specrad.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(specrad, name) is not None
