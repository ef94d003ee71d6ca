import hrvlc


def test_public_names_are_pinned():
    # the functions the CLI composes; test oracles stay in tests/oracles.py
    assert hrvlc.__all__ == [
        "associate",
        "grid_oracle",
        "harvested_energy",
        "load_scenario",
        "reduce_coefficients",
        "rician_envelope",
        "solve_closed_form",
        "solve_iterative",
        "total_rate",
    ]
    assert all(callable(getattr(hrvlc, name)) for name in hrvlc.__all__)
