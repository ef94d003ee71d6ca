import hrvlc
import hrvlc.cli


def test_public_names_are_pinned():
    # the functions the CLI composes; test oracles stay in tests/oracles.py
    assert hrvlc.__all__ == [
        "associate",
        "grid_oracle",
        "load_scenario",
        "reduce_coefficients",
        "rician_envelope",
        "solve_closed_form",
        "solve_iterative",
        "total_rate",
    ]
    assert all(callable(getattr(hrvlc, name)) for name in hrvlc.__all__)


def test_every_public_name_is_one_the_cli_binds():
    # a function only tests call has no place in the API
    assert [name for name in hrvlc.__all__
            if getattr(hrvlc, name) is not getattr(hrvlc.cli, name, None)] == []
