"""Ratchet on numpy transcendentals in the package source.

README promises byte-identical CSVs for the same config, command and seed,
but numpy picks SIMD kernels for exp, log, pow and the like by CPU, and
those can differ from libm in the last ulp; the package takes such calls
through ``harvest_uplink._libm`` instead.  This test walks ``src/hrvlc``
with ``ast`` and fails on any call ``np.<f>`` of a name below, so no new
CPU-dependent kernel slips in while the known one waits on the fix.

The one allowed call is the uplink ``np.log2`` in ``objective.total_rate``
(ROADMAP item 2); when it goes, so must its allowance.  Item 2's other
offender is ``np.abs`` of a complex array in ``rician_envelope``: ``abs``
is exact on reals, so a scan by name cannot tell that call apart, and it
is not checked here.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "hrvlc"

TRANSCENDENTALS = {
    "exp", "exp2", "expm1", "log", "log2", "log10", "log1p", "power",
    "float_power", "cbrt", "tan", "sinh", "cosh", "tanh",
}

# (module, enclosing function, numpy function) of each call still allowed
PENDING = {("objective.py", "total_rate", "log2")}


def _numpy_transcendental_calls(module, source):
    """(module, enclosing function, name) of each ``np.<name>(...)`` call."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in ("np", "numpy")
                and (node.func.attr in TRANSCENDENTALS
                     or node.func.attr.startswith("arc"))):
            found.append((module, function, node.func.attr))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), None)
    return found


def test_no_new_numpy_transcendental():
    calls = [call for path in sorted(SRC.glob("*.py"))
             for call in _numpy_transcendental_calls(
                 path.name, path.read_text(encoding="utf-8"))]
    assert sorted(calls) == sorted(PENDING)


def test_the_scan_sees_each_kind_of_call():
    source = ("import numpy as np\n"
              "def f(x):\n"
              "    return np.exp(x) + np.arctan2(x, x) + np.sqrt(x)\n"
              "y = np.power(2.0, 3.0)\n")
    assert _numpy_transcendental_calls("m.py", source) == [
        ("m.py", "f", "exp"), ("m.py", "f", "arctan2"),
        ("m.py", None, "power")]
