"""Ratchet on numpy transcendentals and complex values in the package source.

README promises byte-identical CSVs for the same config, command and seed,
but numpy picks SIMD kernels for exp, log, pow and the like by CPU, and
those can differ from libm in the last ulp; the package takes such calls
through ``harvest_uplink._libm`` instead.  numpy's complex modulus is such
a kernel too, and a scan by name cannot tell ``np.abs`` of a complex array
from one of a real array, so the package holds no complex value at all:
the Rician envelope takes its modulus through ``np.hypot``, which calls
libm.  The ratchet walks ``src/hrvlc`` with ``ast`` and fails on a name
below reached through numpy, by an attribute chain or an import, and on
any complex literal.

numpy's own switch ``NPY_DISABLE_CPU_FEATURES`` then shows the rule holds:
it masks SIMD paths for one process, so the same commands run under the
default dispatch, the AVX2 paths and the baseline paths must write the
same bytes.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hrvlc

SRC = Path(hrvlc.__file__).resolve().parent
TWO_AP = (Path(__file__).resolve().parent.parent / "configs"
          / "two_ap_room.json")

TRANSCENDENTALS = {
    "exp", "exp2", "expm1", "log", "log2", "log10", "log1p", "power",
    "float_power", "cbrt", "tan", "sinh", "cosh", "tanh",
}


def _listed(name):
    return name in TRANSCENDENTALS or name.startswith("arc") or name == "*"


def _in_numpy(module):
    return (module or "").partition(".")[0] == "numpy"


def _cpu_dependent_nodes(module, source):
    """(module, enclosing function, what) of each transcendental reached
    through numpy, and of each complex constant, named ``complex``.

    A transcendental is reached through numpy when its name is any link of
    an attribute chain rooted at ``np``, ``numpy`` or a name the module
    imports from numpy (``np.emath.log``, ``np.log2.reduce``, ``em.log``
    after ``import numpy.emath as em``), or a name a ``from numpy[...]
    import`` brings in, ``*`` included.
    """
    tree = ast.parse(source)
    roots = {"np", "numpy"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            roots.update(alias.asname or "numpy" for alias in node.names
                         if _in_numpy(alias.name))
        elif isinstance(node, ast.ImportFrom) and _in_numpy(node.module):
            roots.update(alias.asname or alias.name for alias in node.names)
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.ImportFrom) and _in_numpy(node.module):
            found.extend((module, function, alias.name)
                         for alias in node.names if _listed(alias.name))
        if isinstance(node, ast.Attribute):
            # the whole chain a.b.c at its outermost link, then on from a
            chain, base = [], node
            while isinstance(base, ast.Attribute):
                chain.append(base.attr)
                base = base.value
            if isinstance(base, ast.Name) and base.id in roots:
                found.extend((module, function, name)
                             for name in reversed(chain) if _listed(name))
            return visit(base, function)
        if isinstance(node, ast.Constant) and isinstance(node.value, complex):
            found.append((module, function, "complex"))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


def test_no_new_numpy_transcendental():
    # nor a complex value
    assert [found for path in sorted(SRC.glob("*.py"))
            for found in _cpu_dependent_nodes(
                path.name, path.read_text(encoding="utf-8"))] == []


def test_the_scan_sees_each_kind_of_call():
    source = ("import numpy as np\n"
              "import numpy.emath as em\n"
              "from numpy import log2, sqrt\n"
              "def f(x):\n"
              "    return np.exp(x) + np.arctan2(x, x) + np.sqrt(x)\n"
              "y = np.power(2.0, 3.0)\n"
              "def g(x, y):\n"
              "    return np.abs(x + 1j * y) + np.abs(x)\n"
              "def h(x):\n"
              "    from numpy.lib.scimath import arccos\n"
              "    return np.emath.log(x) + np.log2.reduce(x) + em.log(x)\n"
              "z = [x.log for x in np.add.accumulate(y)] + [log(2.0)]\n")
    assert _cpu_dependent_nodes("m.py", source) == [
        ("m.py", None, "log2"), ("m.py", "f", "exp"), ("m.py", "f", "arctan2"),
        ("m.py", None, "power"), ("m.py", "g", "complex"),
        ("m.py", "h", "arccos"), ("m.py", "h", "log"), ("m.py", "h", "log2"),
        ("m.py", "h", "log")]
    assert _cpu_dependent_nodes("m.py", "from numpy import *\n") == [
        ("m.py", None, "*")]


# the dispatched x86 feature sets a CPU may lack, masked down to AVX2, then
# to the baseline
MASKS = {"avx2": "X86_V4 AVX512_ICL AVX512_SPR",
         "baseline": "X86_V4 AVX512_ICL AVX512_SPR X86_V3"}
CALLS = (["sweep", "--points", "1001"], ["solve", "--method", "grid"],
         ["montecarlo", "--draws", "200"])
# runs each argv of argv[1] (a JSON list) through main, writing argv[2]/<k>
CHILD = ("import json, sys\n"
         "from hrvlc.cli import main\n"
         "for k, argv in enumerate(json.loads(sys.argv[1])):\n"
         "    assert main(argv + ['--out', f'{sys.argv[2]}/{k}']) == 0\n")


def _outputs(outdir, mask):
    """The bytes CALLS write on the two-AP room under a dispatch mask.

    numpy refuses a mask that names no feature it dispatches (on another
    architecture, say) with an ImportWarning, which fails the child here.
    """
    outdir.mkdir()
    env = {k: v for k, v in os.environ.items()
           if k != "NPY_DISABLE_CPU_FEATURES"}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC.parent)] + [p for p in [env.get("PYTHONPATH")] if p])
    if mask is not None:
        env["NPY_DISABLE_CPU_FEATURES"] = mask
    argvs = [call + ["--config", str(TWO_AP), "--mt", "0"] for call in CALLS]
    proc = subprocess.run(
        [sys.executable, "-W", "error::ImportWarning",
         "-W", "error::RuntimeWarning", "-c", CHILD, json.dumps(argvs),
         str(outdir)], env=env, capture_output=True, text=True, timeout=120)
    if proc.returncode and "NPY_DISABLE_CPU_FEATURES" in proc.stderr:
        reason = proc.stderr.rpartition("ImportWarning: ")[2]
        pytest.skip(f"numpy refuses the mask {mask!r}: "
                    + " ".join(reason.split()))
    assert proc.returncode == 0, proc.stderr
    return [(outdir / str(k)).read_bytes() for k in range(len(CALLS))]


@pytest.fixture(scope="module")
def default_outputs(tmp_path_factory):
    return _outputs(tmp_path_factory.mktemp("dispatch") / "default", None)


@pytest.mark.parametrize("mask", MASKS.values(), ids=MASKS.keys())
def test_output_bytes_do_not_depend_on_the_simd_paths(tmp_path,
                                                      default_outputs, mask):
    assert _outputs(tmp_path / "masked", mask) == default_outputs
