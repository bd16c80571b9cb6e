"""What `import spheregap` loads: its error types only. Every other public
name and submodule resolves on first access through the package's name
table, so the closed-form commands `spectrum`, `gap-curve`, `variation`
and `verify-appendix` load no numpy: the first variation and its
quadrature check need math only. The finite-element module and the FEM
commands need no scipy; only the Legendre ODE branch and the shift-invert
fallback for deformations near the largest t import it. Each test runs a
fresh interpreter."""
import re
import subprocess
import sys
from pathlib import Path

from spheregap.special import legendre_p


def _run(code: str) -> str:
    """Run code in a fresh interpreter and return its stdout."""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    return out.stdout


# names the package does not export; the pointwise geometry oracles live in
# tests/pointwise_oracles.py
_REMOVED = ("CoordPoint", "FieldSample", "LegendreParams", "MetricTensor", "PairingSpec",
            "SingularPointError", "deform_jacobian", "deform_map", "first_order_operator_apply",
            "gap_variation_I", "minimize_gap_variation", "pullback_metric")
README = Path(__file__).resolve().parents[1] / "README.md"

_SCIPY_LOADED = "any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules)"


def test_import_loads_no_numpy():
    code = (
        "import sys\n"
        "import spheregap\n"
        "print('numpy' in sys.modules, sorted(m for m in sys.modules if m.startswith('spheregap')))\n"
    )
    assert _run(code).splitlines() == ["False ['spheregap', 'spheregap.errors']"]


def test_closed_form_commands_load_no_numpy():
    code = (
        "import contextlib, io, sys\n"
        "from spheregap import cli\n"
        "commands = [\n"
        "    ['spectrum', '--domain', 'triangle', '--beta-pi', '0.5', '--count', '3'],\n"
        "    ['spectrum', '--domain', 'lune', '--beta', '1.3', '--format', 'json'],\n"
        "    ['gap-curve', '--domain', 'lune', '--beta-min-pi', '0.25',\n"
        "     '--beta-max-pi', '1.75', '--steps', '8'],\n"
        "    ['gap-curve', '--domain', 'triangle', '--beta-min', '0.2',\n"
        "     '--beta-max', '3', '--steps', '5', '--format', 'json'],\n"
        "    ['variation', '--z-steps', '721', '--b-steps', '201'],\n"
        "    ['variation', '--b', '0.5', '--z-steps', '37'],\n"
        "    ['variation', '--a', '0.6', '--z-steps', '37'],\n"
        "    ['variation', '--z-steps', '9', '--b-steps', '5', '--format', 'json'],\n"
        "    ['verify-appendix'],\n"
        "    ['verify-appendix', '--format', 'json'],\n"
        "]\n"
        "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        "    codes = [cli.main(argv) for argv in commands]\n"
        "print(codes, len(out.getvalue()) > 0, 'numpy' in sys.modules)\n"
    )
    assert _run(code).splitlines() == ["[0, 0, 0, 0, 0, 0, 0, 0, 0, 0] True False"]


def test_variation_loads_no_numpy():
    code = (
        "import sys\n"
        "import spheregap.variation\n"
        "print('numpy' in sys.modules)\n"
    )
    assert _run(code).splitlines() == ["False"]


def test_every_table_name_resolves_and_is_listed():
    code = (
        "import importlib\n"
        "import spheregap\n"
        "listed = dir(spheregap)\n"
        "bad = []\n"
        "for name, module_name in spheregap._LAZY.items():\n"
        "    scope = {}\n"
        "    exec(f'from spheregap import {name}', scope)\n"
        "    module = importlib.import_module('spheregap.' + module_name)\n"
        "    home = module if name == module_name else getattr(module, name)\n"
        "    if scope[name] is not home or name not in listed:\n"
        "        bad.append(name)\n"
        "print(len(spheregap._LAZY), bad)\n"
        f"print([name for name in {_REMOVED!r} if hasattr(spheregap, name)])\n"
    )
    count_and_bad, still_there = _run(code).splitlines()
    assert count_and_bad == "33 []"
    assert still_there == "[]"


def test_readme_library_api_names_resolve():
    import spheregap

    # the backticked calls of the paragraph; `T(t)` there is the paper's notation
    paragraph = README.read_text().split("The library API takes", 1)[1].split("\n\n", 1)[0]
    names = sorted(set(re.findall(r"`([a-z_]\w*)\(", paragraph)))
    assert len(names) >= 10
    assert [name for name in names if not hasattr(spheregap, name)] == []


def test_submodules_resolve_once_and_unknown_names_raise():
    code = (
        "import sys\n"
        "import spheregap\n"
        "for name in ('geometry', 'special', 'spectra', 'variation', 'fem'):\n"
        "    print(name, getattr(spheregap, name) is sys.modules['spheregap.' + name])\n"
        "hook, calls = spheregap.__getattr__, []\n"
        "spheregap.__getattr__ = lambda name: calls.append(name) or hook(name)\n"
        "first = spheregap.normalization_constant\n"
        "second = spheregap.normalization_constant\n"
        "print(first is second is spheregap.spectra.normalization_constant, calls)\n"
        "try:\n"
        "    spheregap.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(type(exc).__name__, calls[-1])\n"
    )
    assert _run(code).splitlines() == [
        "geometry True", "special True", "spectra True", "variation True", "fem True",
        "True ['normalization_constant']",
        "AttributeError no_such_name",
    ]


def test_closed_form_commands_load_no_scipy():
    code = (
        "import contextlib, io, sys\n"
        "import spheregap\n"
        f"print({_SCIPY_LOADED})\n"
        "from spheregap import cli\n"
        "commands = [\n"
        "    ['spectrum', '--domain', 'triangle', '--beta-pi', '0.5', '--count', '3'],\n"
        "    ['gap-curve', '--domain', 'lune', '--beta-min-pi', '0.25',\n"
        "     '--beta-max-pi', '1.75', '--steps', '8'],\n"
        "    ['variation', '--z-steps', '9', '--b-steps', '5'],\n"
        "    ['verify-appendix', '--format', 'json'],\n"
        "]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [cli.main(argv) for argv in commands]\n"
        f"print(codes, {_SCIPY_LOADED})\n"
    )
    assert _run(code).splitlines() == ["False", "[0, 0, 0, 0] False"]


def test_fem_names_resolve_lazily():
    code = (
        "import sys\n"
        "import spheregap\n"
        "print('spheregap.fem' in sys.modules, 'assemble' in dir(spheregap))\n"
        "import spheregap.fem as fem\n"
        "from spheregap import numeric_gap, gap_slope\n"
        "print(spheregap.fem is fem, spheregap.assemble is fem.assemble,\n"
        "      numeric_gap is fem.numeric_gap, gap_slope is fem.gap_slope)\n"
        "try:\n"
        "    spheregap.no_such_name\n"
        "except AttributeError:\n"
        "    print('AttributeError')\n"
    )
    assert _run(code).splitlines() == ["False True", "True True True True", "AttributeError"]


def test_ode_branch_loads_scipy_integrate_on_call():
    # (3.7, -1.5) is not an admissible pair, so x < 0 takes the ODE branch
    code = (
        "import sys\n"
        "from spheregap import legendre_p\n"
        "print('scipy.integrate' in sys.modules)\n"
        "value = legendre_p(3.7, -1.5, -0.5)\n"
        "print('scipy.integrate' in sys.modules, value.hex())\n"
    )
    expected = legendre_p(3.7, -1.5, -0.5).hex()
    assert _run(code).splitlines() == ["False", f"True {expected}"]


def test_fem_loads_no_scipy():
    code = (
        "import contextlib, io, sys\n"
        "import spheregap.fem\n"
        f"print({_SCIPY_LOADED})\n"
        "from spheregap import cli\n"
        "commands = [\n"
        "    ['solve', '--a', '0.6', '--b', '0.8', '--t', '0.05', '--grid-n', '16'],\n"
        "    ['gap-slope', '--a', '0', '--b', '1', '--grid-n', '12'],\n"
        "    # every mode of a deformed problem: its dense pencil\n"
        "    ['solve', '--a', '0.6', '--b', '0.8', '--t', '0.01', '--grid-n', '8',\n"
        "     '--modes', '42'],\n"
        "]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [cli.main(argv) for argv in commands]\n"
        f"print(codes, {_SCIPY_LOADED})\n"
    )
    assert _run(code).splitlines() == ["False", "[0, 0, 0] False"]
