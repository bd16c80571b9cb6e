"""FEM sweeps A and B near the largest deformation of each direction, sweep
C of near-full-spectrum requests and sweep D of gap slopes.

Run from a source checkout, which it imports from ./src:

    python tools/sweeps.py > sweeps.txt     # 4 to 6 minutes
    python tools/sweeps.py C > sweep_c.txt  # the named sweeps only

Every solve of sweeps A to C writes one line: the sweep, n, a, b, t and m,
then either the m eigenvalues of `fem.solve_smallest` in float.hex or the
error it raised. Every run of sweep D writes one line: the sweep, n, a, b
and the t-list, then either the slope, error_estimate, gap_at_zero and
warning of `fem.gap_slope` in float.hex or the error it raised. The BLAS
runs one thread, so two checkouts whose FEM solves agree bit for bit write
the same bytes, and `cmp` of the two files compares them.

Sweep A (1920 solves): n in {12, 16, 20, 24, 32}; (a, b) = (cos phi, sin phi)
for 8 phi from linspace(0.05, pi/2 - 0.05, 8); t = f (pi/2) / max(a, b) for
f in linspace(0.85, 0.98, 6); m = 1 .. 8 on one assembled problem.

Sweep B (2250 solves): n in {16, 24, 32, 48, 64}; the directions (0, 1),
(0.6, 0.8), (cos 0.7, sin 0.7), (0.8, 0.6), (1/sqrt 2, 1/sqrt 2) and
(0.96, 0.28); f in linspace(0.5, 0.99, 15); m in {1, 2, 3, 4, 6}.

Sweep C (54 solves): n in {16, 24, 32}; the directions (1, 0), (0, 1) and
(0.6, 0.8); t in {0.05, 0.3}; m = round(f num_dof) for f in {0.6, 0.8, 1}.
The largest eigenvalue reaches 2e3 to 3e4 at f = 0.6 and 0.8, and 4e6 to
9e7 at f = 1.

Sweep D (25 runs): n in {8, 12, 16, 24, 48}; the directions (0, 1),
(0.6, 0.8), (1/sqrt 2, 1/sqrt 2), (0.96, 0.28) and (1, 0);
t = (0.02, 0.01, 0.005).
"""
import math
import os
import sys
from pathlib import Path

# one BLAS thread: the last bits of an eigenvalue depend on the thread count,
# and a BLAS reads its thread variables when numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from spheregap.errors import SphereGapError  # noqa: E402
from spheregap.fem import assemble, gap_slope, solve_smallest  # noqa: E402
from spheregap.geometry import DeformationParams  # noqa: E402


def _near_largest_t(f, a, b):
    return float(f) * (math.pi / 2) / max(a, b)


def _sweep_a():
    for n in (12, 16, 20, 24, 32):
        for phi in np.linspace(0.05, math.pi / 2 - 0.05, 8):
            a, b = math.cos(phi), math.sin(phi)
            for f in np.linspace(0.85, 0.98, 6):
                yield n, (a, b), _near_largest_t(f, a, b), range(1, 9)


def _sweep_b():
    directions = ((0.0, 1.0), (0.6, 0.8), (math.cos(0.7), math.sin(0.7)), (0.8, 0.6),
                  (1 / math.sqrt(2), 1 / math.sqrt(2)), (0.96, 0.28))
    for n in (16, 24, 32, 48, 64):
        for a, b in directions:
            for f in np.linspace(0.5, 0.99, 15):
                yield n, (a, b), _near_largest_t(f, a, b), (1, 2, 3, 4, 6)


def _sweep_c():
    for n in (16, 24, 32):
        # the unknowns of the triangle's grid: n - 1 radial rows, n - 2 theta
        num_dof = (n - 1) * (n - 2)
        for direction in ((1.0, 0.0), (0.0, 1.0), (0.6, 0.8)):
            for t in (0.05, 0.3):
                yield n, direction, t, [round(f * num_dof) for f in (0.6, 0.8, 1.0)]


def _solve_lines(name, sweep):
    for n, (a, b), t, modes in sweep():
        problem = assemble(DeformationParams(a, b, t), n)
        for m in modes:
            head = f"{name} n={n} a={a.hex()} b={b.hex()} t={t.hex()} m={m}"
            try:
                vals, _ = solve_smallest(problem, m)
            except SphereGapError as exc:
                yield f"{head} {type(exc).__name__}: {exc}"
            else:
                yield f"{head} {' '.join(float(v).hex() for v in vals)}"


def _sweep_d():
    directions = ((0.0, 1.0), (0.6, 0.8), (1 / math.sqrt(2), 1 / math.sqrt(2)), (0.96, 0.28),
                  (1.0, 0.0))
    ts = (0.02, 0.01, 0.005)
    for n in (8, 12, 16, 24, 48):
        for a, b in directions:
            head = f"D n={n} a={a.hex()} b={b.hex()} t={','.join(t.hex() for t in ts)}"
            try:
                r = gap_slope((a, b), ts, n)
            except SphereGapError as exc:
                yield f"{head} {type(exc).__name__}: {exc}"
            else:
                yield (f"{head} slope={r.slope.hex()} error_estimate={r.error_estimate.hex()}"
                       f" gap_at_zero={r.gap_at_zero.hex()} warning={float(r.warning).hex()}")


SWEEPS = {"A": lambda: _solve_lines("A", _sweep_a), "B": lambda: _solve_lines("B", _sweep_b),
          "C": lambda: _solve_lines("C", _sweep_c), "D": _sweep_d}


if __name__ == "__main__":
    for name in sys.argv[1:] or SWEEPS:
        for line in SWEEPS[name]():
            sys.stdout.write(line + "\n")
