"""Tests for the finite-element eigensolver on the pullback metric."""
import hashlib
import itertools
import math
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

import spheregap.fem as fem
from spheregap.errors import ConvergenceError
from spheregap.fem import assemble, gap_slope, numeric_gap, solve_smallest
from spheregap.geometry import DeformationParams, metric_coefficients
from spheregap.spectra import LuneSpec, TriangleSpec, gap as closed_gap, gap_regime, spectrum

PI = math.pi


def _dense_eigh(problem, m):
    """LAPACK reference for the m smallest eigenpairs of a moderate grid:
    the dense pencil reduced with the Cholesky factor of M, eigenvalues
    taken as the Rayleigh quotients of its eigenvectors."""
    stiffness, mass = problem.stiffness.toarray(), problem.mass.toarray()
    _, vecs = scipy.linalg.eigh(stiffness, mass, subset_by_index=[0, m - 1])
    # LAPACK's eigenvalues lose up to 2e-9 relative (n = 48) to the small
    # mass of the pole rows; the Rayleigh quotients of its vectors err
    # by the square of their error
    vals = np.sum(vecs * (stiffness @ vecs), axis=0) / np.sum(vecs * (mass @ vecs), axis=0)
    return vals, vecs


# environment of a subprocess whose BLAS runs one thread, which fixes the
# summation order that the bits depend on
_ONE_THREAD = {var: "1" for var in ("SPHEREGAP_THREADS", "OMP_NUM_THREADS",
                                    "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}


def _count_shift_invert(monkeypatch):
    """A list that gains one entry per call of fem._shift_invert."""
    calls = []
    shift_invert = fem._shift_invert
    monkeypatch.setattr(fem, "_shift_invert", lambda *args: calls.append(1) or shift_invert(*args))
    return calls


def test_grid_n_validation():
    params = DeformationParams(0.0, 1.0, 0.0)
    for grid_n in (4, 7, 16.0, 16.5, "16", None):
        with pytest.raises(ValueError, match="grid_n must be an integer >= 8"):
            assemble(params, grid_n)
    assert assemble(params, np.int64(8)).num_dof == assemble(params, 8).num_dof


def test_round_metric_sampled_exactly_at_t_zero():
    params = DeformationParams(0.6, 0.8, 0.0)
    r = np.array([0.3, 0.9, 1.4])
    th = np.array([0.1, 0.7, 1.5])
    w11, w12, w22, m = metric_coefficients(params, r, th)
    assert np.array_equal(w11, np.sin(r))
    assert np.array_equal(w12, np.zeros(3))
    assert np.array_equal(w22, 1.0 / np.sin(r))
    assert np.array_equal(m, np.sin(r))


def test_matrices_exactly_symmetric():
    params = DeformationParams(0.28, math.sqrt(1 - 0.28**2), 0.03)
    problem = assemble(params, 16)
    for mat in (problem.stiffness, problem.mass):
        dense = mat.toarray()
        assert np.array_equal(dense, dense.T)


def _loop_assemble(params, n, r_max=PI / 2, beta=PI / 2, dirichlet_rmax=True):
    """Independent straight-loop assembly with the same 3x3 Gauss rule."""
    g = np.array([0.5 - math.sqrt(15) / 10, 0.5, 0.5 + math.sqrt(15) / 10])
    w = np.array([5 / 18, 8 / 18, 5 / 18])
    hx, hy = r_max / (n - 1), beta / (n - 1)
    size = n * n
    K = np.zeros((size, size))
    M = np.zeros((size, size))

    def phi(k, xi, eta):
        fx = (1 - xi, xi)[k % 2]
        fy = (1 - eta, eta)[k // 2]
        return fx * fy

    def dphi(k, xi, eta):
        dx = (-1.0, 1.0)[k % 2] * (1 - eta, eta)[k // 2]
        dy = (1 - xi, xi)[k % 2] * (-1.0, 1.0)[k // 2]
        return dx, dy

    for i in range(n - 1):
        for j in range(n - 1):
            nodes = [i * n + j, (i + 1) * n + j, i * n + (j + 1), (i + 1) * n + (j + 1)]
            for qx in range(3):
                for qy in range(3):
                    xi, eta, wq = g[qx], g[qy], w[qx] * w[qy]
                    r = (i + xi) * hx
                    th = (j + eta) * hy
                    w11, w12, w22, m = metric_coefficients(params, r, th)
                    for a in range(4):
                        dxa, dya = dphi(a, xi, eta)
                        for b in range(4):
                            dxb, dyb = dphi(b, xi, eta)
                            grad = (w11 * dxa * dxb / hx**2
                                    + w12 * (dxa * dyb + dya * dxb) / (hx * hy)
                                    + w22 * dya * dyb / hy**2)
                            K[nodes[a], nodes[b]] += wq * hx * hy * grad
                            M[nodes[a], nodes[b]] += wq * hx * hy * m * phi(a, xi, eta) * phi(b, xi, eta)
    ii, jj = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    drop = (jj == 0) | (jj == n - 1)
    if dirichlet_rmax:
        drop |= ii == n - 1
    keep = np.flatnonzero(~drop.ravel())
    return K[np.ix_(keep, keep)], M[np.ix_(keep, keep)]


def _local_inputs(ncells=64, nq=9, seed=101):
    rng = np.random.default_rng(seed)
    a11 = rng.normal(size=(ncells, nq))
    a12 = rng.normal(size=(ncells, nq))
    a22 = rng.normal(size=(ncells, nq))
    am = rng.uniform(0.5, 2.0, size=(ncells, nq))
    phi = rng.normal(size=(4, nq))
    dphx = rng.normal(size=(4, nq))
    dphy = rng.normal(size=(4, nq))
    return a11, a12, a22, am, phi, dphx, dphy


def test_local_matrices_symmetric():
    k, m = fem._local_matrices(*_local_inputs())
    assert np.array_equal(k, np.swapaxes(k, 1, 2))
    assert np.array_equal(m, np.swapaxes(m, 1, 2))


def test_local_matrices_against_plain_loops():
    a11, a12, a22, am, phi, dphx, dphy = _local_inputs(ncells=8)
    k, m = fem._local_matrices(a11, a12, a22, am, phi, dphx, dphy)
    for c in range(8):
        for i in range(4):
            for j in range(4):
                ks = sum(a11[c, q] * dphx[i, q] * dphx[j, q]
                         + a12[c, q] * (dphx[i, q] * dphy[j, q] + dphy[i, q] * dphx[j, q])
                         + a22[c, q] * dphy[i, q] * dphy[j, q]
                         for q in range(9))
                ms = sum(am[c, q] * phi[i, q] * phi[j, q] for q in range(9))
                assert abs(k[c, i, j] - ks) < 1e-12
                assert abs(m[c, i, j] - ms) < 1e-12


def test_element_integrals_match_loop_oracle():
    params = DeformationParams(0.6, 0.8, 0.02)
    n = 9
    problem = assemble(params, n)
    K_ref, M_ref = _loop_assemble(params, n)
    scale = np.max(np.abs(K_ref))
    assert np.max(np.abs(problem.stiffness.toarray() - K_ref)) < 1e-12 * scale
    assert np.max(np.abs(problem.mass.toarray() - M_ref)) < 1e-12


def test_dense_and_sparse_solvers_agree():
    params = DeformationParams(0.3, math.sqrt(1 - 0.09), 0.03)
    problem = assemble(params, 32)
    vals_d, _ = _dense_eigh(problem, 3)
    vals_s, _ = solve_smallest(problem, 3)
    assert np.max(np.abs(vals_d - vals_s)) < 1e-7


def test_equilateral_eigenvalues():
    problem = assemble(DeformationParams(0.0, 1.0, 0.0), 48)
    vals, _ = solve_smallest(problem, 3)
    assert abs(vals[0] - 12.0) < 1e-3 * 12.0
    # nearly degenerate second pair at 30
    assert abs(vals[1] - 30.0) < 5e-3 * 30.0
    assert abs(vals[2] - 30.0) < 5e-3 * 30.0
    assert vals[2] - vals[1] < 0.05


def test_general_triangle_against_closed_form():
    beta = PI / 4
    problem = assemble(TriangleSpec(beta), 48)
    vals, _ = solve_smallest(problem, 1)
    exact = 5.0 * 6.0  # first closed-form eigenvalue at beta = pi/4
    assert abs(vals[0] - exact) < 0.01 * exact


def test_lune_domain_and_monotonicity():
    grid_n = 48
    lune = assemble(LuneSpec(PI / 2), grid_n)
    vals_lune, _ = solve_smallest(lune, 3)
    assert abs(vals_lune[0] - 6.0) < 0.01 * 6.0
    tri = assemble(DeformationParams(0.0, 1.0, 0.0), grid_n)
    vals_tri, _ = solve_smallest(tri, 1)
    # the triangle is a subdomain of the lune, so its lowest mode sits higher
    assert vals_tri[0] > vals_lune[0]


def test_eigenvector_matches_first_eigenfunction():
    n = 48
    problem = assemble(DeformationParams(0.0, 1.0, 0.0), n)
    vals, vecs = solve_smallest(problem, 1)
    # the retained nodes, numbered i * (n - 2) + j - 1, lie at r = i h for
    # i < n - 1 and theta = j h for 0 < j < n - 1; u1 vanishes on the others
    h = (PI / 2) / (n - 1)
    R, T = np.meshgrid(h * np.arange(n - 1), h * np.arange(1, n - 1), indexing="ij")
    u1 = (np.sin(R) ** 2 * np.cos(R) * np.sin(2 * T)).ravel()
    v = vecs[:, 0]
    cos = abs(np.sum(v * u1)) / (np.linalg.norm(v) * np.linalg.norm(u1))
    assert cos > 0.999


def test_numeric_gap_and_exact_curve():
    grid_n = 48
    g0 = numeric_gap(DeformationParams(0.0, 1.0, 0.0), grid_n)
    assert abs(g0 - 18.0) < 0.01 * 18.0
    for a, b in ((0.0, 1.0), (1.0, 0.0)):
        g = numeric_gap(DeformationParams(a, b, 0.05), grid_n)
        # the one-sided deformation is congruent to a narrower half-lune
        # triangle, whose gap is 4 pi / (pi/2 - t) + 10
        exact = closed_gap(TriangleSpec(PI / 2 - 0.05))
        assert abs(exact - (4.0 * PI / (PI / 2 - 0.05) + 10.0)) < 1e-12
        assert abs(g - exact) < 0.01 * exact


def test_gap_slope_axis_direction():
    result = gap_slope((0.0, 1.0), [0.02, 0.01, 0.005], 48)
    ref = 16.0 / PI
    assert abs(result.slope - ref) < 0.05 * ref
    assert len(result.slopes) == 3 and len(result.gaps) == 3
    assert result.error_estimate < 0.1
    assert abs(result.gap_at_zero - 18.0) < 0.2


@pytest.mark.parametrize("degrees", [0, 27, 45, 63, 90])
def test_gap_slope_converges_to_the_exact_slope(degrees):
    # Gamma'(0; a, b) = (38(a+b) - 22 sqrt(1-ab))/pi, the minimum over z of
    # the first variation I(z, (a, b)); 27 and 63 degrees, like 0 and 90,
    # are a mirror pair (a, b), (b, a) with the same slope
    a, b = math.cos(math.radians(degrees)), math.sin(math.radians(degrees))
    exact = (38.0 * (a + b) - 22.0 * math.sqrt(1.0 - a * b)) / PI
    errors = {n: abs(gap_slope((a, b), [0.02, 0.01, 0.005], n).slope - exact) / exact
              for n in (48, 96)}
    for n, error in errors.items():
        assert error <= 16.0 / n**2, (n, error)  # observed at most 11.6 / n^2
    assert 3.5 <= errors[48] / errors[96] <= 5.0  # O(h^2): observed 4.08-4.74


def test_gap_slope_baseline_weights_the_split_pair_on_a_coarse_grid():
    # at n = 12 the t = 0 pair is split by 0.045, more than 1e-3 lambda_2,
    # yet the baseline weights both of its vectors: gap_at_zero lies strictly
    # between the two t = 0 gaps, where a threshold on the split once dropped
    # lambda_3 and returned lambda_2 - lambda_1 itself (18.662587849417818)
    direction, n = (0.6, 0.8), 12
    result = gap_slope(direction, [0.02, 0.01, 0.005], n)
    vals, _ = solve_smallest(assemble(DeformationParams(*direction, 0.0), n), 3)
    assert vals[1] - vals[0] < result.gap_at_zero < vals[2] - vals[0]


def test_gap_slope_validation():
    grid_n = 16
    with pytest.raises(ValueError):
        gap_slope((0.0, 1.0), [0.01, 0.02], grid_n)  # not decreasing
    with pytest.raises(ValueError):
        gap_slope((0.0, 1.0), [], grid_n)
    with pytest.raises(ValueError):
        gap_slope((0.0, 1.0), [0.01, -0.005], grid_n)
    for t_values in ([math.nan], [0.02, math.nan], [0.01]):
        with pytest.raises(ValueError, match="strictly decreasing"):
            gap_slope((0.0, 1.0), t_values, grid_n)


def test_assemble_validation():
    grid_n = 16
    with pytest.raises(TypeError, match="domain must be"):
        assemble("disk", grid_n)
    problem = assemble(DeformationParams(0.0, 1.0, 0.0), grid_n)
    with pytest.raises(ValueError):
        solve_smallest(problem, problem.num_dof + 1)
    with pytest.raises(ValueError, match="m must be >= 1"):
        solve_smallest(problem, 0)
    for m in (2.5, 2.0, "2", None):
        with pytest.raises(ValueError, match="m must be an integer"):
            solve_smallest(problem, m)
    vals, _ = solve_smallest(problem, 2)
    assert np.array_equal(solve_smallest(problem, np.int32(2))[0], vals)


@pytest.mark.parametrize("spec_type", [LuneSpec, TriangleSpec])
@pytest.mark.parametrize("beta", [7.0, 0.0, math.nan, -1.0])
def test_assemble_rejects_beta_outside_the_open_interval(spec_type, beta):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="beta must lie in"):
            assemble(spec_type(beta), 12)


# beta / pi: thin domains, both sides of the lune and triangle crossovers
# (beta = pi and pi/2), and a nearly full lune
@pytest.mark.parametrize("spec_type", [LuneSpec, TriangleSpec])
@pytest.mark.parametrize("beta_pi", [0.02, 0.05, 0.1, 0.5, 0.99, 1.01, 1.9])
def test_fem_gap_matches_closed_form_across_beta(spec_type, beta_pi):
    # the paper's first result, lune and triangle gaps across beta with the
    # blow-up as beta -> 0, checked by the FEM on the same spec object.
    # Observed: Richardson error <= 3.7e-5 (triangle, 0.02 pi), ratios 3.84-4.07
    spec = spec_type(beta_pi * PI)
    exact = closed_gap(spec)
    errors = {}
    for n in (64, 128):
        vals, _ = solve_smallest(assemble(spec, n), 3)
        errors[n] = float(vals[1] - vals[0]) - exact
    richardson = (4.0 * errors[128] - errors[64]) / 3.0
    assert abs(richardson) <= 1e-4 * exact
    assert 3.5 <= errors[64] / errors[128] <= 4.5


# beta / pi on both sides of each gap-regime crossover (beta = pi for lunes,
# pi/2 for triangles), and on it
@pytest.mark.parametrize("spec_type, beta_pi", [
    *((LuneSpec, b) for b in (0.1, 0.9, 0.99, 1.0, 1.01, 1.1)),
    *((TriangleSpec, b) for b in (0.1, 0.45, 0.49, 0.5, 0.51, 0.55, 1.5)),
])
def test_fem_mode_labels_follow_the_gap_regime(spec_type, beta_pi):
    # the separable solver labels each discrete pair with its theta mode k
    # and radial column j; the first two levels of the closed-form spectrum
    # must carry the same labels, and the second eigenvalue's mode must
    # switch from (1, 1) to (2, 0) where gap_regime crosses over. Observed:
    # lune 0.99 pi 6.0545 (1, 1), 1.01 pi 5.9062 (2, 0); triangle 0.49 pi
    # 30.4758 (1, 1), 0.51 pi 29.1659 (2, 0)
    spec = spec_type(beta_pi * PI)
    levels = spectrum(spec, 2)
    sizes = [len(entry.modes) for entry in levels]
    picked = assemble(spec, 64).factors._smallest(sum(sizes))
    labels = [(k, j) for _, k, j in picked]
    assert set(labels[:sizes[0]]) == {(m.k, m.j) for m in levels[0].modes}
    assert set(labels[sizes[0]:]) == {(m.k, m.j) for m in levels[1].modes}
    if spec.beta == spec.crossover[0]:
        assert set(labels[1:]) == {(1, 1), (2, 0)}
    else:
        assert labels[1] == ((1, 1) if gap_regime(spec).startswith("beta<=") else (2, 0))


@pytest.mark.parametrize("spec", [TriangleSpec(PI / 2), TriangleSpec(PI / 3),
                                  LuneSpec(PI / 2), LuneSpec(2 * PI / 3)],
                         ids=["triangle-pi/2", "triangle-pi/3", "lune-pi/2", "lune-2pi/3"])
def test_fem_mode_labels_follow_five_levels(spec):
    # at rational beta levels beyond the second are multiple: the discrete
    # pairs of each of the first five levels carry exactly its mode labels,
    # whatever their order inside the level. Observed: the widest level,
    # 132 on the pi/2 triangle, spans 132.17-132.30 at n = 96
    levels = spectrum(spec, 5)
    picked = iter(assemble(spec, 96).factors._smallest(sum(len(e.modes) for e in levels)))
    for entry in levels:
        labels = {(k, j) for _, k, j in itertools.islice(picked, len(entry.modes))}
        assert labels == {(m.k, m.j) for m in entry.modes}


# an off-axis deformation at t > 0 is not separable, so it runs LOBPCG
_OFF_AXIS = DeformationParams(0.6, 0.8, 0.01)


def test_residual_tolerance_enforced(monkeypatch):
    problem = assemble(_OFF_AXIS, 24)
    assert not problem.separable
    monkeypatch.setattr(fem, "_RESIDUAL_RTOL", 1e-300)
    with pytest.raises(ConvergenceError):
        solve_smallest(problem, 2)


@pytest.mark.parametrize("partial", [1, 0])
def test_arpack_failure_reports_reached_residual(monkeypatch, partial):
    import scipy.sparse.linalg as spla

    problem = assemble(_OFF_AXIS, 24)
    vals, vecs = _dense_eigh(problem, 2)
    # one returned pair, its eigenvalue off by 1 %: a known finite residual
    got_vals, got_vecs = 1.01 * vals[:partial], vecs[:, :partial]

    def no_convergence(*args, **kwargs):
        raise spla.ArpackNoConvergence("ARPACK error -1: No convergence", got_vals, got_vecs)

    # LOBPCG stops at once, so the shift-invert path runs
    monkeypatch.setattr(fem, "_LOBPCG_MAX_ITER", 0)
    monkeypatch.setattr(spla, "eigsh", no_convergence)
    with pytest.raises(ConvergenceError, match="did not converge") as info:
        solve_smallest(problem, 2)
    if partial:
        mv = problem.mass @ got_vecs[:, 0]
        expected = (np.linalg.norm(problem.stiffness @ got_vecs[:, 0] - got_vals[0] * mv)
                    / (abs(got_vals[0]) * np.linalg.norm(mv)))
        assert 0 < info.value.residual < math.inf
        assert info.value.residual == pytest.approx(expected, rel=1e-12)
    else:
        assert info.value.residual == math.inf


@pytest.mark.parametrize("cap", [0, 1, 50])
def test_iteration_cap_hands_over_to_shift_invert(monkeypatch, cap):
    problem = assemble(DeformationParams(0.6, 0.8, 0.3), 24)
    ref_vals, _ = _dense_eigh(problem, 4)
    monkeypatch.setattr(fem, "_LOBPCG_MAX_ITER", cap)
    calls = _count_shift_invert(monkeypatch)
    vals, vecs = solve_smallest(problem, 4)
    # t = 0.3 takes more than one iteration and fewer than 50
    assert len(calls) == (cap < 50)
    assert np.max(np.abs(vals - ref_vals) / ref_vals) <= 1e-10
    assert np.max(np.abs(vecs.T @ (problem.mass @ vecs) - np.eye(4))) < 1e-10


def test_ritz_breakdown_hands_over_to_shift_invert(monkeypatch):
    problem = assemble(DeformationParams(0.6, 0.8, 0.3), 24)
    ref_vals, _ = _dense_eigh(problem, 4)

    def breakdown(*args):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(fem, "_ritz", breakdown)
    calls = _count_shift_invert(monkeypatch)
    vals, vecs = solve_smallest(problem, 4)
    assert calls == [1]
    assert np.max(np.abs(vals - ref_vals) / ref_vals) <= 1e-10
    assert np.max(np.abs(vecs.T @ (problem.mass @ vecs) - np.eye(4))) < 1e-10


def test_solve_smallest_bitwise_across_processes():
    # a fresh interpreter must reproduce the in-process eigenvalues exactly
    problem = assemble(DeformationParams(0.0, 1.0, 0.05), 24)
    vals, _ = solve_smallest(problem, 2)
    code = (
        "import spheregap.fem as fem\n"
        "from spheregap.geometry import DeformationParams\n"
        "p = fem.assemble(DeformationParams(0.0, 1.0, 0.05), 24)\n"
        "v, _ = fem.solve_smallest(p, 2)\n"
        "print(*(float(x).hex() for x in v))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.split() == [float(x).hex() for x in vals]


def test_lobpcg_bitwise_across_processes():
    problem = assemble(DeformationParams(0.6, 0.8, 0.05), 24)
    vals, vecs = solve_smallest(problem, 4)
    code = (
        "import hashlib\n"
        "import spheregap.fem as fem\n"
        "from spheregap.geometry import DeformationParams\n"
        "p = fem.assemble(DeformationParams(0.6, 0.8, 0.05), 24)\n"
        "v, x = fem.solve_smallest(p, 4)\n"
        "print(*(float(y).hex() for y in v), hashlib.sha256(x.tobytes()).hexdigest())\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.split() == ([float(x).hex() for x in vals]
                                  + [hashlib.sha256(vecs.tobytes()).hexdigest()])


def test_lobpcg_basis_stays_in_preallocated_buffers():
    # the basis [x | w | p] and its K- and M-images fill one set of three
    # (3k, n) buffers, 9 blocks of k n doubles, with one scratch block and
    # the preconditioner's transform besides (11.1 observed); two scratch
    # blocks peaked at 12.1, two sets that took turns at 21, a fresh basis
    # every iteration at 31
    problem = assemble(DeformationParams(0.6, 0.8, 0.05), 64)
    k = problem.factors.guard_block(4)
    first = fem._lobpcg(problem, k, 4)   # fills the caches
    tracemalloc.start()
    try:
        vals, vecs = fem._lobpcg(problem, k, 4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert k == 6
    assert np.array_equal(vals, first[0]) and np.array_equal(vecs, first[1])
    assert peak <= 12 * k * problem.num_dof * 8


def test_deformed_solve_peak():
    # one off-axis solve as the command line runs it, from a fresh factor
    # cache: 8.92 MB observed at n = 128, 10.28 MB with two LOBPCG scratch
    # blocks, whole-block residual norms and every radial eigenvector kept
    fem._separable_factors.cache_clear()
    problem = assemble(DeformationParams(0.6, 0.8, 0.05), 128)
    tracemalloc.start()
    try:
        solve_smallest(problem, 4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.15 * 8.92e6


def test_gap_slope_solves_each_radial_pencil_once():
    # the t = 0 baseline and the LOBPCG reference of its grid share one set
    # of factors, so each theta mode's radial pencil is solved once (two
    # sets of factors took 7 solves). A fresh process starts from an empty
    # factor cache
    code = (
        "import spheregap.fem as fem\n"
        "calls = []\n"
        "pencil_eigh = fem._pencil_eigh\n"
        "fem._pencil_eigh = lambda a, b: calls.append(1) or pencil_eigh(a, b)\n"
        "r = fem.gap_slope((0.7071067811865476, 0.7071067811865475),\n"
        "                  [0.019222, 0.009611, 0.0048055], 96)\n"
        "print(len(calls), r.slope.hex())\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, **_ONE_THREAD})
    assert out.stdout.split() == ["4", "0x1.853eabd117e23p+3"]


def test_lobpcg_eigenvalues_keep_their_bits():
    # pinned bits of an off-axis LOBPCG solve with one BLAS thread: the
    # buffer handling of the solver and the slabs of the assembly must not
    # move them
    code = (
        "import spheregap.fem as fem\n"
        "from spheregap.geometry import DeformationParams\n"
        "p = fem.assemble(DeformationParams(0.6, 0.8, 0.05), 64)\n"
        "v, _ = fem.solve_smallest(p, 4)\n"
        "print(*(float(x).hex() for x in v))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, **_ONE_THREAD})
    assert out.stdout.split() == ["0x1.94bb57613b94cp+3", "0x1.f45f74766179bp+4",
                                  "0x1.fd097ee26f18cp+4", "0x1.d09cc377b92e8p+5"]


def test_round_problems_share_the_lobpcg_reference(monkeypatch):
    references = []
    lobpcg = fem._lobpcg
    monkeypatch.setattr(fem, "_lobpcg",
                        lambda problem, k, m: references.append(problem.factors)
                        or lobpcg(problem, k, m))
    deformed = assemble(DeformationParams(0.6, 0.8, 0.05), 24)
    solve_smallest(deformed, 3)
    round_factors = assemble(DeformationParams(0.6, 0.8, 0.0), 24).factors
    assert round_factors is assemble(DeformationParams(0.0, 1.0, 0.0), 24).factors
    assert deformed.factors is round_factors and not deformed.separable
    assert len(references) == 1 and references[0] is round_factors


def test_separable_solve_makes_no_transposed_copy():
    # the sine transform keeps the row layout, the sweeps run on it in place
    # and the inverse transform writes to out: the transform is the only
    # input-sized block, where a fresh result took 2.0 and a transposed copy
    # of the transform 3.0
    reference = fem._separable_factors(fem._ROUND, TriangleSpec(PI / 2), 64)
    rows = np.random.default_rng(3).standard_normal((6, 63 * 62))
    first = reference.solve(rows)   # builds the cached sines and LDL^T factors
    out = np.empty_like(rows)
    tracemalloc.start()
    try:
        again = reference.solve(rows, out=out)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert again is out and np.array_equal(again, first)
    assert peak <= 1.2 * rows.nbytes


def test_gap_solves_converge_three_pairs(monkeypatch):
    # lambda_1 and the split lambda_2 pair, without the t = 0 triple above them
    rows = []
    lobpcg = fem._lobpcg
    monkeypatch.setattr(fem, "_lobpcg",
                        lambda problem, k, m: rows.append(k) or lobpcg(problem, k, m))
    direction, ts, n = (0.6, 0.8), [0.02, 0.01, 0.005], 24
    result = gap_slope(direction, ts, n)
    assert rows == [3, 3, 3]
    for t, got in zip(ts, result.gaps):
        ref_vals, _ = _dense_eigh(assemble(DeformationParams(*direction, t), n), 3)
        assert abs(got - (ref_vals[1] - ref_vals[0])) <= 1e-10 * got
    rows.clear()
    numeric_gap(DeformationParams(*direction, 0.05), n)
    assert rows == [3]


def test_neville_extrapolation_linear_exact():
    # slope samples lying on s(t) = s0 + c t extrapolate to s0 exactly
    ts = [0.02, 0.01, 0.005]
    ys = [3.0 + 5.0 * t for t in ts]
    levels = fem._neville_to_zero(ts, ys)
    assert abs(levels[-1] - 3.0) < 1e-12


def _pointwise_assemble(params, n):
    """K and M with one metric sample per Gauss point and the Dirichlet rows
    and columns sliced off the summed CSR matrices."""
    hx = hy = (PI / 2) / (n - 1)
    wq, phi, dphx, dphy = fem._reference_basis()
    nc = n - 1
    ci, cj = np.meshgrid(np.arange(nc), np.arange(nc), indexing="ij")
    ci, cj = ci.ravel(), cj.ravel()
    xi, eta = np.meshgrid(fem._GAUSS3_NODES, fem._GAUSS3_NODES, indexing="ij")
    rq = (ci[:, None] + xi.ravel()[None, :]) * hx
    tq = (cj[:, None] + eta.ravel()[None, :]) * hy
    w11, w12, w22, m = metric_coefficients(params, rq, tq)
    scale = wq[None, :] * (hx * hy)
    kloc, mloc = fem._local_matrices(w11 * scale / hx**2, w12 * scale / (hx * hy),
                                     w22 * scale / hy**2, m * scale, phi, dphx, dphy)
    conn = np.stack([ci * n + cj, (ci + 1) * n + cj, ci * n + cj + 1,
                     (ci + 1) * n + cj + 1], axis=1)
    rows = np.repeat(conn, 4, axis=1).ravel()
    cols = np.tile(conn, (1, 4)).ravel()
    ii, jj = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    keep = np.flatnonzero(~((jj == 0) | (jj == n - 1) | (ii == n - 1)).ravel())
    return [sp.coo_matrix((loc.ravel(), (rows, cols)), shape=(n * n,) * 2).tocsr()[keep][:, keep]
            for loc in (kloc, mloc)]


@pytest.mark.parametrize("n", [24, 64])
@pytest.mark.parametrize("direction", [(1.0, 0.0), (0.0, 1.0), (0.6, 0.8)])
def test_assembly_matches_pointwise_sampling(n, direction):
    params = DeformationParams(*direction, 0.03)
    problem = assemble(params, n)
    for got, ref in zip((problem.stiffness, problem.mass), _pointwise_assemble(params, n)):
        got, ref = got.toarray(), ref.toarray()
        pattern = ref != 0
        assert np.array_equal(got != 0, pattern)
        assert np.max(np.abs(got[pattern] - ref[pattern]) / np.abs(ref[pattern])) <= 1e-15


def _whole_grid_stencils(domain, n):
    """K and M coefficients, all nine planes of each, from the Gauss-point
    fields of the whole grid at once, summed on the full grid of nodes in
    the same order as assemble."""
    if isinstance(domain, DeformationParams):
        params, spec = domain, TriangleSpec(PI / 2)
    else:
        params, spec = fem._ROUND, domain
    n_r = n if isinstance(spec, LuneSpec) else n - 1
    hx, hy = spec.r_max / (n - 1), spec.beta / (n - 1)
    wq, phi, dphx, dphy = fem._reference_basis()
    cells = np.arange(n - 1)
    rq = (cells[:, None, None, None] + fem._GAUSS3_NODES[:, None]) * hx
    tq = (cells[:, None, None] + fem._GAUSS3_NODES) * hy
    w11, w12, w22, m = (f.reshape(-1, 9) for f in metric_coefficients(params, rq, tq))
    scale = wq[None, :] * (hx * hy)
    kloc, mloc = fem._local_matrices(w11 * scale / hx**2, w12 * scale / (hx * hy),
                                     w22 * scale / hy**2, m * scale, phi, dphx, dphy)
    return _full_grid_stencil(kloc, n, n_r), _full_grid_stencil(mloc, n, n_r)


@pytest.mark.parametrize("n", [8, 17, 40])
@pytest.mark.parametrize("domain", [
    TriangleSpec(PI / 2), LuneSpec(0.3 * PI), DeformationParams(0.6, 0.8, 0.05),
    DeformationParams(0.0, 1.0, 0.3), DeformationParams(math.cos(0.7), math.sin(0.7), 1.2),
])
def test_slab_assembly_equals_the_whole_grid_bitwise(domain, n):
    # n = 8 is a single partial slab, n = 17 one full slab, n = 40 ends on a
    # partial one
    assert (n - 1) % fem._SLAB_ROWS or n - 1 == fem._SLAB_ROWS
    problem = assemble(domain, n)
    stiffness, mass = _whole_grid_stencils(domain, n)
    assert problem.stiffness.coef.tobytes() == _stored_planes(stiffness).tobytes()
    assert problem.mass.coef.tobytes() == _stored_planes(mass).tobytes()


def _full_grid_stencil(loc, n, n_r):
    """The stencil summed on the full (3, 3, n, n) grid of nodes and then
    restricted to the retained rows and columns."""
    nc = n - 1
    loc = loc.reshape(nc, nc, 4, 4)
    full = np.zeros((3, 3, n, n))
    for a in range(4):
        ra, ta = a % 2, a // 2
        for b in range(4):
            full[1 + b % 2 - ra, 1 + b // 2 - ta, ra:ra + nc, ta:ta + nc] += loc[:, :, a, b]
    coef = full[:, :, :n_r, 1:n - 1].copy()
    coef[:, 0, :, 0] = 0.0
    coef[:, 2, :, -1] = 0.0
    if n_r < n:
        coef[2, :, -1, :] = 0.0
    return coef


def _stored_planes(coef):
    """The planes of a (3, 3, n_r, n_theta) stencil that StencilMatrix stores."""
    return np.stack([coef[1 + dr, 1 + dt] for dr, dt in fem._OFFSETS])


@pytest.mark.parametrize("n", [8, 17, 40])
@pytest.mark.parametrize("lune", [False, True])
def test_stencil_sums_as_the_full_grid_bitwise(n, lune):
    # _stencil adds into the retained window only; every stored entry takes
    # the same additions, in the same order, as on the full grid. The random
    # blocks are not symmetric, so only the stored planes can agree
    n_r = n if lune else n - 1
    loc = np.random.default_rng(n).standard_normal(((n - 1) ** 2, 4, 4))
    full = _full_grid_stencil(loc, n, n_r)
    assert fem._stencil(loc, n, n_r).coef.tobytes() == _stored_planes(full).tobytes()


def _nine_point_shifts(coef):
    """(flat shift, coefficients, output slice) of the eight off-centre
    planes of a (3, 3, n_r, n_theta) stencil, dr = -1, 0, 1 and dt = -1, 0, 1."""
    n_t = coef.shape[3]
    flat = coef.reshape(3, 3, -1)
    size = flat.shape[2]
    for dr in (-1, 0, 1):
        for dt in (-1, 0, 1):
            shift = dr * n_t + dt
            if shift:
                yield shift, flat[1 + dr, 1 + dt], slice(max(0, -shift), size - max(0, shift))


def _nine_point_toarray(coef):
    out = np.diag(coef[1, 1].ravel())
    for shift, c, rows in _nine_point_shifts(coef):
        ids = np.arange(rows.start, rows.stop)
        out[ids, ids + shift] = c[rows]
    return out


def _nine_point_matmul(coef, x):
    """coef applied to the columns of x: the centre product, then each
    shift's product added in the order of _nine_point_shifts."""
    y = coef[1, 1].ravel()[:, None] * x
    for shift, c, rows in _nine_point_shifts(coef):
        y[rows] += c[rows, None] * x[rows.start + shift:rows.stop + shift]
    return y


@pytest.mark.parametrize("n", [8, 17, 40])
@pytest.mark.parametrize("domain", [
    DeformationParams(0.6, 0.8, 0.05), TriangleSpec(PI / 2), LuneSpec(0.3 * PI),
])
def test_half_stencil_acts_as_the_nine_point_stencil_bitwise(domain, n):
    # each backward entry is read from its forward plane, which holds the
    # same bits since K and M are exactly symmetric
    problem = assemble(domain, n)
    x = np.random.default_rng(n).standard_normal((problem.num_dof, 3))
    for mat, full in zip((problem.stiffness, problem.mass), _whole_grid_stencils(domain, n)):
        dense = mat.toarray()
        assert dense.tobytes() == _nine_point_toarray(full).tobytes()
        assert (mat @ x).tobytes() == _nine_point_matmul(full, x).tobytes()
        assert mat.nnz == np.count_nonzero(dense) == np.count_nonzero(full)


def test_assembly_peak_stays_within_nine_stencils():
    # the Gauss-point fields of one slab of cell rows at a time: 6.9 stencil
    # sizes (3 x 3 x n x n doubles) observed, 13.2 with the whole grid's
    n = 128
    tracemalloc.start()
    try:
        assemble(DeformationParams(0.6, 0.8, 0.05), n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 9 * (9 * n * n * 8)


_SEPARABLE_CASES = {
    # thin enough that the four smallest eigenvalues share theta mode 1
    "triangle-eighth": TriangleSpec(PI / 8),
    "triangle-quarter": TriangleSpec(PI / 4),
    "triangle-half": TriangleSpec(PI / 2),
    "triangle-three-quarters": TriangleSpec(3 * PI / 4),
    "lune-half": LuneSpec(PI / 2),
    "axis-deformed": DeformationParams(1.0, 0.0, 0.05),
}


def _separable_problem(case, n=10):
    problem = assemble(_SEPARABLE_CASES[case], n)
    assert problem.separable
    return problem


@pytest.mark.parametrize("case", sorted(_SEPARABLE_CASES))
@pytest.mark.parametrize("modes", [1, 4, "all"])
def test_separable_solve_matches_dense(case, modes):
    problem = _separable_problem(case)
    m = problem.num_dof if modes == "all" else modes
    vals, vecs = solve_smallest(problem, m)
    ref_vals, ref_vecs = _dense_eigh(problem, m)
    assert vals.shape == (m,) and vecs.shape == (problem.num_dof, m)
    assert np.max(np.abs(vals - ref_vals) / ref_vals) <= 1e-10
    # eigenvectors are unique up to sign where the eigenvalue is simple; the
    # neighbour above the last requested one is needed to tell
    everything, _ = _dense_eigh(problem, problem.num_dof)
    near = np.minimum(np.abs(everything - np.roll(everything, 1)),
                      np.abs(everything - np.roll(everything, -1)))[:m]
    simple = near > 1e-6 * everything[:m]
    assert simple[0]
    cos = (np.abs(np.sum(vecs * ref_vecs, axis=0))
           / (np.linalg.norm(vecs, axis=0) * np.linalg.norm(ref_vecs, axis=0)))
    assert np.all(cos[simple] >= 1 - 1e-10)
    # M-orthonormal like the dense answer
    gram = vecs.T @ (problem.mass @ vecs)
    assert np.max(np.abs(gram - np.eye(m))) < 1e-10


def test_separable_path_skips_the_2d_factorization(monkeypatch):
    import scipy.sparse.linalg as spla

    def no_iteration(*args, **kwargs):
        raise AssertionError("2D iteration on a separable problem")

    def no_lu(*args, **kwargs):
        raise AssertionError("2D LU factorization on a separable problem")

    monkeypatch.setattr(fem, "_lobpcg", no_iteration)
    monkeypatch.setattr(spla, "splu", no_lu)
    for case in _SEPARABLE_CASES:
        vals, _ = solve_smallest(_separable_problem(case, n=24), 4)
        assert np.all(np.diff(vals) >= 0)
    with pytest.raises(AssertionError, match="2D iteration"):
        solve_smallest(assemble(_OFF_AXIS, 24), 4)


def test_separable_answers_pass_residual_gate(monkeypatch):
    problem = _separable_problem("axis-deformed", n=24)
    monkeypatch.setattr(fem, "_RESIDUAL_RTOL", 1e-300)
    with pytest.raises(ConvergenceError) as info:
        solve_smallest(problem, 4)
    assert 0 < info.value.residual < 1e-12


def test_separable_solve_bitwise_across_processes():
    problem = _separable_problem("axis-deformed", n=24)
    vals, vecs = solve_smallest(problem, 4)
    code = (
        "import hashlib\n"
        "import spheregap.fem as fem\n"
        "from spheregap.geometry import DeformationParams\n"
        "p = fem.assemble(DeformationParams(1.0, 0.0, 0.05), 24)\n"
        "v, x = fem.solve_smallest(p, 4)\n"
        "print(*(float(y).hex() for y in v), hashlib.sha256(x.tobytes()).hexdigest())\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.split() == ([float(x).hex() for x in vals]
                                  + [hashlib.sha256(vecs.tobytes()).hexdigest()])


_DEFORMED_CASES = [
    ((0.6, 0.8), 0.01), ((0.6, 0.8), 0.05), ((0.6, 0.8), 0.3), ((0.6, 0.8), 1.0),
    ((0.0, 1.0), 0.02), ((math.cos(0.7), math.sin(0.7)), 0.05),
]


@pytest.mark.parametrize("m", [1, 4, 6])
@pytest.mark.parametrize("n", [12, 24])
@pytest.mark.parametrize("direction, t", _DEFORMED_CASES)
def test_lobpcg_matches_dense_pencil(direction, t, n, m):
    problem = assemble(DeformationParams(*direction, t), n)
    assert not problem.separable
    vals, vecs = solve_smallest(problem, m)
    ref_vals, _ = _dense_eigh(problem, m)
    assert vals.shape == (m,) and vecs.shape == (problem.num_dof, m)
    assert np.max(np.abs(vals - ref_vals) / ref_vals) <= 1e-10
    gram = vecs.T @ (problem.mass @ vecs)
    assert np.max(np.abs(gram - np.eye(m))) < 1e-10
    assert fem._worst_residual(problem, vals, vecs) <= fem._RESIDUAL_RTOL


@pytest.mark.parametrize("case", ["triangle-half", "lune-half", "triangle-quarter",
                                  "axis-deformed"])
def test_separable_inverse_is_exact(case):
    problem = _separable_problem(case, n=24)
    rhs = np.random.default_rng(7).standard_normal((3, problem.num_dof))
    back = problem.stiffness @ problem.factors.solve(rhs).T
    assert np.max(np.linalg.norm(back - rhs.T, axis=0) / np.linalg.norm(rhs.T, axis=0)) <= 1e-12


def test_all_modes_of_a_deformed_problem():
    # 3 * block > num_dof, so the deformed problem takes the dense pencil
    problem = assemble(_OFF_AXIS, 8)
    m = problem.num_dof
    vals, vecs = solve_smallest(problem, m)
    ref_vals, _ = _dense_eigh(problem, m)
    assert vals.shape == (m,) and vecs.shape == (m, m)
    assert np.max(np.abs(vals - ref_vals) / ref_vals) <= 1e-10
    assert np.max(np.abs(vecs.T @ (problem.mass @ vecs) - np.eye(m))) < 1e-10


# 0.9 to 0.99 of the largest t of each direction, where the round inverse
# no longer preconditions K(t) and LOBPCG reaches its cap; at t = 1.951,
# with lambda_1 to lambda_4 at 2.0e4 to 5.2e4, it still converges within
# 1e-9 |lambda|
@pytest.mark.parametrize("direction, t", [
    ((0.0, 1.0), 1.414), ((0.0, 1.0), 1.55), ((0.6, 0.8), 1.767), ((0.6, 0.8), 1.94),
    ((math.cos(0.7), math.sin(0.7)), 1.951),
])
def test_extreme_deformation_matches_dense(monkeypatch, direction, t):
    problem = assemble(DeformationParams(*direction, t), 16)
    ref_vals, _ = _dense_eigh(problem, 4)
    calls = _count_shift_invert(monkeypatch)
    vals, vecs = solve_smallest(problem, 4)
    assert calls == ([] if t == 1.951 else [1])
    assert np.max(np.abs(vals - ref_vals) / ref_vals) <= 1e-10
    assert np.max(np.abs(vecs.T @ (problem.mass @ vecs) - np.eye(4))) < 1e-10


# pairs with eigenvalues above 1e4, whose residuals the gate scales by
# |lambda| as everywhere else. At (0.8, 0.6) LOBPCG converges inside it;
# along the second direction its Rayleigh-Ritz step breaks down
# (LinAlgError) and shift-invert answers
@pytest.mark.parametrize("direction, t, n, m, shift_invert_calls", [
    ((0.8, 0.6), 1.8596, 16, 4, 0),
    ((0.6290583596761136, 0.7773580771572374), 1.927734128964636, 12, 7, 1),
])
def test_large_eigenvalues_meet_the_gate(monkeypatch, direction, t, n, m, shift_invert_calls):
    problem = assemble(DeformationParams(*direction, t), n)
    ref_vals, _ = _dense_eigh(problem, m)
    calls = _count_shift_invert(monkeypatch)
    vals, vecs = solve_smallest(problem, m)
    assert len(calls) == shift_invert_calls
    assert ref_vals[-1] > 1e4
    assert np.max(np.abs(vals - ref_vals) / ref_vals) <= 1e-10
    assert np.max(np.abs(vecs.T @ (problem.mass @ vecs) - np.eye(m))) < 1e-10


def _near_largest_t(a, b):
    """0.99 of the largest t of the direction (a, b)."""
    return 0.99 * (PI / 2) / max(a, b)


# solves with pairs of lambda = 1e5 to 1e8: 0.99 of the largest t along two
# directions, where lambda_1 reaches 1.8e8 (n = 16) and shift-invert
# answers, and 500 of the 506 pairs of an n = 24 grid on the dense pencil.
# Their residuals ||K v - lambda M v|| / ||M v|| reach 1e-6 to 1e-3 while
# they agree with LAPACK to rounding; only a bound scaled by |lambda|
# accepts them
_R2 = 1 / math.sqrt(2)
_LARGE_LAMBDA_SOLVES = [((_R2, _R2), _near_largest_t(_R2, _R2), 16, m) for m in (1, 2, 3, 4, 6)]
_LARGE_LAMBDA_SOLVES += [
    ((math.cos(0.7), math.sin(0.7)), _near_largest_t(math.cos(0.7), math.sin(0.7)), 24, 6),
    ((0.6, 0.8), 0.3, 24, 500),
]


@pytest.mark.parametrize("direction, t, n, m", _LARGE_LAMBDA_SOLVES)
def test_huge_eigenvalues_pass_the_relative_gate(direction, t, n, m):
    problem = assemble(DeformationParams(*direction, t), n)
    vals, vecs = solve_smallest(problem, m)
    ref_vals, _ = _dense_eigh(problem, m)
    assert ref_vals[-1] > 1e5
    assert np.max(np.abs(vals - ref_vals) / ref_vals) <= 1e-12
    assert fem._worst_residual(problem, vals, vecs) <= fem._RESIDUAL_RTOL


# the (0, 1) family is not separable, yet its gap has the exact form
# 4 pi / (pi/2 - t) + 10 of the half-lune triangle of angle pi/2 - t at
# every t. t = 0.3 runs LOBPCG, t = 0.8 and 1.2 run shift-invert. Observed: relative errors
# 2.4e-3, 5.0e-3 and 2.5e-2 at n = 48, ratios 4.00-4.09, h^2 constants
# 2.65-3.45. At t = 1.4 the ratio (3.43) is still pre-asymptotic
@pytest.mark.parametrize("t, shift_invert_calls", [(0.3, 0), (0.8, 1), (1.2, 1)])
def test_numeric_gap_matches_exact_curve_at_large_t(monkeypatch, t, shift_invert_calls):
    exact = closed_gap(TriangleSpec(PI / 2 - t))
    calls = _count_shift_invert(monkeypatch)
    errors = {}
    for n in (48, 96):
        calls.clear()
        errors[n] = abs(numeric_gap(DeformationParams(0.0, 1.0, t), n) - exact) / exact
        assert len(calls) == shift_invert_calls
        h = (PI / 2) / (n - 1)
        assert errors[n] <= 5.0 * h**2 / (PI / 2 - t) ** 2
    assert 3.5 <= errors[48] / errors[96] <= 4.5
