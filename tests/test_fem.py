"""Tests for the finite-element eigensolver on the pullback metric."""
import math
import subprocess
import sys

import numpy as np
import pytest

import spheregap.fem as fem
from spheregap.errors import ConvergenceError
from spheregap.fem import DiscreteEigenproblem, SolverConfig, assemble, gap_slope, numeric_gap, solve_smallest
from spheregap.geometry import DeformationParams, metric_coefficients
from spheregap.spectra import TriangleSpec, gap as closed_gap
from spheregap.variation import remark_gap_curve

PI = math.pi


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(grid_n=4)


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
    problem = assemble(params, SolverConfig(grid_n=16))
    for mat in (problem.stiffness, problem.mass):
        diff = (mat - mat.T).tocoo()
        assert diff.nnz == 0 or np.max(np.abs(diff.data)) == 0.0


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
    problem = assemble(params, SolverConfig(grid_n=n))
    K_ref, M_ref = _loop_assemble(params, n)
    scale = np.max(np.abs(K_ref))
    assert np.max(np.abs(problem.stiffness.toarray() - K_ref)) < 1e-12 * scale
    assert np.max(np.abs(problem.mass.toarray() - M_ref)) < 1e-12


def test_dense_and_sparse_solvers_agree():
    params = DeformationParams(0.3, math.sqrt(1 - 0.09), 0.03)
    problem = assemble(params, SolverConfig(grid_n=32))
    vals_d, _ = solve_smallest(problem, 3, method="dense")
    vals_s, _ = solve_smallest(problem, 3, method="sparse")
    assert np.max(np.abs(vals_d - vals_s)) < 1e-7


def test_equilateral_eigenvalues():
    problem = assemble(DeformationParams(0.0, 1.0, 0.0), SolverConfig(grid_n=48))
    vals, _ = solve_smallest(problem, 3)
    assert abs(vals[0] - 12.0) < 1e-3 * 12.0
    # nearly degenerate second pair at 30
    assert abs(vals[1] - 30.0) < 5e-3 * 30.0
    assert abs(vals[2] - 30.0) < 5e-3 * 30.0
    assert vals[2] - vals[1] < 0.05


def test_general_triangle_against_closed_form():
    beta = PI / 4
    problem = assemble(DeformationParams(0.0, 1.0, 0.0), SolverConfig(grid_n=48),
                       beta=beta)
    vals, _ = solve_smallest(problem, 1)
    exact = 5.0 * 6.0  # first closed-form eigenvalue at beta = pi/4
    assert abs(vals[0] - exact) < 0.01 * exact


def test_lune_domain_and_monotonicity():
    cfg = SolverConfig(grid_n=48)
    lune = assemble(DeformationParams(0.0, 1.0, 0.0), cfg, beta=PI / 2, domain="lune")
    vals_lune, _ = solve_smallest(lune, 3)
    assert abs(vals_lune[0] - 6.0) < 0.01 * 6.0
    tri = assemble(DeformationParams(0.0, 1.0, 0.0), cfg)
    vals_tri, _ = solve_smallest(tri, 1)
    # the triangle is a subdomain of the lune, so its lowest mode sits higher
    assert vals_tri[0] > vals_lune[0]


def test_eigenvector_matches_first_eigenfunction():
    problem = assemble(DeformationParams(0.0, 1.0, 0.0), SolverConfig(grid_n=48))
    vals, vecs = solve_smallest(problem, 1)
    grid = problem.scatter(vecs[:, 0])
    R, T = np.meshgrid(problem.grid_r, problem.grid_theta, indexing="ij")
    u1 = np.sin(R) ** 2 * np.cos(R) * np.sin(2 * T)
    cos = abs(np.sum(grid * u1)) / (np.linalg.norm(grid) * np.linalg.norm(u1))
    assert cos > 0.999


def test_numeric_gap_and_exact_curve():
    cfg = SolverConfig(grid_n=48)
    g0 = numeric_gap(DeformationParams(0.0, 1.0, 0.0), cfg)
    assert abs(g0 - 18.0) < 0.01 * 18.0
    for a, b in ((0.0, 1.0), (1.0, 0.0)):
        g = numeric_gap(DeformationParams(a, b, 0.05), cfg)
        exact = remark_gap_curve(0.05)
        assert abs(g - exact) < 0.01 * exact
        # the one-sided deformation is congruent to a narrower half-lune
        # triangle, so the closed-form spectra give the same number
        assert abs(exact - closed_gap(TriangleSpec(PI / 2 - 0.05))) < 1e-12


def test_gap_slope_axis_direction():
    result = gap_slope((0.0, 1.0), [0.02, 0.01, 0.005], SolverConfig(grid_n=48))
    ref = 16.0 / PI
    assert abs(result.slope - ref) < 0.05 * ref
    assert len(result.slopes) == 3 and len(result.gaps) == 3
    assert result.error_estimate < 0.1
    assert abs(result.gap_at_zero - 18.0) < 0.2


def test_gap_slope_validation():
    cfg = SolverConfig(grid_n=16)
    with pytest.raises(ValueError):
        gap_slope((0.0, 1.0), [0.01, 0.02], cfg)  # not decreasing
    with pytest.raises(ValueError):
        gap_slope((0.0, 1.0), [], cfg)
    with pytest.raises(ValueError):
        gap_slope((0.0, 1.0), [0.01, -0.005], cfg)
    for t_values in ([math.nan], [0.02, math.nan]):
        with pytest.raises(ValueError, match="strictly decreasing"):
            gap_slope((0.0, 1.0), t_values, cfg)


def test_assemble_validation():
    cfg = SolverConfig(grid_n=16)
    with pytest.raises(ValueError):
        assemble(DeformationParams(0.0, 1.0, 0.1), cfg, domain="lune")
    with pytest.raises(ValueError):
        assemble(DeformationParams(0.0, 1.0, 0.1), cfg, beta=1.0)
    with pytest.raises(ValueError):
        assemble(DeformationParams(0.0, 1.0, 0.0), cfg, domain="disk")
    problem = assemble(DeformationParams(0.0, 1.0, 0.0), cfg)
    with pytest.raises(ValueError):
        solve_smallest(problem, problem.num_dof + 1)


@pytest.mark.parametrize("method", ["dense", "sparse"])
def test_residual_tolerance_enforced(method):
    problem = assemble(DeformationParams(0.0, 1.0, 0.0), SolverConfig(grid_n=24))
    with pytest.raises(ConvergenceError):
        solve_smallest(problem, 2, method=method, tol=1e-300)


@pytest.mark.parametrize("partial", [1, 0])
def test_arpack_failure_reports_reached_residual(monkeypatch, partial):
    problem = assemble(DeformationParams(0.0, 1.0, 0.0), SolverConfig(grid_n=24))
    vals, vecs = solve_smallest(problem, 2, method="dense")
    # one returned pair, its eigenvalue off by 1 %: a known finite residual
    got_vals, got_vecs = 1.01 * vals[:partial], vecs[:, :partial]

    def no_convergence(*args, **kwargs):
        raise fem.spla.ArpackNoConvergence("ARPACK error -1: No convergence",
                                           got_vals, got_vecs)

    monkeypatch.setattr(fem.spla, "eigsh", no_convergence)
    with pytest.raises(ConvergenceError) as info:
        solve_smallest(problem, 2, method="sparse")
    if partial:
        mv = problem.mass @ got_vecs[:, 0]
        expected = (np.linalg.norm(problem.stiffness @ got_vecs[:, 0] - got_vals[0] * mv)
                    / np.linalg.norm(mv))
        assert 0 < info.value.residual < math.inf
        assert info.value.residual == pytest.approx(expected, rel=1e-12)
    else:
        assert info.value.residual == math.inf


@pytest.mark.parametrize("method", ["dense", "sparse"])
def test_solve_smallest_bitwise_across_processes(method):
    # a fresh interpreter must reproduce the in-process eigenvalues exactly
    problem = assemble(DeformationParams(0.0, 1.0, 0.05), SolverConfig(grid_n=24))
    vals, _ = solve_smallest(problem, 2, method=method)
    code = (
        "import spheregap.fem as fem\n"
        "from spheregap.geometry import DeformationParams\n"
        "p = fem.assemble(DeformationParams(0.0, 1.0, 0.05), fem.SolverConfig(grid_n=24))\n"
        f"v, _ = fem.solve_smallest(p, 2, method={method!r})\n"
        "print(*(float(x).hex() for x in v))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.split() == [float(x).hex() for x in vals]


def test_neville_extrapolation_linear_exact():
    # slope samples lying on s(t) = s0 + c t extrapolate to s0 exactly
    ts = [0.02, 0.01, 0.005]
    ys = [3.0 + 5.0 * t for t in ts]
    levels = fem._neville_to_zero(ts, ys)
    assert abs(levels[-1] - 3.0) < 1e-12
