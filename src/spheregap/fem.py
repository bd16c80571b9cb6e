"""Bilinear finite elements for the Laplace-Beltrami Dirichlet problem.

The deformed triangles are solved on the fixed coordinate rectangle with the
exact pullback metric: the weak form only needs the coefficient fields
(g^ij sqrt(det g)) and sqrt(det g) supplied by the geometry module, so no
metric derivatives enter. Q1 tensor-product elements on a uniform grid with
a 3x3 Gauss rule per cell; Dirichlet rows are eliminated on the edges
theta = 0, theta = beta and (for triangles) r = r_max, while pole edges keep
their nodes: the measure sqrt(det g) vanishes there, which makes the
discrete problem well posed without a boundary condition.

A problem is separable when its fields depend on r only: at t = 0 (triangle
or lune, any beta) and along the direction (1, 0), where b = 0 makes the
apex offset z vanish and T(t) is the half-lune triangle of angle pi/2 - t.
Then K = K_r[w11] (x) M_theta + M_r[w22] (x) K_theta and
M = M_r[m] (x) M_theta, the theta pencil has discrete sine eigenvectors, and
solve_smallest(method="sparse") solves one small radial pencil per theta
mode instead of factoring the 2D K (fast diagonalization, Lynch, Rice &
Thomas 1964). The 2D K and M are still assembled, and every separable answer
passes the same residual check on them as a Lanczos answer.

Independent of the closed-form spectra, this provides numeric eigenvalues
lambda_i(t), gaps, and finite-difference gap slopes for the deformation
family.
"""
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import eigh

from .errors import AssemblyError, ConvergenceError
from .geometry import DeformationParams, metric_coefficients

_GAUSS3_NODES = np.array([0.5 - math.sqrt(15.0) / 10.0, 0.5, 0.5 + math.sqrt(15.0) / 10.0])
_GAUSS3_WEIGHTS = np.array([5.0 / 18.0, 8.0 / 18.0, 5.0 / 18.0])

# eigenpairs per gap solve: lambda_1, the split lambda_2 pair and one above
_GAP_MODES = 4

# ARPACK's default tol = 0 (machine precision) adds one whole implicit restart
# to a 4-pair shift-invert solve, and that restart moved no eigenvalue by more
# than 3.2e-15 relative on grids n = 64 to 256 at t = 0 to 0.05.
_ARPACK_TOL = 1e-12


@dataclass(frozen=True)
class SolverConfig:
    """Grid resolution of the discretization."""

    grid_n: int = 64          # nodes per axis

    def __post_init__(self):
        if self.grid_n < 8:
            raise ValueError("grid_n must be >= 8")


@dataclass(frozen=True)
class _SeparableFactors:
    """1D factors of a problem whose coefficient fields depend on r only.

    K = stiffness_r (x) M_theta + weight_r (x) K_theta and
    M = mass_r (x) M_theta, with dense radial matrices on the retained radial
    nodes and the constant-coefficient Q1 theta pair on the n_theta interior
    nodes of a grid of step h_theta.
    """

    stiffness_r: np.ndarray     # K_r[w11]
    weight_r: np.ndarray        # M_r[w22]
    mass_r: np.ndarray          # M_r[m]
    h_theta: float
    n_theta: int


@dataclass
class DiscreteEigenproblem:
    """Assembled stiffness/mass pair with Dirichlet rows eliminated."""

    stiffness: sp.csr_matrix
    mass: sp.csr_matrix
    keep: np.ndarray            # retained node ids in the full grid numbering
    grid_r: np.ndarray
    grid_theta: np.ndarray
    shape: tuple = field(default=(0, 0))
    # None unless the fields depend on r only
    _separable: _SeparableFactors = field(default=None, repr=False)

    @property
    def num_dof(self) -> int:
        return self.stiffness.shape[0]

    def scatter(self, vec: np.ndarray) -> np.ndarray:
        """Embed a reduced-dof vector back onto the full (n_r, n_theta) grid."""
        full = np.zeros(self.shape[0] * self.shape[1])
        full[self.keep] = vec
        return full.reshape(self.shape)


def _reference_basis():
    """Q1 basis values and reference gradients at the 3x3 Gauss points."""
    xi, eta = np.meshgrid(_GAUSS3_NODES, _GAUSS3_NODES, indexing="ij")
    xi, eta = xi.ravel(), eta.ravel()
    wq = np.outer(_GAUSS3_WEIGHTS, _GAUSS3_WEIGHTS).ravel()
    phi = np.stack([(1 - xi) * (1 - eta), xi * (1 - eta), (1 - xi) * eta, xi * eta])
    dphx = np.stack([-(1 - eta), (1 - eta), -eta, eta])
    dphy = np.stack([-(1 - xi), -xi, (1 - xi), xi])
    return wq, phi, dphx, dphy


def _local_matrices(a11, a12, a22, am, phi, dphx, dphy):
    """Per-cell 4x4 stiffness and mass blocks for a bilinear tensor basis.

    a11, a12, a22, am: (ncells, nq) coefficient samples, already multiplied
    by quadrature weights and the cell Jacobian factors. phi, dphx, dphy:
    (4, nq) basis values and reference-cell gradients at the same points.
    Each coefficient field enters through one GEMM against an (nq, 16)
    table of basis products, whose column 4*a + b belongs to entry (a, b).
    """
    def table(u, v):
        return (u[:, None, :] * v[None, :, :]).reshape(16, -1).T

    kloc = (a11 @ table(dphx, dphx)
            + a12 @ (table(dphx, dphy) + table(dphy, dphx))
            + a22 @ table(dphy, dphy)).reshape(-1, 4, 4)
    mloc = (am @ table(phi, phi)).reshape(-1, 4, 4)
    # enforce bitwise symmetry (the summation order differs per entry)
    kloc = 0.5 * (kloc + np.swapaxes(kloc, 1, 2))
    mloc = 0.5 * (mloc + np.swapaxes(mloc, 1, 2))
    return kloc, mloc


def _line_matrix(coef, basis, scale):
    """Dense 1D Q1 matrix, sum over cells of the integral of coef * u_a * u_b.

    coef: (cells, 3) samples at the Gauss points of each cell; basis: (2, 3)
    values of the two cell shape functions, or of their reference
    derivatives, at those points; scale: the cell Jacobian factor (h for a
    mass, 1/h for a stiffness).
    """
    loc = np.einsum("cq,aq,bq->cab", coef * (_GAUSS3_WEIGHTS * scale), basis, basis)
    cells = np.arange(len(coef))
    out = np.zeros((len(coef) + 1,) * 2)
    out[cells, cells] += loc[:, 0, 0]
    out[cells + 1, cells + 1] += loc[:, 1, 1]
    out[cells, cells + 1] = out[cells + 1, cells] = loc[:, 0, 1]
    return out


def assemble(params: DeformationParams, config: SolverConfig, *,
             beta: float = math.pi / 2, domain: str = "triangle") -> DiscreteEigenproblem:
    """Assemble the generalized eigenproblem K v = lambda M v.

    domain "triangle" uses the rectangle [0, r_max] x [0, beta] with
    r_max = pi/2 and a Dirichlet edge at r = r_max; domain "lune" uses
    r_max = pi with pole edges at both r = 0 and r = pi. Deformations
    (t > 0) are defined only for the beta = pi/2 triangle.
    """
    if domain not in ("triangle", "lune"):
        raise ValueError(f"unknown domain {domain!r}")
    if params.t > 0 and (domain != "triangle" or abs(beta - math.pi / 2) > 1e-15):
        raise ValueError("deformed metrics are defined on the beta = pi/2 triangle only")
    r_max = math.pi / 2 if domain == "triangle" else math.pi
    n = config.grid_n
    hx = r_max / (n - 1)
    hy = beta / (n - 1)
    wq, phi, dphx, dphy = _reference_basis()

    nc = n - 1
    cells = np.arange(nc)
    # Gauss points on axes (cell_r, cell_theta, point_r, point_theta), so the
    # theta-only fields are evaluated once per distinct theta; flattened,
    # this is the cell order ci * nc + cj and the point order of
    # _reference_basis
    rq = (cells[:, None, None, None] + _GAUSS3_NODES[:, None]) * hx
    tq = (cells[:, None, None] + _GAUSS3_NODES) * hy
    fields = metric_coefficients(params, rq, tq)
    separable = None
    if params.t == 0 or params.b == 0:
        # z = 0, so l = L = 0 exactly and every field is a function of r
        w11_r, _, w22_r, m_r = (f[:, 0, :, 0] for f in fields)
        n_r = n - 1 if domain == "triangle" else n
        phi_r = np.stack([1.0 - _GAUSS3_NODES, _GAUSS3_NODES])
        dphi_r = np.array([[-1.0], [1.0]]) * np.ones(3)
        separable = _SeparableFactors(
            stiffness_r=_line_matrix(w11_r, dphi_r, 1.0 / hx)[:n_r, :n_r],
            weight_r=_line_matrix(w22_r, phi_r, hx)[:n_r, :n_r],
            mass_r=_line_matrix(m_r, phi_r, hx)[:n_r, :n_r],
            h_theta=hy, n_theta=n - 2,
        )
    w11, w12, w22, m = (f.reshape(nc * nc, 9) for f in fields)

    ci, cj = np.divmod(np.arange(nc * nc), nc)
    scale = wq[None, :] * (hx * hy)
    kloc, mloc = _local_matrices(
        w11 * scale / hx**2,
        w12 * scale / (hx * hy),
        w22 * scale / hy**2,
        m * scale,
        phi, dphx, dphy,
    )

    conn = np.stack([
        ci * n + cj,
        (ci + 1) * n + cj,
        ci * n + (cj + 1),
        (ci + 1) * n + (cj + 1),
    ], axis=1)
    ii, jj = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    drop = (jj == 0) | (jj == n - 1)
    if domain == "triangle":
        drop |= ii == n - 1
    keep = np.flatnonzero(~drop.ravel())
    # reduced id of every grid node, -1 on Dirichlet nodes; their rows and
    # columns are dropped before the duplicates are summed
    reduced = np.full(n * n, -1)
    reduced[keep] = np.arange(len(keep))
    rows = reduced[np.repeat(conn, 4, axis=1).ravel()]
    cols = reduced[np.tile(conn, (1, 4)).ravel()]
    live = (rows >= 0) & (cols >= 0)
    rows, cols = rows[live], cols[live]
    size = len(keep)
    stiffness = sp.coo_matrix((kloc.ravel()[live], (rows, cols)), shape=(size, size)).tocsr()
    mass = sp.coo_matrix((mloc.ravel()[live], (rows, cols)), shape=(size, size)).tocsr()
    if mass.diagonal().min() <= 0:
        raise AssemblyError("mass matrix lost positivity after Dirichlet elimination")
    return DiscreteEigenproblem(
        stiffness, mass, keep,
        grid_r=np.linspace(0.0, r_max, n),
        grid_theta=np.linspace(0.0, beta, n),
        shape=(n, n),
        _separable=separable,
    )


def _worst_residual(problem: DiscreteEigenproblem, vals, vecs) -> float:
    """Largest ||K v - lambda M v|| / ||M v|| over the pairs; inf if there are none."""
    worst = math.inf if len(vals) == 0 else 0.0
    for i in range(len(vals)):
        v = vecs[:, i]
        mv = problem.mass @ v
        res = np.linalg.norm(problem.stiffness @ v - vals[i] * mv) / np.linalg.norm(mv)
        worst = max(worst, res)
    return worst


def _solve_separable(factors: _SeparableFactors, m: int):
    """m smallest eigenpairs of a separable problem, ascending, M-normalized.

    Theta mode k (k = 1 .. n_theta) has the sine vector s_k(j) =
    sin(k pi j / (n_theta + 1)) and the eigenvalue mu_k of the theta pencil;
    it leaves the radial pencil (K_r + mu_k M_r[w22]) x = lambda M_r[m] x,
    and x (x) s_k is an eigenvector of the 2D pencil. Every radial eigenvalue
    rises with mu_k, so the m smallest overall lie among the m - k + 1
    smallest of modes k <= m.
    """
    n_r, n_t = len(factors.mass_r), factors.n_theta
    modes = np.arange(1, min(m, n_t) + 1)
    phase = modes * math.pi / (n_t + 1)
    # 1 - cos(phase) written as 2 sin^2(phase / 2), exact in relative terms
    mu = 12.0 / factors.h_theta**2 * np.sin(0.5 * phase) ** 2 / (2.0 + np.cos(phase))
    # s_k^T M_theta s_k = (h_theta / 6)(4 + 2 cos(phase)) (n_t + 1) / 2
    s_norm = np.sqrt(factors.h_theta * (2.0 + np.cos(phase)) * (n_t + 1) / 6.0)
    radial = [eigh(factors.stiffness_r + mu_k * factors.weight_r, factors.mass_r,
                   subset_by_index=[0, min(m - k + 1, n_r) - 1])
              for k, mu_k in zip(modes, mu)]
    # (eigenvalue, theta mode index, radial column); sorted() is stable
    picked = sorted(((lam, i, c) for i, (lams, _) in enumerate(radial)
                     for c, lam in enumerate(lams)), key=lambda pair: pair[0])[:m]
    j = np.arange(1, n_t + 1)
    vecs = np.empty((n_r * n_t, len(picked)))
    for out, (_, i, c) in enumerate(picked):
        s_k = np.sin(modes[i] * math.pi * j / (n_t + 1)) / s_norm[i]
        vecs[:, out] = np.kron(radial[i][1][:, c], s_k)
    return np.array([lam for lam, _, _ in picked]), vecs


def solve_smallest(problem: DiscreteEigenproblem, m: int, *,
                   method: str = "sparse", tol: float = 1e-6):
    """m smallest generalized eigenpairs, ascending; returns (values, vectors).

    method "sparse" solves a separable problem (fields depending on r only,
    see the module docstring) exactly, one small radial pencil per theta
    mode; otherwise it runs shift-invert Lanczos about sigma = 0 on one LU
    of K with a minimum-degree ordering of K + K^T. "dense" is the LAPACK
    reference path (an oracle for moderate grids).
    Residuals ||K v - lambda M v|| / ||M v|| on the 2D K and M are checked
    against tol for every method; when ARPACK stops early, the
    ConvergenceError carries the worst residual of the pairs it returned.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if m > problem.num_dof:
        raise ValueError("requested more modes than retained degrees of freedom")
    if method == "dense":
        vals, vecs = eigh(problem.stiffness.toarray(), problem.mass.toarray(),
                          subset_by_index=[0, m - 1])
    elif method == "sparse" and problem._separable is not None:
        vals, vecs = _solve_separable(problem._separable, m)
    elif method == "sparse":
        # K is symmetric, so a symmetric fill-reducing ordering beats COLAMD
        lu = spla.splu(problem.stiffness.tocsc(), permc_spec="MMD_AT_PLUS_A")
        k_inv = spla.LinearOperator(problem.stiffness.shape, matvec=lu.solve, dtype=float)
        # deterministic start vector: repeated invocations must agree bitwise
        v0 = np.random.default_rng(2718281).standard_normal(problem.num_dof)
        try:
            vals, vecs = spla.eigsh(problem.stiffness, k=m, M=problem.mass,
                                    sigma=0.0, which="LM", v0=v0, OPinv=k_inv,
                                    tol=_ARPACK_TOL)
        except spla.ArpackNoConvergence as exc:
            reached = _worst_residual(problem, exc.eigenvalues, exc.eigenvectors)
            raise ConvergenceError("eigensolver did not converge", reached) from exc
        order = np.argsort(vals)
        vals, vecs = vals[order], vecs[:, order]
    else:
        raise ValueError(f"unknown method {method!r}")
    worst = _worst_residual(problem, vals, vecs)
    if worst > tol:
        raise ConvergenceError("eigen-residual above tolerance", worst)
    return vals, vecs


def numeric_gap(params: DeformationParams, config: SolverConfig) -> float:
    """lambda_2 - lambda_1 of the deformed triangle, eigenvalue #2 counted
    with multiplicity."""
    vals, _ = solve_smallest(assemble(params, config), _GAP_MODES)
    return float(vals[1] - vals[0])


def _neville_to_zero(ts, ys):
    """Polynomial extrapolation of samples (t_i, y_i) to t = 0; returns the
    tableau column endpoints (one per elimination level)."""
    ts = np.asarray(ts, dtype=float)
    cur = np.asarray(ys, dtype=float).copy()
    levels = [float(cur[-1])]
    for k in range(1, len(ts)):
        nxt = np.empty(len(cur) - 1)
        for i in range(len(nxt)):
            nxt[i] = (cur[i + 1] * ts[i] - cur[i] * ts[i + k]) / (ts[i] - ts[i + k])
        cur = nxt
        levels.append(float(cur[-1]))
    return levels


@dataclass(frozen=True)
class GapSlopeResult:
    """Extrapolated gap slope at t = 0 with its finite-difference history."""

    slope: float
    error_estimate: float
    t_values: tuple
    gaps: tuple
    slopes: tuple
    gap_at_zero: float
    warning: bool


def gap_slope(direction, t_values, config: SolverConfig) -> GapSlopeResult:
    """Richardson-extrapolated slope of the gap (Gamma(t) - Gamma(0)) / t.

    t_values must be positive and decreasing. The second eigenvalue at t = 0
    is discretely split (multiplicity 2 in the continuum); the baseline uses
    the Rayleigh-weighted combination of the split pair selected by the
    second eigenvector at the smallest t, which removes the O(split/t) bias
    the plain minimum baseline would leave behind.
    """
    ts = [float(t) for t in t_values]
    if not (ts and all(t > 0 for t in ts) and all(t1 > t2 for t1, t2 in zip(ts, ts[1:]))):
        raise ValueError("t_values must be positive and strictly decreasing")
    a, b = direction

    problem0 = assemble(DeformationParams(a, b, 0.0), config)
    vals0, vecs0 = solve_smallest(problem0, _GAP_MODES)

    solved = []
    for t in ts:
        problem = assemble(DeformationParams(a, b, t), config)
        vals, vecs = solve_smallest(problem, _GAP_MODES)
        solved.append((t, vals, vecs))

    lam2_base = vals0[1]
    _, _, vecs_min = solved[-1]
    v2 = vecs_min[:, 1]
    cluster = [i for i in range(1, _GAP_MODES)
               if vals0[i] - vals0[1] < 1e-3 * max(1.0, vals0[1])]
    weights = np.array([abs(v2 @ (problem0.mass @ vecs0[:, i])) ** 2
                        for i in cluster])
    if weights.sum() > 0:
        lam2_base = float(np.sum(weights * vals0[cluster]) / weights.sum())
    gap0 = float(lam2_base - vals0[0])

    gaps = [float(v[1] - v[0]) for _, v, _ in solved]
    slopes = [(g - gap0) / t for (t, _, _), g in zip(solved, gaps)]
    levels = _neville_to_zero(ts, slopes)
    slope = levels[-1]
    corrections = [abs(levels[i + 1] - levels[i]) for i in range(len(levels) - 1)]
    error_estimate = corrections[-1] if corrections else math.inf
    warning = len(corrections) >= 2 and corrections[-1] > corrections[-2]
    return GapSlopeResult(
        slope=slope,
        error_estimate=error_estimate,
        t_values=tuple(ts),
        gaps=tuple(gaps),
        slopes=tuple(slopes),
        gap_at_zero=gap0,
        warning=warning,
    )
