"""Bilinear finite elements for the Laplace-Beltrami Dirichlet problem.

assemble takes the same domain objects as the closed-form spectra: a
LuneSpec or TriangleSpec of any beta, under the round metric, or the
DeformationParams of a deformed triangle T(t). The deformed triangles are
solved on the fixed coordinate rectangle with the exact pullback metric:
the weak form only needs the coefficient fields (g^ij sqrt(det g)) and
sqrt(det g) supplied by the geometry module, so no metric derivatives
enter. Q1 tensor-product elements on a uniform grid with
a 3x3 Gauss rule per cell; Dirichlet nodes are eliminated on the edges
theta = 0, theta = beta and (for triangles) r = r_max, while pole edges keep
their nodes: the measure sqrt(det g) vanishes there, which makes the
discrete problem well posed without a boundary condition. The retained
nodes form an (n_r, n - 2) rectangle, so K and M are 9-point stencils on
it (StencilMatrix). Both are exactly symmetric, so each stores only its
centre and its four forward offsets; a backward offset is read from its
forward plane.

A problem is separable when its fields depend on r only: at t = 0 (triangle
or lune, any beta) and along the direction (1, 0), where b = 0 makes the
apex offset z vanish and T(t) is the half-lune triangle of angle pi/2 - t.
Then K = K_r[w11] (x) M_theta + M_r[w22] (x) K_theta and
M = M_r[m] (x) M_theta, the theta pencil has discrete sine eigenvectors, and
solve_smallest solves one small radial pencil per theta mode (fast
diagonalization, Lynch, Rice & Thomas 1964); one cached function makes
those factors once per metric and grid. Every other problem is a t > 0
deformation of the round (t = 0) problem on the same grid, whose stiffness
K0 is spectrally equivalent to K(t) uniformly in h. Block LOBPCG (Knyazev
2001) solves it with the factors of that t = 0 problem: started from its
exact eigenvectors and preconditioned by the exact inverse of K0, a sine
transform in theta, one tridiagonal radial solve per theta mode, and the
inverse transform. Near the largest t of a direction K0 preconditions K(t)
poorly. LOBPCG stops only inside the residual gate; a run that reaches its
iteration cap or whose Rayleigh-Ritz step breaks down hands the problem to
ARPACK in shift-invert mode with a sparse LU of K(t). Every answer passes
the same relative residual check on the 2D K and M.

Independent of the closed-form spectra, this provides numeric eigenvalues
lambda_i(t), gaps, and finite-difference gap slopes for the deformation
family. The module imports numpy only. scipy loads only on that
shift-invert path.
"""
import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .errors import AssemblyError, ConvergenceError
from .geometry import DeformationParams, metric_coefficients
from .spectra import LuneSpec, TriangleSpec

_GAUSS3_NODES = np.array([0.5 - math.sqrt(15.0) / 10.0, 0.5, 0.5 + math.sqrt(15.0) / 10.0])
_GAUSS3_WEIGHTS = np.array([5.0 / 18.0, 8.0 / 18.0, 5.0 / 18.0])
# the Q1 line element at the Gauss points: the values of the two cell shape
# functions 1 - s and s, and their reference slopes -1 and 1, each (2, 3)
_LINE_PHI = np.stack([1.0 - _GAUSS3_NODES, _GAUSS3_NODES])
_LINE_DPHI = np.array([[-1.0], [1.0]]) * np.ones(3)

# the undeformed (t = 0) metric, the round metric of the sphere
_ROUND = DeformationParams(1.0, 0.0, 0.0)

# eigenpairs per gap solve: lambda_1 (12 at t = 0) and the split lambda_2
# pair (30). The next t = 0 eigenvalue, the triple 56, lies far enough above
# them that the LOBPCG guard block is these 3 pairs alone
_GAP_MODES = 3

# largest relative residual ||K v - lambda M v|| / (|lambda| ||M v||) of an
# eigenpair: LOBPCG stops and locks pairs there, and solve_smallest accepts
# no answer above it
_RESIDUAL_RTOL = 1e-9
# iterations before the shift-invert path takes over. t = 0.05 takes 12 at
# n = 256 and t = 1 takes 31 at n = 64; 0.8 of the largest t along (0, 1)
# takes 118 at n = 64, where shift-invert costs about 15 iterations
_LOBPCG_MAX_ITER = 50
# ARPACK's stopping tolerance on the shift-invert path
_ARPACK_TOL = 1e-12
# consecutive t = 0 eigenvalues closer than this (relative) share a cluster
_CLUSTER_GAP = 0.1
# cell rows per slab of the assembly: at n = 256 the Gauss-point fields of
# a slab take about 1 MB, against 17 MB for the element blocks of the grid
_SLAB_ROWS = 16


# the stored offsets (dr, dt) of a stencil: the centre and the four forward
# ones, whose flat shifts dr * n_theta + dt are positive. The coupling of a
# node to its neighbour at (-dr, -dt) is, by symmetry, the coupling of that
# neighbour to the node at (dr, dt), so a backward plane is a forward plane
# read at shifted positions
_OFFSETS = ((0, 0), (0, 1), (1, -1), (1, 0), (1, 1))


class StencilMatrix:
    """Symmetric 9-point operator on the retained (n_r, n_theta) node rectangle.

    Only the centre and the four forward offsets are stored: coef[o, i, j],
    with (dr, dt) = _OFFSETS[o], is the entry in the row of node (i, j) and
    the column of node (i + dr, j + dt), with node (i, j) numbered
    i * n_theta + j; entries that would reach outside the rectangle are zero.
    The entry of a backward offset (-dr, -dt) in row (i, j) is, by symmetry,
    coef[o, i - dr, j - dt]. `A @ x` takes a vector or a block of columns.
    """

    def __init__(self, coef: np.ndarray):
        self.coef = coef

    @property
    def shape(self) -> tuple:
        size = self.coef.shape[1] * self.coef.shape[2]
        return (size, size)

    @property
    def nnz(self) -> int:
        """Nonzero entries of the full matrix, both triangles."""
        return int(np.count_nonzero(self.coef[0]) + 2 * np.count_nonzero(self.coef[1:]))

    def diagonal(self) -> np.ndarray:
        return self.coef[0].ravel()

    @cached_property
    def _shifts(self):
        """(flat shift, coefficients, output slice) of each off-centre offset,
        backward and forward, in the order dr = -1, 0, 1 and dt = -1, 0, 1.

        In the flat numbering offset (dr, dt) is the shift dr * n_theta + dt;
        where it wraps across a radial row its coefficient is zero. Row p of
        shift s reads column p + s; the coefficients are those of the rows
        of the output slice, which for a backward shift -s are the forward
        plane's first size - s entries, as for the forward shift s."""
        n_t = self.coef.shape[2]
        flat = self.coef.reshape(len(_OFFSETS), -1)
        size = flat.shape[1]
        forward = {dr * n_t + dt: flat[o] for o, (dr, dt) in enumerate(_OFFSETS) if o}
        shifts = []
        for dr in (-1, 0, 1):
            for dt in (-1, 0, 1):
                shift = dr * n_t + dt
                if shift:
                    shifts.append((shift, forward[abs(shift)][:size - abs(shift)],
                                   slice(max(0, -shift), size - max(0, shift))))
        return shifts

    def apply_rows(self, x: np.ndarray, out: np.ndarray = None) -> np.ndarray:
        """A applied to every row of a (k, n) block, one row at a time so
        that a row, its image and a product stay in cache; the image goes to
        `out` when given, which must not overlap x."""
        centre = self.diagonal()
        y = np.empty_like(x) if out is None else out
        tmp = np.empty(x.shape[1])
        for xi, yi in zip(x, y):
            np.multiply(centre, xi, out=yi)
            for shift, c, span in self._shifts:
                prod = tmp[span]
                np.multiply(c, xi[span.start + shift:span.stop + shift], out=prod)
                yi[span] += prod
        return y

    def __matmul__(self, x):
        x = np.asarray(x, dtype=float)
        rows = np.ascontiguousarray(x.reshape(self.shape[0], -1).T)
        return self.apply_rows(rows).T.reshape(x.shape)

    def tocsc(self):
        """The matrix in scipy.sparse CSC form, without stored zeros."""
        import scipy.sparse as sp

        diagonals = [self.diagonal()] + [c for _, c, _ in self._shifts]
        offsets = [0] + [shift for shift, _, _ in self._shifts]
        out = sp.diags(diagonals, offsets, shape=self.shape, format="csc")
        out.eliminate_zeros()
        return out

    def toarray(self) -> np.ndarray:
        out = np.diag(self.diagonal())
        for shift, c, rows in self._shifts:
            ids = np.arange(rows.start, rows.stop)
            out[ids, ids + shift] = c
        return out


def _pencil_eigh(a, b):
    """All eigenpairs of the pencil (a, b), both positive definite, ascending
    and b-orthonormal.

    The reduction factors a = L L^T and diagonalizes L^-1 b L^-T, whose
    eigenvalues are 1/lambda. Its largest ones, the smallest lambda, come out
    accurate to rounding; reducing with the Cholesky factor of b instead (as
    LAPACK's sygv does) loses digits to the small mass of the pole rows.
    """
    l_inv = np.linalg.inv(np.linalg.cholesky(a))
    c = l_inv @ b @ l_inv.T
    inv_vals, vecs = np.linalg.eigh(0.5 * (c + c.T))
    inv_vals, vecs = inv_vals[::-1], vecs[:, ::-1]
    return 1.0 / inv_vals, (l_inv.T @ vecs) / np.sqrt(inv_vals)


def _tridiagonal(diag, off):
    """The dense symmetric tridiagonal matrix of the bands (diag, off)."""
    return np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)


class _SeparableFactors:
    """1D factors of a problem whose coefficient fields depend on r only.

    K = K_r[w11] (x) M_theta + M_r[w22] (x) K_theta and
    M = M_r[m] (x) M_theta. The three radial matrices are tridiagonal on the
    n_r retained radial nodes, and each is kept as its bands (diag, off):
    stiffness_r = K_r[w11], weight_r = M_r[w22], mass_r = M_r[m]. The theta
    pair is the constant-coefficient Q1 pair on the n_theta interior nodes
    of a grid of step h_theta.

    Theta mode k (k = 1 .. n_theta) has the sine vector s_k(j) =
    sin(k pi j / (n_theta + 1)), M_theta-normalized here, and the eigenvalue
    mu_k of the theta pencil; it leaves the radial pencil
    A(mu_k) x = lambda M_r[m] x with A(mu) = K_r[w11] + mu M_r[w22], and
    x (x) s_k is an eigenvector of the 2D pencil. _radial_bands forms
    A(mu) for the direct solves of single modes and for the LDL^T factors
    of all of them. _separable_factors builds every instance.
    """

    def __init__(self, stiffness_r, weight_r, mass_r, h_theta, n_theta):
        self.stiffness_r = stiffness_r      # K_r[w11]
        self.weight_r = weight_r            # M_r[w22]
        self.mass_r = mass_r                # M_r[m]
        self.h_theta = h_theta
        self.n_theta = n_theta
        self.size = len(mass_r[0]) * n_theta
        # theta mode k -> (eigenvalues, leading eigenvectors) of its radial pencil
        self._radial = {}

    def _radial_bands(self, mu):
        """Bands (diag, off) of A(mu) = K_r[w11] + mu M_r[w22], one column
        per entry of the array mu."""
        return tuple(k[:, None] + w[:, None] * mu
                     for k, w in zip(self.stiffness_r, self.weight_r))

    @cached_property
    def _theta_modes(self):
        """(mu_k, M_theta-orthonormal sine matrix with column k - 1 = s_k)."""
        n_t = self.n_theta
        phase = np.arange(1, n_t + 1) * math.pi / (n_t + 1)
        # 1 - cos(phase) written as 2 sin^2(phase / 2), exact in relative terms
        mu = 12.0 / self.h_theta**2 * np.sin(0.5 * phase) ** 2 / (2.0 + np.cos(phase))
        # s_k^T M_theta s_k = (h_theta / 6)(4 + 2 cos(phase)) (n_t + 1) / 2
        s_norm = np.sqrt(self.h_theta * (2.0 + np.cos(phase)) * (n_t + 1) / 6.0)
        j = np.arange(1, n_t + 1)
        return mu, np.sin(np.outer(j, phase)) / s_norm

    def _solve_mode(self, k: int, count: int):
        """Solve the radial pencil of theta mode k (1-based) and keep all its
        eigenvalues but only its count leading eigenvectors, the ones that
        _smallest(count) can pick; returns (eigenvalues, eigenvectors)."""
        diag, off = self._radial_bands(self._theta_modes[0][k - 1:k])
        lams, vecs = _pencil_eigh(_tridiagonal(diag[:, 0], off[:, 0]),
                                  _tridiagonal(*self.mass_r))
        self._radial[k] = lams, vecs[:, :count].copy()
        return self._radial[k]

    def _smallest(self, count: int):
        """(eigenvalue, theta mode, radial column) of the count smallest
        eigenpairs, ascending, ties in mode order.

        K_r + mu_k M_r[w22] rises with k, so every radial eigenvalue rises
        with the mode: once a mode's smallest eigenvalue is not below the
        count-th smallest found so far, no later mode contributes.
        """
        picked = []
        for k in range(1, self.n_theta + 1):
            lams = (self._radial.get(k) or self._solve_mode(k, count))[0]
            if len(picked) == count and lams[0] >= picked[-1][0]:
                break
            # sorted() is stable, so earlier modes win ties
            picked = sorted(picked + [(lam, k, c) for c, lam in enumerate(lams[:count])],
                            key=lambda pair: pair[0])[:count]
        return picked

    def eigenpairs(self, count: int, out: np.ndarray = None):
        """count smallest eigenpairs of the 2D pencil, ascending, M-normalized:
        (values, vectors), the vectors the columns of a new array, or of
        out.T when out, a (count, n) block, is given."""
        picked = self._smallest(count)
        sines = self._theta_modes[1]
        vecs = np.empty((self.size, len(picked))) if out is None else out.T
        for vec, (_, k, c) in zip(vecs.T, picked):
            radial = self._radial[k][1]
            if radial.shape[1] <= c:
                # kept for a smaller count: the same solve gives the same bits
                radial = self._solve_mode(k, count)[1]
            # the Kronecker product of the radial and the sine vector
            np.multiply.outer(radial[:, c], sines[:, k - 1], out=vec.reshape(-1, self.n_theta))
        return np.array([lam for lam, _, _ in picked]), vecs

    def guard_block(self, m: int) -> int:
        """Block size covering the cluster of the m-th eigenvalue: the
        smallest b >= m at which the spectrum has a relative gap above
        _CLUSTER_GAP, at most 2m and the number of unknowns."""
        limit = min(2 * m, self.size)
        lams = [lam for lam, _, _ in self._smallest(min(limit + 1, self.size))]
        for b in range(m, limit):
            if lams[b] > (1.0 + _CLUSTER_GAP) * lams[b - 1]:
                return b
        return limit

    @cached_property
    def _ldl(self):
        """Unit lower factor and pivots of the tridiagonal A(mu_k) for every
        theta mode at once, each shaped (n_r, n_theta)."""
        diag, off = self._radial_bands(self._theta_modes[0])
        lower = np.zeros_like(diag)
        pivot = diag.copy()
        for i in range(1, len(diag)):
            lower[i] = off[i - 1] / pivot[i - 1]
            pivot[i] -= lower[i] * off[i - 1]
        return lower, pivot

    def solve(self, rows: np.ndarray, out: np.ndarray = None) -> np.ndarray:
        """K^{-1} applied to every row of a (k, n) block: a sine transform in
        theta, one tridiagonal solve per theta mode, the inverse transform;
        the sweeps run in place along axis 1 of the (k, n_r, n_theta) block.
        The inverse transform writes to out, a C-contiguous (k, n) block,
        when it is given."""
        sines = self._theta_modes[1]
        n_t = self.n_theta
        lower, pivot = self._ldl
        z = (rows.reshape(-1, n_t) @ sines).reshape(len(rows), -1, n_t)
        for i in range(1, len(lower)):
            z[:, i] -= lower[i] * z[:, i - 1]
        for zk in z:   # per row: a broadcast division takes a 64 kB buffer
            zk /= pivot
        for i in range(len(lower) - 2, -1, -1):
            z[:, i] -= lower[i + 1] * z[:, i + 1]
        if out is None:
            out = np.empty_like(rows)
        np.matmul(z.reshape(-1, n_t), sines.T, out=out.reshape(-1, n_t))
        return out


@dataclass
class DiscreteEigenproblem:
    """Assembled stiffness/mass pair with Dirichlet rows eliminated.

    factors are the problem's own exact factors when it is separable (its
    fields depend on r only), and otherwise those of the round (t = 0)
    problem on the same grid, which start and precondition its solve."""

    stiffness: StencilMatrix
    mass: StencilMatrix
    factors: _SeparableFactors = field(repr=False)
    separable: bool

    @property
    def num_dof(self) -> int:
        return self.stiffness.shape[0]


def _reference_basis():
    """Q1 basis values and reference gradients at the 3x3 Gauss points: the
    tensor products of the line element, node a at (a % 2, a // 2) and
    point q at (q // 3, q % 3)."""
    a, q = np.arange(4)[:, None], np.arange(9)
    r, t = (a % 2, q // 3), (a // 2, q % 3)
    return (_GAUSS3_WEIGHTS[q // 3] * _GAUSS3_WEIGHTS[q % 3], _LINE_PHI[r] * _LINE_PHI[t],
            _LINE_DPHI[r] * _LINE_PHI[t], _LINE_PHI[r] * _LINE_DPHI[t])


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
    """Bands (diag, off) of a 1D Q1 matrix, the sum over cells of the
    integral of coef * u_a * u_b: its diagonal, cells + 1 long, and its
    symmetric off-diagonal, one entry per cell.

    coef: (cells, 3) samples at the Gauss points of each cell; basis: (2, 3)
    values of the two cell shape functions, or of their reference
    derivatives, at those points; scale: the cell Jacobian factor (h for a
    mass, 1/h for a stiffness).
    """
    loc = np.einsum("cq,aq,bq->cab", coef * (_GAUSS3_WEIGHTS * scale), basis, basis)
    diag = np.zeros(len(coef) + 1)
    diag[:-1] += loc[:, 0, 0]
    diag[1:] += loc[:, 1, 1]
    return diag, loc[:, 0, 1]


def _grid(spec, n: int):
    """(n_r, h_r, h_theta) of the n x n node grid of spec: the retained radial
    rows, where a triangle drops its Dirichlet rim r = r_max and a lune keeps
    both poles, and the two grid steps."""
    n_r = n if isinstance(spec, LuneSpec) else n - 1
    return n_r, spec.r_max / (n - 1), spec.beta / (n - 1)


@lru_cache(maxsize=4)
def _separable_factors(params: DeformationParams, spec, n: int) -> _SeparableFactors:
    """The 1D factors of the r-only fields of params on the n x n grid of spec,
    each radial matrix as its bands cut to the retained radial nodes.

    The fields are sampled at one theta per radial Gauss point, since they
    do not depend on theta. Every t = 0 problem comes as params = _ROUND,
    so one entry serves the t = 0 baseline of a grid and the reference
    (start block and preconditioner) of every deformation on it."""
    n_r, hx, hy = _grid(spec, n)
    rq = (np.arange(n - 1)[:, None] + _GAUSS3_NODES) * hx
    w11, _, w22, m = metric_coefficients(params, rq, _GAUSS3_NODES[0] * hy)
    stiffness_r, weight_r, mass_r = ((diag[:n_r], off[:n_r - 1]) for diag, off in (
        _line_matrix(w11, _LINE_DPHI, 1.0 / hx), _line_matrix(w22, _LINE_PHI, hx),
        _line_matrix(m, _LINE_PHI, hx)))
    return _SeparableFactors(stiffness_r, weight_r, mass_r, h_theta=hy, n_theta=n - 2)


def _stencil(loc, n, n_r) -> StencilMatrix:
    """Sum the (cells, 4, 4) element blocks of an n x n node grid into the
    stored planes of a 9-point stencil on the retained rows 0 .. n_r - 1
    and columns 1 .. n - 2. Local node a of cell (ci, cj) is grid node
    (ci + a % 2, cj + a // 2); only the blocks of cells whose node a is
    retained and whose offset to node b is stored are added, in the same
    (a, b) order as on the full grid."""
    nc = n - 1
    loc = loc.reshape(nc, nc, 4, 4)
    coef = np.zeros((len(_OFFSETS), n_r, n - 2))
    plane = dict(zip(_OFFSETS, coef))
    for a in range(4):
        ra, ta = a % 2, a // 2
        rows = min(nc, n_r - ra)
        for b in range(4):
            target = plane.get((b % 2 - ra, b // 2 - ta))
            if target is not None:
                target[ra:ra + rows] += loc[:rows, 1 - ta:nc - ta, a, b]
    # couplings to the Dirichlet nodes
    plane[1, -1][:, 0] = 0.0
    plane[0, 1][:, -1] = plane[1, 1][:, -1] = 0.0
    if n_r < n:
        for dt in (-1, 0, 1):
            plane[1, dt][-1] = 0.0
    return StencilMatrix(coef)


def assemble(domain, grid_n: int) -> DiscreteEigenproblem:
    """Assemble the generalized eigenproblem K v = lambda M v on a grid of
    grid_n x grid_n nodes, grid_n an integer >= 8.

    domain is a LuneSpec or TriangleSpec under the round metric, or the
    DeformationParams of T(t), the deformed beta = pi/2 triangle. The grid
    spans the rectangle [0, r_max] x [0, beta]; the triangle has a Dirichlet
    edge at r = r_max = pi/2, the lune pole edges at r = 0 and r = pi.
    Any other domain raises TypeError.

    The metric is sampled at the Gauss points of _SLAB_ROWS rows of cells
    at a time, and the element blocks of each slab are written into arrays
    for the whole grid. _stencil sums those in one pass, in the order a
    whole-grid sampling would, so K and M do not depend on the slab size.
    """
    # numbers.Integral covers int and the numpy integer types
    if not isinstance(grid_n, numbers.Integral) or grid_n < 8:
        raise ValueError(f"grid_n must be an integer >= 8, got {grid_n!r}")
    if isinstance(domain, DeformationParams):
        params, spec = domain, TriangleSpec(math.pi / 2)
    elif isinstance(domain, (LuneSpec, TriangleSpec)):
        params, spec = _ROUND, domain
    else:
        raise TypeError("domain must be a LuneSpec, TriangleSpec or DeformationParams, "
                        f"got {type(domain).__name__}")
    n = int(grid_n)
    n_r, hx, hy = _grid(spec, n)
    wq, phi, dphx, dphy = _reference_basis()

    nc = n - 1
    cells = np.arange(nc)
    # Gauss points on axes (cell_r, cell_theta, point_r, point_theta), so the
    # theta-only fields are evaluated once per distinct theta; flattened,
    # this is the cell order ci * nc + cj and the point order of
    # _reference_basis
    rq = (cells[:, None, None, None] + _GAUSS3_NODES[:, None]) * hx
    tq = (cells[:, None, None] + _GAUSS3_NODES) * hy
    scale = wq[None, :] * (hx * hy)
    kloc, mloc = np.empty((nc * nc, 4, 4)), np.empty((nc * nc, 4, 4))
    # every value is computed by the same operations as on the whole grid
    for lo in range(0, nc, _SLAB_ROWS):
        hi = min(lo + _SLAB_ROWS, nc)
        w11, w12, w22, m = (f.reshape(-1, 9) * scale
                            for f in metric_coefficients(params, rq[lo:hi], tq))
        w11 /= hx**2
        w12 /= hx * hy
        w22 /= hy**2
        kloc[lo * nc:hi * nc], mloc[lo * nc:hi * nc] = _local_matrices(
            w11, w12, w22, m, phi, dphx, dphy)
    stiffness, mass = _stencil(kloc, n, n_r), _stencil(mloc, n, n_r)
    if mass.diagonal().min() <= 0:
        raise AssemblyError("mass matrix lost positivity after Dirichlet elimination")
    # at t = 0, or with b = 0, z = 0, so l = L = 0 exactly and every field is
    # a function of r; at t = 0 they are the round fields. Built last, so
    # that the factors do not add to the peak of the 2D fields
    separable = params.t == 0 or params.b == 0
    factors = _separable_factors(params if params.t != 0 and separable else _ROUND, spec, n)
    return DiscreteEigenproblem(stiffness, mass, factors, separable)


def _relative_residuals(vals, kx, mx, out=None) -> np.ndarray:
    """||K x - lambda M x|| / (|lambda| ||M x||) of each pair of a block,
    from the K- and M-images of its vectors as rows; the rows
    K x - lambda M x go to out when it is given. The norms are taken one
    row at a time in one n-length buffer, each by the pairwise sum that a
    norm along axis 1 of the whole block takes."""
    squares = np.empty(kx.shape[1])

    def norm(row):
        return math.sqrt(np.add.reduce(np.multiply(row, row, out=squares)))

    result = np.empty(len(vals))
    for i, (lam, kr, mr) in enumerate(zip(vals, kx, mx)):
        scale = abs(lam) * norm(mr)
        r = np.multiply(lam, mr, out=squares if out is None else out[i])
        result[i] = norm(np.subtract(kr, r, out=r)) / scale
    return result


def _worst_residual(problem: DiscreteEigenproblem, vals, vecs) -> float:
    """Largest relative residual of the pairs, the columns of vecs; inf if none."""
    if len(vals) == 0:
        return math.inf
    kv, mv = problem.stiffness @ vecs, problem.mass @ vecs
    return float(np.max(_relative_residuals(vals, kv.T, mv.T)))


def _ritz(gram_a, gram_b, k):
    """k smallest Ritz pairs of the Gram pencil (gram_a, gram_b); basis
    directions that the scaled gram_b cannot tell apart are dropped, so a
    nearly dependent basis cannot break the reduction."""
    scale = 1.0 / np.sqrt(np.diagonal(gram_b))
    theta, q = np.linalg.eigh(gram_b * np.outer(scale, scale))
    keep = theta > 1e-12 * theta[-1]
    to_orth = scale[:, None] * (q[:, keep] / np.sqrt(theta[keep]))
    reduced = to_orth.T @ gram_a @ to_orth
    vals, vecs = np.linalg.eigh(0.5 * (reduced + reduced.T))
    return vals[:k], to_orth @ vecs[:, :k]


def _lobpcg(problem: DiscreteEigenproblem, k: int, m: int):
    """m smallest eigenpairs by block LOBPCG over k >= m rows, with
    problem.factors, those of the t = 0 problem of its grid: started from
    their k smallest eigenvectors and preconditioned by their exact K0^-1.

    The m leading pairs must pass solve_smallest's gate, a relative residual
    of _RESIDUAL_RTOL; the rest of the block guards their convergence, and
    pairs that pass it stop taking search directions (soft locking). Returns
    None when they have not passed it after _LOBPCG_MAX_ITER iterations, or
    when the Rayleigh-Ritz step breaks down (LinAlgError).

    The basis [x | w | p] and its K- and M-images live in one set of
    preallocated (3k, n) buffers: rows [0, k) hold x, the search directions
    w of the active pairs follow it and the active rows of p follow w. The
    Rayleigh-Ritz step, one buffer at a time, writes the new x to a (k, n)
    scratch block and the new p over the old x, then copies both home to
    rows [0, k) and [2k, 3k); the scratch block also holds the active
    residuals and the projections that keep w M-orthogonal to x.
    """
    stiff, mass = problem.stiffness.apply_rows, problem.mass.apply_rows
    n = problem.num_dof
    # the basis, its K-image and its M-image
    basis = [np.empty((3 * k, n)) for _ in range(3)]
    scratch = np.empty((k, n))
    problem.factors.eigenpairs(k, out=basis[0][:k])
    stiff(basis[0][:k], out=basis[1][:k])
    mass(basis[0][:k], out=basis[2][:k])
    used = k
    for it in range(_LOBPCG_MAX_ITER + 1):
        s, as_, bs = (block[:used] for block in basis)
        try:
            vals, coef = _ritz(s @ as_.T, s @ bs.T, k)
        except np.linalg.LinAlgError:
            return None
        # the new Ritz vectors, and their part outside the old ones
        has_p = used > k
        for block in basis:
            np.matmul(coef.T, block[:used], out=scratch)
            if has_p:
                np.matmul(coef[k:].T, block[k:used], out=block[:k])
                block[2 * k:] = block[:k]
            block[:k] = scratch
        x, ax, bx = (block[:k] for block in basis)
        # the residuals, in rows that w overwrites once they are used
        r = basis[0][k:2 * k]
        active = _relative_residuals(vals, ax, bx, r) > _RESIDUAL_RTOL
        if not active[:m].any():
            return vals[:m], x[:m].copy().T
        if it == _LOBPCG_MAX_ITER:
            return None
        na = np.count_nonzero(active)
        w = basis[0][k:k + na]
        problem.factors.solve(np.compress(active, r, axis=0, out=scratch[:na]), out=w)
        # M-orthogonal to the current Ritz vectors
        w -= np.matmul(w @ bx.T, x, out=scratch[:na])
        stiff(w, out=basis[1][k:k + na])
        mass(w, out=basis[2][k:k + na])
        used = k + na
        if has_p:
            for block in basis:
                block[used:used + na] = np.compress(active, block[2 * k:], axis=0,
                                                    out=scratch[:na])
            used += na


def _shift_invert(problem: DiscreteEigenproblem, m: int):
    """m smallest eigenpairs by ARPACK in shift-invert mode about 0, with one
    sparse LU of K; m must be below the number of unknowns. Raises
    ConvergenceError with the worst residual of the pairs ARPACK returned."""
    import scipy.sparse.linalg as spla

    stiffness = problem.stiffness.tocsc()
    # K is symmetric, so a symmetric fill-reducing ordering beats COLAMD
    lu = spla.splu(stiffness, permc_spec="MMD_AT_PLUS_A")
    k_inv = spla.LinearOperator(stiffness.shape, matvec=lu.solve, dtype=float)
    # deterministic start vector: repeated invocations must agree bitwise
    v0 = np.random.default_rng(2718281).standard_normal(problem.num_dof)
    try:
        vals, vecs = spla.eigsh(stiffness, k=m, M=problem.mass.tocsc(), sigma=0.0,
                                which="LM", v0=v0, OPinv=k_inv, tol=_ARPACK_TOL)
    except spla.ArpackNoConvergence as exc:
        reached = _worst_residual(problem, exc.eigenvalues, exc.eigenvectors)
        raise ConvergenceError("eigensolver did not converge", reached) from exc
    order = np.argsort(vals)
    return vals[order], vecs[:, order]


def _solve_deformed(problem: DiscreteEigenproblem, m: int):
    """m smallest eigenpairs of a non-separable problem: LOBPCG over the
    guard block of the t = 0 cluster of lambda_m, with problem.factors, the
    factors that solve the t = 0 problem of its grid: started from its
    eigenvectors and preconditioned by the exact inverse of K0. The dense
    pencil, whose Rayleigh quotients keep the digits that 1 / (1 / lambda)
    loses at the top of the spectrum, when that block does not fit three
    times into the problem; shift-invert ARPACK for every LOBPCG run that
    does not end inside the gate: one that reaches its cap, as near the
    largest t of a direction, or whose Rayleigh-Ritz step breaks down."""
    block = problem.factors.guard_block(m)
    if 3 * block > problem.num_dof:
        vecs = _pencil_eigh(problem.stiffness.toarray(), problem.mass.toarray())[1][:, :m]
        kv, mv = problem.stiffness @ vecs, problem.mass @ vecs
        return np.sum(vecs * kv, axis=0) / np.sum(vecs * mv, axis=0), vecs
    found = _lobpcg(problem, block, m)
    return _shift_invert(problem, m) if found is None else found


def solve_smallest(problem: DiscreteEigenproblem, m: int):
    """m smallest generalized eigenpairs, ascending; returns (values, vectors).
    m must be an integer (int or numpy integer) from 1 to problem.num_dof.

    A separable problem (fields depending on r only, see the module
    docstring) is solved exactly, one small radial pencil per theta mode.
    Any other problem runs block LOBPCG preconditioned by the exact inverse
    of the t = 0 stiffness on the same grid, started from the t = 0
    eigenvectors; it stops only inside the residual gate below. A LOBPCG
    run that reaches its iteration cap or whose Rayleigh-Ritz step breaks
    down hands the problem to shift-invert ARPACK with a sparse LU of K,
    and when the problem is too small for the block, its dense pencil
    solves it. Every answer must have relative residuals
    ||K v - lambda M v|| / (|lambda| ||M v||) <= 1e-9 on the 2D K and M, or
    ConvergenceError is raised with the worst one; when ARPACK does not
    converge, it carries the worst one of the pairs ARPACK returned.
    """
    if not isinstance(m, numbers.Integral):
        raise ValueError(f"m must be an integer, got {m!r}")
    if m < 1:
        raise ValueError("m must be >= 1")
    if m > problem.num_dof:
        raise ValueError("requested more modes than retained degrees of freedom")
    if problem.separable:
        vals, vecs = problem.factors.eigenpairs(m)
    else:
        vals, vecs = _solve_deformed(problem, m)
    worst = _worst_residual(problem, vals, vecs)
    if worst > _RESIDUAL_RTOL:
        raise ConvergenceError("eigen-residual above tolerance", worst)
    return vals, vecs


def _gap_pairs(params: DeformationParams, grid_n: int):
    """The _GAP_MODES smallest eigenpairs of T(t) on a grid_n x grid_n grid
    and its mass matrix: (values, vectors, mass). The rest of the problem is
    released on return, so a caller that solves several t holds one
    assembled problem at a time, besides the mass matrices it keeps."""
    problem = assemble(params, grid_n)
    vals, vecs = solve_smallest(problem, _GAP_MODES)
    return vals, vecs, problem.mass


def numeric_gap(params: DeformationParams, grid_n: int) -> float:
    """lambda_2 - lambda_1 of the deformed triangle on a grid_n x grid_n
    grid, eigenvalue #2 counted with multiplicity."""
    vals = _gap_pairs(params, grid_n)[0]
    return float(vals[1] - vals[0])


def _neville_to_zero(ts, ys):
    """Polynomial extrapolation of samples (t_i, y_i) to t = 0 by Neville's
    tableau, in Python floats; returns the last entry of each column, one
    per elimination level."""
    cur = [float(y) for y in ys]
    levels = [cur[-1]]
    for k in range(1, len(ts)):
        cur = [(cur[i + 1] * ts[i] - cur[i] * ts[i + k]) / (ts[i] - ts[i + k])
               for i in range(len(cur) - 1)]
        levels.append(cur[-1])
    return levels


@dataclass(frozen=True)
class GapSlopeResult:
    """Extrapolated gap slope at t = 0 with its finite-difference history.

    error_estimate is the last Neville correction of the extrapolation in t.
    It does not measure the discretization error in h, which is far larger:
    at 45 degrees and n = 96 it is 1.65e-4 while the slope is off the exact
    one by 9.6e-3."""

    slope: float
    error_estimate: float
    t_values: tuple
    gaps: tuple
    slopes: tuple
    gap_at_zero: float
    warning: bool


def gap_slope(direction, t_values, grid_n: int) -> GapSlopeResult:
    """Richardson-extrapolated slope of the gap (Gamma(t) - Gamma(0)) / t,
    each gap solved on a grid_n x grid_n grid.

    t_values must be at least two positive values in strictly decreasing
    order, since one t allows no extrapolation. Every solve, through
    _gap_pairs, converges the _GAP_MODES = 3 pairs the gap uses: lambda_1
    and the lambda_2 pair. The second eigenvalue at t = 0 is discretely
    split (multiplicity 2 in the continuum). The baseline lambda_2 is the
    mean of that whole pair, vals0[1:_GAP_MODES], each value weighted by the
    squared M-projection of the smallest t's lambda_2 vector onto its
    eigenvector; no threshold decides which t = 0 values count. This removes
    the O(split/t) bias that the plain lambda_2 baseline would leave behind.
    The factors that solve t = 0 exactly also give every t its start vectors
    and preconditioner, so they are built once.
    """
    ts = [float(t) for t in t_values]
    if not (len(ts) >= 2 and all(t > 0 for t in ts)
            and all(t1 > t2 for t1, t2 in zip(ts, ts[1:]))):
        raise ValueError("t_values must be positive and strictly decreasing (at least two)")
    a, b = direction
    vals0, vecs0, mass0 = _gap_pairs(DeformationParams(a, b, 0.0), grid_n)
    gaps = []
    for t in ts:
        vals, vecs, _ = _gap_pairs(DeformationParams(a, b, t), grid_n)
        gaps.append(float(vals[1] - vals[0]))
    # the smallest t's lambda_2 vector weights each vector of the t = 0 pair
    weights = np.abs(vecs[:, 1] @ (mass0 @ vecs0[:, 1:_GAP_MODES])) ** 2
    gap0 = float(np.sum(weights * vals0[1:_GAP_MODES]) / weights.sum() - vals0[0])
    slopes = [(g - gap0) / t for t, g in zip(ts, gaps)]
    levels = _neville_to_zero(ts, slopes)
    corrections = [abs(hi - lo) for lo, hi in zip(levels, levels[1:])]
    return GapSlopeResult(
        slope=levels[-1],
        error_estimate=corrections[-1],
        t_values=tuple(ts),
        gaps=tuple(gaps),
        slopes=tuple(slopes),
        gap_at_zero=gap0,
        warning=len(corrections) >= 2 and corrections[-1] > corrections[-2],
    )
