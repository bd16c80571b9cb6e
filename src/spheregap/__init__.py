"""Dirichlet spectra and fundamental-gap analysis of spherical lunes and
half-lune triangles: closed-form eigenvalues and eigenfunctions, the exact
first variation of the gap at the right-angled equilateral triangle, and an
independent finite-element cross-check on the deformed domains.

Importing the package loads numpy only. The finite-element module `fem`
and its re-exported names are imported on first access; they need numpy
only as well. scipy loads only for the Legendre ODE branch and for the
shift-invert solve that FEM problems near the largest deformation fall back
to.
"""
import importlib as _importlib
import os as _os

# Cap BLAS/OpenMP parallelism through the environment variables that a BLAS
# reads when it loads: a BLAS already loaded before `import spheregap` (by a
# script that imported numpy or scipy first) keeps its own thread count,
# while child processes inherit the cap.
_threads = _os.environ.get("SPHEREGAP_THREADS", "").strip()
if _threads:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS"):
        _os.environ.setdefault(_var, _threads)

from . import geometry, special, spectra, variation
from .errors import (
    AssemblyError,
    ConvergenceError,
    DomainError,
    GammaPoleError,
    SingularPointError,
    SphereGapError,
)
from .geometry import (
    CoordPoint,
    DeformationParams,
    FieldSample,
    MetricTensor,
    apex_offset,
    deform_jacobian,
    deform_map,
    first_order_operator_apply,
    pullback_metric,
    side_distance,
)
from .special import LegendreParams, gamma_fn, legendre_p, legendre_p_at_zero, legendre_p_dx
from .spectra import (
    LuneSpec,
    ModeIndex,
    SpectrumEntry,
    TriangleSpec,
    eigenfunction_eval,
    eigenvalue,
    gap,
    gap_closed_form,
    normalization_constant,
    spectrum,
)
from .variation import (
    BilinearTermTable,
    PairingSpec,
    gap_variation_I,
    lambda1_dot,
    minimize_gap_variation,
    pairing_terms,
    verify_appendix,
)

__version__ = "0.1.0"

_FEM_NAMES = frozenset({
    "DiscreteEigenproblem", "GapSlopeResult", "assemble",
    "gap_slope", "numeric_gap", "solve_smallest",
})


def __getattr__(name):
    # `from . import fem` here would re-enter this hook for "fem"
    if name == "fem" or name in _FEM_NAMES:
        fem = _importlib.import_module(".fem", __name__)
        return fem if name == "fem" else getattr(fem, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | _FEM_NAMES | {"fem"})
