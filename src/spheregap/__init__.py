"""Dirichlet spectra and fundamental-gap analysis of spherical lunes and
half-lune triangles: closed-form eigenvalues and eigenfunctions, the exact
first variation of the gap at the right-angled equilateral triangle (from
closed-form pairing totals, which a quadrature of the five terms of the
first-order operator checks), and an independent finite-element
cross-check on the deformed domains.

Importing the package loads its error types only. Every other public name
and submodule is imported on first access, through the table `_LAZY`.
Closed-form spectra and gaps, the first variation and its quadrature
check need math only; the eigenfunctions, their normalization and the FEM
need numpy. scipy loads only for the Legendre ODE branch and for the
shift-invert solve that FEM problems near the largest deformation fall back
to.
"""
import importlib as _importlib
import os as _os

from .errors import (
    AssemblyError,
    ConvergenceError,
    DomainError,
    GammaPoleError,
    SphereGapError,
)


def _cap_threads(threads: str) -> None:
    """Cap BLAS/OpenMP parallelism through the environment variables that a
    BLAS reads when it loads: a BLAS already loaded keeps its own thread
    count, while child processes inherit the cap."""
    if threads:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS"):
            _os.environ.setdefault(var, threads)


_cap_threads(_os.environ.get("SPHEREGAP_THREADS", "").strip())

__version__ = "0.1.0"

# public name -> the submodule that defines it; a submodule maps to itself
_LAZY = {
    name: module
    for module, names in (
        ("geometry", ("DeformationParams", "apex_offset", "side_distance")),
        ("special", ("gamma_fn", "legendre_p", "legendre_p_at_zero", "legendre_p_dx")),
        ("spectra", ("LuneSpec", "ModeIndex", "SpectrumEntry", "TriangleSpec",
                     "eigenfunction_eval", "eigenvalue", "gap", "normalization_constant",
                     "spectrum")),
        ("variation", ("BilinearTermTable", "gap_variation_table", "lambda1_dot",
                       "pairing_terms", "verify_appendix")),
        ("fem", ("DiscreteEigenproblem", "GapSlopeResult", "assemble", "gap_slope",
                 "numeric_gap", "solve_smallest")),
        ("quadrature", ()),
    )
    for name in (module, *names)
}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # `from . import <module>` here would re-enter this hook
    module = _importlib.import_module("." + _LAZY[name], __name__)
    value = module if name == _LAZY[name] else getattr(module, name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
