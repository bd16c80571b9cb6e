"""Run one spheregap process with timing spans around each layer's public functions.

    python3 perfbench/tracer.py TRACE_JSON cli ARG...          # as python -m spheregap.cli ARG...
    python3 perfbench/tracer.py TRACE_JSON script PATH ARG...  # as python PATH ARG...

After `import spheregap` (timed), every public function of the layer
modules is replaced, in every spheregap module that refers to it, by a
wrapper that records calls, inclusive seconds and self seconds (inclusive
minus the spans of traced callees). scipy's eigsh is wrapped as fem calls
it, and cli.main as the root span. Spans stay in memory and are written
to TRACE_JSON when the process ends; stdout is left to the program.
"""
import sys
import time

_start = time.perf_counter()
import spheregap  # noqa: E402

IMPORT_S = time.perf_counter() - _start
MODULES = len(sys.modules)

import functools  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import runpy  # noqa: E402

import numpy as np  # noqa: E402

LAYERS = {
    "variation": "spheregap.variation",
    "spectra": "spheregap.spectra",
    "special": "spheregap.special",
    "kernels": "spheregap._kernels",
    "geometry": "spheregap.geometry",
    "fem": "spheregap.fem",
}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# work counts recorded per call: span name -> (args, kwargs, result) -> {counter: n}
COUNTS = {
    "special.legendre_p_many": lambda a, k, r: {
        "special.legendre_p_many.points": np.size(_arg(a, k, 2, "x"))},
    "kernels.hyp2f1_batch": lambda a, k, r: {
        "kernels.hyp2f1_batch.points": np.size(_arg(a, k, 3, "w"))},
    "kernels.local_matrices": lambda a, k, r: {
        "kernels.local_matrices.cells": len(_arg(a, k, 0, "a11"))},
    "geometry.metric_coefficients": lambda a, k, r: {
        "geometry.metric_coefficients.points": np.size(_arg(a, k, 1, "r"))},
    "fem.assemble": lambda a, k, r: {"fem.dof": r.num_dof, "fem.stiffness_nnz": r.stiffness.nnz},
}

spans = {}     # name -> [calls, inclusive seconds, self seconds]
counters = {}  # counter -> total
_child = [0.0]  # per open span: seconds covered by its traced callees


def _wrap(name, fn):
    stats = spans.setdefault(name, [0, 0.0, 0.0])
    count = COUNTS.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        _child.append(0.0)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            seconds = time.perf_counter() - start
            covered = _child.pop()
            _child[-1] += seconds
            stats[0] += 1
            stats[1] += seconds
            stats[2] += seconds - covered
        if count is not None:
            try:
                for key, value in count(args, kwargs, result).items():
                    counters[key] = counters.get(key, 0) + int(value)
            except (AttributeError, IndexError, KeyError, TypeError):
                pass  # the signature changed; the count is left out
        return result

    return wrapper


def _layer_functions():
    for layer, module_name in LAYERS.items():
        try:
            module = importlib.import_module(module_name)
        except ModuleNotFoundError:
            continue  # a layer the package no longer has; its metrics read 0
        for attr, value in vars(module).items():
            owner = getattr(value, "__module__", None) or ""
            if (attr.startswith("_") or isinstance(value, type) or not callable(value)
                    or not owner.startswith(module_name)):
                continue
            yield f"{layer}.{attr}", value


def install():
    """Wrap the layer functions wherever a spheregap module holds them, and
    scipy's eigsh both there and in scipy.sparse.linalg."""
    import scipy.sparse.linalg as spla

    targets = dict(_layer_functions(), **{"fem.eigsh": spla.eigsh})
    wrappers = {id(fn): (fn, _wrap(name, fn)) for name, fn in targets.items()}
    for module_name, module in list(sys.modules.items()):
        if module_name == "spheregap" or module_name.startswith("spheregap."):
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    setattr(module, attr, wrappers[id(value)][1])
    spla.eigsh = wrappers[id(targets["fem.eigsh"])][1]


def main(argv):
    trace_path, mode, *rest = argv
    install()
    try:
        if mode == "cli":
            from spheregap import cli

            code = _wrap("cli.main", cli.main)(rest)
        else:
            sys.argv = rest
            runpy.run_path(rest[0], run_name="__main__")
            code = 0
    finally:
        with open(trace_path, "w") as out:
            json.dump({"import_s": IMPORT_S, "modules": MODULES, "spans": spans,
                       "counters": counters}, out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
