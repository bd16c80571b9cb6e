"""Command-line interface.

Subcommands: spectrum, gap-curve, variation, verify-appendix, solve,
gap-slope. Output is CSV (default) or JSON with identical numeric payloads;
floats are printed with 17 significant digits so identical invocations give
byte-identical output. Exit codes: 0 success, 1 usage error, 2 numerical
failure (running out of memory included), 3 verification failure.
"""
import argparse
import itertools
import json
import math
import os
import sys

from . import _cap_threads, spectra
from .errors import SphereGapError


class _Parser(argparse.ArgumentParser):
    """argparse variant exiting with code 1 on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


# the spec class of each --domain value
_DOMAINS = {"lune": spectra.LuneSpec, "triangle": spectra.TriangleSpec}

# a float CSV cell: 17 significant digits
_FLOAT = "%.17g"


def _template(values) -> str:
    """%-template of one CSV line."""
    return ",".join(_FLOAT if isinstance(v, float) else "%s" for v in values)


def _grid_blocks(z, b, values):
    """The CSV lines (z, b, value) of the grid values[i][k] = I(z[i], b[k]),
    one block of len(b) lines per z. Each b cell is formatted once, and each
    block takes one %-call on a template whose z and b cells are filled in."""
    tails = [_FLOAT % bv + "," + _FLOAT for bv in b]
    for zv, row in zip(z, values):
        z_cell = _FLOAT % zv + ","
        yield (z_cell + ("\n" + z_cell).join(tails)) % tuple(row)


# rows per block of streamed JSON
_JSON_BLOCK = 1024


def _json_column(cells):
    """The cells of one column of a block as json.dumps writes them. A column
    of finite floats takes one map(float.__repr__), which json.dumps also
    uses for them; any other column goes cell by cell. A sum of floats is
    finite only if every term is."""
    if set(map(type, cells)) == {float} and math.isfinite(sum(cells)):
        return map(float.__repr__, cells)
    return map(json.dumps, cells)


def _emit(args, command: str, params: dict, columns, rows, summary=None, blocks=None) -> None:
    """Write a command's output. rows holds the row tuples of scalar cells.
    A large table may pass its CSV lines pre-rendered in blocks, strings of
    whole lines; rows is then read for JSON only, and may be a generator.
    JSON is written _JSON_BLOCK rows at a time, with the bytes of
    json.dumps(payload, indent=2) + "\n" for the payload {command, params,
    rows: one object per row, summary if any}."""
    if args.format == "json":
        out = sys.stdout
        head = json.dumps({"command": command, "params": params, "rows": []}, indent=2)
        out.write(head[:-3])    # up to the "[" of the empty rows list
        template = "{\n" + ",\n".join(f"      {json.dumps(c)}: %s" for c in columns) + "\n    }"
        sep = "\n    "
        rows = iter(rows)
        while block := list(itertools.islice(rows, _JSON_BLOCK)):
            cells = zip(*map(_json_column, zip(*block)))
            out.write(sep + ",\n    ".join(template % row for row in cells))
            sep = ",\n    "
        # a list with items closes on a line of its own
        out.write("]" if sep == "\n    " else "\n  ]")
        if summary:
            out.write(',\n  "summary": ' + json.dumps(summary, indent=2).replace("\n", "\n  "))
        out.write("\n}\n")
        return
    # No cell holds a comma, quote or newline, so no cell needs CSV quoting.
    lines = [("# %s=" + _template((value,))) % (key, value)
             for key, value in (summary or {}).items()]
    lines.append(",".join(columns))
    sys.stdout.write("\n".join(lines) + "\n")
    if blocks is None and rows:
        # every row of a command has the cell types of its first row
        template = _template(rows[0])
        blocks = ["\n".join(template % tuple(row) for row in rows)]
    for block in blocks or ():
        sys.stdout.write(block + "\n")


def _resolve_beta(args, name: str = "beta") -> float:
    plain = getattr(args, name)
    times_pi = getattr(args, f"{name}_pi")
    if (plain is None) == (times_pi is None):
        raise ValueError(f"specify exactly one of --{name.replace('_', '-')} "
                         f"or --{name.replace('_', '-')}-pi")
    return plain if plain is not None else times_pi * math.pi


def _cmd_spectrum(args) -> int:
    beta = _resolve_beta(args)
    spec = _DOMAINS[args.domain](beta)
    entries = spectra.spectrum(spec, args.count)
    rows = [
        (entry.eigenvalue, len(entry.modes),
         ";".join(f"{m.k}:{m.j}" for m in entry.modes))
        for entry in entries
    ]
    _emit(args, "spectrum",
          {"domain": args.domain, "beta": beta, "count": args.count},
          ("eigenvalue", "multiplicity", "modes"), rows)
    return 0


def _cmd_gap_curve(args) -> int:
    beta_min = _resolve_beta(args, "beta_min")
    beta_max = _resolve_beta(args, "beta_max")
    if not (0.0 < beta_min < beta_max < 2.0 * math.pi):
        raise ValueError("need 0 < beta-min < beta-max < 2*pi")
    if args.steps < 1:
        raise ValueError("--steps must be >= 1")
    rows = []
    for i in range(args.steps + 1):
        # the formula can round past beta_max at i = steps
        beta = beta_min + (beta_max - beta_min) * i / args.steps if i < args.steps else beta_max
        spec = _DOMAINS[args.domain](beta)
        rows.append((beta, spectra.gap(spec), spectra.gap_regime(spec)))
    _emit(args, "gap-curve",
          {"domain": args.domain, "beta_min": beta_min, "beta_max": beta_max,
           "steps": args.steps},
          ("beta", "gap", "regime"), rows)
    return 0


def _cmd_variation(args) -> int:
    from . import variation

    table = variation.gap_variation_table(args.z_steps, args.b_steps, a=args.a, b=args.b)
    # built only for JSON; CSV takes the blocks
    rows = ((zv, bv, val)
            for zv, row in zip(table.z, table.values) for bv, val in zip(table.b, row))
    best = table.minimum
    summary = {"min_value": best.value, "argmin_z": best.z, "argmin_b": best.b,
               "reference_16_over_pi": variation.MIN_GAP_VARIATION,
               "abs_diff": abs(best.value - variation.MIN_GAP_VARIATION)}
    one_direction = args.a is not None or args.b is not None
    _emit(args, "variation",
          {"a": args.a, "b": table.b[0] if one_direction else None,
           "z_steps": args.z_steps, "b_steps": args.b_steps},
          ("z", "b", "value"), rows, summary, _grid_blocks(table.z, table.b, table.values))
    return 0


def _cmd_verify_appendix(args) -> int:
    from . import variation

    report = variation.verify_appendix()
    rows = [(e.label, e.computed, e.expected, e.abs_err) for e in report.entries]
    _emit(args, "verify-appendix", {"tol": report.tol},
          ("label", "computed", "expected", "abs_err"), rows,
          {"passed": int(report.passed)})
    return 0 if report.passed else 3


def _cmd_solve(args) -> int:
    from . import fem
    from .geometry import DeformationParams

    if args.modes < 1:
        raise ValueError("--modes must be >= 1")
    a, b = args.a, args.b
    problem = fem.assemble(DeformationParams(a, b, args.t), args.grid_n)
    vals, _ = fem.solve_smallest(problem, max(args.modes, 2))
    rows = [(i + 1, float(v)) for i, v in enumerate(vals[: args.modes])]
    gap = float(vals[1] - vals[0])
    _emit(args, "solve",
          {"a": a, "b": b, "t": args.t, "grid_n": args.grid_n, "modes": args.modes},
          ("index", "eigenvalue"), rows, {"gap": gap})
    return 0


def _cmd_gap_slope(args) -> int:
    from . import fem

    a, b = args.a, args.b
    try:
        t_values = [float(x) for x in args.t_list.split(",")]
    except ValueError as exc:
        raise ValueError(f"cannot parse --t-list: {exc}") from None
    result = fem.gap_slope((a, b), t_values, args.grid_n)
    rows = [(t, g, s) for t, g, s in zip(result.t_values, result.gaps, result.slopes)]
    summary = {
        "slope": result.slope,
        "error_estimate": result.error_estimate,
        "gap_at_zero": result.gap_at_zero,
        "warning": int(result.warning),
    }
    _emit(args, "gap-slope",
          {"a": a, "b": b, "t_list": args.t_list, "grid_n": args.grid_n},
          ("t", "gap", "slope"), rows, summary)
    return 0


def _add_format(p) -> None:
    p.add_argument("--format", choices=("csv", "json"), default="csv",
                   help="output format (default csv)")


def _add_beta(p, name: str = "beta") -> None:
    flag = name.replace("_", "-")
    p.add_argument(f"--{flag}", type=float, default=None, dest=name,
                   help=f"{flag} in radians")
    p.add_argument(f"--{flag}-pi", type=float, default=None, dest=f"{name}_pi",
                   help=f"{flag} as a multiple of pi")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="spheregap",
                     description="Spectra and gap variation of spherical lunes "
                                 "and half-lune triangles")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("spectrum", help="closed-form Dirichlet spectrum")
    p.add_argument("--domain", choices=tuple(_DOMAINS), required=True)
    _add_beta(p)
    p.add_argument("--count", type=int, default=5, help="distinct eigenvalues to list")
    _add_format(p)
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("gap-curve", help="fundamental gap over a range of angles")
    p.add_argument("--domain", choices=tuple(_DOMAINS), required=True)
    _add_beta(p, "beta_min")
    _add_beta(p, "beta_max")
    p.add_argument("--steps", type=int, default=100, help="number of intervals")
    _add_format(p)
    p.set_defaults(func=_cmd_gap_curve)

    p = sub.add_parser("variation", help="first variation I(z, b) of the gap")
    p.add_argument("--a", type=float, default=None)
    p.add_argument("--b", type=float, default=None)
    p.add_argument("--z-steps", type=int, default=361, dest="z_steps")
    p.add_argument("--b-steps", type=int, default=101, dest="b_steps")
    _add_format(p)
    p.set_defaults(func=_cmd_variation)

    p = sub.add_parser("verify-appendix",
                       help="check every pairing term against its closed form")
    _add_format(p)
    p.set_defaults(func=_cmd_verify_appendix)

    p = sub.add_parser("solve", help="numeric eigenvalues of a deformed triangle")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--t", type=float, default=0.0)
    p.add_argument("--grid-n", type=int, default=64, dest="grid_n")
    p.add_argument("--modes", type=int, default=4)
    _add_format(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("gap-slope", help="finite-difference gap slope at t = 0")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--t-list", default="0.02,0.01,0.005", dest="t_list",
                   help="comma-separated decreasing deformation magnitudes")
    p.add_argument("--grid-n", type=int, default=64, dest="grid_n")
    _add_format(p)
    p.set_defaults(func=_cmd_gap_slope)
    return parser


def main(argv=None) -> int:
    if "numpy" not in sys.modules:
        # one BLAS thread unless SPHEREGAP_THREADS says otherwise, so that
        # printed FEM digits do not depend on the core count; a BLAS reads
        # the cap when numpy loads, which the commands do after this point
        _cap_threads(os.environ.get("SPHEREGAP_THREADS", "").strip() or "1")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SphereGapError as exc:
        print(f"spheregap: numerical failure: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # numpy names the allocation that failed; a bare MemoryError says nothing
        print(f"spheregap: numerical failure: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"spheregap: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
