"""Edge inputs of the math-only commands, drawn from their grammar.

spectrum, gap-curve, variation and verify-appendix run in process through
cli.main on seeded random.Random draws whose numbers include NaN, +-inf, 0,
-0.0 and the ends of (0, 2 pi). solve and gap-slope draw their direction
from the axes (a zero component given as 0 or -0.0) or the unit circle,
their grid from 8 to 24 nodes per axis, and t, or a decreasing list of 2
to 4 t values, up to 0.95 of the direction's largest t, so that some
solves take shift-invert; the fixed cases add solve and gap-slope with a
-0.0 direction component. Every run must exit with 0-3, write
exactly one "spheregap:" line to stderr when it fails and nothing when it
succeeds, print only finite numbers and no negative zero (and valid JSON
where JSON is asked for), and print the same bytes when rerun. A gap-curve
run over a valid range must not be a usage error, and when it succeeds it
must start at beta-min and end at beta-max.
"""
import contextlib
import io
import json
import math
import random

import pytest

import spheregap.fem as fem
from spheregap.cli import main

TWO_PI = 2.0 * math.pi
# angles in radians: the ends of (0, 2 pi), both sides of them, and values
# at which closed-form eigenvalues overflow
ANGLES = (math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 1e-300, 3e-154, 1e-15,
          math.pi / 2, math.pi, math.nextafter(TWO_PI, 0.0), TWO_PI,
          math.nextafter(TWO_PI, 7.0), -1.0, 1e308)
# angles as multiples of pi
MULTIPLES = (math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 1e-300, 0.5, 1.0,
             math.nextafter(2.0, 0.0), 2.0, 1e308)
# direction components: the unit-circle pairs and what lies just off them
COMPONENTS = (math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 0.6, 0.8, 1.0,
              math.nextafter(1.0, 0.0), math.nextafter(1.0, 2.0), -1.0, 2.0)


def _number(rng, pool, lo, hi):
    return rng.choice(pool) if rng.random() < 0.6 else rng.uniform(lo, hi)


def _angle(rng, name):
    """--name, --name-pi, both or neither, as --flag=value so that a value
    such as -inf is not read as a flag."""
    draw = rng.random()
    flags = []
    if draw < 0.45 or draw > 0.95:
        flags.append(f"--{name}={_number(rng, ANGLES, 0.0, TWO_PI)!r}")
    if 0.45 <= draw < 0.98:
        flags.append(f"--{name}-pi={_number(rng, MULTIPLES, 0.0, 2.0)!r}")
    return flags


def _steps(rng, hi):
    return rng.choice((1, 2, hi)) if rng.random() < 0.3 else rng.randint(1, hi)


def _draw(rng):
    command = rng.choice(("spectrum", "gap-curve", "variation", "verify-appendix"))
    argv = [command]
    domain = ["--domain", rng.choice(("lune", "triangle"))]
    if command == "spectrum":
        argv += [*domain, *_angle(rng, "beta"), f"--count={_steps(rng, 50)}"]
    elif command == "gap-curve":
        argv += [*domain, *_angle(rng, "beta-min"), *_angle(rng, "beta-max"),
                 f"--steps={_steps(rng, 200)}"]
    elif command == "variation":
        for flag in ("--a", "--b"):
            if rng.random() < 0.5:
                argv.append(f"{flag}={_number(rng, COMPONENTS, -0.5, 1.5)!r}")
        # the b grid stays small: a full 200 x 200 grid would take most of
        # the module's time
        argv += [f"--z-steps={_steps(rng, 200)}", f"--b-steps={_steps(rng, 8)}"]
    if rng.random() < 0.5:
        argv.append("--format=json")
    return argv


def _direction(rng):
    """--a and --b: an axis, written with a -0.0 component or not, or a
    random unit vector; and the largest t of that direction."""
    if rng.random() < 0.4:
        a, b = rng.choice(((1.0, 0.0), (0.0, 1.0)))
        zero = rng.choice(("0", "-0.0"))
        flags = [f"--a={zero if a == 0.0 else 1}", f"--b={zero if b == 0.0 else 1}"]
    else:
        phi = rng.uniform(0.0, math.pi / 2)
        a, b = math.cos(phi), math.sin(phi)
        flags = [f"--a={a!r}", f"--b={b!r}"]
    return flags, (math.pi / 2) / max(a, b)


def _draw_fem(rng):
    """A solve or gap-slope command on a grid of 8 to 24 nodes per axis, with
    t up to 0.95 of the direction's largest t, where LOBPCG hands some
    solves to shift-invert."""
    command = rng.choice(("solve", "gap-slope"))
    direction, largest = _direction(rng)
    argv = [command, *direction, f"--grid-n={rng.randint(8, 24)}"]
    if command == "solve":
        argv += [f"--t={rng.uniform(0.0, 0.95) * largest!r}", f"--modes={rng.randint(1, 6)}"]
    else:
        ts = sorted((rng.uniform(0.0, 0.95) * largest for _ in range(rng.randint(2, 4))),
                    reverse=True)
        argv.append("--t-list=" + ",".join(map(repr, ts)))
    if rng.random() < 0.5:
        argv.append("--format=json")
    return argv


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def _numbers(text, is_json):
    """Every number that the output prints, as floats."""
    found = []
    if is_json and text:
        json.loads(text, parse_float=lambda cell: found.append(float(cell)),
                   parse_int=lambda cell: found.append(float(cell)),
                   parse_constant=_reject_constant)
        return found
    for line in text.splitlines():
        for cell in line.replace("=", ",").split(","):
            try:
                found.append(float(cell))
            except ValueError:
                pass
    return found


def _betas(text, is_json):
    """The beta column of a gap-curve output."""
    if is_json:
        return [row["beta"] for row in json.loads(text)["rows"]]
    return [float(line.split(",")[0]) for line in text.splitlines()[1:]]


def _check(argv):
    code, out, err = _run(argv)
    assert code in (0, 1, 2, 3), (argv, code)
    if code == 0:
        assert err == "", argv
    else:
        assert sum(line.startswith("spheregap:") for line in err.splitlines()) == 1, (argv, err)
    is_json = "--format=json" in argv
    numbers = _numbers(out, is_json)
    assert all(map(math.isfinite, numbers)), argv
    assert not any(x == 0.0 and math.copysign(1.0, x) < 0.0 for x in numbers), argv
    assert _run(argv) == (code, out, err), argv
    if argv[0] == "gap-curve":
        flags = dict(arg[2:].split("=") for arg in argv[1:] if "=" in arg)
        ends = [float(flags[name]) if name in flags else float(flags[name + "-pi"]) * math.pi
                for name in ("beta-min", "beta-max") if (name in flags) != (name + "-pi" in flags)]
        if len(ends) == 2 and 0.0 < ends[0] < ends[1] < TWO_PI:
            # a valid range is never a usage error, and the sweep spans it
            assert code in (0, 2), (argv, err)
        if code == 0:
            betas = _betas(out, is_json)
            assert [betas[0], betas[-1]] == ends, argv
    return code


@pytest.mark.parametrize("seed", range(6))
def test_drawn_edge_inputs(seed):
    rng = random.Random(seed)
    codes = [_check(_draw(rng)) for _ in range(30)]
    # the draws reach both outcomes
    assert 0 in codes and 1 in codes


# seeds whose draws reach shift-invert (4 to 10 calls each), 0.2-0.6 s each
@pytest.mark.parametrize("seed", [103, 104, 108])
def test_drawn_fem_inputs(seed, monkeypatch):
    calls = []
    shift_invert = fem._shift_invert
    monkeypatch.setattr(fem, "_shift_invert", lambda *args: calls.append(1) or shift_invert(*args))
    rng = random.Random(seed)
    for _ in range(6):
        _check(_draw_fem(rng))
    assert calls


@pytest.mark.parametrize("argv", [
    # beta-min + (beta-max - beta-min) * steps / steps rounds to 2 pi here,
    # past beta-max; the sweep must end at beta-max itself
    ["gap-curve", "--domain", "lune", "--beta-min=1e-300",
     f"--beta-max={math.nextafter(TWO_PI, 0.0)!r}", "--steps=23"],
    ["gap-curve", "--domain", "triangle", "--beta-min=1e-300",
     f"--beta-max={math.nextafter(TWO_PI, 0.0)!r}", "--steps=23", "--format=json"],
    ["spectrum", "--domain", "lune", "--beta=5e-324", "--count=3"],
    ["spectrum", "--domain", "triangle", "--beta=3e-154", "--count=50", "--format=json"],
    ["variation", "--a=-0.0", "--z-steps=1", "--b-steps=1", "--format=json"],
    ["variation", "--b=-0.0", "--z-steps=200", "--b-steps=200"],
    ["solve", "--a=1", "--b=-0.0", "--t=0.05", "--grid-n=8", "--format=json"],
    ["solve", "--a=-0.0", "--b=1", "--t=0.05", "--grid-n=8", "--format=json"],
    ["gap-slope", "--a=1", "--b=-0.0", "--grid-n=8", "--format=json"],
    ["gap-slope", "--a=-0.0", "--b=1", "--grid-n=8", "--format=json"],
    ["verify-appendix", "--format=json"],
])
def test_fixed_edge_inputs(argv):
    _check(argv)

