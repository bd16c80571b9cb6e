"""Compare the stdout and peak memory of `spheregap` commands between this
checkout and another.

    python tools/cli_bytes.py OTHER_CHECKOUT

The commands are those of the README's "Command line" block and the `cli`
operations of perfbench seeds 0 to 4, each run once per checkout as
`python -m spheregap.cli ARGS` against that checkout's ./src, with
SPHEREGAP_THREADS=1 so that FEM digits do not depend on the core count.
The command list comes from this checkout's README.md and
perfbench/workloads.py. One line per command says `identical`, or gives
the number of differing stdout lines, the largest relative difference
between the numbers of those lines, `non-numeric` when some differing line
changes elsewhere than in its numbers (or has no counterpart), and any
change of exit code; then the command's peak resident set in
OTHER_CHECKOUT and in this one. The first differing line of OTHER_CHECKOUT
and of this checkout follow it.
The command with the largest peak of each checkout closes the list. A
command reads its own peak (VmHWM, so Linux only) as it exits: the
RUSAGE_CHILDREN peak of its launcher would count the launcher's own
resident set, which a child started by vfork is charged with.

Then each checkout's perfbench/eigen_driver.py runs the `eigenfunctions`
job list of each of those seeds, also with one BLAS thread, through the
same launcher. One line per seed says whether every normalized value
(compared by its repr, so bitwise) and every error string of the two
checkouts is equal, then the driver's own peak resident set in
OTHER_CHECKOUT and in this one. Exits with 1 when any command or seed
differs.
"""
import itertools
import json
import os
import random
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = range(5)
# `python -m MODULE ARGS` or `python SCRIPT.py ARGS`, run as
# `python -c _LAUNCHER PEAK_PATH MODULE_OR_SCRIPT ARGS`: the file PEAK_PATH
# gets the process's peak resident set in kB (VmHWM) at exit
_LAUNCHER = """\
import atexit, runpy, sys
peak_path, target = sys.argv.pop(1), sys.argv.pop(1)

def write_peak():
    with open("/proc/self/status") as status:
        kb = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
    with open(peak_path, "w") as out:
        out.write(kb)

atexit.register(write_peak)
if target.endswith(".py"):
    sys.argv[0] = target
    runpy.run_path(target, run_name="__main__")
else:
    runpy.run_module(target, run_name="__main__", alter_sys=True)
"""
# a number of a CSV cell, a `# key=value` line or a JSON line
_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")
sys.path.insert(0, str(ROOT / "perfbench"))
import workloads  # noqa: E402


def _readme_commands():
    text = (ROOT / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [tuple(shlex.split(line)[1:]) for line in block.splitlines()
            if line.startswith("spheregap ")]


def _workload_commands():
    return [op.args for seed in SEEDS for op in workloads.cli(random.Random(seed)).ops]


def _env(checkout: Path):
    return dict(os.environ, PYTHONPATH=str(checkout / "src"), SPHEREGAP_THREADS="1")


def _launch(checkout: Path, target: str, args, **run_options):
    """Run a module or a script of checkout through _LAUNCHER: (the
    completed process, its own peak resident set in MB)."""
    with tempfile.TemporaryDirectory() as tmp:
        peak_path = Path(tmp) / "peak_kb"
        out = subprocess.run([sys.executable, "-c", _LAUNCHER, str(peak_path), target, *args],
                             cwd=checkout, env=_env(checkout), **run_options)
        return out, int(peak_path.read_text()) / 1024.0


def _run(checkout: Path, args):
    """(exit code, stdout lines, peak resident set in MB) of one command."""
    out, peak = _launch(checkout, "spheregap.cli", args, capture_output=True, text=True)
    return out.returncode, out.stdout.splitlines(), peak


def _relative_move(theirs, mine):
    """Largest |x - y| / max(|x|, |y|) over the numbers of two differing
    lines, or None when they differ elsewhere than in the values of their
    numbers (text, or only how a number is written) or one is missing."""
    if theirs is None or mine is None or _NUMBER.split(theirs) != _NUMBER.split(mine):
        return None
    pairs = zip(map(float, _NUMBER.findall(theirs)), map(float, _NUMBER.findall(mine)))
    return max((abs(x - y) / max(abs(x), abs(y)) for x, y in pairs if x != y), default=None)


def _eigen_results(checkout: Path, jobs_path: Path):
    """(repr of the values, error) per job, from the checkout's own driver,
    and the driver's peak resident set in MB."""
    result_path = jobs_path.with_name("result.json")
    _, peak = _launch(checkout, str(checkout / "perfbench" / "eigen_driver.py"),
                      [str(jobs_path), str(result_path)], check=True)
    jobs = json.loads(result_path.read_text())["jobs"]
    return [(repr(job["values"]), job["error"]) for job in jobs], peak


def _compare_eigenfunctions(other: Path) -> int:
    """Print one line per seed; return the number of seeds that differ."""
    differing = 0
    with tempfile.TemporaryDirectory() as tmp:
        jobs_path = Path(tmp) / "jobs.json"
        for seed in SEEDS:
            jobs_path.write_text(json.dumps(list(workloads.eigenfunctions(random.Random(seed)).jobs)))
            (mine, peak), (theirs, other_peak) = (_eigen_results(tree, jobs_path)
                                                  for tree in (ROOT, other))
            changed = sum(a != b for a, b in zip(mine, theirs))
            errors = sum(error is not None for _, error in mine)
            verdict = "identical" if changed == 0 else f"{changed} of {len(mine)} jobs differ"
            differing += changed != 0
            print(f"{verdict}: eigenfunctions seed {seed} ({len(mine)} jobs, {errors} errors)"
                  f"  [peak {other_peak:.1f} -> {peak:.1f} MB]", flush=True)
    return differing


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    other = Path(argv[0]).resolve()
    commands = list(dict.fromkeys(_readme_commands() + _workload_commands()))
    differing = 0
    peaks = {"other": [], "here": []}
    for args in commands:
        (code, lines, peak), (other_code, other_lines, other_peak) = (_run(ROOT, args),
                                                                      _run(other, args))
        peaks["here"].append((peak, args))
        peaks["other"].append((other_peak, args))
        diffs = [(i, a, b) for i, (a, b) in
                 enumerate(itertools.zip_longest(other_lines, lines), 1) if a != b]
        verdict = "identical" if not diffs else f"{len(diffs)} of {len(lines)} lines differ"
        if diffs:
            moves = [_relative_move(theirs, mine) for _, theirs, mine in diffs]
            numeric = [move for move in moves if move is not None]
            if numeric:
                verdict += f", numbers moved <= {max(numeric):.2g} relative"
            if len(numeric) < len(moves):
                verdict += ", non-numeric"
        if code != other_code:
            verdict += f", exit code {other_code} -> {code}"
        differing += verdict != "identical"
        print(f"{verdict}: spheregap {shlex.join(args)}  [peak {other_peak:.1f} -> {peak:.1f} MB]",
              flush=True)
        if diffs:
            line, theirs, mine = diffs[0]
            # zip_longest pads the shorter side with None
            print(f"  line {line} other: {theirs}\n  line {line} here:  {mine}", flush=True)
    print(f"{len(commands)} commands, {differing} differ")
    for side, side_peaks in peaks.items():
        peak, args = max(side_peaks)
        print(f"largest peak {side}: {peak:.1f} MB, spheregap {shlex.join(args)}")
    differing_seeds = _compare_eigenfunctions(other)
    print(f"{len(SEEDS)} eigenfunctions seeds, {differing_seeds} differ")
    return 1 if differing or differing_seeds else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
