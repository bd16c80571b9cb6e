"""Compare the stdout of `spheregap` commands between this checkout and another.

    python tools/cli_bytes.py OTHER_CHECKOUT

The commands are those of the README's "Command line" block and the `cli`
operations of perfbench seeds 0 to 4, each run once per checkout as
`python -m spheregap.cli ARGS` against that checkout's ./src, with
SPHEREGAP_THREADS=1 so that FEM digits do not depend on the core count.
The command list comes from this checkout's README.md and
perfbench/workloads.py. One line per command says `identical`, or gives
the number of differing stdout lines and any change of exit code; the
first differing line of OTHER_CHECKOUT and of this checkout follow it.

Then each checkout's perfbench/eigen_driver.py runs the `eigenfunctions`
job list of each of those seeds, also with one BLAS thread. One line per
seed says whether every normalized value (compared by its repr, so
bitwise) and every error string of the two checkouts is equal. Exits
with 1 when any command or seed differs.
"""
import itertools
import json
import os
import random
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = range(5)
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


def _run(checkout: Path, args):
    out = subprocess.run([sys.executable, "-m", "spheregap.cli", *args], cwd=checkout,
                         env=_env(checkout), capture_output=True, text=True)
    return out.returncode, out.stdout.splitlines()


def _eigen_results(checkout: Path, jobs_path: Path):
    """(repr of the values, error) per job, from the checkout's own driver."""
    result_path = jobs_path.with_name("result.json")
    subprocess.run([sys.executable, str(checkout / "perfbench" / "eigen_driver.py"),
                    str(jobs_path), str(result_path)], cwd=checkout, env=_env(checkout),
                   check=True)
    jobs = json.loads(result_path.read_text())["jobs"]
    return [(repr(job["values"]), job["error"]) for job in jobs]


def _compare_eigenfunctions(other: Path) -> int:
    """Print one line per seed; return the number of seeds that differ."""
    differing = 0
    with tempfile.TemporaryDirectory() as tmp:
        jobs_path = Path(tmp) / "jobs.json"
        for seed in SEEDS:
            jobs_path.write_text(json.dumps(list(workloads.eigenfunctions(random.Random(seed)).jobs)))
            mine, theirs = (_eigen_results(tree, jobs_path) for tree in (ROOT, other))
            changed = sum(a != b for a, b in zip(mine, theirs))
            errors = sum(error is not None for _, error in mine)
            verdict = "identical" if changed == 0 else f"{changed} of {len(mine)} jobs differ"
            differing += changed != 0
            print(f"{verdict}: eigenfunctions seed {seed} ({len(mine)} jobs, {errors} errors)",
                  flush=True)
    return differing


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    other = Path(argv[0]).resolve()
    commands = list(dict.fromkeys(_readme_commands() + _workload_commands()))
    differing = 0
    for args in commands:
        (code, lines), (other_code, other_lines) = _run(ROOT, args), _run(other, args)
        diffs = [(i, a, b) for i, (a, b) in
                 enumerate(itertools.zip_longest(other_lines, lines), 1) if a != b]
        verdict = "identical" if not diffs else f"{len(diffs)} of {len(lines)} lines differ"
        if code != other_code:
            verdict += f", exit code {other_code} -> {code}"
        differing += verdict != "identical"
        print(f"{verdict}: spheregap {shlex.join(args)}", flush=True)
        if diffs:
            line, theirs, mine = diffs[0]
            # zip_longest pads the shorter side with None
            print(f"  line {line} other: {theirs}\n  line {line} here:  {mine}", flush=True)
    print(f"{len(commands)} commands, {differing} differ")
    differing_seeds = _compare_eigenfunctions(other)
    print(f"{len(SEEDS)} eigenfunctions seeds, {differing_seeds} differ")
    return 1 if differing or differing_seeds else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
