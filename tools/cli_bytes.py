"""Compare the stdout of `spheregap` commands between this checkout and another.

    python tools/cli_bytes.py OTHER_CHECKOUT

The commands are those of the README's "Command line" block and the `cli`
operations of perfbench seeds 0 to 4, each run once per checkout as
`python -m spheregap.cli ARGS` against that checkout's ./src, with
SPHEREGAP_THREADS=1 so that FEM digits do not depend on the core count.
The command list comes from this checkout's README.md and
perfbench/workloads.py. One line per command says `identical`, or gives
the number of differing stdout lines and any change of exit code. Exits
with 1 when any command differs.
"""
import itertools
import os
import random
import shlex
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = range(5)


def _readme_commands():
    text = (ROOT / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [tuple(shlex.split(line)[1:]) for line in block.splitlines()
            if line.startswith("spheregap ")]


def _workload_commands():
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    return [op.args for seed in SEEDS for op in workloads.cli(random.Random(seed)).ops]


def _run(checkout: Path, args):
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), SPHEREGAP_THREADS="1")
    out = subprocess.run([sys.executable, "-m", "spheregap.cli", *args], cwd=checkout,
                         env=env, capture_output=True, text=True)
    return out.returncode, out.stdout.splitlines()


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    other = Path(argv[0]).resolve()
    commands = list(dict.fromkeys(_readme_commands() + _workload_commands()))
    differing = 0
    for args in commands:
        (code, lines), (other_code, other_lines) = _run(ROOT, args), _run(other, args)
        changed = sum(a != b for a, b in itertools.zip_longest(lines, other_lines))
        verdict = "identical" if changed == 0 else f"{changed} of {len(lines)} lines differ"
        if code != other_code:
            verdict += f", exit code {other_code} -> {code}"
        differing += verdict != "identical"
        print(f"{verdict}: spheregap {shlex.join(args)}", flush=True)
    print(f"{len(commands)} commands, {differing} differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
