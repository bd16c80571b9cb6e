"""Repository hygiene: nothing that .gitignore excludes is tracked."""
import pathlib
import subprocess

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)


def test_no_ignored_files_are_tracked():
    try:
        top = _git("rev-parse", "--show-toplevel")
    except FileNotFoundError:
        pytest.skip("git is not installed")
    if top.returncode != 0 or pathlib.Path(top.stdout.strip()).resolve() != ROOT:
        pytest.skip("not a git checkout of this repository")
    tracked = _git("ls-files", "--cached", "--ignored", "--exclude-standard")
    assert tracked.returncode == 0, tracked.stderr
    assert tracked.stdout == ""
