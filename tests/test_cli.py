"""Command-line interface tests: payloads, round-trips, determinism, exit codes."""
import contextlib
import csv
import io
import json
import math
import os
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from spheregap.cli import build_parser, main

PI = math.pi
README = Path(__file__).resolve().parents[1] / "README.md"


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def _usage_error(capsys, *argv):
    """stderr of a command that must exit 1 with one error line and no stdout."""
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.count("spheregap: error:") == 1
    return captured.err


def _parse_csv(text):
    """(summary dict, header, rows) from the CSV layout used by the CLI."""
    summary = {}
    lines = []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, val = line[2:].partition("=")
            summary[key] = val
        else:
            lines.append(line)
    rows = list(csv.reader(io.StringIO("\n".join(lines))))
    return summary, rows[0], rows[1:]


# ------------------------------------------------------------ spectrum


def test_spectrum_triangle_csv(capsys):
    code, out = _run(capsys, "spectrum", "--domain", "triangle",
                     "--beta-pi", "0.5", "--count", "2")
    assert code == 0
    _, header, rows = _parse_csv(out)
    assert header == ["eigenvalue", "multiplicity", "modes"]
    assert [float(r[0]) for r in rows] == [12.0, 30.0]
    assert rows[0][2] == "1:0"
    assert rows[1][2] == "1:1;2:0"


def test_spectrum_lune_first_eigenvalue(capsys):
    code, out = _run(capsys, "spectrum", "--domain", "lune",
                     "--beta-pi", "1", "--count", "1")
    assert code == 0
    _, _, rows = _parse_csv(out)
    assert float(rows[0][0]) == 2.0
    assert rows[0][2] == "1:0"


def test_spectrum_count_zero_is_usage_error(capsys):
    err = _usage_error(capsys, "spectrum", "--domain", "triangle",
                       "--beta-pi", "0.5", "--count", "0")
    assert "count" in err


def test_unknown_flag_exits_one():
    with pytest.raises(SystemExit) as err:
        main(["spectrum", "--domain", "triangle", "--beta-pi", "0.5", "--frobnicate"])
    assert err.value.code == 1


def test_beta_flags_are_exclusive(capsys):
    code, _ = _run(capsys, "spectrum", "--domain", "triangle",
                   "--beta", "1.0", "--beta-pi", "0.5")
    assert code == 1
    code, _ = _run(capsys, "spectrum", "--domain", "triangle")
    assert code == 1


# ------------------------------------------------------------ gap curve


def test_gap_curve_crosses_lune_regime(capsys):
    code, out = _run(capsys, "gap-curve", "--domain", "lune",
                     "--beta-min-pi", "0.8", "--beta-max-pi", "1.2", "--steps", "4")
    assert code == 0
    _, header, rows = _parse_csv(out)
    assert header == ["beta", "gap", "regime"]
    regimes = [r[2] for r in rows]
    assert "beta<=pi" in regimes and "beta>pi" in regimes


def test_gap_curve_triangle_value(capsys):
    code, out = _run(capsys, "gap-curve", "--domain", "triangle",
                     "--beta-min-pi", "0.5", "--beta-max-pi", "0.75", "--steps", "1")
    assert code == 0
    _, _, rows = _parse_csv(out)
    assert len(rows) == 2  # steps=1 gives the two endpoints
    assert float(rows[0][1]) == 18.0


def test_gap_curve_bad_range(capsys):
    code, _ = _run(capsys, "gap-curve", "--domain", "lune",
                   "--beta-min-pi", "1.5", "--beta-max-pi", "0.5")
    assert code == 1


def test_gap_curve_zero_steps_is_usage_error(capsys):
    err = _usage_error(capsys, "gap-curve", "--domain", "lune",
                       "--beta-min-pi", "0.2", "--beta-max-pi", "0.4", "--steps", "0")
    assert "--steps must be >= 1" in err


def _numerical_failure(capsys, *argv):
    """A command that must exit 2 with one failure line and no stdout."""
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.count("spheregap: numerical failure:") == 1
    return captured.err


def test_gap_curve_on_thin_lunes(capsys):
    # the closed form stays finite down to beta ~ 3.5e-308, far below the
    # beta ~ 2.3e-154 where the eigenvalues themselves overflow
    code, out = _run(capsys, "gap-curve", "--domain", "lune", "--beta-min", "1e-300",
                     "--beta-max", "1e-200", "--steps", "1", "--format", "json")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert rows[0]["gap"] == 2.0 * (PI / 1e-300) + 2.0
    assert all(math.isfinite(row["gap"]) for row in rows)
    _numerical_failure(capsys, "gap-curve", "--domain", "lune", "--beta-min", "1e-320",
                       "--beta-max", "1e-3", "--steps", "1")


@pytest.mark.parametrize("message", ["Unable to allocate 74.5 GiB for an array", ""])
def test_running_out_of_memory_is_a_numerical_failure(capsys, monkeypatch, message):
    # a grid too large to allocate; the stand-in assemble allocates nothing
    import spheregap.fem as fem

    def out_of_memory(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(fem, "assemble", out_of_memory)
    err = _numerical_failure(capsys, "solve", "--a", "1", "--b", "0", "--t", "0.05",
                             "--grid-n", "100000000")
    assert err == f"spheregap: numerical failure: {message or 'out of memory'}\n"


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_spectrum_with_infinite_eigenvalues_fails(capsys, fmt):
    _numerical_failure(capsys, "spectrum", "--domain", "lune", "--beta", "1e-300",
                       "--format", fmt)


# ------------------------------------------------------------ variation


def test_variation_defaults_find_minimum(capsys):
    code, out = _run(capsys, "variation", "--z-steps", "61", "--b-steps", "21")
    assert code == 0
    summary, header, rows = _parse_csv(out)
    assert header == ["z", "b", "value"]
    assert len(rows) == 61 * 21
    assert abs(float(summary["min_value"]) - 16.0 / PI) < 1e-9
    assert abs(float(summary["reference_16_over_pi"]) - 16.0 / PI) < 1e-12


def test_variation_summary_is_the_library_minimum(capsys):
    from spheregap.variation import gap_variation_table

    code, out = _run(capsys, "variation", "--z-steps", "721", "--b-steps", "201")
    assert code == 0
    summary, _, _ = _parse_csv(out)
    best = gap_variation_table(721, 201).minimum
    # 17 significant digits round-trip a double exactly
    assert [float(summary[key]).hex() for key in ("min_value", "argmin_z", "argmin_b")] == [
        best.value.hex(), best.z.hex(), best.b.hex()]


@pytest.mark.parametrize("z_steps, b_steps", [(721, 201), (61, 21)])
def test_variation_summary_is_a_tied_minimum(capsys, z_steps, b_steps):
    # I = 16/pi exactly where b = 0 and sin z = 0, and where b = 1 and z is
    # pi/3 or 4 pi/3; both grids hold all five points
    code, out = _run(capsys, "variation", "--z-steps", str(z_steps), "--b-steps", str(b_steps))
    assert code == 0
    summary, _, _ = _parse_csv(out)
    z, b = float(summary["argmin_z"]), float(summary["argmin_b"])
    ties = [(0.0, 0.0), (PI, 0.0), (2 * PI, 0.0), (PI / 3, 1.0), (4 * PI / 3, 1.0)]
    assert any(abs(z - z_tie) < 1e-12 and b == b_tie for z_tie, b_tie in ties)
    ulp = math.ulp(16.0 / PI)
    assert abs(float(summary["min_value"]) - 16.0 / PI) <= 4 * ulp


def test_variation_fixed_direction(capsys):
    code, out = _run(capsys, "variation", "--a", "1", "--b", "0", "--z-steps", "81")
    assert code == 0
    summary, _, rows = _parse_csv(out)
    assert len(rows) == 81
    assert abs(float(summary["min_value"]) - 16.0 / PI) < 1e-9


def test_variation_single_evaluation(capsys):
    code, out = _run(capsys, "variation", "--a", "1", "--b", "0", "--z-steps", "1")
    assert code == 0
    _, _, rows = _parse_csv(out)
    assert len(rows) == 1
    assert abs(float(rows[0][2]) - 16.0 / PI) < 1e-9


def test_variation_direction_errors(capsys):
    # the rule of geometry.check_direction, as for solve and gap-slope
    for flags, message in (
        (["--a", "1.5"], "a^2 + b^2 = 1"),
        (["--b", "1.5"], "a^2 + b^2 = 1"),
        (["--a", "0.6", "--b", "0.6"], "a^2 + b^2 = 1"),
        (["--a", "0.6", "--b", "0.8000000001"], "a^2 + b^2 = 1"),
        (["--a", "nan"], "a^2 + b^2 = 1"),
        (["--b", "nan"], "a^2 + b^2 = 1"),
        (["--a", "1e200"], "a^2 + b^2 = 1"),
        (["--b=-1e200"], "nonnegative"),
        (["--a=-0.6"], "nonnegative"),
    ):
        assert message in _usage_error(capsys, "variation", *flags, "--z-steps", "5")


# ------------------------------------------------------------ verification


def test_verify_appendix_cli(capsys):
    code, out = _run(capsys, "verify-appendix")
    assert code == 0
    summary, header, rows = _parse_csv(out)
    assert header == ["label", "computed", "expected", "abs_err"]
    assert len(rows) == 30
    assert summary["passed"] == "1"
    for label, computed, expected, abs_err in rows:  # four fields, three numeric
        float(computed), float(expected)
        assert float(abs_err) < 1e-9


# ------------------------------------------------------------ solver


def test_solve_and_payload_round_trip(capsys):
    args = ["solve", "--a", "0", "--b", "1", "--t", "0.0",
            "--grid-n", "24", "--modes", "3"]
    code, out_csv = _run(capsys, *args)
    assert code == 0
    code, out_json = _run(capsys, *args, "--format", "json")
    assert code == 0
    summary, _, rows = _parse_csv(out_csv)
    payload = json.loads(out_json)
    assert payload["command"] == "solve"
    assert set(payload["params"]) == {"a", "b", "t", "grid_n", "modes"}
    for row, jrow in zip(rows, payload["rows"]):
        assert float(row[0]) == jrow["index"]
        assert float(row[1]) == jrow["eigenvalue"]
    assert float(summary["gap"]) == payload["summary"]["gap"]
    assert abs(payload["summary"]["gap"] - 18.0) < 0.5


def test_gap_slope_cli(capsys):
    code, out = _run(capsys, "gap-slope", "--a", "0", "--b", "1",
                     "--t-list", "0.02,0.01", "--grid-n", "24")
    assert code == 0
    summary, header, rows = _parse_csv(out)
    assert header == ["t", "gap", "slope"]
    assert len(rows) == 2
    assert {"slope", "error_estimate", "gap_at_zero", "warning"} <= set(summary)
    assert abs(float(summary["slope"]) - 16.0 / PI) < 0.15 * 16.0 / PI


def test_solve_direction_validation(capsys):
    # off the unit circle by 1, by 1e-10 (ten-digit rounding of cos(pi/4)), NaN
    for command in ("solve", "gap-slope"):
        for a, b in (("1", "1"), ("0.7071067812", "0.7071067812"), ("nan", "1")):
            err = _usage_error(capsys, command, "--a", a, "--b", b, "--grid-n", "24")
            assert "direction must satisfy a^2 + b^2 = 1" in err
    err = _usage_error(capsys, "solve", "--a", "0", "--b", "1", "--t", "nan",
                       "--grid-n", "24")
    assert "deformation magnitude t must be >= 0" in err
    err = _usage_error(capsys, "gap-slope", "--a", "0", "--b", "1", "--t-list", "nan",
                       "--grid-n", "24")
    assert "t_values must be positive and strictly decreasing" in err


def test_solve_modes_must_be_positive(capsys):
    for modes in ("0", "-1"):
        err = _usage_error(capsys, "solve", "--a", "0", "--b", "1", "--grid-n", "16",
                           "--modes", modes)
        assert "--modes must be >= 1" in err


def test_solve_every_mode_of_a_deformed_problem(capsys):
    # 7 x 6 retained nodes at n = 8, so --modes 42 asks for all of them
    code, out = _run(capsys, "solve", "--a", "0.6", "--b", "0.8", "--t", "0.01",
                     "--grid-n", "8", "--modes", "42")
    assert code == 0
    _, _, rows = _parse_csv(out)
    assert [int(row[0]) for row in rows] == list(range(1, 43))
    vals = [float(row[1]) for row in rows]
    assert vals == sorted(vals) and vals[0] > 0


def test_solve_near_the_largest_t(capsys):
    # 0.9 of the largest t along (0, 1): the t = 0 preconditioner is too weak
    # there, and shift-invert gives the answer; lambda_1 as ARPACK printed it
    # before LOBPCG
    code, out = _run(capsys, "solve", "--a", "0", "--b", "1", "--t", "1.414",
                     "--grid-n", "64")
    assert code == 0
    _, _, rows = _parse_csv(out)
    assert float(rows[0][1]) == pytest.approx(465.56385574064251, rel=1e-12)


def test_solve_with_eigenvalues_above_1e4(capsys):
    # lambda_4 = 24338: LOBPCG stops at the relative residual gate,
    # 1e-9 |lambda|, as it does at every lambda
    code, out = _run(capsys, "solve", "--a", "0.8", "--b", "0.6", "--t", "1.8596",
                     "--grid-n", "16", "--modes", "4")
    assert code == 0
    _, _, rows = _parse_csv(out)
    assert [int(row[0]) for row in rows] == [1, 2, 3, 4]


def test_gap_slope_bad_t_list(capsys):
    code, _ = _run(capsys, "gap-slope", "--a", "0", "--b", "1",
                   "--t-list", "0.02,zap", "--grid-n", "24")
    assert code == 1
    # an empty item, also one left by a trailing comma, is not dropped
    for t_list in ("0.02,,0.01", "0.02,0.01,", ",0.02,0.01", "0.02, ,0.01"):
        err = _usage_error(capsys, "gap-slope", "--a", "0", "--b", "1", "--t-list", t_list,
                           "--grid-n", "24")
        assert "--t-list" in err
    # one t allows no extrapolation, so there is no error_estimate to print
    err = _usage_error(capsys, "gap-slope", "--a", "0", "--b", "1", "--t-list", "0.01",
                       "--grid-n", "24", "--format", "json")
    assert "at least two" in err


# ------------------------------------------------------------ cross-cutting


@pytest.mark.parametrize("argv", [
    ["spectrum", "--domain", "triangle", "--beta-pi", "0.5", "--count", "3"],
    ["gap-curve", "--domain", "lune", "--beta-min-pi", "0.4",
     "--beta-max-pi", "1.4", "--steps", "7"],
    ["variation", "--a", "1", "--b", "0", "--z-steps", "11"],
    ["verify-appendix"],
    ["variation", "--z-steps", "13", "--b-steps", "5"],
    ["variation", "--z-steps", "61", "--b-steps", "21"],
    ["variation", "--b", "0.4", "--z-steps", "61"],
    ["solve", "--a", "0.6", "--b", "0.8", "--t", "0.05", "--grid-n", "20"],
    ["gap-slope", "--a", "1", "--b", "0", "--grid-n", "16"],
])
def test_json_csv_payloads_identical(capsys, argv):
    code, out_csv = _run(capsys, *argv)
    assert code == 0
    code, out_json = _run(capsys, *argv, "--format", "json")
    assert code == 0
    # the stdlib writer over the JSON payload is the reference for every CSV byte
    payload = json.loads(out_json)

    def cell(value):
        return format(value, ".17g") if isinstance(value, float) else str(value)

    reference = io.StringIO()
    for key, value in payload.get("summary", {}).items():
        reference.write(f"# {key}={cell(value)}\n")
    writer = csv.writer(reference, lineterminator="\n")
    writer.writerow(payload["rows"][0])
    for row in payload["rows"]:
        writer.writerow([cell(v) for v in row.values()])
    assert out_csv == reference.getvalue()


def _whole_payload_json(command, params, columns, rows, summary=None):
    """The JSON text as one json.dumps of the whole payload renders it."""
    payload = {"command": command, "params": params,
               "rows": [dict(zip(columns, row)) for row in rows]}
    if summary:
        payload["summary"] = summary
    return json.dumps(payload, indent=2) + "\n"


@pytest.mark.parametrize("argv", [
    ["spectrum", "--domain", "lune", "--beta-pi", "1.5", "--count", "6"],
    ["gap-curve", "--domain", "triangle", "--beta-min-pi", "0.3",
     "--beta-max-pi", "1.7", "--steps", "9"],
    ["variation", "--z-steps", "13", "--b-steps", "5"],
    ["verify-appendix"],
    ["solve", "--a", "0.6", "--b", "0.8", "--t", "0.05", "--grid-n", "20"],
    ["gap-slope", "--a", "1", "--b", "0", "--grid-n", "16"],
])
def test_streamed_json_matches_whole_payload_rendering(capsys, monkeypatch, argv):
    import spheregap.cli as cli

    calls = []
    emit = cli._emit

    def recording_emit(args, command, params, columns, rows, summary=None, blocks=None):
        rows = list(rows)
        calls.append((command, params, columns, rows, summary))
        emit(args, command, params, columns, rows, summary, blocks)

    monkeypatch.setattr(cli, "_emit", recording_emit)
    code, out = _run(capsys, *argv, "--format", "json")
    assert code == 0 and len(calls) == 1
    assert out == _whole_payload_json(*calls[0])


@pytest.mark.parametrize("rows, summary", [
    ([], None),
    ([], {"gap": 1.5}),
    ([(1, "a;b", 0.1)], None),
    ([(2, "x", math.nan), (3, "", math.inf), (4, "\u00e9\"", -math.inf)], {"ok": 0, "e": -0.0}),
    ([(True, None, np.float64(2.5))], {"tail": None}),
])
def test_streamed_json_edge_cases(capsys, rows, summary):
    import argparse

    import spheregap.cli as cli

    columns, params = ("i", "s", "v"), {"x": 1.25, "name": "lune"}
    cli._emit(argparse.Namespace(format="json"), "cmd", params, columns, rows, summary)
    assert capsys.readouterr().out == _whole_payload_json("cmd", params, columns, rows, summary)
    cli._emit(argparse.Namespace(format="json"), "cmd", {}, columns, iter(rows), summary)
    assert capsys.readouterr().out == _whole_payload_json("cmd", {}, columns, rows, summary)


def test_variation_json_is_streamed():
    # the rows go out one at a time: the traced peak stays far below the
    # bytes written, where a list of row dicts and one json.dumps string
    # took several times as much
    class Sink:
        written = 0

        def write(self, text):
            self.written += len(text)

    argv = ["variation", "--z-steps", "181", "--b-steps", "51", "--format", "json"]
    with contextlib.redirect_stdout(Sink()):
        main(argv)   # imports and caches outside the traced run
    sink = Sink()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(sink):
            assert main(argv) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sink.written > 181 * 51 * 80
    assert peak <= sink.written


def test_variation_csv_is_rendered_without_a_row_list():
    # the CSV goes out in one block of lines per z: the traced peak stays
    # below twice the bytes written, where a list of row tuples and their
    # lines took six times as much
    class Sink:
        written = 0

        def write(self, text):
            self.written += len(text)

    argv = ["variation", "--z-steps", "181", "--b-steps", "51"]
    with contextlib.redirect_stdout(Sink()):
        main(argv)   # imports and caches outside the traced run
    sink = Sink()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(sink):
            assert main(argv) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sink.written > 181 * 51 * 40
    assert peak <= 2 * sink.written


def test_byte_identical_reruns(capsys):
    argv = ["spectrum", "--domain", "lune", "--beta", "2.2", "--count", "6"]
    _, first = _run(capsys, *argv)
    _, second = _run(capsys, *argv)
    assert first == second
    argv = ["variation", "--a", "1", "--b", "0", "--z-steps", "33",
            "--format", "json"]
    _, first = _run(capsys, *argv)
    _, second = _run(capsys, *argv)
    assert first == second
    # the eigensolver path must be deterministic as well
    argv = ["solve", "--a", "0", "--b", "1", "--t", "0.02", "--grid-n", "20"]
    _, first = _run(capsys, *argv)
    _, second = _run(capsys, *argv)
    assert first == second


@pytest.mark.parametrize("argv", [
    ["solve", "--a", "1", "--b", "0", "--t", "0.05", "--grid-n", "32"],
    ["gap-slope", "--a", "0.6", "--b", "0.8", "--grid-n", "24"],
])
def test_fem_commands_byte_identical_across_processes(argv):
    runs = [subprocess.run([sys.executable, "-m", "spheregap.cli", *argv],
                           capture_output=True, check=True).stdout
            for _ in range(2)]
    assert runs[0] and runs[0] == runs[1]


def test_readme_commands_parse_and_run(capsys):
    text = README.read_text()
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line)[1:] for line in block.splitlines()
                if line.startswith("spheregap ")]
    parser = build_parser()
    parsed = [parser.parse_args(argv) for argv in commands]
    assert {args.command for args in parsed} == {
        "spectrum", "gap-curve", "variation", "verify-appendix", "solve", "gap-slope"}
    for argv, args in zip(commands, parsed):
        if args.command not in ("solve", "gap-slope"):
            assert main(argv) == 0, argv
    capsys.readouterr()


def test_console_entry_point_subprocess():
    out = subprocess.run(
        [sys.executable, "-m", "spheregap.cli", "spectrum", "--domain", "triangle",
         "--beta-pi", "0.5", "--count", "1"],
        capture_output=True, text=True,
    )
    assert out.returncode == 0
    assert out.stdout.splitlines()[1].startswith("12,1,")


def test_closed_stdout_pipe_exits_141_quietly():
    # a reader that stops after one line, as `| head -1` does: the grid's
    # 2 MB outgrow the pipe, a later write meets the closed pipe, and the
    # command exits with 128 + SIGPIPE and no traceback
    proc = subprocess.Popen([sys.executable, "-m", "spheregap.cli", "variation"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline().startswith(b"# min_value=")
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait() == 141
    assert "Traceback" not in err and "Exception ignored" not in err


def test_fem_bytes_do_not_depend_on_the_default_thread_count():
    # the command line runs one BLAS thread unless SPHEREGAP_THREADS says
    # otherwise; with the BLAS default (one thread per core) this separable
    # solve printed other 17-digit values on a multi-core host
    argv = ["solve", "--a", "1", "--b", "0", "--t", "0.3", "--grid-n", "96"]
    env = {k: v for k, v in os.environ.items()
           if k not in ("SPHEREGAP_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                        "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}
    runs = [subprocess.run([sys.executable, "-m", "spheregap.cli", *argv], env=extra,
                           capture_output=True, check=True).stdout
            for extra in (env, dict(env, SPHEREGAP_THREADS="1"))]
    assert runs[0] and runs[0] == runs[1]


def test_thread_cap_env_propagates():
    code = ("import os, spheregap\n"
            "print(os.environ.get('OMP_NUM_THREADS'))\n")
    env = dict(os.environ, SPHEREGAP_THREADS="1")
    env.pop("OMP_NUM_THREADS", None)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, check=True)
    assert out.stdout.strip() == "1"
