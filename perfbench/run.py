#!/usr/bin/env python3
"""End-to-end benchmark of spheregap, run from the root of a source checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs whole rounds of the workload's operations (workloads.py) until S
seconds have passed, one client in a closed loop with SPHEREGAP_THREADS=1,
against the package in ./src. Every output is checked against oracles.py.
The last stdout line is one JSON object: correct, attempted, failed and
the metrics, which are the end-to-end metrics with --trace 0 and the
per-layer metrics of a traced run (tracer.py) with --trace 1. The full
record of the run, with its provenance, is written to perfbench/out/.
Exits with code 2, printing no result, when the benchmark cannot run.
"""
import argparse
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
TRACER = BENCH / "tracer.py"
DRIVER = BENCH / "eigen_driver.py"
SETUP_PROBES = 5  # at least per run; the rounds take them, and the rest follow the last round
CLI_OPS_PER_PROBE = 4
PROCESS_TIMEOUT = 150
PROBE = ("import sys, spheregap; sys.stdout.write('ready\\n'); sys.stdout.flush(); "
         "import json, numpy, scipy; backend = getattr(spheregap, 'kernel_backend', None); "
         "print(json.dumps({'file': spheregap.__file__, 'numpy': numpy.__version__, "
         "'scipy': scipy.__version__, 'kernel_backend': backend() if backend else None}))")

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"))
# Names ending in _s are inclusive span seconds, .self_s self seconds and
# .calls span calls; the rest are tracer counters or set in layer_metrics.
PER_LAYER = (
    ("import.spheregap_s", "s"), ("import.modules", "count"),
    ("cli.main_s", "s"), ("cli.self_s", "s"), ("cli.stdout_bytes", "bytes"),
    ("variation.gap_variation_I_s", "s"), ("variation.gap_variation_I.calls", "count"),
    ("variation.verify_appendix_s", "s"), ("variation.pairing_terms.calls", "count"),
    ("spectra.spectrum_s", "s"), ("spectra.gap_s", "s"), ("spectra.gap.calls", "count"),
    ("spectra.normalization_constant_s", "s"), ("spectra.normalization_constant.calls", "count"),
    ("spectra.eigenfunction_eval_s", "s"), ("spectra.eigenfunction_eval.calls", "count"),
    ("special.legendre_p_many_s", "s"), ("special.legendre_p_many.calls", "count"),
    ("special.legendre_p_many.points", "count"),
    ("special.legendre_p_dx_s", "s"), ("special.legendre_p_dx.calls", "count"),
    ("kernels.hyp2f1_batch_s", "s"), ("kernels.hyp2f1_batch.calls", "count"),
    ("kernels.hyp2f1_batch.points", "count"),
    ("kernels.local_matrices_s", "s"), ("kernels.local_matrices.cells", "count"),
    ("geometry.metric_coefficients_s", "s"), ("geometry.metric_coefficients.points", "count"),
    ("fem.assemble_s", "s"), ("fem.assemble.self_s", "s"), ("fem.assemble.calls", "count"),
    ("fem.dof", "count"), ("fem.stiffness_nnz", "count"),
    ("fem.solve_smallest_s", "s"), ("fem.solve_smallest.calls", "count"),
    ("fem.eigsh_s", "s"), ("fem.solve_smallest.self_s", "s"),
    ("fem.gap_slope_s", "s"), ("fem.gap_slope.self_s", "s"),
    ("trace.overhead_s", "s"),
)


class BenchError(Exception):
    """The benchmark cannot run in this directory."""


def child_env():
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env.pop(var, None)  # let SPHEREGAP_THREADS set them
    env["SPHEREGAP_THREADS"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def setup_probe(env):
    """Seconds from starting a fresh interpreter until `import spheregap` returns."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", PROBE], cwd=ROOT, env=env,
                            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    try:
        first = proc.stdout.readline()
        seconds = time.perf_counter() - start
        rest = proc.stdout.read()
        proc.wait(timeout=PROCESS_TIMEOUT)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if first != b"ready\n" or proc.returncode != 0:
        raise BenchError("import spheregap failed: " + (first + rest).decode(errors="replace")[-2000:])
    info = json.loads(rest)
    if not Path(info["file"]).resolve().is_relative_to(ROOT / "src"):
        raise BenchError(f"spheregap imported from {info['file']}, not from {ROOT / 'src'}")
    return seconds, info


def run_process(argv, stdout_path, env):
    """Run one program process, killed after PROCESS_TIMEOUT; returns (seconds, exit code)."""
    with open(stdout_path, "wb") as out, open(stdout_path.with_suffix(".err"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        # a blocking wait: Popen.wait(timeout) polls with sleeps of up to
        # 50 ms, which would add to the measured time
        timer = threading.Timer(PROCESS_TIMEOUT, proc.kill)
        timer.start()
        try:
            code = proc.wait()
        finally:
            timer.cancel()
    return time.perf_counter() - start, code


def _stderr_tail(stdout_path):
    return stdout_path.with_suffix(".err").read_text(errors="replace")[-500:]


class CliRunner:
    """Rounds of a CLI workload: each op is one fresh `python -m spheregap.cli` process."""

    def __init__(self, workload, work_dir, env):
        self.workload, self.work_dir, self.env = workload, work_dir, env
        self.checked = {}  # (op index, stdout digest) -> errors

    def round(self, index, trace_dir, probe):
        """Run every op once, and `probe` after every CLI_OPS_PER_PROBE ops.
        The round's wall time is the sum of its ops. From the second round
        on, each op's stdout must equal round 0's byte for byte."""
        ops = []
        for i, op in enumerate(self.workload.ops):
            path = self.work_dir / f"r{index}-{i}.out"
            if trace_dir is None:
                argv = [sys.executable, "-m", "spheregap.cli", *op.args]
            else:
                argv = [sys.executable, str(TRACER), str(trace_dir / f"{i}.json"), "cli", *op.args]
            seconds, code = run_process(argv, path, self.env)
            rec = {"op": i, "seconds": seconds, "code": code, "path": path}
            if index:
                rec["same_as"] = self.work_dir / f"r0-{i}.out"
            ops.append(rec)
            if i % CLI_OPS_PER_PROBE == CLI_OPS_PER_PROBE - 1:
                probe()
        return sum(rec["seconds"] for rec in ops), ops

    def reruns(self, rounds):
        """After a single round, run the rerun ops once more; their stdout must
        equal round 0's byte for byte."""
        records = []
        for i in self.workload.reruns if rounds == 1 else ():
            path = self.work_dir / f"rerun-{i}.out"
            seconds, code = run_process([sys.executable, "-m", "spheregap.cli", *self.workload.ops[i].args],
                                        path, self.env)
            records.append({"op": i, "seconds": seconds, "code": code, "path": path,
                            "same_as": self.work_dir / f"r0-{i}.out"})
        return records

    def evaluate(self, rec):
        """(failure message or None, whether the output missed its oracle)."""
        op = self.workload.ops[rec["op"]]
        if rec["code"] != 0:
            return f"{op.name}: exit {rec['code']}: {_stderr_tail(rec['path'])}", False
        data = rec["path"].read_bytes()
        if "same_as" in rec and data != rec["same_as"].read_bytes():
            return f"{op.name}: stdout differs from the first run of the same command", False
        key = (rec["op"], hashlib.sha256(data).hexdigest())
        if key not in self.checked:
            try:
                self.checked[key] = op.check(data.decode())
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                self.checked[key] = [f"unparseable output: {exc!r}"]
        errs = self.checked[key]
        if errs:
            return f"{op.name}: {len(errs)} check(s) failed: " + " | ".join(errs[:3]), True
        return None, False

    def stdout_bytes(self, ops):
        return sum(rec["path"].stat().st_size for rec in ops)


class EigenRunner:
    """Rounds of the library workload: each round is one eigen_driver.py process."""

    def __init__(self, workload, work_dir, env):
        self.workload, self.work_dir, self.env = workload, work_dir, env
        self.jobs_path = work_dir / "jobs.json"
        self.jobs_path.write_text(json.dumps(list(workload.jobs)))
        self.reference = {}  # op index -> oracle values

    def round(self, index, trace_dir, probe):
        """Run the job list in one driver process, then `probe` once."""
        result_path = self.work_dir / f"r{index}-result.json"
        argv = [str(DRIVER), str(self.jobs_path), str(result_path)]
        if trace_dir is not None:
            argv = [str(TRACER), str(trace_dir / "driver.json"), "script", *argv]
        log = self.work_dir / f"r{index}-driver.out"
        seconds, code = run_process([sys.executable, *argv], log, self.env)
        probe()
        jobs = self.workload.jobs
        if code != 0:
            message = f"eigen_driver exit {code}: {_stderr_tail(log)}"
            return seconds, [{"op": i, "seconds": seconds, "error": message} for i in range(len(jobs))]
        result = json.loads(result_path.read_text())
        return result["wall"], [dict(res, op=i) for i, res in enumerate(result["jobs"])]

    def reruns(self, rounds):
        return []

    def evaluate(self, rec):
        job = self.workload.jobs[rec["op"]]
        name = f"{job['domain']}(beta={job['beta_text']}) mode ({job['k']},{job['j']})"
        if rec["error"] is not None:
            return f"{name}: {rec['error']}", False
        if rec["op"] not in self.reference:
            self.reference[rec["op"]] = workloads.eigen_reference(job)
        errs = workloads.check_eigen(job, rec["values"], self.reference[rec["op"]])
        if errs:
            return f"{name}: " + " | ".join(errs), True
        return None, False

    def stdout_bytes(self, ops):
        return 0


def git_sha():
    """The checked-out commit, read from .git without running git; None outside a git checkout."""
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return None
    head = (git / "HEAD").read_text().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def src_digest():
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _median_or_zero(values):
    return statistics.median(values) if values else 0.0


def layer_metrics(traces, rounds, stdout_bytes, overhead):
    """Per-layer values per traced round, from the tracer records of those rounds."""
    spans, counters = {}, {}
    for trace in traces:
        for name, (calls, total, own) in trace["spans"].items():
            acc = spans.setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += total
            acc[2] += own
        for name, value in trace["counters"].items():
            counters[name] = counters.get(name, 0) + value
    special = {
        "import.spheregap_s": _median_or_zero([t["import_s"] for t in traces]),
        "import.modules": _median_or_zero([t["modules"] for t in traces]),
        "cli.self_s": spans.get("cli.main", [0, 0.0, 0.0])[2] / rounds,
        "cli.stdout_bytes": stdout_bytes / rounds,
        "trace.overhead_s": overhead,
    }
    out = {}
    for name, unit in PER_LAYER:
        if name in special:
            value = special[name]
        elif name.endswith(".self_s"):
            value = spans.get(name[:-7], [0, 0.0, 0.0])[2] / rounds
        elif name.endswith(".calls"):
            value = spans.get(name[:-6], [0, 0.0, 0.0])[0] / rounds
        elif name.endswith("_s"):
            value = spans.get(name[:-2], [0, 0.0, 0.0])[1] / rounds
        else:
            value = counters.get(name, 0) / rounds
        if unit != "s" and float(value).is_integer():
            value = int(value)
        out[name] = {"value": value, "unit": unit}
    return out


def run(args):
    if not (ROOT / "src" / "spheregap" / "__init__.py").is_file():
        raise BenchError(f"no spheregap sources under {ROOT / 'src'}")
    workload = workloads.WORKLOADS[args.workload](random.Random(args.seed))
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work_dir = OUT / f"{tag}.tmp"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir()
    env = child_env()
    try:
        _, info = setup_probe(env)  # warm-up: compiles the .pyc files of a fresh checkout
        probes = []
        runner_type = CliRunner if isinstance(workload, workloads.CliWorkload) else EigenRunner
        runner = runner_type(workload, work_dir, env)

        # With --trace 1 one untraced round comes first, as the baseline of the
        # overhead. The rounds take setup probes as they go, so that setup_s
        # samples the whole run. A new round starts only if it is expected to end
        # less than half a round after --seconds, which keeps runs near
        # their length when the host is slow.
        rounds = []  # (wall seconds, op records, trace dir or None)
        start, step = time.perf_counter(), 0.0  # step: seconds of the last round and its probes
        while len(rounds) < 1 + args.trace or time.perf_counter() - start + 0.5 * step < args.seconds:
            step_start = time.perf_counter()
            trace_dir = work_dir / f"trace{len(rounds)}" if args.trace and rounds else None
            if trace_dir is not None:
                trace_dir.mkdir()
            wall, ops = runner.round(len(rounds), trace_dir, lambda: probes.append(setup_probe(env)[0]))
            rounds.append((wall, ops, trace_dir))
            step = time.perf_counter() - step_start
        while len(probes) < SETUP_PROBES:
            probes.append(setup_probe(env)[0])
        reruns = runner.reruns(len(rounds))

        records = [rec for _, ops, _ in rounds for rec in ops] + reruns
        failures, missed = [], False
        for rec in records:
            message, miss = runner.evaluate(rec)
            missed |= miss
            if message:
                failures.append(message)

        plain = [(wall, ops) for wall, ops, trace_dir in rounds if trace_dir is None]
        if args.trace:
            traced = [(ops, trace_dir) for _, ops, trace_dir in rounds if trace_dir is not None]
            traces = [json.loads(p.read_text()) for _, d in traced for p in sorted(d.glob("*.json"))]
            overhead = (statistics.median(w for w, _, d in rounds if d is not None) - plain[0][0])
            metrics = layer_metrics(traces, len(traced),
                                    sum(runner.stdout_bytes(ops) for ops, _ in traced), overhead)
        else:
            metrics = {
                "setup_s": statistics.median(probes),
                "wall_s": statistics.median(w for w, _ in plain),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
            }
            metrics = {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END}
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    result = {"correct": not missed, "attempted": len(records), "failed": len(failures),
              "metrics": metrics}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "provenance": {
            "git_sha": git_sha(), "src_sha256": src_digest(),
            "python": platform.python_version(), "numpy": info["numpy"], "scipy": info["scipy"],
            "kernel_backend": info["kernel_backend"], "cpu_count": os.cpu_count(),
            "SPHEREGAP_THREADS": env["SPHEREGAP_THREADS"], "platform": platform.platform(),
        },
        "setup_probes_s": probes,
        "rounds": [{"wall_s": wall, "traced": trace_dir is not None,
                    "op_s": [rec["seconds"] for rec in ops]} for wall, ops, trace_dir in rounds],
        "rerun_s": [rec["seconds"] for rec in reruns],
        "failures": failures[:50],
        "result": result,
    }
    record_path = OUT / f"{tag}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n")
    for message in failures[:5]:
        print(f"perfbench: failed: {message}", file=sys.stderr)
    print(f"perfbench: record in {record_path.relative_to(ROOT)}")
    print(json.dumps(result))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)


if __name__ == "__main__":
    main()
