"""Library driver of the eigenfunctions workload: one round in one process.

    python3 perfbench/eigen_driver.py JOBS_JSON RESULT_JSON

Each job is one (domain, beta, mode): normalization_constant, then one
scalar eigenfunction_eval call per point, all through the public API. The
result holds the normalized values, the seconds of each job and of the
whole list, and the error of a job that raised SphereGapError.
"""
import json
import sys
import time
from pathlib import Path

import spheregap


def run(jobs):
    results = []
    start = time.perf_counter()
    for job in jobs:
        spec_type = spheregap.LuneSpec if job["domain"] == "lune" else spheregap.TriangleSpec
        spec, mode = spec_type(job["beta"]), spheregap.ModeIndex(job["k"], job["j"])
        job_start = time.perf_counter()
        try:
            c = spheregap.normalization_constant(spec, mode)
            values = [c * spheregap.eigenfunction_eval(spec, mode, r, theta)
                      for r, theta in job["points"]]
            error = None
        except spheregap.SphereGapError as exc:
            values, error = None, f"{type(exc).__name__}: {exc}"
        results.append({"seconds": time.perf_counter() - job_start, "values": values, "error": error})
    return {"wall": time.perf_counter() - start, "jobs": results}


def main(argv):
    jobs_path, result_path = argv
    result = run(json.loads(Path(jobs_path).read_text()))
    Path(result_path).write_text(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
