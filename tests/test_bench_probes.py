"""The traced benchmark's probes still find every name they patch.

``bench/spans.py`` replaces module attributes of the package by name, so a
renamed or removed function breaks the traced benchmark run without failing
any other fast test.  ``install`` patches the package for the life of the
process, so the probe run happens in a child interpreter.  One probe runs
the CLI's verify-ball and diagnose, the ball3d-cli workload's commands, so a
change to the field dump or its loader that breaks the traced run fails here.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PROBE_RUN = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import spans
from levelpde import (BoundaryData, EllipticOperator, ProfileFunction,
                      build_ball, build_box, domain_measure, outerloop)

recorder = spans.Recorder()
spans.install(recorder)
if sys.argv[3] == "disk":
    grid = build_ball((0.0, 0.0), 1.0, 1 / 4)
    op = EllipticOperator.pucci_minus(1.0, 2.0)
elif sys.argv[3] == "ball3d":
    grid = build_ball((0.0, 0.0, 0.0), 1.0, 1 / 4)
    op = EllipticOperator.laplacian()
else:
    grid = build_box([(-1.0, 1.0)], 1 / 64)
    op = EllipticOperator.laplacian()
g = ProfileFunction.linear(-1.0, 0.0, domain_measure(grid))
u, report = recorder.call("outerloop.solve_nonlocal", outerloop.solve_nonlocal,
                          op, grid, g, BoundaryData.zero())
recorder.reports.append(report)
metrics = {k: v for k, (v, _) in spans.layer_metrics(recorder).items()}
print(json.dumps({"status": report.status, "nested": recorder.nested(),
                  "metrics": metrics}))
"""


# The ball3d-cli workload's two commands, on a coarse grid: verify-ball
# writes the field dump and diagnose loads it back.
CLI_RUN = """
import json, os, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import spans
from levelpde import cli

recorder = spans.Recorder()
spans.install(recorder)
dump = os.path.join(sys.argv[3], "u.txt")
base = ("domain.type = ball\\ndomain.center = 0,0,0\\ndomain.radius = 1.0\\n"
        "grid.h = 0.25\\noperator.kind = laplacian\\nprofile.kind = linear\\n"
        "profile.a = -1\\nprofile.b = 0\\nboundary.kind = zero\\n")
codes = []
for command, key in (("verify-ball", "output.field"), ("diagnose", "diagnose.field")):
    path = os.path.join(sys.argv[3], command + ".cfg")
    with open(path, "w") as fh:
        fh.write(base + f"{key} = {dump}\\n")
    codes.append(cli.main([command, path]))
metrics = {k: v for k, (v, _) in spans.layer_metrics(recorder).items()}
print(json.dumps({"codes": codes, "nested": recorder.nested(),
                  "dump_bytes": os.path.getsize(dump), "metrics": metrics}))
"""


def run_child(script: str, *args: str) -> dict:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    done = subprocess.run(
        [sys.executable, "-c", script, str(ROOT / "bench"), str(ROOT / "src"), *args],
        capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def probe_run(domain: str) -> dict:
    out = run_child(PROBE_RUN, domain)
    assert out["status"] == "Converged" and out["nested"]
    return out["metrics"]


def assert_one_solve_per_iterate(metrics: dict, factorizations: int = 1):
    # The solve ran through the probes: one plain right-hand side per
    # iterate, the start included, and the grid's one factorization.
    assert metrics["outerloop.iterations"] >= 1
    assert metrics["measure.rhs_plain.calls"] == metrics["outerloop.iterations"] + 1
    assert metrics["elliptic.factorizations"] == factorizations


def test_layer_metrics_cover_the_benchmark_after_install():
    metrics = probe_run("disk")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    run_level = {"trace_overhead_s", "failed_fraction"}
    wanted = {m["name"] for m in declared} - run_level
    assert wanted <= set(metrics)
    assert_one_solve_per_iterate(metrics)


def test_probes_follow_the_1d_driver():
    # The probes count SuperLU's factorizations and solves; a 1-D grid's
    # Laplacian LU is LAPACK's tridiagonal one, so they see none.
    metrics = probe_run("interval")
    assert_one_solve_per_iterate(metrics, factorizations=0)
    assert metrics["elliptic.lu_solves"] == 0


def test_probes_follow_the_sector_lu():
    # The 3-D ball's LU factors its mirror sectors on first use: the
    # problem is mirror-symmetric, so one factorization, of the even block,
    # and one triangular solve per inner solve with a nonzero right side
    # (the torsion bound and one per iterate; the homogeneous start's right
    # side is zero and needs none).
    metrics = probe_run("ball3d")
    assert_one_solve_per_iterate(metrics)
    assert metrics["elliptic.lu_solves"] == metrics["outerloop.iterations"] + 1


def test_probes_follow_the_cli_field_dump(tmp_path):
    # The traced ball3d-cli run times the dump's write and load, and counts
    # the bytes the loader read.
    out = run_child(CLI_RUN, str(tmp_path))
    assert out["codes"] == [0, 0] and out["nested"]
    metrics = out["metrics"]
    assert metrics["cli.format_field.s"] > 0 and metrics["cli.load_field.s"] > 0
    assert metrics["cli.bytes_read"] == out["dump_bytes"]
