"""One benchmark operation in a fresh interpreter.

Started by ``run.py`` with a JSON spec as its only argument.  It pins the
math libraries to one thread, imports ``levelpde`` from the checkout's
``src/``, sets the workload up (config parse, grid and stencil plan, profile
binding), reports the moment it is ready, runs the workload's operation once
unless the spec asks for set-up only, checks the output against the closed
form, and prints one JSON object as the last line of its standard output.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import spans  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

# Grid spacings per scale.  "full" is the benchmark; "smoke" is the coarse
# variant the harness's own test runs.
SPACING = {
    "full": {"ball3d-cli": 1 / 10, "disk-pucci": 1 / 32,
             "interval-study": [1 / 2 ** k for k in range(7, 13)]},
    "smoke": {"ball3d-cli": 1 / 4, "disk-pucci": 1 / 8,
              "interval-study": [1 / 16, 1 / 32]},
}

# Closed-form error bounds, as multiples of h on the checked grid.  The
# baseline errors are 6.4e-3 h (ball3d-cli), 1.2e-2 h (disk-pucci) and
# 0.25-0.5 h (interval-study, whose counting-measure bias is first order).
ERROR_PER_H = {"ball3d-cli": 0.05, "disk-pucci": 0.05, "interval-study": 1.0}

PUCCI = (1.0, 2.0)


def _closed_form(n: int, radius: float, Lam: float, coords):
    """u(x) = omega_n (R^(n+2) - |x|^(n+2)) / (2 n (n+2) Lam): the radial
    solution of F(D^2 u) = -|{u >= u(x)}| with zero data on the ball, for the
    Laplacian (Lam = 1) and Pucci-minus (its Hessian is negative definite)."""
    import numpy as np

    omega = {1: 2.0, 2: math.pi, 3: 4.0 * math.pi / 3.0}[n]
    s = np.linalg.norm(coords, axis=1)
    return omega * (radius ** (n + 2) - s ** (n + 2)) / (2.0 * n * (n + 2) * Lam)


def _config(n: int, radius: float, h: float, extra: str = "") -> str:
    center = ",".join(["0"] * n)
    return (f"domain.type = ball\ndomain.center = {center}\n"
            f"domain.radius = {radius!r}\ngrid.h = {h!r}\n"
            "profile.kind = linear\nprofile.a = -1\nprofile.b = 0\n"
            "boundary.kind = zero\n" + extra)


def _calibrate() -> float:
    """Seconds for a fixed numpy/scipy kernel shaped like the solver's work
    (sparse LU and triangular solves, sorts and many small array operations,
    batched 3x3 eigenvalues).  It does not touch levelpde, so its time moves
    only with the speed of the host."""
    import numpy as np
    import scipy.sparse as sp
    from scipy.sparse.linalg import splu

    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    m = 60
    second = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(m, m))
    eye = sp.identity(m)
    lu = splu((sp.kron(eye, second) + sp.kron(second, eye)).tocsc())
    b = np.ones(m * m)
    for _ in range(40):
        b = lu.solve(b)
        b /= np.max(np.abs(b))
    x = rng.random(4096)
    for _ in range(400):
        order = np.argsort(x, kind="stable")
        x = np.where(x[order] > 0.5, x * 0.999, x + 1e-3)[np.argsort(order)]
    h = rng.random((4096, 3, 3))
    for _ in range(4):
        np.linalg.eigvalsh(h + h.transpose(0, 2, 1))
    return time.perf_counter() - t0


def _digest(*parts: bytes) -> str:
    sha = hashlib.sha256()
    for part in parts:
        sha.update(part)
    return sha.hexdigest()


# ---------------------------------------------------------------------------
# Workloads: set-up returns a state; the operation returns a result dict with
# "ok" (all output checks passed), "outcomes" (solves or commands that ended
# Converged / exit 0, and how many ran), "linf_error", "digest" and "detail".


def _setup(spec, cli):
    """Parse the workload config and build its (finest) grid and profile."""
    name, radius, scale = spec["workload"], spec["radius"], spec["scale"]
    h = SPACING[scale][name]
    if name == "ball3d-cli":
        text = _config(3, radius, h, "operator.kind = laplacian\n")
    elif name == "disk-pucci":
        text = _config(2, radius, h, "operator.kind = pucci_minus\n"
                       f"operator.lambda = {PUCCI[0]!r}\n"
                       f"operator.Lambda = {PUCCI[1]!r}\n")
    else:
        text = _config(1, radius, h[-1], "operator.kind = laplacian\nstudy.h_list = "
                       + ",".join(repr(x) for x in h) + "\n")
    cfg = cli.parse_config(text)
    grid = cfg.build_grid()
    grid.plan
    g = cfg.build_profile(grid)
    return {"cfg": cfg, "text": text, "grid": grid, "g": g, "h": h}


def _op_ball3d_cli(spec, state, cli, recorder):
    out = Path(spec["outdir"])
    files = {k: out / f"{k}.txt" for k in ("field", "report", "table", "diag")}
    verify_cfg = out / "verify.cfg"
    diagnose_cfg = out / "diagnose.cfg"
    verify_cfg.write_text(state["text"] + f"output.field = {files['field']}\n"
                          f"output.report = {files['report']}\n"
                          f"output.table = {files['table']}\n")
    diagnose_cfg.write_text(state["text"] + f"diagnose.field = {files['field']}\n"
                            f"output.report = {files['diag']}\n")

    def main(argv):
        with contextlib.redirect_stdout(io.StringIO()):
            if recorder is None:
                return cli.main(argv)
            return recorder.call("cli.main", cli.main, argv)

    t0 = time.perf_counter()
    codes = [main(["verify-ball", str(verify_cfg)]),
             main(["diagnose", str(diagnose_cfg)])]
    solve_s = time.perf_counter() - t0

    # Independent check of the dump: closed form at every Interior node.
    import numpy as np

    lines = files["field"].read_text().splitlines()
    head = dict(tok.split("=", 1) for tok in lines[0][2:].split())
    h = float(head["h"])
    origin = np.array([float(o) for o in head["origin"].split(",")])
    idx, vals = [], []
    for line in lines[1:]:
        index, cls, value = line.split()
        if cls == "Interior":
            idx.append([int(i) for i in index.split(",")])
            vals.append(float(value))
    coords = origin + h * np.array(idx, dtype=np.float64)
    err = float(np.max(np.abs(np.array(vals)
                              - _closed_form(3, spec["radius"], 1.0, coords))))
    table = dict(line.split(" = ", 1)
                 for line in files["table"].read_text().splitlines())
    ok = (codes == [0, 0]
          and err <= ERROR_PER_H[spec["workload"]] * h
          and int(table["n_interior"]) == len(vals)
          and abs(float(table["linf_error"]) - err) <= 1e-12 * max(err, 1e-300))
    return {
        "solve_s": solve_s,
        "ok": ok,
        "outcomes": [sum(c == 0 for c in codes), len(codes)],
        "linf_error": err,
        "digest": _digest(*(files[k].read_bytes() for k in
                            ("report", "field", "table", "diag"))),
        "detail": {"exit_codes": codes, "n_interior": len(vals),
                   "status": table["status"]},
    }


def _op_disk_pucci(spec, state, cli, recorder):
    import numpy as np
    from levelpde import BoundaryData, outerloop

    cfg, grid, g = state["cfg"], state["grid"], state["g"]
    args = (cfg.build_operator(), grid, g, BoundaryData.zero(), cfg.build_outer())
    t0 = time.perf_counter()
    if recorder is None:
        u, report = outerloop.solve_nonlocal(*args)
    else:
        u, report = recorder.call("outerloop.solve_nonlocal",
                                  outerloop.solve_nonlocal, *args)
        recorder.reports.append(report)
    solve_s = time.perf_counter() - t0
    exact = _closed_form(2, spec["radius"], PUCCI[1], grid.interior_coords)
    err = float(np.max(np.abs(u.interior - exact)))
    records = repr([tuple(vars(rec).values()) for rec in report.records])
    ok = report.status == "Converged" and err <= ERROR_PER_H[spec["workload"]] * grid.h
    return {
        "solve_s": solve_s,
        "ok": ok,
        "outcomes": [int(report.status == "Converged"), 1],
        "linf_error": err,
        "digest": _digest(report.status.encode(), records.encode(),
                          np.ascontiguousarray(u.values).tobytes()),
        "detail": {"status": report.status, "iterations": report.total_iterations,
                   "n_interior": grid.n_interior},
    }


def _op_interval_study(spec, state, cli, recorder):
    from levelpde import EllipticOperator, StudyProblem, verify

    problem = StudyProblem(center=(0.0,), radius=spec["radius"],
                           op=EllipticOperator.laplacian())
    h_list = state["h"]
    t0 = time.perf_counter()
    if recorder is None:
        rows = verify.convergence_order_study(problem, h_list)
    else:
        rows = recorder.call("verify.convergence_order_study",
                             verify.convergence_order_study, problem, h_list)
    solve_s = time.perf_counter() - t0
    # Interior nodes of the symmetric 1-D lattice: |k h| < L.
    expected_n = [2 * math.ceil(spec["radius"] / h) - 1 for h in h_list]
    ok = ([r.n_interior for r in rows] == expected_n
          and all(r.error <= ERROR_PER_H[spec["workload"]] * r.h for r in rows))
    converged = sum(r.status == "Converged" for r in rows)
    finest, coarser = rows[-1], rows[-2]
    order = math.log2(coarser.error / finest.error)
    return {
        "solve_s": solve_s,
        "ok": ok,
        "outcomes": [converged, len(rows)],
        "linf_error": finest.error,
        "digest": _digest(repr([tuple(vars(r).values()) for r in rows]).encode()),
        "detail": {"statuses": [r.status for r in rows],
                   "errors": [r.error for r in rows],
                   "n_interior": [r.n_interior for r in rows],
                   "observed_order": order},
    }


OPERATIONS = {
    "ball3d-cli": _op_ball3d_cli,
    "disk-pucci": _op_disk_pucci,
    "interval-study": _op_interval_study,
}


def main() -> int:
    spec = json.loads(sys.argv[1])
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import levelpde
        from levelpde import cli
    except ImportError as err:
        print(f"bench worker: cannot import levelpde from {src}: {err}",
              file=sys.stderr)
        return 3
    if Path(levelpde.__file__).resolve().parent.parent != src.resolve():
        print(f"bench worker: levelpde imported from {levelpde.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 3

    recorder = None
    if spec["trace"]:
        recorder = spans.Recorder()
        spans.install(recorder)

    state = _setup(spec, cli)
    ready = time.monotonic()
    before = _calibrate()
    result = {"ready": ready, "setup_calibration_s": before}
    if spec["mode"] == "op":
        result.update(OPERATIONS[spec["workload"]](spec, state, cli, recorder))
        result["calibration_s"] = 0.5 * (before + _calibrate())
    result["rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if recorder is not None:
        result["layers"] = spans.layer_metrics(recorder)
        result["nested"] = recorder.nested()
    import numpy
    import scipy

    result["versions"] = {"python": sys.version.split()[0],
                          "numpy": numpy.__version__, "scipy": scipy.__version__}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
