"""levelpde benchmark: time to a checked solution on three workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each operation runs in its own fresh
interpreter (``worker.py``), one at a time, with BLAS and OpenMP pinned to
one thread; operations are repeated until ``--seconds`` have passed (a
closed loop with one client).  Seed 0 is the canonical unit radius; another
seed draws RADII_PER_RUN radii (half-lengths in 1-D) within +-1.3 %, the
range in which the 3-D ball and the disk were confirmed to converge, and
untraced operations cycle through them.  The jitter changes the node count,
the Shortley-Weller offsets and the closed-form reference; the outer
iteration count jumps on some radii (193 -> 233 on the 3-D ball near
r = 1.003), so a run's median over several radii keeps one such radius from
setting the run's result.  Traced runs use the first radius only, so that
their exact counts can be compared operation by operation.

Workloads (see BENCHMARK.json for why each was chosen):

* ``ball3d-cli``      ``levelpde verify-ball`` then ``levelpde diagnose`` on
                      the 3-D unit ball, Laplacian, h = 1/10, via ``cli.main``
* ``disk-pucci``      ``solve_nonlocal`` on the unit disk, Pucci-minus(1, 2),
                      h = 1/32
* ``interval-study``  ``convergence_order_study`` on (-1, 1), Laplacian,
                      h = 1/128 ... 1/4096

With ``--trace 0`` the last line reports the end-to-end metrics; with
``--trace 1`` untraced and traced operations alternate and the last line
reports the per-layer split of the traced ones.  Earlier lines are a human
summary; the full record (machine facts included) is written to
``.bench_out/<workload>-seed<N>-trace<T>.json``.  Exit code 0 means the run
completed; a failed output check still exits 0 but reports it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT = ROOT / ".bench_out"

WORKLOADS = ("ball3d-cli", "disk-pucci", "interval-study")
JITTER = 0.013
RADII_PER_RUN = 3
MIN_OPS = 3          # untraced operations per run, at least
MIN_SETUPS = 5       # set-up samples per run, at least
MIN_TRACED = 2       # traced operations per traced run, at least
DEADLINE_S = 165.0   # start no operation that may end after this
# Host-speed calibration.  Every operation is bracketed by a fixed numpy/scipy
# kernel (worker._calibrate); solve_s is the operation's wall time scaled by
# CALIBRATION_REF_S / (that kernel's time), and setup_s is scaled by the
# kernel run right after set-up.  On a shared 2-core Xeon VM the host's speed
# drifted by 30-50 % within minutes; the scaling cancels most of that drift.
# CALIBRATION_REF_S is about the kernel's time on that VM (Python 3.11.7,
# numpy 2.4.6, scipy 1.17.1), so the scaled times read as seconds there; the
# unscaled ones are kept in the run record.
CALIBRATION_REF_S = 0.2
# Counts a traced operation must repeat exactly.
EXACT_COUNTS = ("outerloop.iterations", "elliptic.factorizations",
                "elliptic.lu_solves", "geometry.build_trace.calls",
                "elliptic.solve_dirichlet.calls", "elliptic.hessian_field.calls")


def radii_for(seed: int) -> list[float]:
    if seed == 0:
        return [1.0] * RADII_PER_RUN
    rng = random.Random(seed)
    return [1.0 + JITTER * (2.0 * rng.random() - 1.0)
            for _ in range(RADII_PER_RUN)]


def machine_facts() -> dict:
    facts = {"nproc": os.cpu_count(), "platform": platform.platform()}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                facts["cpu_model"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = {}
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache_dir.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}-{kind}"] = (index / "size").read_text().strip()
        except OSError:
            pass
    facts["caches"] = caches
    facts["commit"] = _commit()
    return facts


def _commit() -> str:
    """HEAD of the checkout when it is a git work tree, read without git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


class Runner:
    """Starts workers one at a time and keeps the run inside its deadline."""

    def __init__(self, args):
        self.args = args
        self.start = time.monotonic()
        self.longest = 0.0
        self.env = dict(os.environ)
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
            self.env[var] = "1"
        # levelpde comes from the checkout's src/; bytecode caching stays on,
        # as for an installed package (the warm-up worker writes the cache).
        for var in ("PYTHONPATH", "PYTHONDONTWRITEBYTECODE"):
            self.env.pop(var, None)

    def elapsed(self) -> float:
        return time.monotonic() - self.start

    def room(self) -> bool:
        return self.elapsed() + 1.5 * self.longest < DEADLINE_S

    def worker(self, mode: str, trace: bool, radius: float,
               outdir: Path) -> dict | None:
        outdir.mkdir(parents=True, exist_ok=True)
        spec = {"workload": self.args.workload, "radius": radius,
                "scale": self.args.scale, "mode": mode, "trace": trace,
                "outdir": str(outdir)}
        cmd = [sys.executable, str(BENCH_DIR / "worker.py"), json.dumps(spec)]
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env,
                                stdout=subprocess.PIPE, text=True)
        try:
            stdout, _ = proc.communicate(timeout=max(1.0, 175.0 - self.elapsed()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return None
        finally:
            self.longest = max(self.longest, time.monotonic() - spawned)
        if proc.returncode != 0:
            if proc.returncode == 3:   # levelpde is not importable here
                sys.exit(3)
            return None
        result = json.loads(stdout.strip().splitlines()[-1])
        result["radius"] = radius
        result["setup_wall_s"] = result["ready"] - spawned
        result["setup_s"] = (result["setup_wall_s"] * CALIBRATION_REF_S
                             / result["setup_calibration_s"])
        return result


def _median(values):
    return statistics.median(values) if values else 0.0


def _calibrated(results) -> list[float]:
    return [r["solve_s"] * CALIBRATION_REF_S / r["calibration_s"]
            for r in results if r is not None]


def run(args) -> dict:
    runner = Runner(args)
    radii = radii_for(args.seed)
    out = OUT / f"{args.workload}-seed{args.seed}-trace{int(args.trace)}"
    shutil.rmtree(out, ignore_errors=True)
    # Warm-up: compiles the package's bytecode and fills the file cache.
    if runner.worker("setup", False, radii[0], out / "warmup") is None:
        raise SystemExit("bench: warm-up worker failed")

    ops: list[dict | None] = []
    traced: list[dict | None] = []
    k = 0
    while runner.room():
        if args.trace:
            enough = len(traced) >= MIN_TRACED and len(ops) >= 1
        else:
            enough = len(ops) >= MIN_OPS
        if enough and runner.elapsed() >= args.seconds:
            break
        trace_now = bool(args.trace) and k % 2 == 1
        radius = radii[0] if args.trace else radii[k % len(radii)]
        result = runner.worker("op", trace_now, radius, out / f"op{k}")
        (traced if trace_now else ops).append(result)
        k += 1

    setups = [r for r in ops + traced if r is not None]
    while len(setups) < MIN_SETUPS and runner.room():
        probe = runner.worker("setup", False, radii[0],
                              out / f"setup{len(setups)}")
        if probe is not None:
            setups.append(probe)

    # Output checks: every operation passed its own checks, and repeats of
    # the same inputs gave byte-identical output (traced ones included: the
    # probes must not perturb the solve).  A traced operation also fails when
    # its spans do not nest or its exact counts differ from the first one's.
    done = [r for r in ops + traced if r is not None]
    reference = {}
    for r in done:
        reference.setdefault(r["radius"], r["digest"])
    layers = [r["layers"] for r in traced if r is not None]

    def passed(r) -> bool:
        if r is None or not r["ok"] or r["digest"] != reference[r["radius"]]:
            return False
        if "layers" not in r:
            return True
        return r["nested"] and all(r["layers"][key] == layers[0][key]
                                   for key in EXACT_COUNTS)

    attempted = len(ops) + len(traced)
    failed = sum(not passed(r) for r in ops + traced)
    checks = {"deterministic": all(r["digest"] == reference[r["radius"]]
                                   for r in done)}
    if args.trace:
        checks["spans_nested"] = all(r["nested"] for r in traced if r is not None)
        checks["counts_repeat"] = all(
            all(m[key] == layers[0][key] for key in EXACT_COUNTS) for m in layers)
    # failed_fraction counts solves (commands on ball3d-cli): one fails when
    # it does not end Converged (exit 0) or when its operation's checks fail.
    units = done[0]["outcomes"][1] if done else 1
    all_solves = failed_solves = 0
    for r in ops + traced:
        n_units = r["outcomes"][1] if r is not None else units
        all_solves += n_units
        failed_solves += n_units - r["outcomes"][0] if passed(r) else n_units

    untraced = [r for r in ops if r is not None]
    solve_times = [r["solve_s"] for r in untraced]
    calibrated = _calibrated(untraced)
    if not args.trace:
        metrics = {
            "solve_s": (_median(calibrated), "s"),
            "setup_s": (_median([r["setup_s"] for r in setups]), "s"),
            "linf_error": (_median([r["linf_error"] for r in untraced]), "1"),
            "ok_fraction": ((attempted - failed) / attempted, "ratio"),
            "peak_rss_mb": (_median([r["rss_kib"] / 1024.0 for r in untraced]),
                            "MiB"),
        }
    else:
        metrics = {key: (_median([m[key][0] for m in layers]), unit)
                   for key, (_, unit) in (layers[0].items() if layers else ())}
        metrics["trace_overhead_s"] = (
            _median(_calibrated(traced)) - _median(calibrated), "s")
        metrics["failed_fraction"] = (failed_solves / all_solves, "ratio")

    return {
        "workload": args.workload,
        "seed": args.seed,
        "radii": radii,
        "op_radii": [r["radius"] for r in done],
        "scale": args.scale,
        "trace": int(args.trace),
        "seconds": args.seconds,
        "wall_s": runner.elapsed(),
        "samples": {"ops": len(ops), "traced": len(traced), "setups": len(setups)},
        "solve_times_s": solve_times,
        "calibration_s": [r["calibration_s"] for r in untraced],
        "solve_s_uncalibrated": _median(solve_times),
        "setup_wall_s": [r["setup_wall_s"] for r in setups],
        "setup_calibration_s": [r["setup_calibration_s"] for r in setups],
        "outcomes": {"failed": failed_solves, "attempted": all_solves},
        "checks": checks,
        "detail": {str(r["radius"]): r["detail"] for r in reversed(done)},
        "machine": machine_facts(),
        "versions": done[0]["versions"] if done else None,
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full",
                        help="smoke: coarse grids, for the harness's own test")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "levelpde" / "__init__.py").is_file():
        print(f"bench: no levelpde package under {ROOT / 'src'}; run from the "
              "root of a levelpde checkout", file=sys.stderr)
        return 2

    record = run(args)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload={record['workload']} seed={record['seed']} "
          f"radii={record['radii']} trace={record['trace']} "
          f"samples={record['samples']} checks={record['checks']} "
          f"solves_failed={record['outcomes']['failed']}/"
          f"{record['outcomes']['attempted']}")
    print(f"detail: {json.dumps(record['detail'])}")
    print(f"machine: {json.dumps(record['machine'])} {json.dumps(record['versions'])}")
    for key, m in record["metrics"].items():
        print(f"  {key} = {m['value']!r} {m['unit']}")
    print(f"record: {path.relative_to(ROOT)}")
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed",
                                             "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
