"""Span and count recorder for the traced benchmark run.

Tracing is done from outside the package: each probe replaces a public name
in the namespace of the module that calls it.  The package binds imported
names at import time (``from .elliptic import solve_dirichlet``), so patching
the defining module alone would miss every caller.  Nothing under ``src/`` is
changed, and the probes only time and count: they return what the wrapped
call returned (the LU object is wrapped in a proxy that forwards ``solve``).
"""

from __future__ import annotations

import functools
import os
import time
from collections import Counter


class Recorder:
    """Spans (name, start, end, parent index) and named counters, in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.reports: list = []
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        if not self._stack or self._stack[-1] != index:
            raise RuntimeError("span closed out of order")
        self._stack.pop()
        self.spans[index][2] = time.perf_counter()

    def call(self, name: str, fn, *args, **kwargs):
        index = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(index)

    def wrap(self, module, attr: str, name: str, inside=None, after=None) -> None:
        """Replace ``module.attr`` by a timed wrapper.

        ``inside(result)`` runs within the span, ``after(result, args)``
        outside it.
        """
        original = getattr(module, attr)

        @functools.wraps(original)
        def probe(*args, **kwargs):
            index = self.open(name)
            try:
                result = original(*args, **kwargs)
                if inside is not None:
                    inside(result)
            finally:
                self.close(index)
            if after is not None:
                after(result, args)
            return result

        setattr(module, attr, probe)

    # -- summaries ------------------------------------------------------------

    def nested(self) -> bool:
        """Every closed span lies inside its parent's interval."""
        for name, start, end, parent in self.spans:
            if end is None or end < start:
                return False
            if parent >= 0:
                p_start, p_end = self.spans[parent][1], self.spans[parent][2]
                if p_end is None or start < p_start or end > p_end:
                    return False
        return True

    def total(self, name: str) -> tuple[int, float, float]:
        """(calls, seconds, self seconds) over all spans of one name."""
        child_time = [0.0] * len(self.spans)
        for name_i, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls, seconds, own = 0, 0.0, 0.0
        for i, (name_i, start, end, _) in enumerate(self.spans):
            if name_i == name:
                calls += 1
                seconds += end - start
                own += end - start - child_time[i]
        return calls, seconds, own

    def count_within(self, name: str, ancestor: str) -> int:
        """Spans of ``name`` with an ``ancestor`` span above them."""
        found = 0
        for name_i, _, _, parent in self.spans:
            if name_i != name:
                continue
            while parent >= 0:
                if self.spans[parent][0] == ancestor:
                    found += 1
                    break
                parent = self.spans[parent][3]
        return found

    def step_intervals_ms(self) -> list[float]:
        """Outer-step durations: gaps between successive smoothed right-hand
        sides inside one nonlocal solve (each outer step starts with one)."""
        out: list[float] = []
        for root, (name, _, _, _) in enumerate(self.spans):
            if name != "outerloop.solve_nonlocal":
                continue
            starts = [s[1] for s in self.spans
                      if s[0] == "measure.rhs_smoothed" and self._under(s, root)]
            out += [1e3 * (b - a) for a, b in zip(starts, starts[1:])]
        return out

    def _under(self, span, root: int) -> bool:
        parent = span[3]
        while parent >= 0:
            if parent == root:
                return True
            parent = self.spans[parent][3]
        return False


class _LUProxy:
    """Forwards to a SuperLU object and times its triangular solves."""

    def __init__(self, lu, recorder: Recorder):
        self._lu = lu
        self._recorder = recorder

    def solve(self, *args, **kwargs):
        return self._recorder.call("elliptic.lu_solve", self._lu.solve,
                                   *args, **kwargs)

    def __getattr__(self, attr):
        return getattr(self._lu, attr)


def install(recorder: Recorder) -> None:
    """Patch every public call site the per-layer split reads."""
    from levelpde import cli, elliptic, measure, outerloop, verify

    def keep_report(result, args):
        recorder.reports.append(result[1])

    def build_plan(grid):
        grid.plan  # the stencil plan is lazy; build it inside the span

    for mod, names in ((cli, ("build_ball", "build_box", "build_annulus")),
                       (verify, ("build_ball",))):
        for attr in names:
            recorder.wrap(mod, attr, "geometry.build", inside=build_plan)
    for mod in (elliptic, measure, cli):
        recorder.wrap(mod, "build_trace", "geometry.build_trace")

    recorder.wrap(outerloop, "rhs_smoothed", "measure.rhs_smoothed")
    recorder.wrap(outerloop, "rhs_plain", "measure.rhs_plain")

    recorder.wrap(outerloop, "solve_dirichlet", "elliptic.solve_dirichlet")
    original_splu = elliptic.splu
    elliptic.splu = functools.wraps(original_splu)(
        lambda *a, **k: _LUProxy(
            recorder.call("elliptic.factorize", original_splu, *a, **k),
            recorder))
    recorder.wrap(elliptic, "hessian_field", "elliptic.hessian_field")
    for mod in (elliptic, outerloop):
        recorder.wrap(mod, "apply_operator", "elliptic.apply_operator")

    for mod in (cli, verify):
        recorder.wrap(mod, "solve_nonlocal", "outerloop.solve_nonlocal",
                      after=keep_report)
    recorder.wrap(outerloop, "plain_residual_parts", "outerloop.residual")

    recorder.wrap(cli, "barrier_comparison_check", "verify.barrier_check")
    recorder.wrap(cli, "flat_region_detector", "verify.flat_region")
    for mod in (cli, verify):
        recorder.wrap(mod, "exact_ball_solution", "verify.exact_solution")

    def count_written(result, args):
        recorder.counts["cli.bytes_written"] += len(args[1].encode())

    def count_read(result, args):
        recorder.counts["cli.bytes_read"] += os.path.getsize(args[0])

    recorder.wrap(cli, "parse_config", "cli.parse_config")
    recorder.wrap(cli, "format_field", "cli.format_field")
    recorder.wrap(cli, "format_report", "cli.format_report")
    recorder.wrap(cli, "atomic_write", "cli.atomic_write", after=count_written)
    recorder.wrap(cli, "load_field", "cli.load_field", after=count_read)


def _quantile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (pos - lo) * (ordered[hi] - ordered[lo])


def layer_metrics(recorder: Recorder) -> dict[str, tuple[float, str]]:
    """Per-layer numbers of one traced operation (setup included), with units."""
    r = recorder
    m: dict[str, float] = {}

    m["geometry.build_s"] = r.total("geometry.build")[1]
    calls, sec, _ = r.total("geometry.build_trace")
    m["geometry.build_trace.calls"] = calls
    m["geometry.build_trace.s"] = sec

    for key in ("rhs_smoothed", "rhs_plain"):
        calls, sec, _ = r.total(f"measure.{key}")
        m[f"measure.{key}.calls"] = calls
        m[f"measure.{key}.s"] = sec

    solves, sec, own = r.total("elliptic.solve_dirichlet")
    m["elliptic.solve_dirichlet.calls"] = solves
    m["elliptic.solve_dirichlet.s"] = sec
    m["elliptic.solve_dirichlet.self_s"] = own
    calls, sec, _ = r.total("elliptic.factorize")
    m["elliptic.factorizations"] = calls
    m["elliptic.factorize_s"] = sec
    m["elliptic.factorizations_per_solve"] = calls / solves if solves else 0.0
    calls, sec, _ = r.total("elliptic.lu_solve")
    m["elliptic.lu_solves"] = calls
    m["elliptic.lu_solve_s"] = sec
    calls, sec, _ = r.total("elliptic.hessian_field")
    m["elliptic.hessian_field.calls"] = calls
    m["elliptic.hessian_field.s"] = sec
    calls, _, own = r.total("elliptic.apply_operator")
    m["elliptic.apply_operator.calls"] = calls
    m["elliptic.apply_operator.self_s"] = own
    inner = r.count_within("elliptic.apply_operator", "elliptic.solve_dirichlet")
    m["elliptic.pseudo_time_sweeps"] = inner - solves

    iterations = stages = skipped = halvings = wasted = 0
    for rep in r.reports:
        iterations += rep.total_iterations
        stages += len(rep.stage_seconds)
        halvings += sum("damping ->" in note for note in rep.notes)
        skipped_eps = {note.split("eps=")[1].split()[0] for note in rep.notes
                       if "skipped after stagnation" in note}
        skipped += len(skipped_eps)
        wasted += sum(f"{rec.epsilon:.3e}" in skipped_eps for rec in rep.records)
    m["outerloop.iterations"] = iterations
    m["outerloop.stages"] = stages
    m["outerloop.stages_skipped"] = skipped
    m["outerloop.damping_halvings"] = halvings
    m["outerloop.wasted_iterations"] = wasted
    m["outerloop.self_s"] = r.total("outerloop.solve_nonlocal")[2]
    calls, sec, _ = r.total("outerloop.residual")
    m["outerloop.residual.calls"] = calls
    m["outerloop.residual.s"] = sec
    steps = r.step_intervals_ms()
    m["outerloop.step_ms.p50"] = _quantile(steps, 0.5)
    m["outerloop.step_ms.p90"] = _quantile(steps, 0.9)
    m["outerloop.final_plain_residual"] = (
        r.reports[-1].final_plain_residual if r.reports else 0.0)

    for name in ("convergence_order_study", "barrier_check", "flat_region",
                 "exact_solution"):
        m[f"verify.{name}.s"] = r.total(f"verify.{name}")[1]

    for name in ("parse_config", "format_field", "format_report",
                 "atomic_write", "load_field"):
        m[f"cli.{name}.s"] = r.total(f"cli.{name}")[1]
    m["cli.bytes_written"] = r.counts["cli.bytes_written"]
    m["cli.bytes_read"] = r.counts["cli.bytes_read"]
    return {key: (value, _unit(key)) for key, value in m.items()}


def _unit(key: str) -> str:
    if key.startswith("outerloop.step_ms."):
        return "ms"
    if key.endswith((".s", "_s")):
        return "s"
    if key.startswith("cli.bytes_"):
        return "B"
    if key.endswith("_per_solve"):
        return "ratio"
    if key.endswith("_residual"):
        return "1"
    return "count"
