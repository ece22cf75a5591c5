"""Span recording around channellab's public names, from outside the package.

Nothing in ``src/channellab`` knows about tracing.  A traced benchmark pass
replaces names at the place each caller looks them up: a function called as
``geo.inverse_k(...)`` or as a module global is replaced on its module, and a
name bound by ``from x import y`` is replaced in every importing module
separately (``ns_solver.splu`` and ``functional_inequalities.splu`` are two
patch points).  Each wrapped call records one span (name, start, end, parent)
in memory; the spans are written out when the pass ends.

A patch point whose name no longer exists is reported as *missing*; a metric
whose every patch point is missing is reported as ``None``, never as 0.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import time
from collections import defaultdict

# (patch point, layer).  The patch point is "<module>:<attribute path>"; a
# dotted path replaces the first component with a proxy whose last component
# is wrapped (``geometry:integrate.quad`` wraps ``quad`` only as geometry
# sees it).  The layer is the package module whose work the span measures.
PATCH_POINTS = (
    ("cli_io:parse_scenario", "cli_io"),
    ("cli_io:write_csv", "cli_io"),
    ("cli_io:write_svg_plot", "cli_io"),
    ("cli_io:write_field_file", "cli_io"),
    ("cli_io:write_manifest", "cli_io"),
    ("estimate_harness:padded_solve", "estimate_harness"),
    ("estimate_harness:growth_scan", "estimate_harness"),
    ("estimate_harness:decay_scan", "estimate_harness"),
    ("estimate_harness:poiseuille_convergence", "estimate_harness"),
    ("estimate_harness:hat_energy_inequality", "estimate_harness"),
    ("estimate_harness:uniqueness_probe", "estimate_harness"),
    ("ns_solver:solve_steady", "ns_solver"),
    ("ns_solver:solve_stokes", "ns_solver"),
    ("ns_solver:picard_step", "ns_solver"),
    ("ns_solver:splu", "ns_solver"),
    ("ns_solver:residual_norm", "ns_solver"),
    ("ns_solver:boundary_defect", "ns_solver"),
    ("ns_solver:dirichlet_energy", "ns_solver"),
    ("ns_solver:weighted_energy", "ns_solver"),
    ("ns_solver:make_grid", "geometry"),
    ("ns_solver:assemble_q1", "_fem"),
    ("ns_solver:assemble_grad_load", "_fem"),
    ("ns_solver:fc.stream_G", "flux_carrier"),
    ("ns_solver:fc.carrier_vorticity", "flux_carrier"),
    ("geometry:make_grid", "geometry"),
    ("geometry:classify", "geometry"),
    ("geometry:validate", "geometry"),
    ("geometry:inverse_k", "geometry"),
    ("geometry:weight_integral", "geometry"),
    ("geometry:integrate.quad", "geometry"),
    ("geometry:optimize.brentq", "geometry"),
    ("geometry:parse_expression", "expressions"),
    ("flux_carrier:carrier_volume_integral", "flux_carrier"),
    ("flux_carrier:support_and_bounds_report", "flux_carrier"),
    ("flux_carrier:slice_flux", "flux_carrier"),
    ("flux_carrier:grad_g", "flux_carrier"),
    ("flux_carrier:velocity_g", "flux_carrier"),
    ("functional_inequalities:splu", "functional_inequalities"),
    ("functional_inequalities:make_grid", "geometry"),
    ("functional_inequalities:assemble_q1", "_fem"),
    ("functional_inequalities:assemble_div", "_fem"),
    ("functional_inequalities:poincare_m0", "functional_inequalities"),
    ("functional_inequalities:poincare_m1", "functional_inequalities"),
    ("functional_inequalities:sobolev_m4", "functional_inequalities"),
    ("functional_inequalities:bogovskii_m5", "functional_inequalities"),
    ("comparison_lemmas:PsiSpec.inverse", "comparison_lemmas"),
    ("comparison_lemmas:optimize.brentq", "comparison_lemmas"),
    ("comparison_lemmas:solve_majorant", "comparison_lemmas"),
    ("comparison_lemmas:check_hypotheses", "comparison_lemmas"),
    ("comparison_lemmas:comparison_conclude", "comparison_lemmas"),
)

# Patch points whose return value is a sparse factor: its ``solve`` calls
# are recorded as child patch points "<point>.solve" (back-solves).
FACTOR_POINTS = ("ns_solver:splu", "functional_inequalities:splu")

# A workload opens its own spans around its calls into the program:
# "bench:pass" for the timed window (layer ``bench``, the benchmark's glue)
# and "cli_io:main[<command>]" around each CLI command.
CLI_COMMANDS = (
    "carrier-check", "solve", "growth-scan", "decay-scan",
    "poiseuille", "constants", "comparison", "report",
)

_WRITERS = ("cli_io:write_csv", "cli_io:write_svg_plot",
            "cli_io:write_field_file", "cli_io:write_manifest")


_POINT_LAYERS = dict(PATCH_POINTS)


def _installed_point(point):
    """The patch point a recorded point comes from (back-solves: the factor)."""
    base = point[: -len(".solve")] if point.endswith(".solve") else point
    return base if base in FACTOR_POINTS else point


def _layer_of_point(point):
    return _POINT_LAYERS.get(_installed_point(point), point.split(":", 1)[0])


def _calls(name):
    return ("calls", (name,))


def _time(*names):
    return ("time", names)


# Per-layer metrics: name -> (unit, better, kind, patch points).  ``kind`` is
# "calls" (number of wrapped calls), "time" (summed span time), "self" (the
# layer's self time), or a special handled in ``derive_metrics``.
METRICS = {
    "ns_solver.factorizations": ("count", "lower", *_calls("ns_solver:splu")),
    "ns_solver.factor_s": ("s", "lower", *_time("ns_solver:splu")),
    "ns_solver.back_solves": ("count", "lower", *_calls("ns_solver:splu.solve")),
    "ns_solver.picard_iterations": ("count", "lower", *_calls("ns_solver:picard_step")),
    "ns_solver.solve_steady_calls": ("count", "lower", *_calls("ns_solver:solve_steady")),
    "ns_solver.factorizations_per_solve": (
        "ratio", "lower", "per_solve",
        ("ns_solver:splu", "ns_solver:solve_steady", "ns_solver:solve_stokes")),
    "ns_solver.residual_evals": (
        "count", "lower", "calls", ("ns_solver:residual_norm", "ns_solver:boundary_defect")),
    "ns_solver.residual_s": (
        "s", "lower", "time", ("ns_solver:residual_norm", "ns_solver:boundary_defect")),
    "ns_solver.energy_s": (
        "s", "lower", "time", ("ns_solver:dirichlet_energy", "ns_solver:weighted_energy")),
    "ns_solver.self_s": ("s", "lower", "self", ()),
    "estimate_harness.padded_solves": (
        "count", "lower", *_calls("estimate_harness:padded_solve")),
    "estimate_harness.distinct_solve_ratio": (
        "ratio", "higher", "distinct", ("ns_solver:solve_steady",)),
    "estimate_harness.hat_energy_s": (
        "s", "lower", *_time("estimate_harness:hat_energy_inequality")),
    "estimate_harness.uniqueness_probe_s": (
        "s", "lower", *_time("estimate_harness:uniqueness_probe")),
    "estimate_harness.self_s": ("s", "lower", "self", ()),
    "geometry.quad_calls": ("count", "lower", *_calls("geometry:integrate.quad")),
    "geometry.quad_s": ("s", "lower", *_time("geometry:integrate.quad")),
    "geometry.brentq_calls": ("count", "lower", *_calls("geometry:optimize.brentq")),
    "geometry.inverse_k_calls": ("count", "lower", *_calls("geometry:inverse_k")),
    "geometry.make_grid_s": ("s", "lower", *_time(
        "geometry:make_grid", "ns_solver:make_grid", "functional_inequalities:make_grid")),
    "geometry.classify_s": ("s", "lower", *_time("geometry:classify")),
    "geometry.self_s": ("s", "lower", "self", ()),
    "flux_carrier.volume_integral_s": (
        "s", "lower", *_time("flux_carrier:carrier_volume_integral")),
    "flux_carrier.boundary_evals": (
        "count", "lower", "calls", ("ns_solver:fc.stream_G", "ns_solver:fc.carrier_vorticity")),
    "flux_carrier.report_s": ("s", "lower", *_time("flux_carrier:support_and_bounds_report")),
    "flux_carrier.self_s": ("s", "lower", "self", ()),
    "fem.assemble_calls": ("count", "lower", "calls", (
        "ns_solver:assemble_q1", "ns_solver:assemble_grad_load",
        "functional_inequalities:assemble_q1", "functional_inequalities:assemble_div")),
    "fem.assemble_s": ("s", "lower", "time", (
        "ns_solver:assemble_q1", "ns_solver:assemble_grad_load",
        "functional_inequalities:assemble_q1", "functional_inequalities:assemble_div")),
    "functional_inequalities.factorizations": (
        "count", "lower", *_calls("functional_inequalities:splu")),
    "functional_inequalities.factor_s": ("s", "lower", *_time("functional_inequalities:splu")),
    "functional_inequalities.m0_s": ("s", "lower", *_time("functional_inequalities:poincare_m0")),
    "functional_inequalities.m1_s": ("s", "lower", *_time("functional_inequalities:poincare_m1")),
    "functional_inequalities.m4_s": ("s", "lower", *_time("functional_inequalities:sobolev_m4")),
    "functional_inequalities.m5_s": ("s", "lower", *_time("functional_inequalities:bogovskii_m5")),
    "functional_inequalities.self_s": ("s", "lower", "self", ()),
    "comparison_lemmas.psi_inverse_calls": (
        "count", "lower", *_calls("comparison_lemmas:PsiSpec.inverse")),
    "comparison_lemmas.brentq_calls": (
        "count", "lower", *_calls("comparison_lemmas:optimize.brentq")),
    "comparison_lemmas.majorant_s": ("s", "lower", *_time("comparison_lemmas:solve_majorant")),
    "comparison_lemmas.conclude_s": (
        "s", "lower", *_time("comparison_lemmas:comparison_conclude")),
    "comparison_lemmas.self_s": ("s", "lower", "self", ()),
    **{
        f"cli_io.{cmd.replace('-', '_')}_s": ("s", "lower", "time", (f"cli_io:main[{cmd}]",))
        for cmd in CLI_COMMANDS
    },
    "cli_io.write_s": ("s", "lower", "time", _WRITERS),
    "cli_io.bytes_written": ("bytes", "lower", "bytes", _WRITERS),
    "cli_io.parse_s": ("s", "lower", *_time("cli_io:parse_scenario")),
    "cli_io.self_s": ("s", "lower", "self", ()),
    "expressions.parse_s": ("s", "lower", *_time("geometry:parse_expression")),
    "bench.self_s": ("s", "lower", "self", ()),
}

# Metrics whose value describes the traced pass itself.
TRACE_METRICS = {
    "trace.wall_s": ("s", "lower"),
    "trace.untraced_wall_s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
    "trace.spans": ("count", "lower"),
    "trace.missing_points": ("count", "lower"),
}


class Recorder:
    """In-memory span store for one single-threaded pass."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.point_ids = {}
        self.points = []
        self.spans = []          # [point id, start, end, parent index]
        self.stack = []
        self.solve_keys = []     # argument keys of solve_steady calls
        self.bytes_out = defaultdict(int)
        self.missing = []

    def _point_id(self, point):
        pid = self.point_ids.get(point)
        if pid is None:
            pid = self.point_ids[point] = len(self.points)
            self.points.append(point)
        return pid

    def begin(self, point):
        parent = self.stack[-1] if self.stack else -1
        idx = len(self.spans)
        self.spans.append([self._point_id(point), self.clock(), None, parent])
        self.stack.append(idx)
        return idx

    def end(self, idx):
        self.spans[idx][2] = self.clock()
        popped = self.stack.pop()
        if popped != idx:
            raise RuntimeError("span closed out of order")

    def span(self, point):
        return _SpanContext(self, point)

    # -- aggregates -----------------------------------------------------------

    def totals(self):
        """point -> [calls, summed duration]."""
        out = {}
        for pid, start, end, _ in self.spans:
            agg = out.setdefault(self.points[pid], [0, 0.0])
            agg[0] += 1
            agg[1] += end - start
        return out

    def layer_self_times(self):
        """layer -> summed (span duration minus its direct children's)."""
        return self_times(self.spans, [_layer_of_point(p) for p in self.points])

    def dump(self):
        return {"points": list(self.points), "spans": [list(s) for s in self.spans]}


class _SpanContext:
    def __init__(self, recorder, point):
        self.recorder = recorder
        self.point = point

    def __enter__(self):
        self.idx = self.recorder.begin(self.point)
        return self

    def __exit__(self, *exc):
        self.recorder.end(self.idx)
        return False


class NullRecorder:
    """Recorder used with tracing off: the workload's own spans cost nothing."""

    def span(self, point):
        return contextlib.nullcontext()


def self_times(spans, layer_of_point_id):
    """Self time per layer: each span's duration minus its children's.

    ``spans`` holds [point id, start, end, parent index] with parents listed
    before their children; the returned values sum to the total duration of
    the root spans.
    """
    child = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out = defaultdict(float)
    for i, (pid, start, end, _) in enumerate(spans):
        out[layer_of_point_id[pid]] += (end - start) - child[i]
    return dict(out)


# -- installing wrappers ------------------------------------------------------


class _Proxy:
    """Stand-in for a module object as one caller sees it."""

    def __init__(self, target, overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


class _FactorProxy:
    """Sparse factor whose back-solves are recorded."""

    def __init__(self, factor, recorder, point):
        self._factor = factor
        self._recorder = recorder
        self._point = point

    def solve(self, *args, **kwargs):
        idx = self._recorder.begin(self._point)
        try:
            return self._factor.solve(*args, **kwargs)
        finally:
            self._recorder.end(idx)

    def __getattr__(self, name):
        return getattr(self._factor, name)


def _solve_key(args, kwargs):
    profile, params, a, b, nx, ny = args[:6]
    config = args[6] if len(args) > 6 else kwargs.get("config")
    return repr((profile.label(), params, a, b, nx, ny, config))


def _wrap(fn, recorder, point):
    is_factor = point in FACTOR_POINTS
    is_writer = point in _WRITERS
    is_solve = point == "ns_solver:solve_steady"

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if is_solve:
            recorder.solve_keys.append(_solve_key(args, kwargs))
        idx = recorder.begin(point)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.end(idx)
        if is_factor:
            return _FactorProxy(result, recorder, point + ".solve")
        if is_writer:
            recorder.bytes_out[point] += os.path.getsize(result)
        return result

    return wrapper


def install(recorder, package="channellab", points=PATCH_POINTS):
    """Wrap every patch point; returns a function that undoes the wrapping.

    Patch points that cannot be found are listed in ``recorder.missing``.
    """
    undo = []
    for point, _layer in points:
        module_name, path = point.split(":", 1)
        try:
            module = importlib.import_module(f"{package}.{module_name}")
        except ImportError:
            recorder.missing.append(point)
            continue
        parts = path.split(".")
        holder = module
        try:
            for part in parts[:-1]:
                holder = getattr(holder, part)
            original = getattr(holder, parts[-1])
        except AttributeError:
            recorder.missing.append(point)
            continue
        wrapped = _wrap(original, recorder, point)
        if len(parts) == 1 or isinstance(holder, type):
            owner = module if len(parts) == 1 else holder
            setattr(owner, parts[-1], wrapped)
            undo.append((owner, parts[-1], original))
        else:
            # a module object the caller reaches through one of its globals
            head = parts[0]
            current = getattr(module, head)
            if isinstance(current, _Proxy):
                current.__dict__[parts[-1]] = wrapped
            else:
                setattr(module, head, _Proxy(current, {parts[-1]: wrapped}))
                undo.append((module, head, current))

    def restore():
        for owner, name, original in reversed(undo):
            setattr(owner, name, original)

    return restore


# -- per-layer metrics --------------------------------------------------------


def derive_metrics(recorder):
    """Every per-layer metric of the pass: value, or None when missing."""
    totals = recorder.totals()
    selfs = recorder.layer_self_times()
    missing = set(recorder.missing)

    def calls(pts):
        return sum(totals.get(p, (0, 0.0))[0] for p in pts)

    out = {}
    for name, (_unit, _better, kind, points) in METRICS.items():
        # a ratio needs its numerator; a sum needs any one of its points
        needed = points[:1] if kind == "per_solve" else points
        if needed and all(_installed_point(p) in missing for p in needed):
            out[name] = None
        elif kind == "calls":
            out[name] = calls(points)
        elif kind == "time":
            out[name] = sum(totals.get(p, (0, 0.0))[1] for p in points)
        elif kind == "self":
            out[name] = selfs.get(name.split(".", 1)[0], 0.0)
        elif kind == "bytes":
            out[name] = sum(recorder.bytes_out.get(p, 0) for p in points)
        elif kind == "per_solve":
            solves = calls(points[1:])
            out[name] = calls(points[:1]) / solves if solves else 0.0
        elif kind == "distinct":
            keys = recorder.solve_keys
            out[name] = len(set(keys)) / len(keys) if keys else 1.0
        else:
            raise ValueError(f"unknown metric kind {kind!r}")
    return out
