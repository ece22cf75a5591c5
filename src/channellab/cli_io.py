"""Scenario configuration, command-line entry points, and artifact output.

Scenario files are INI-style text (``key = value`` lines under
``[section]`` headers, ``#`` comments, UTF-8).  A value's type comes from
the key that reads it: a number, an integer, a comma-separated list of
numbers, or text kept as written; profile expressions use the grammar
documented in :mod:`.expressions`.  Any key can be overridden from the
environment as ``CHANNELLAB_<SECTION>__<KEY>``; a key that no command
reads, in the file or the environment, is an error.

Artifacts are deterministic: CSV floats are printed with repr-faithful
%.17g, row order is fixed, and the manifest hashes the scenario file plus
every numeric output.  Scan commands writing one output directory share
each padded solve through a state file there (:func:`_padded_state`).
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import json
import math
import os
import sys
import time
import zipfile
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np
import scipy

from . import comparison_lemmas as cl
from . import estimate_harness as eh
from . import flux_carrier as fc
from . import functional_inequalities as fi
from . import geometry as geo
from . import ns_solver as ns
from .errors import (
    ChannelLabError,
    HypothesisNotMet,
    OutOfRange,
    ParseError,
    ValidationError,
)

__all__ = [
    "Scenario",
    "parse_scenario",
    "run",
    "main",
    "write_csv",
    "write_svg_plot",
    "write_field_file",
    "load_comparison_csv",
]

ENV_PREFIX = "CHANNELLAB_"
CSV_SCHEMA_VERSION = "1"

KNOWN_FAMILIES = [f.value for f in geo.Family]


# ---------------------------------------------------------------------------
# Scenario text format
# ---------------------------------------------------------------------------


def _read_number(text, kind):
    """``text`` as ``kind``: integer text reads exactly, and integral float
    text (``65.0``, ``1e3``) also reads as an int; ValueError otherwise."""
    try:
        return kind(text)
    except ValueError:
        value = float(text)
        if kind is int and value.is_integer():
            return int(value)
        raise


def _read_sections(path):
    """Each key's value text and line, or raise ParseError listing lines."""
    sections = {"": {}}
    origins = {}
    current = ""
    errors = []
    text = Path(path).read_text(encoding="utf-8")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]") or len(line) < 3:
                errors.append((lineno, f"malformed section header {raw.strip()!r}"))
                continue
            current = line[1:-1].strip().lower()
            sections.setdefault(current, {})
            continue
        if "=" not in line:
            errors.append((lineno, f"expected key = value, got {raw.strip()!r}"))
            continue
        key, _, value = line.partition("=")
        key = key.strip().lower()
        if not key:
            errors.append((lineno, "empty key"))
            continue
        sections[current][key] = value.strip()
        origins[(current, key)] = f"line {lineno}"
    if errors:
        msgs = "; ".join(f"line {ln}: {msg}" for ln, msg in errors)
        raise ParseError(msgs)
    return sections, origins


def _apply_env_overrides(sections, origins, environ=None):
    env = environ if environ is not None else os.environ
    for key, value in env.items():
        if not key.startswith(ENV_PREFIX):
            continue
        rest = key[len(ENV_PREFIX):].lower()
        if "__" in rest:
            section, _, name = rest.partition("__")
        else:
            section, name = "", rest
        sections.setdefault(section, {})[name] = value.strip()
        origins[(section, name)] = key
    return sections, origins


@dataclass
class Scenario:
    name: str
    profile: geo.ChannelProfile
    params: fc.CarrierParams
    solver: ns.SolverConfig
    thresholds: eh.HarnessThresholds
    grid_window: tuple       # (a, b, nx, ny); ny also sizes the scans' grids
    target_hx: float
    pad_factor: float
    t_list: list
    t_range: tuple
    x_max: float
    outlet_k: float
    out_dir: Path
    seed: int
    comparison: dict = field(default_factory=dict)

    @property
    def policy(self):
        """The scans' grids: nx from target_hx, ny from the grid window."""
        return eh.GridPolicy(self.target_hx, self.grid_window[3], self.pad_factor)


# Retired (section, key) pairs, the one value each still accepts (None: no
# value) so that existing scenario files keep working, and what was removed
_RETIRED_KEYS = {
    ("solver", "linear_solver"): (
        "banded_direct", "the Krylov path (krylov_ilu) was removed, "
        "only banded_direct (sparse LU) remains"),
    ("solver", "relax"): (1.0, "under-relaxation was removed, only relax = 1 remains"),
    ("solver", "convection"): (
        "central", "the upwind scheme was removed, only central remains"),
    ("solver", "continuation"): (
        None, "user-set continuation was removed, the levels come from the flux"),
    ("carrier", "cutoff"): (
        "quintic", "the other cutoffs were removed, only quintic remains"),
}


def parse_scenario(path, environ=None):
    """Parse and validate a scenario file; report every error at once."""
    sections, origins = _apply_env_overrides(*_read_sections(path), environ)
    errors = []
    read = set()

    def located(section, key):
        """'[section] key' after the line or override variable it came from,
        if it came from either."""
        origin = origins.get((section, key))
        return f"{origin}: [{section}] {key}" if origin else f"[{section}] {key}"

    def fetch(section, key, default=None, required=False):
        sec = sections.get(section, {})
        read.add((section, key))
        if key in sec:
            return sec[key]
        if required:
            errors.append(ValidationError(f"[{section}] {key}", "missing"))
        return default

    def number(section, key, default, kind=float):
        """The value read as kind (a comma list of kind if the default is a
        list); text that does not read so is an error, the default stands in."""
        text = fetch(section, key)
        if text is None:
            return default
        many = isinstance(default, list)
        items = [t.strip() for t in text.split(",") if t.strip()] if many else [text]
        try:
            values = [_read_number(t, kind) for t in items]
        except ValueError:
            values = []
        if values:
            return values if many else values[0]
        expected = "an integer" if kind is int else "a number"
        errors.append(ValidationError(
            located(section, key), f"expected {expected}, got {text!r}"))
        return default

    def dataclass_fields(cls, section):
        """Each field of cls read from section, the field's default standing in."""
        return {f.name: number(section, f.name, f.default, type(f.default))
                for f in fields(cls)}

    name = fetch("", "name", Path(path).stem)

    family = (fetch("profile", "family", required=True) or "").lower()
    profile = None
    if family in KNOWN_FAMILIES:
        factory = geo._FACTORIES[geo.Family(family)]
        accepted = inspect.signature(factory).parameters
        kwargs = {k: fetch("profile", k) if factory is geo.custom  # wall text
                  else number("profile", k, None)
                  for k in sections["profile"] if k in accepted}
        try:
            # a value that is not a number is reported at its line already
            if None not in kwargs.values():
                profile = factory(**kwargs)
        except ValidationError as exc:  # a custom wall names itself
            errors.append(ValidationError(located("profile", exc.field),
                                          exc.constraint))
        except (ChannelLabError, TypeError, ValueError) as exc:
            # the factory names no key: locate every wall value it was given
            where = ", ".join(located("profile", k) for k in kwargs)
            errors.append(ValidationError(where or "[profile]", str(exc)))
    else:
        # no family, no known keys: the family error speaks for the section
        read.update(("profile", k) for k in sections.get("profile", {}))
        if family:
            errors.append(ValidationError(
                located("profile", "family"),
                f"unknown family {family!r}; known: {', '.join(KNOWN_FAMILIES)}"))

    flux = number("carrier", "flux", 1.0)
    epsilon = number("carrier", "epsilon", None)
    params = None
    if epsilon is not None and not (0.0 < epsilon < 1.0):
        errors.append(ValidationError(
            located("carrier", "epsilon"), "must lie in (0,1)"))
    elif flux < 0:
        errors.append(ValidationError(
            located("carrier", "flux"), "must be nonnegative"))
    else:
        params = fc.CarrierParams(flux, epsilon)

    solver = None
    try:
        solver = ns.SolverConfig(**dataclass_fields(ns.SolverConfig, "solver"))
    except ChannelLabError as exc:  # SolverConfig checks only tol
        errors.append(ValidationError(located("solver", "tol"), str(exc)))
    for (section, key), (kept, removed) in _RETIRED_KEYS.items():
        text = fetch(section, key)
        try:
            same = text is None or text.lower() == kept or float(text) == kept
        except ValueError:
            same = False
        if not same:
            errors.append(ValidationError(
                located(section, key), f"unsupported value {text!r}; {removed}"))

    thresholds = eh.HarnessThresholds(
        **dataclass_fields(eh.HarnessThresholds, "harness"))
    grid_window = (
        number("grid", "a", -10.0),
        number("grid", "b", 10.0),
        number("grid", "nx", 513, int),
        number("grid", "ny", 65, int),
    )
    if grid_window[1] <= grid_window[0]:
        errors.append(ValidationError(
            f"{located('grid', 'a')}, {located('grid', 'b')}", "need b > a"))
    target_hx = number("harness", "target_hx", eh.GridPolicy.target_hx)
    if not target_hx > 0:
        errors.append(ValidationError(
            located("harness", "target_hx"), "must be positive"))
    pad_factor = number("harness", "pad_factor", eh.GridPolicy.pad_factor)
    if not pad_factor >= 0:
        errors.append(ValidationError(
            located("harness", "pad_factor"), "must be nonnegative"))

    t_list = number("harness", "t_list", [5.0, 10.0, 20.0, 40.0])
    t_range = number("harness", "t_range", [10.0, 40.0])
    x_max = number("harness", "x_max", 8.0)
    outlet_k = number("harness", "outlet_k", 4.0)

    out_dir = Path(fetch("output", "dir", "out"))
    seed = number("output", "seed", 1234, int)

    comparison = {"file": fetch("comparison", "file")}
    for key, default in (("c1", 0.0), ("c2", 1.0), ("exponent", 1.5),
                         ("delta1", 0.5)):
        comparison[key] = number("comparison", key, default)

    errors += [ValidationError(located(sec, key), "unknown key")
               for sec, keys in sections.items() for key in keys
               if (sec, key) not in read]
    if errors:
        raise ValidationError(
            "scenario", "; ".join(str(e) for e in errors)
        )
    return Scenario(
        name=name,
        profile=profile,
        params=params,
        solver=solver,
        thresholds=thresholds,
        grid_window=grid_window,
        target_hx=target_hx,
        pad_factor=pad_factor,
        t_list=t_list,
        t_range=(t_range[0], t_range[-1]),
        x_max=x_max,
        outlet_k=outlet_k,
        out_dir=out_dir,
        seed=seed,
        comparison=comparison,
    )


# ---------------------------------------------------------------------------
# Artifact writers
# ---------------------------------------------------------------------------


def _fmt(value):
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        if math.isnan(value):
            return "nan"
        return format(float(value), ".17g")
    return str(value)


def write_csv(path, rows):
    """Deterministic CSV: schema comment, header, %.17g floats.

    ``rows`` is a nonempty iterable of dicts; the header is the first row's
    keys, in order, and every row gives a value for each of them.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    rows = list(rows)
    header = list(rows[0])
    lines = [f"# channellab csv v{CSV_SCHEMA_VERSION}", ",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(row[h]) for h in header))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def write_svg_plot(path, series, title="", xlabel="", ylabel="", logy=False):
    """Small hand-rolled SVG line plot (no plotting dependency).

    series: list of (label, xs, ys).
    """
    width, height = 640, 420
    ml, mr, mt, mb = 70, 20, 40, 50
    pw, ph = width - ml - mr, height - mt - mb

    xs_all = np.concatenate([np.asarray(s[1], dtype=float) for s in series])
    ys_all = np.concatenate([np.asarray(s[2], dtype=float) for s in series])
    if logy:
        ys_all = np.log10(np.maximum(ys_all, 1e-300))
    x0, x1 = float(xs_all.min()), float(xs_all.max())
    y0, y1 = float(ys_all.min()), float(ys_all.max())
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0
    pad = 0.05 * (y1 - y0)
    y0, y1 = y0 - pad, y1 + pad

    def sx(x):
        return ml + (x - x0) / (x1 - x0) * pw

    def sy(y):
        return mt + ph - (y - y0) / (y1 - y0) * ph

    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e"]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width/2:.1f}" y="22" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{title}</text>',
    ]
    # axes
    parts.append(
        f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" fill="none" '
        f'stroke="#444" stroke-width="1"/>'
    )
    for k in range(5):
        xv = x0 + k * (x1 - x0) / 4
        yv = y0 + k * (y1 - y0) / 4
        parts.append(
            f'<line x1="{sx(xv):.1f}" y1="{mt+ph}" x2="{sx(xv):.1f}" '
            f'y2="{mt+ph+5}" stroke="#444"/>'
        )
        parts.append(
            f'<text x="{sx(xv):.1f}" y="{mt+ph+20}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{xv:.4g}</text>'
        )
        label = 10**yv if logy else yv
        parts.append(
            f'<line x1="{ml-5}" y1="{sy(yv):.1f}" x2="{ml}" y2="{sy(yv):.1f}" '
            f'stroke="#444"/>'
        )
        parts.append(
            f'<text x="{ml-8}" y="{sy(yv)+4:.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{label:.3g}</text>'
        )
    parts.append(
        f'<text x="{ml+pw/2:.1f}" y="{height-12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">{xlabel}</text>'
    )
    parts.append(
        f'<text x="16" y="{mt+ph/2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 16 {mt+ph/2:.1f})">{ylabel}</text>'
    )
    for idx, (label, xs, ys) in enumerate(series):
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        if logy:
            ys = np.log10(np.maximum(ys, 1e-300))
        pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys))
        color = colors[idx % len(colors)]
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="1.6"/>'
        )
        parts.append(
            f'<text x="{ml+10}" y="{mt+16+14*idx}" font-family="sans-serif" '
            f'font-size="11" fill="{color}">{label}</text>'
        )
    parts.append("</svg>")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(parts), encoding="utf-8")
    return path


def write_field_file(path, state):
    """Self-describing textual field file: header then row-major arrays."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    grid = state.grid
    lines = [
        "# channellab field v1",
        f"profile = {state.profile.label()}",
        f"a = {_fmt(grid.a)}",
        f"b = {_fmt(grid.b)}",
        f"nx = {grid.nx}",
        f"ny = {grid.ny}",
        f"flux = {_fmt(state.params.phi)}",
        f"epsilon = {_fmt(state.params.epsilon)}",
    ]
    for name, arr in [
        ("psi", state.psi),
        ("omega", state.omega),
        ("u1", state.u1),
        ("u2", state.u2),
    ]:
        lines.append(f"[{name}]")
        for row in arr:
            lines.append(" ".join(format(v, ".17g") for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def _sha256(path):
    h = hashlib.sha256()
    h.update(Path(path).read_bytes())
    return h.hexdigest()


def _relative_to_cwd(path):
    """``path`` relative to the working directory when it lies under it."""
    try:
        return str(Path(path).resolve().relative_to(Path.cwd().resolve()))
    except ValueError:
        return str(path)


def write_manifest(out_dir, scenario_path, command, artifacts, exit_status):
    """Merge one command's outputs and exit status into ``manifest.json``.

    Every command shares the scenario's output directory, so the manifest
    accumulates: ``outputs`` hashes every file any command wrote there and
    ``commands`` holds each command's exit status and output names.  An
    existing manifest of another scenario file (path or hash) is replaced.
    The write is atomic.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "manifest.json"
    scenario = _relative_to_cwd(scenario_path) if scenario_path else None
    digest = _sha256(scenario_path) if scenario_path else None
    try:
        manifest = json.loads(path.read_text())
    except (OSError, ValueError):
        manifest = {}
    if "commands" not in manifest or (
        manifest.get("scenario"), manifest.get("scenario_sha256")
    ) != (scenario, digest):
        manifest = {"outputs": {}, "commands": {}}
    outputs = {Path(p).name: _sha256(p) for p in map(str, artifacts)}
    manifest["outputs"].update(outputs)
    manifest["commands"][command] = {
        "exit_status": exit_status,
        "outputs": sorted(outputs),
    }
    manifest.update(
        scenario=scenario,
        scenario_sha256=digest,
        versions={
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "channellab": _package_version(),
        },
        timestamp=time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
    )
    tmp = out_dir / "manifest.json.tmp"
    tmp.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    tmp.replace(path)
    return path


def _package_version():
    from . import __version__

    return __version__


def load_comparison_csv(path, psi, delta1):
    """Comparison problem from CSV columns t, z[, phi]."""
    raw = np.genfromtxt(path, delimiter=",", names=True, comments="#")
    t = np.asarray(raw["t"], dtype=float)
    z = np.asarray(raw["z"], dtype=float)
    names = raw.dtype.names or ()
    if "phi" in names:
        phi = np.asarray(raw["phi"], dtype=float)
    else:
        _, phi = cl.solve_majorant(
            psi, delta1, max(float(z.max()) * 2.0, 1.0), float(t[0]),
            float(t[-1]), step=(t[-1] - t[0]) / max(len(t) * 4, 64),
        )
        phi = np.interp(t, np.linspace(t[0], t[-1], len(phi)), phi)
    return cl.ComparisonProblem(psi, delta1, t, z, phi)


# ---------------------------------------------------------------------------
# Subcommand pipelines
# ---------------------------------------------------------------------------


def _run_carrier_check(sc, out, quiet):
    artifacts = []
    rows = []
    ok = True
    rng = np.random.default_rng(sc.seed)
    a, b = sc.grid_window[0], sc.grid_window[1]
    rep = fc.support_and_bounds_report(sc.params, sc.profile, (a, b), rng=rng)
    flux_err = 0.0
    for x1 in rng.uniform(a, b, size=16):
        flux_err = max(
            flux_err, abs(fc.slice_flux(sc.params, sc.profile, x1) - sc.params.phi)
        )
    fd_err = _grad_fd_spot_check(sc.params, sc.profile, (a, b), rng)
    checks = [
        ("support_bounds", rep.violations == 0, float(rep.violations)),
        ("slice_flux_1e-8", flux_err <= 1e-8, flux_err),
        ("gradient_fd_1e-6", fd_err <= 1e-6, fd_err),
        ("sup_f_g_finite", math.isfinite(rep.sup_f_g), rep.sup_f_g),
        ("sup_f2_grad_g_finite", math.isfinite(rep.sup_f2_grad_g),
         rep.sup_f2_grad_g),
        ("volume_ratio_finite", math.isfinite(rep.volume_ratio),
         rep.volume_ratio),
    ]
    for name, passed, value in checks:
        ok &= bool(passed)
        rows.append({"check": name, "value": value,
                     "status": "PASS" if passed else "FAIL"})
        if not quiet:
            print(f"  {name}: {'PASS' if passed else 'FAIL'} ({value:.3g})")
    artifacts.append(write_csv(out / "carrier_report.csv", rows))
    return ok, artifacts


def _grad_fd_spot_check(params, profile, window, rng):
    """Worst relative gap of grad_g to 4th-order differences at 40 points.

    A stencil across a kink of the walls (x1 = 0 of abs and power-law walls)
    errs by O(1) whatever its step, so a point is drawn again where the same
    differences of f2 or the center line miss their slope by over 1e-6
    max(|slope|, 1).  One across a joint (bump_outlet's x1 = k, where f'''
    jumps) errs by O(h): at most 1.9e-6 at h = 1e-4 and 1.9e-7 at h = 1e-5.
    """
    h = 1e-5
    steps = np.array([-2.0, -1.0, 1.0, 2.0])[:, None] * h

    def differences(vals):
        return (vals[0] - 8 * vals[1] + 8 * vals[2] - vals[3]) / (12 * h)

    lo, hi = np.array([window[0], 0.05]), np.array([window[1], 0.95])
    points = np.empty((0, 2))
    while len(points) < 40:  # (x1, s) rows, as rng.uniform(lo, hi) draws them
        new = lo + (hi - lo) * rng.random((40 - len(points), 2))
        x1 = new[:, 0]
        smooth = [np.abs(differences(wall(x1 + steps)) - slope(x1))
                  <= 1e-6 * np.maximum(np.abs(slope(x1)), 1.0)
                  for wall, slope in ((profile.f2, profile.f2p),
                                      (profile.center, profile.centerp))]
        points = np.concatenate([points, new[np.logical_and(*smooth)]])
    x1, s = points.T
    f2v, fbv = profile.f2(x1), profile.center(x1)
    # math.exp: numpy's exp may differ in the last bit and move the points
    ratio = np.array([math.exp(v) for v in (s - 1.0) / params.epsilon])
    x2 = fbv + (f2v - fbv) / (1.0 + ratio)
    J = fc.grad_g((x1, x2), params, profile)
    Jfd = np.stack([differences(fc.velocity_g((x1 + steps, x2), params, profile)),
                    differences(fc.velocity_g((x1, x2 + steps), params, profile))],
                   axis=-1)
    scale = np.maximum(np.abs(J).max(axis=(1, 2)), 1e-12)
    return float((np.abs(J - Jfd).max(axis=(1, 2)) / scale).max())


def _run_solve(sc, out, quiet):
    a, b, nx, ny = sc.grid_window
    state = ns.solve_steady(sc.profile, sc.params, a, b, nx, ny, sc.solver)
    artifacts = [write_field_file(out / "flow.field", state)]
    rows = [
        {"iteration": i, "residual": r} for i, r in state.residual_history
    ]
    artifacts.append(write_csv(out / "residual_history.csv", rows))
    diag_rows = [
        {"quantity": k, "value": v} for k, v in sorted(state.diagnostics.items())
    ]
    diag_rows.append({"quantity": "converged", "value": state.converged})
    artifacts.append(write_csv(out / "solve_summary.csv", diag_rows))
    if not quiet:
        print(f"  converged in {len(state.residual_history)} iterations; "
              f"residual {state.residual_history[-1][1]:.3e}")
    return bool(state.converged), artifacts


_FIELDS = ("psi", "omega", "u1", "u2")


def _code_version():
    """Digest of the channellab sources and the numpy and scipy versions."""
    digest = hashlib.sha256(f"{np.__version__} {scipy.__version__}".encode())
    for path in sorted(Path(__file__).parent.glob("*.py")):
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _save_state(path, state):
    """Write a converged state's window, fields and solve record, atomically."""
    g = state.grid
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    with open(tmp, "wb") as fh:
        np.savez(fh, window=[g.a, g.b], shape=[g.nx, g.ny],
                 converged=state.converged,
                 residual_history=np.reshape(state.residual_history, (-1, 2)),
                 diagnostics=list(state.diagnostics),
                 diagnostic_values=list(state.diagnostics.values()),
                 **{name: getattr(state, name) for name in _FIELDS})
    tmp.replace(path)


def _load_state(path, profile, params):
    """The state :func:`_save_state` wrote, on the wall it was solved for."""
    with np.load(path, allow_pickle=False) as z:
        (a, b), (nx, ny) = z["window"], z["shape"]
        return ns.FlowState(
            grid=geo.make_grid(profile, a, b, int(nx), int(ny)),
            profile=profile, params=params,
            converged=bool(z["converged"]),
            residual_history=[(int(i), float(r))
                              for i, r in z["residual_history"]],
            diagnostics=dict(zip(z["diagnostics"].tolist(),
                                 z["diagnostic_values"].tolist())),
            **{name: z[name] for name in _FIELDS},
        )


def _padded_state(sc, out, t_max, quiet):
    """``eh.padded_solve`` once per window and output directory.

    The converged state is kept in ``out`` as ``.padded-<session>-<t_max>.npz``,
    so a later command writing there, in this process or another, loads it
    instead of solving again.  ``<session>`` hashes every solve argument but
    ``t_max`` (the wall by its label) and :func:`_code_version`; a solve
    removes the states of other sessions.  The fields are read-only.
    """
    kwargs = dict(profile=sc.profile, params=sc.params, t_max=t_max,
                  policy=sc.policy, config=sc.solver)
    session = {**kwargs, "profile": sc.profile.label(), "t_max": None,
               "code": _code_version()}
    name = hashlib.sha256(repr(session).encode()).hexdigest()[:16]
    path = out / f".padded-{name}-{t_max!r}.npz"
    try:
        state, how = _load_state(path, sc.profile, sc.params), "reused"
    except (OSError, KeyError, ValueError, zipfile.BadZipFile):
        # absent, or not a file this function wrote: solve and replace it
        state, how = eh.padded_solve(**kwargs), "solved"
        for old in out.glob(".padded-*.npz"):
            if not old.name.startswith(f".padded-{name}-"):
                old.unlink(missing_ok=True)
        _save_state(path, state)
    for values in (state.psi, state.omega, state.u1, state.u2):
        values.setflags(write=False)
    if not quiet:
        g = state.grid
        print(f"  padded window [{g.a:.6g}, {g.b:.6g}], {g.nx}x{g.ny}, "
              f"hx {g.hx:.4g}: {how}")
    return state


def _run_growth(sc, out, quiet):
    state = _padded_state(sc, out, max(sc.t_list), quiet)
    rep = eh.growth_scan(state, sc.t_list, thresholds=sc.thresholds)
    artifacts = [
        write_csv(out / "growth.csv", rep.rows()),
        write_svg_plot(
            out / "growth.svg",
            [
                ("D(t)", rep.t, rep.dirichlet),
                ("1 + I(t)", rep.t, [1 + v for v in rep.weight]),
            ],
            title="Dirichlet energy vs weight integral",
            xlabel="t",
            ylabel="energy",
        ),
    ]
    verdicts = dict(rep.verdicts)

    # weighted-energy inequality on the same solve (only meaningful when
    # both tails of the window parameterization are infinite and the window
    # reaches past t*); any other error is a failure of the command
    try:
        hat = eh.hat_energy_inequality(state, min(sc.x_max, max(sc.t_list)))
    except (HypothesisNotMet, OutOfRange):
        hat = None
    if hat is not None:
        artifacts.append(
            write_csv(out / "hat_energy.csv", hat.rows())
        )
        artifacts.append(
            write_svg_plot(
                out / "hat_energy.svg",
                [
                    ("weighted energy", hat.t, hat.y_hat),
                    ("majorant", hat.t, hat.majorant),
                ],
                title="Weighted energy vs comparison majorant",
                xlabel="t",
                ylabel="energy",
            )
        )
        verdicts.update(
            {f"hat_{k}": v for k, v in hat.verdicts.items()}
        )

    artifacts.append(_write_verdicts(out / "growth_verdicts.csv", verdicts, quiet))
    return all(verdicts.values()), artifacts


def _write_verdicts(path, verdicts, quiet):
    """Verdict CSV (sorted by name), then one PASS/FAIL line per verdict."""
    rows = [
        {"verdict": k, "status": "PASS" if v else "FAIL"}
        for k, v in sorted(verdicts.items())
    ]
    written = write_csv(path, rows)
    if not quiet:
        for k, v in verdicts.items():
            print(f"  {k}: {'PASS' if v else 'FAIL'}")
    return written


def _run_decay(sc, out, quiet):
    state = _padded_state(sc, out, sc.t_range[-1], quiet)
    rep = eh.decay_scan(state, sc.t_range, thresholds=sc.thresholds)
    artifacts = [
        write_csv(out / "decay.csv", rep.rows()),
        write_csv(
            out / "decay_windows.csv",
            ({"t": t, "window_energy_f2": e}
             for t, e in zip(rep.window_t, rep.window_energy)),
        ),
        write_svg_plot(
            out / "decay.svg",
            [("f * sup|u|", rep.slice_x, rep.slice_sup)],
            title="Pointwise decay product per slice",
            xlabel="x1",
            ylabel="f * sup|u|",
        ),
    ]
    verdicts = dict(rep.verdicts)
    informational = not rep.hypothesis_met
    ok = informational or all(
        v for k, v in verdicts.items() if k != "hypothesis_met"
    )
    artifacts.append(_write_verdicts(out / "decay_verdicts.csv", verdicts, quiet))
    return ok, artifacts


def _run_poiseuille(sc, out, quiet):
    eh.plateau_windows(sc.outlet_k, sc.t_list)  # rejects empty windows unsolved
    state = _padded_state(sc, out, max(sc.t_list), quiet)
    rep = eh.poiseuille_convergence(
        state, sc.outlet_k, sc.t_list, thresholds=sc.thresholds
    )
    artifacts = [
        write_csv(out / "poiseuille.csv", rep.rows()),
        write_svg_plot(
            out / "poiseuille.svg",
            [("E(T)", rep.T, rep.h1_error)],
            title="Outlet shear-flow convergence",
            xlabel="T",
            ylabel="H1 error",
            logy=True,
        ),
        _write_verdicts(out / "poiseuille_verdicts.csv", rep.verdicts, quiet),
    ]
    return all(rep.verdicts.values()), artifacts


def _run_constants(sc, out, quiet):
    a, b = sc.grid_window[0], sc.grid_window[1]
    estimates = [
        fi.poincare_m0(sc.profile, a, b),
        fi.poincare_m1(sc.profile, a, b, resolution=(129, 65)),
        fi.sobolev_m4(sc.profile, a, b, resolution=(49, 33)),
        fi.bogovskii_m5(sc.profile, a, b, resolution=(33, 33)),
    ]
    rows = []
    for est in estimates:
        rows.append(
            {
                "name": est.name.value,
                "value": est.value,
                "domain": est.domain,
                "method": est.method.value,
                "resolution": "x".join(str(r) for r in est.resolution),
                "self_consistency": est.self_consistency,
            }
        )
        if not quiet:
            print(f"  {est.name.value} = {est.value:.6g}")
    return True, [write_csv(out / "constants.csv", rows)]


def _run_comparison(sc, out, quiet):
    cfg = sc.comparison
    psi = cl.separable_psi(c1=cfg["c1"], c2=cfg["c2"], exponent=cfg["exponent"])
    delta1 = cfg["delta1"]
    if cfg["file"] is not None:
        problem = load_comparison_csv(cfg["file"], psi, delta1)
    else:
        ts, phi = cl.solve_majorant(psi, delta1, 2.0, 0.0, 2.0, step=1e-3)
        problem = cl.ComparisonProblem(psi, delta1, ts, (1 - delta1) * phi, phi)
    report = cl.check_hypotheses(problem)
    verdict = cl.comparison_conclude(problem, report)
    rows = [
        {"quantity": "growth_margin", "value": report.growth_margin},
        {"quantity": "majorant_margin", "value": report.majorant_margin},
        {"quantity": "endpoint_gap", "value": report.endpoint_gap},
        {"quantity": "verdict", "value": verdict.value},
    ]
    artifacts = [write_csv(out / "comparison.csv", rows)]
    ok = verdict is cl.Verdict.DOMINATED
    if not quiet:
        print(f"  verdict: {verdict.value}")
    return ok, artifacts


def _run_report(sc, out, quiet):
    rows = []
    for csv_path in sorted(out.glob("*_verdicts.csv")):
        for line in csv_path.read_text().splitlines()[2:]:
            verdict, status = line.split(",")
            rows.append(
                {"source": csv_path.name, "verdict": verdict, "status": status}
            )
    if not rows:
        rows.append({"source": "none", "verdict": "none", "status": "PASS"})
    artifacts = [write_csv(out / "summary.csv", rows)]
    ok = all(r["status"] == "PASS" for r in rows)
    if not quiet:
        print(f"  {len(rows)} verdicts aggregated; "
              f"{'all PASS' if ok else 'FAILURES present'}")
    return ok, artifacts


_PIPELINES = {
    "carrier-check": _run_carrier_check,
    "solve": _run_solve,
    "growth-scan": _run_growth,
    "decay-scan": _run_decay,
    "poiseuille": _run_poiseuille,
    "constants": _run_constants,
    "comparison": _run_comparison,
    "report": _run_report,
}


def run(command, scenario, scenario_path=None, quiet=False):
    """Execute one subcommand pipeline; returns the process exit status."""
    if command not in _PIPELINES:
        raise ValidationError("command", f"unknown subcommand {command!r}")
    out = Path(scenario.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    try:
        ok, artifacts = _PIPELINES[command](scenario, out, quiet)
    except ChannelLabError as exc:
        if not quiet:
            print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        write_manifest(out, scenario_path, command, [], 1)
        return 1
    status = 0 if ok else 2
    write_manifest(out, scenario_path, command, artifacts, status)
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="channellab",
        description="Numerical laboratory for steady channel flows",
    )
    parser.add_argument("command", choices=list(_PIPELINES))
    parser.add_argument("--scenario", required=True, help="scenario file path")
    parser.add_argument("--out", default=None, help="override output directory")
    parser.add_argument("--grid", default=None, help="override grid as nx,ny")
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)

    try:
        scenario = parse_scenario(args.scenario)
    except (ParseError, ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.out:
        scenario.out_dir = Path(args.out)
    if args.grid:
        try:
            nx, ny = (int(v) for v in args.grid.split(","))
        except ValueError:
            print("error: --grid expects nx,ny", file=sys.stderr)
            return 1
        a, b, _, _ = scenario.grid_window
        scenario.grid_window = (a, b, nx, ny)
    if not args.quiet:
        print(f"{args.command}: scenario {scenario.name!r}")
    return run(
        args.command,
        scenario,
        scenario_path=args.scenario,
        quiet=args.quiet,
    )
