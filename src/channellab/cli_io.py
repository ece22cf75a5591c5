"""Scenario configuration, command-line entry points, and artifact output.

Scenario files are INI-style text (``key = value`` lines under
``[section]`` headers, ``#`` comments, UTF-8).  Values are numbers,
booleans, strings, or comma-separated lists; profile expressions use the
grammar documented in :mod:`.expressions`.  Any key can be overridden from
the environment as ``CHANNELLAB_<SECTION>__<KEY>``.

Artifacts are deterministic: CSV floats are printed with repr-faithful
%.17g, row order is fixed, and the manifest hashes the scenario file plus
every numeric output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

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
    "read_field_file",
    "load_comparison_csv",
]

ENV_PREFIX = "CHANNELLAB_"
CSV_SCHEMA_VERSION = "1"

KNOWN_FAMILIES = [f.value for f in geo.Family]
SUBCOMMANDS = (
    "carrier-check",
    "solve",
    "growth-scan",
    "decay-scan",
    "poiseuille",
    "constants",
    "comparison",
    "report",
)


# ---------------------------------------------------------------------------
# Scenario text format
# ---------------------------------------------------------------------------


def _parse_value(text):
    text = text.strip()
    if "," in text:
        return [_parse_value(part) for part in text.split(",") if part.strip()]
    low = text.lower()
    if low in ("true", "yes", "on"):
        return True
    if low in ("false", "no", "off"):
        return False
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def _read_sections(path):
    """Raw section dict from the file, or raise ParseError listing lines."""
    sections = {"": {}}
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
        sections[current][key] = _parse_value(value)
    if errors:
        msgs = "; ".join(f"line {ln}: {msg}" for ln, msg in errors)
        raise ParseError(msgs)
    return sections


def _apply_env_overrides(sections, environ=None):
    env = environ if environ is not None else os.environ
    for key, value in env.items():
        if not key.startswith(ENV_PREFIX):
            continue
        rest = key[len(ENV_PREFIX):].lower()
        if "__" in rest:
            section, _, name = rest.partition("__")
        else:
            section, name = "", rest
        sections.setdefault(section, {})[name] = _parse_value(value)
    return sections


@dataclass
class Scenario:
    name: str
    profile: geo.ChannelProfile
    params: fc.CarrierParams
    solver: ns.SolverConfig
    thresholds: eh.HarnessThresholds
    policy: eh.GridPolicy
    grid_window: tuple       # (a, b, nx, ny)
    t_list: list
    t_range: tuple
    x_max: float
    outlet_k: float
    out_dir: Path
    seed: int
    comparison: dict = field(default_factory=dict)
    raw: dict = field(default_factory=dict)


def _as_float_list(value):
    if isinstance(value, (int, float)):
        return [float(value)]
    return [float(v) for v in value]


def parse_scenario(path, environ=None):
    """Parse and validate a scenario file; report every error at once."""
    sections = _apply_env_overrides(_read_sections(path), environ)
    errors = []

    def fetch(section, key, default=None, required=False):
        sec = sections.get(section, {})
        if key in sec:
            return sec[key]
        if required:
            errors.append(ValidationError(f"[{section}] {key}", "missing"))
        return default

    name = sections.get("", {}).get("name", Path(path).stem)

    family = str(fetch("profile", "family", required=True) or "").lower()
    profile = None
    if family and family not in KNOWN_FAMILIES:
        errors.append(
            ValidationError(
                "[profile] family",
                f"unknown family {family!r}; known: {', '.join(KNOWN_FAMILIES)}",
            )
        )
    elif family:
        kwargs = {
            k: v
            for k, v in sections.get("profile", {}).items()
            if k != "family"
        }
        try:
            profile = geo.make_profile(family, **kwargs)
        except (ChannelLabError, TypeError) as exc:
            errors.append(ValidationError("[profile]", str(exc)))

    flux = fetch("carrier", "flux", default=1.0)
    epsilon = fetch("carrier", "epsilon", default=None)
    cutoff_name = str(fetch("carrier", "cutoff", default="quintic")).lower()
    params = None
    try:
        cutoff = fc.Cutoff(fc.CutoffKind(cutoff_name))
    except ValueError:
        errors.append(
            ValidationError(
                "[carrier] cutoff",
                f"unknown cutoff {cutoff_name!r}; known: quintic, exp_bump",
            )
        )
        cutoff = fc.Cutoff()
    if epsilon is not None and not (0.0 < float(epsilon) < 1.0):
        errors.append(ValidationError("[carrier] epsilon", "must lie in (0,1)"))
    elif flux is not None and float(flux) < 0:
        errors.append(ValidationError("[carrier] flux", "must be nonnegative"))
    else:
        params = fc.CarrierParams(
            float(flux), None if epsilon is None else float(epsilon), cutoff
        )

    solver = None
    try:
        solver = ns.SolverConfig(
            tol=float(fetch("solver", "tol", default=1e-9)),
            max_iter=int(fetch("solver", "max_iter", default=60)),
            relax=float(fetch("solver", "relax", default=1.0)),
            continuation=tuple(
                _as_float_list(fetch("solver", "continuation", default=[]))
            )
            or None,
            convection=ns.ConvectionScheme(
                str(fetch("solver", "convection", default="central")).lower()
            ),
        )
    except (ChannelLabError, ValueError) as exc:
        errors.append(ValidationError("[solver]", str(exc)))
    # sparse LU is the only linear solver; the key stays accepted so that
    # existing scenario files keep working
    linear_solver = str(fetch("solver", "linear_solver", "banded_direct")).lower()
    if linear_solver != "banded_direct":
        errors.append(
            ValidationError(
                "[solver] linear_solver",
                f"unknown linear solver {linear_solver!r}; the Krylov path "
                f"(krylov_ilu) was removed, only banded_direct (sparse LU) "
                f"remains",
            )
        )

    thresholds = eh.HarnessThresholds(
        growth_ratio_bound=float(fetch("harness", "growth_ratio_bound", 3.0)),
        growth_lower_bound=float(fetch("harness", "growth_lower_bound", 0.5)),
        decay_ratio_bound=float(fetch("harness", "decay_ratio_bound", 4.0)),
        plateau_fraction=float(fetch("harness", "plateau_fraction", 0.1)),
        wall_delta=float(fetch("harness", "wall_delta", 0.1)),
        uniqueness_tol=float(fetch("harness", "uniqueness_tol", 1e-6)),
    )
    policy = eh.GridPolicy(
        target_hx=float(fetch("harness", "target_hx", 0.125)),
        ny=int(fetch("grid", "ny", 65)),
        pad_factor=float(fetch("harness", "pad_factor", 2.0)),
    )
    grid_window = (
        float(fetch("grid", "a", -10.0)),
        float(fetch("grid", "b", 10.0)),
        int(fetch("grid", "nx", 513)),
        int(fetch("grid", "ny", 65)),
    )
    if grid_window[1] <= grid_window[0]:
        errors.append(ValidationError("[grid]", "need b > a"))

    t_list = _as_float_list(fetch("harness", "t_list", [5.0, 10.0, 20.0, 40.0]))
    t_range = _as_float_list(fetch("harness", "t_range", [10.0, 40.0]))
    x_max = float(fetch("harness", "x_max", 8.0))
    outlet_k = float(fetch("harness", "outlet_k", 4.0))

    out_dir = Path(str(fetch("output", "dir", "out")))
    seed = int(fetch("output", "seed", 1234))

    comparison = dict(sections.get("comparison", {}))

    if errors:
        raise ValidationError(
            "scenario", "; ".join(str(e) for e in errors)
        )
    return Scenario(
        name=str(name),
        profile=profile,
        params=params,
        solver=solver,
        thresholds=thresholds,
        policy=policy,
        grid_window=grid_window,
        t_list=t_list,
        t_range=(t_range[0], t_range[-1]),
        x_max=x_max,
        outlet_k=outlet_k,
        out_dir=out_dir,
        seed=seed,
        comparison=comparison,
        raw=sections,
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


def write_csv(path, header, rows, comment=None):
    """Deterministic CSV: schema comment, header, %.17g floats."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [f"# channellab csv v{CSV_SCHEMA_VERSION}"
             + (f" {comment}" if comment else "")]
    lines.append(",".join(header))
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


def read_field_file(path):
    """Load a field file back into (header dict, arrays dict)."""
    header = {}
    arrays = {}
    current = None
    rows = []
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("["):
            if current is not None:
                arrays[current] = np.array(rows, dtype=float)
            current = line[1:-1]
            rows = []
        elif current is None:
            key, _, value = line.partition("=")
            header[key.strip()] = _parse_value(value)
        else:
            rows.append([float(v) for v in line.split()])
    if current is not None:
        arrays[current] = np.array(rows, dtype=float)
    return header, arrays


def _sha256(path):
    h = hashlib.sha256()
    h.update(Path(path).read_bytes())
    return h.hexdigest()


def write_manifest(out_dir, scenario_path, artifacts, exit_status):
    """Atomic manifest covering the scenario file and all numeric outputs."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = {
        "scenario": str(scenario_path),
        "scenario_sha256": _sha256(scenario_path) if scenario_path else None,
        "outputs": {
            str(Path(p).name): _sha256(p) for p in sorted(map(str, artifacts))
        },
        "versions": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "channellab": _package_version(),
        },
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
        "exit_status": exit_status,
    }
    tmp = out_dir / "manifest.json.tmp"
    tmp.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    tmp.replace(out_dir / "manifest.json")
    return out_dir / "manifest.json"


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
    rep = fc.support_and_bounds_report(
        sc.params, sc.profile, (a, b), rng=rng, raise_on_violation=False
    )
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
    artifacts.append(
        write_csv(out / "carrier_report.csv", ["check", "value", "status"], rows)
    )
    return ok, artifacts


def _grad_fd_spot_check(params, profile, window, rng, n=40):
    worst = 0.0
    for _ in range(n):
        x1 = rng.uniform(window[0], window[1])
        f2v = float(profile.f2(x1))
        fbv = float(profile.center(x1))
        s = rng.uniform(0.05, 0.95)
        ratio = math.exp((s - 1.0) / params.epsilon)
        x2 = fbv + (f2v - fbv) / (1.0 + ratio)
        J = fc.grad_g((x1, x2), params, profile)
        h = 1e-4
        Jfd = np.zeros((2, 2))
        for col, dv in enumerate([(h, 0.0), (0.0, h)]):
            vals = [
                fc.velocity_g((x1 + k * dv[0], x2 + k * dv[1]), params, profile)
                for k in (-2, -1, 1, 2)
            ]
            Jfd[:, col] = (vals[0] - 8 * vals[1] + 8 * vals[2] - vals[3]) / (12 * h)
        scale = max(float(np.abs(J).max()), 1e-12)
        worst = max(worst, float(np.abs(J - Jfd).max()) / scale)
    return worst


def _run_solve(sc, out, quiet):
    a, b, nx, ny = sc.grid_window
    state = ns.solve_steady(sc.profile, sc.params, a, b, nx, ny, sc.solver)
    artifacts = [write_field_file(out / "flow.field", state)]
    rows = [
        {"iteration": i, "residual": r} for i, r in state.residual_history
    ]
    artifacts.append(
        write_csv(out / "residual_history.csv", ["iteration", "residual"], rows)
    )
    diag_rows = [
        {"quantity": k, "value": v} for k, v in sorted(state.diagnostics.items())
    ]
    diag_rows.append({"quantity": "converged", "value": state.converged})
    artifacts.append(
        write_csv(out / "solve_summary.csv", ["quantity", "value"], diag_rows)
    )
    if not quiet:
        print(f"  converged in {len(state.residual_history)} iterations; "
              f"residual {state.residual_history[-1][1]:.3e}")
    return bool(state.converged), artifacts


def _run_growth(sc, out, quiet):
    state, _ = eh.padded_solve(
        sc.profile, sc.params, max(sc.t_list), sc.policy, sc.solver
    )
    rep = eh.growth_scan(
        sc.profile, sc.params.phi, sc.t_list, params=sc.params,
        thresholds=sc.thresholds, state=state,
    )
    artifacts = [
        write_csv(
            out / "growth.csv",
            ["t", "dirichlet", "weight_integral", "upper_ratio", "lower_ratio"],
            rep.rows(),
        ),
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
        hat = eh.hat_energy_inequality(
            sc.profile, sc.params.phi, min(sc.x_max, max(sc.t_list)),
            params=sc.params, state=state,
        )
    except (HypothesisNotMet, OutOfRange):
        hat = None
    if hat is not None:
        phi_curve = [hat.c13 + hat.c14 * i for i in _hat_weight_integrals(sc, hat)]
        artifacts.append(
            write_csv(out / "hat_energy.csv", ["t", "y_hat"], hat.rows())
        )
        artifacts.append(
            write_svg_plot(
                out / "hat_energy.svg",
                [
                    ("weighted energy", hat.t, hat.y_hat),
                    ("majorant", hat.t, phi_curve),
                ],
                title="Weighted energy vs comparison majorant",
                xlabel="t",
                ylabel="energy",
            )
        )
        verdicts.update(
            {f"hat_{k}": v for k, v in hat.verdicts.items()}
        )

    ok = all(verdicts.values())
    artifacts.append(_verdict_csv(out / "growth_verdicts.csv", verdicts))
    if not quiet:
        for k, v in verdicts.items():
            print(f"  {k}: {'PASS' if v else 'FAIL'}")
    return ok, artifacts


def _hat_weight_integrals(sc, hat):
    out = []
    for t in hat.t:
        lo = geo.inverse_k(sc.profile, -t)
        hi = geo.inverse_k(sc.profile, t)
        out.append(geo.weight_integral(sc.profile, lo, hi, -3.0))
    return out


def _verdict_csv(path, verdicts):
    rows = [
        {"verdict": k, "status": "PASS" if v else "FAIL"}
        for k, v in sorted(verdicts.items())
    ]
    return write_csv(path, ["verdict", "status"], rows)


def _run_decay(sc, out, quiet):
    rep = eh.decay_scan(
        sc.profile, sc.params.phi, sc.t_range, policy=sc.policy,
        config=sc.solver, params=sc.params, thresholds=sc.thresholds,
    )
    artifacts = [
        write_csv(
            out / "decay.csv",
            ["x1", "f_sup_u", "f_sup_u_interior", "f_sup_u_wall"],
            rep.rows(),
        ),
        write_csv(
            out / "decay_windows.csv",
            ["t", "window_energy_f2"],
            (
                {"t": t, "window_energy_f2": e}
                for t, e in zip(rep.window_t, rep.window_energy)
            ),
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
    artifacts.append(_verdict_csv(out / "decay_verdicts.csv", verdicts))
    if not quiet:
        for k, v in verdicts.items():
            print(f"  {k}: {'PASS' if v else 'FAIL'}")
    return ok, artifacts


def _run_poiseuille(sc, out, quiet):
    rep = eh.poiseuille_convergence(
        sc.profile, sc.params.phi, sc.outlet_k, sc.t_list, policy=sc.policy,
        config=sc.solver, params=sc.params, thresholds=sc.thresholds,
    )
    artifacts = [
        write_csv(
            out / "poiseuille.csv", ["T", "h1_error", "scaled_tail"], rep.rows()
        ),
        write_svg_plot(
            out / "poiseuille.svg",
            [("E(T)", rep.T, rep.h1_error)],
            title="Outlet shear-flow convergence",
            xlabel="T",
            ylabel="H1 error",
            logy=True,
        ),
        _verdict_csv(out / "poiseuille_verdicts.csv", rep.verdicts),
    ]
    ok = all(rep.verdicts.values())
    if not quiet:
        for k, v in rep.verdicts.items():
            print(f"  {k}: {'PASS' if v else 'FAIL'}")
    return ok, artifacts


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
    artifacts = [
        write_csv(
            out / "constants.csv",
            ["name", "value", "domain", "method", "resolution",
             "self_consistency"],
            rows,
        )
    ]
    return True, artifacts


def _run_comparison(sc, out, quiet):
    cfg = sc.comparison
    psi = cl.separable_psi(
        c1=float(cfg.get("c1", 0.0)),
        c2=float(cfg.get("c2", 1.0)),
        exponent=float(cfg.get("exponent", 1.5)),
    )
    delta1 = float(cfg.get("delta1", 0.5))
    if "file" in cfg:
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
    artifacts = [write_csv(out / "comparison.csv", ["quantity", "value"], rows)]
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
    artifacts = [
        write_csv(out / "summary.csv", ["source", "verdict", "status"], rows)
    ]
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
        return 1
    status = 0 if ok else 2
    write_manifest(out, scenario_path, artifacts, status)
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="channellab",
        description="Numerical laboratory for steady channel flows",
    )
    parser.add_argument("command", choices=SUBCOMMANDS)
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


if __name__ == "__main__":
    sys.exit(main())
