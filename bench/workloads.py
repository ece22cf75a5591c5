"""The three benchmark workloads: seeded inputs, timed program calls, checks.

Each workload is a closed loop with one client: the next program call starts
when the previous one has returned.  ``prepare`` is set-up (scenario parsing
and seeded input generation), ``operations`` lists the timed program calls in
order, and ``check`` turns their outputs into operations that passed or
failed.  An operation is one CLI command, one
uniqueness probe, or one comparison problem.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import time
from pathlib import Path

import numpy as np

from channellab import cli_io
from channellab import comparison_lemmas as cl
from channellab import estimate_harness as eh
from channellab import geometry as geo

# Relative tolerance for numeric CSV values against the pinned reference
# (applied per quantity, see ``_tolerances``).  The bundled
# scenarios solve to tol = 1e-9 (residual relative to the vorticity scale);
# re-solving cli-bump at tol = 1e-11 moves no scan value by more than 3e-11
# of its column's largest entry, so a converged answer reached by another iteration path
# stays well inside 1e3 * tol = 1e-6, while a change of discretisation
# (O(h^2), about 1e-3 here) does not.  The constants are eigen and power
# iterations stopped at 1e-8 relative change; 1e-6 is two orders above that.
RTOL = 1e-6

BUMP = "scenarios/bump_outlet.scn"
ALL_SCENARIOS = (
    "scenarios/bump_outlet.scn",
    "scenarios/custom_walls.scn",
    "scenarios/straight.scn",
    "scenarios/widening.scn",
)

# Outputs each CLI command is checked on.  Columns listed as ignored depend on
# the seeded sample points; their PASS/FAIL status is still compared.
COMMAND_OUTPUTS = {
    "carrier-check": ("carrier_report.csv",),
    "solve": ("solve_summary.csv",),
    "growth-scan": ("growth.csv", "hat_energy.csv", "growth_verdicts.csv"),
    "decay-scan": ("decay.csv", "decay_windows.csv", "decay_verdicts.csv"),
    "poiseuille": ("poiseuille.csv", "poiseuille_verdicts.csv"),
    "constants": ("constants.csv",),
    "comparison": ("comparison.csv",),
    "report": ("summary.csv",),
}
IGNORED_COLUMNS = {"carrier_report.csv": ("value",)}

UNIQUENESS_TOL = 1e-6     # acceptance criterion 7
N_PROBLEMS = 200          # criterion-5-style comparison problems per pass
SEPARABLE_SHARE = 0.7     # share of problems with c1 > 0 (bracketed inverse)


class Op:
    """One operation's outcome; ``problems`` lists every check it missed."""

    def __init__(self, name):
        self.name = name
        self.problems = []

    @property
    def ok(self):
        return not self.problems

    def fail(self, message):
        self.problems.append(message)

    def as_dict(self):
        return {"name": self.name, "ok": self.ok, "problems": self.problems}


def scenario_with_seed(src, dst, seed):
    """Copy a scenario file, setting ``[output] seed`` to ``seed``."""
    lines = Path(src).read_text(encoding="utf-8").splitlines()
    out, section, done = [], "", False
    for line in lines:
        stripped = line.split("#", 1)[0].strip()
        if stripped.startswith("["):
            if section == "output" and not done:
                out.append(f"seed = {seed}")
                done = True
            section = stripped[1:-1].strip().lower()
        elif section == "output" and stripped.partition("=")[0].strip() == "seed":
            line, done = f"seed = {seed}", True
        out.append(line)
    if not done:
        if section != "output":
            out.append("[output]")
        out.append(f"seed = {seed}")
    Path(dst).write_text("\n".join(out) + "\n", encoding="utf-8")
    return Path(dst)


def split_row(line):
    """Cells of one CSV line.  channellab does not quote cells, and a profile
    label such as ``straight(c1=-1.0,c2=1.0)[-12.0,12.0]`` holds commas, so
    commas inside brackets do not split."""
    cells, depth, start = [], 0, 0
    for i, ch in enumerate(line):
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        elif ch == "," and depth == 0:
            cells.append(line[start:i])
            start = i + 1
    cells.append(line[start:])
    return cells


def read_csv(path):
    """(header, rows) of a channellab CSV, schema comment skipped."""
    lines = [ln for ln in Path(path).read_text(encoding="utf-8").splitlines()
             if ln and not ln.startswith("#")]
    return split_row(lines[0]), [split_row(ln) for ln in lines[1:]]


def _number(cell):
    try:
        return float(cell)
    except ValueError:
        return None


# First header cell of tables that hold one named quantity per row.
KEYED_TABLES = ("quantity", "name", "check")


def _tolerances(ref_header, ref_rows, col):
    """Allowed deviation of each cell of column ``col``.

    A scan table holds one quantity per column, so its cells share the
    column's scale: RTOL * max|column|.  A keyed table holds a different
    quantity on every row, so each cell is relative to itself, with a floor
    of RTOL for quantities below 1 (margins normalised to their scale).
    """
    nums = [_number(r[col]) for r in ref_rows]
    finite = [abs(v) for v in nums if v is not None and math.isfinite(v)]
    if ref_header[0] in KEYED_TABLES:
        return [RTOL * max(abs(v), 1.0) if v is not None else None for v in nums]
    scale = max(finite, default=0.0)
    return [RTOL * scale if v is not None else None for v in nums]


def _same_text(got, want):
    if got == want:
        return True
    a, b = _number(got), _number(want)
    return a is not None and b is not None and math.isnan(a) and math.isnan(b)


def compare_csv(path, ref, ignored=()):
    """Problems of one CSV against its pinned reference (empty when equal).

    Reference columns are matched by name, so added columns pass; rows are
    matched by position.  Numeric cells must agree within ``_tolerances``;
    other cells must be equal.
    """
    name = Path(path).name
    if not Path(path).exists():
        return [f"{name}: missing"]
    header, rows = read_csv(path)
    if len(rows) != len(ref["rows"]):
        return [f"{name}: {len(rows)} rows, reference has {len(ref['rows'])}"]
    problems = []
    for col, col_name in enumerate(ref["header"]):
        if col_name in ignored:
            continue
        if col_name not in header:
            problems.append(f"{name}: column {col_name!r} missing")
            continue
        at = header.index(col_name)
        tols = _tolerances(ref["header"], ref["rows"], col)
        for i, (row, ref_row, tol) in enumerate(zip(rows, ref["rows"], tols)):
            got, want = row[at] if at < len(row) else "", ref_row[col]
            got_num, want_num = _number(got), _number(want)
            if tol is None or got_num is None or not math.isfinite(want_num):
                if not _same_text(got, want):
                    problems.append(f"{name}[{i}].{col_name}: {got!r} != {want!r}")
            elif not abs(got_num - want_num) <= tol:
                problems.append(f"{name}[{i}].{col_name}: {got_num!r} vs {want_num!r} "
                                f"(tolerance {tol:.3g})")
    return problems


def csv_digests(out_dir, names):
    return {
        n: hashlib.sha256((Path(out_dir) / n).read_bytes()).hexdigest()
        for n in names if (Path(out_dir) / n).exists()
    }


class DigestStore:
    """CSV digests of earlier runs of the same code, for the determinism gate.

    Keyed by a hash of the program's source, the workload, the seed and the
    output directory's role, so only runs of identical code with identical
    inputs are compared (as acceptance criterion 9 does within one process).
    """

    def __init__(self, path, code_hash):
        self.path = Path(path)
        self.code_hash = code_hash
        try:
            self.data = json.loads(self.path.read_text())
        except (OSError, ValueError):
            self.data = {}

    def check(self, key, digests):
        """Names whose digest differs from an earlier run; records new ones."""
        known = self.data.setdefault(self.code_hash, {}).setdefault(key, {})
        differ = [n for n, d in digests.items() if known.get(n, d) != d]
        for n, d in digests.items():
            known.setdefault(n, d)
        return differ

    def save(self):
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.data, indent=1, sort_keys=True))
        tmp.replace(self.path)


def run_operations(operations, rec, calibrator=None):
    """Run ``(key, span point, call)`` operations in order, one at a time.

    Returns the results by key and each operation's (start, seconds).  A call
    that raises yields the exception text, which the checks count as a failed
    operation.  The calibrator, when given, samples the machine's speed
    between operations, outside the timed calls.
    """
    results, timings = {}, []
    with rec.span("bench:pass"):
        for key, point, call in operations:
            if calibrator is not None:
                calibrator.between()
            start = time.perf_counter()
            try:
                if point is None:
                    results[key] = call()
                else:
                    with rec.span(point):
                        results[key] = call()
            except Exception as exc:  # noqa: BLE001 - a raise is a failed operation
                results[key] = f"{type(exc).__name__}: {exc}"
            timings.append((start, time.perf_counter() - start))
    if calibrator is not None:
        calibrator.between(force=True)
    return results, timings


def _cli_op(key, argv):
    return key, f"cli_io:main[{argv[0]}]", lambda: cli_io.main(argv)


def _check_cli(ops_by_cmd, statuses, out_dir, ref_outputs, digests, key):
    """Exit status, pinned CSVs and determinism for CLI operations."""
    outputs = {n: cmd for cmd, names in COMMAND_OUTPUTS.items() for n in names}
    for cmd, op in ops_by_cmd.items():
        status = statuses.get(cmd)
        if status != 0:
            op.fail(f"exit status {status!r}, pinned 0")
        for name in COMMAND_OUTPUTS[cmd]:
            ref = ref_outputs.get(name)
            if ref is None:
                op.fail(f"{name}: no pinned reference")
                continue
            op.problems.extend(
                compare_csv(Path(out_dir) / name, ref, IGNORED_COLUMNS.get(name, ()))
            )
    names = [n for n in outputs if outputs[n] in ops_by_cmd]
    for name in digests.check(key, csv_digests(out_dir, names)):
        ops_by_cmd[outputs[name]].fail(f"{name}: digest differs from an earlier run "
                                       f"of the same code and seed")


def pin_cli_outputs(out_dir, commands):
    """Reference entries for the outputs of ``commands`` found in ``out_dir``."""
    ref = {}
    for cmd in commands:
        for name in COMMAND_OUTPUTS[cmd]:
            header, rows = read_csv(Path(out_dir) / name)
            ref[name] = {"header": header, "rows": rows}
    return ref


# ---------------------------------------------------------------------------
# cli-bump: one real user session on the bundled bump scenario
# ---------------------------------------------------------------------------


class CliBump:
    name = "cli-bump"
    commands = tuple(COMMAND_OUTPUTS)

    def prepare(self, seed, workdir):
        scn = scenario_with_seed(BUMP, Path(workdir) / "bump.scn", seed)
        cli_io.parse_scenario(scn, environ={})
        return {"scenario": scn, "out": Path(workdir) / "out", "seed": seed}

    def operations(self, inputs):
        return [_cli_op(cmd, [cmd, "--scenario", str(inputs["scenario"]),
                              "--out", str(inputs["out"]), "--quiet"])
                for cmd in self.commands]

    def check(self, inputs, statuses, reference, digests):
        ops = {cmd: Op(cmd) for cmd in self.commands}
        _check_cli(ops, statuses, inputs["out"], reference["outputs"], digests,
                   f"{self.name}/{inputs['seed']}")
        return list(ops.values())

    def pin(self, inputs, statuses):
        return {"outputs": pin_cli_outputs(inputs["out"], self.commands)}


# ---------------------------------------------------------------------------
# uniqueness-tight: criterion-7 probes at tol = 1e-12
# ---------------------------------------------------------------------------


class UniquenessTight:
    name = "uniqueness-tight"

    def prepare(self, seed, workdir):
        straight = geo.straight(d0=1.0)
        # The flux-0.1 probe is criterion 7 exactly, perturbation seed 7
        # included: its 119 factorizations are the pinned count.  At flux 0
        # every start must land on the exact zero flow, so its perturbation
        # is drawn from the benchmark seed.
        return {
            "seed": seed,
            "probes": [
                ("flux=0.1", straight, 0.1, -8.0, 8.0, 257, 65, 7),
                ("flux=0", straight, 0.0, -6.0, 6.0, 97, 33, seed),
            ],
        }

    def operations(self, inputs):
        return [
            (name, None, functools.partial(eh.uniqueness_probe, profile, phi, a, b,
                                           nx=nx, ny=ny, seed=pseed))
            for name, profile, phi, a, b, nx, ny, pseed in inputs["probes"]
        ]

    def check(self, inputs, reports, reference, digests):
        ops = []
        for name, _profile, phi, *_ in inputs["probes"]:
            op = Op(f"probe[{name}]")
            rep = reports.get(name)
            if not isinstance(rep, eh.UniquenessReport):
                op.fail(f"raised {rep}")
            else:
                if rep.unique is not reference["unique"][name]:
                    op.fail(f"unique={rep.unique}, pinned {reference['unique'][name]}")
                dist = max(rep.l2_distance, rep.dirichlet_distance)
                if not dist <= UNIQUENESS_TOL:
                    op.fail(f"distance {dist:.3e} > {UNIQUENESS_TOL}")
                if phi == 0.0 and (rep.l2_distance != 0.0
                                   or rep.dirichlet_distance != 0.0):
                    op.fail(f"flux 0 distances ({rep.l2_distance}, "
                            f"{rep.dirichlet_distance}) are not exactly 0")
            ops.append(op)
        return ops

    def pin(self, inputs, reports):
        return {"unique": {name: rep.unique for name, rep in reports.items()}}


# ---------------------------------------------------------------------------
# constants-comparison: no Navier-Stokes solve
# ---------------------------------------------------------------------------


def draw_problems(seed, n=N_PROBLEMS):
    """Criterion-5-style majorant-built problem parameters.

    Exactly SEPARABLE_SHARE of them have c1 > 0, whose Psi inverse needs a
    bracketed root, so every seed carries the same mix of work.
    """
    rng = np.random.default_rng(seed)
    with_c1 = np.zeros(n, dtype=bool)
    with_c1[: int(round(SEPARABLE_SHARE * n))] = True
    rng.shuffle(with_c1)
    problems = []
    for k in range(n):
        problems.append({
            "c1": float(rng.uniform(0.0, 2.0)) if with_c1[k] else 0.0,
            "c2": float(rng.uniform(0.1, 2.0)),
            "exponent": float(rng.uniform(1.1, 3.0)),
            "delta1": float(rng.uniform(0.1, 0.9)),
            "phi0": float(rng.uniform(0.1, 10.0)),
            "t1": float(rng.uniform(0.5, 3.0)),
            "z_share": float(rng.uniform(0.05, 1.0)),
        })
    return problems


def solve_problem(p):
    """Build one majorant-based problem and conclude it: (verdict, z, phi)."""
    psi = cl.separable_psi(c1=p["c1"], c2=p["c2"], exponent=p["exponent"])
    ts, phi = cl.solve_majorant(psi, p["delta1"], p["phi0"], 0.0, p["t1"],
                                step=p["t1"] / 60)
    z = p["z_share"] * (1.0 - p["delta1"]) * phi
    prob = cl.ComparisonProblem(psi, p["delta1"], ts, z, phi)
    return cl.comparison_conclude(prob), z, phi


class ConstantsComparison:
    name = "constants-comparison"
    commands = ("constants", "carrier-check")

    def prepare(self, seed, workdir):
        runs = []
        for path in ALL_SCENARIOS:
            stem = Path(path).stem
            scn = scenario_with_seed(path, Path(workdir) / f"{stem}.scn", seed)
            cli_io.parse_scenario(scn, environ={})
            runs.append((stem, scn, Path(workdir) / f"out-{stem}"))
        return {"seed": seed, "runs": runs, "problems": draw_problems(seed)}

    def operations(self, inputs):
        ops = [_cli_op((stem, cmd), [cmd, "--scenario", str(scn), "--out", str(out),
                                     "--quiet"])
               for stem, scn, out in inputs["runs"] for cmd in self.commands]
        ops += [(k, "comparison_lemmas:problem", functools.partial(solve_problem, p))
                for k, p in enumerate(inputs["problems"])]
        return ops

    def check(self, inputs, results, reference, digests):
        ops = []
        for stem, _scn, out in inputs["runs"]:
            by_cmd = {cmd: Op(f"{stem}:{cmd}") for cmd in self.commands}
            _check_cli(by_cmd, {cmd: results.get((stem, cmd)) for cmd in self.commands},
                       out, reference["outputs"][stem], digests,
                       f"{self.name}/{inputs['seed']}/{stem}")
            ops.extend(by_cmd.values())
        for k in range(len(inputs["problems"])):
            op = Op(f"problem[{k}]")
            outcome = results.get(k)
            # z <= (1 - delta1) phi and phi saturates its own inequality, so
            # every hypothesis holds and the lemma must conclude domination.
            if not isinstance(outcome, tuple):
                op.fail(f"raised {outcome}")
            elif outcome[0] is not cl.Verdict.DOMINATED:
                op.fail(f"verdict {outcome[0].value}, pinned {cl.Verdict.DOMINATED.value}")
            elif not np.all(outcome[1] <= outcome[2]):
                op.fail("z exceeds phi on the sample grid")
            ops.append(op)
        return ops

    def pin(self, inputs, result):
        return {"outputs": {stem: pin_cli_outputs(out, self.commands)
                            for stem, _scn, out in inputs["runs"]}}


WORKLOADS = {w.name: w for w in (CliBump(), UniquenessTight(), ConstantsComparison())}
