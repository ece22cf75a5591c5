import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from channellab import cli_io
from channellab import comparison_lemmas as cl
from channellab import flux_carrier as fc
from channellab import geometry as geo
from channellab import ns_solver as ns
from channellab.errors import (
    LemmaViolation,
    NonConvergence,
    OutOfRange,
    ParseError,
    ValidationError,
)


def write_scenario(tmp_path, body, name="case.scn"):
    path = tmp_path / name
    path.write_text(body, encoding="utf-8")
    return path


MINIMAL = """
name = minimal
[profile]
family = straight
d0 = 1.0
[carrier]
flux = 1.0
[grid]
a = -4
b = 4
nx = 65
ny = 17
[harness]
t_list = 1, 2
t_range = 1, 2
target_hx = 0.25
[output]
dir = {out}
seed = 11
"""


class TestParsing:
    def test_minimal_scenario_fills_defaults(self, tmp_path):
        body = MINIMAL.format(out=tmp_path / "o").replace("target_hx = 0.25\n", "")
        sc = cli_io.parse_scenario(write_scenario(tmp_path, body), environ={})
        assert sc.name == "minimal"
        assert sc.params.epsilon == 0.5  # default rule at flux 1
        assert sc.solver == ns.SolverConfig()
        assert sc.thresholds == cli_io.eh.HarnessThresholds()
        assert (sc.target_hx, sc.pad_factor) == (
            cli_io.eh.GridPolicy.target_hx, cli_io.eh.GridPolicy.pad_factor)
        assert sc.grid_window == (-4.0, 4.0, 65, 17)

    def test_text_keys_are_read_verbatim(self, tmp_path):
        body = MINIMAL.format(out="1e3").replace("name = minimal", "name = on")
        path = write_scenario(tmp_path, body)
        sc = cli_io.parse_scenario(path, environ={})
        assert (sc.name, sc.out_dir) == ("on", Path("1e3"))
        sc = cli_io.parse_scenario(path, environ={"CHANNELLAB_OUTPUT__DIR": "runs/a,b"})
        assert sc.out_dir == Path("runs/a,b")

    def test_non_numeric_profile_value_is_reported_at_its_line(self, tmp_path):
        body = MINIMAL.format(out=tmp_path / "o").replace("d0 = 1.0", "d0 = abc")
        line = body.splitlines().index("d0 = abc") + 1
        with pytest.raises(ValidationError) as err:
            cli_io.parse_scenario(write_scenario(tmp_path, body), environ={})
        msg = str(err.value)
        assert f"line {line}: [profile] d0: expected a number, got 'abc'" in msg
        assert msg.count("d0") == 1

    @pytest.mark.parametrize("new, message", [
        ("target_hx = 0", "[harness] target_hx: must be positive"),
        ("target_hx = -1", "[harness] target_hx: must be positive"),
        ("pad_factor = -0.5", "[harness] pad_factor: must be nonnegative"),
    ], ids=["zero_hx", "negative_hx", "negative_pad"])
    def test_scan_grid_values_are_rejected_at_their_line(
            self, tmp_path, capsys, new, message):
        body = MINIMAL.format(out=tmp_path / "o").replace("target_hx = 0.25", new)
        line = body.splitlines().index(new) + 1
        path = write_scenario(tmp_path, body)
        assert cli_io.main(["growth-scan", "--scenario", str(path), "--quiet"]) == 1
        assert f"line {line}: {message}" in capsys.readouterr().err
        body = body.replace(new, "pad_factor = 0")
        assert cli_io.parse_scenario(
            write_scenario(tmp_path, body), environ={}).pad_factor == 0.0

    def test_epsilon_out_of_range(self, tmp_path):
        body = MINIMAL.format(out=tmp_path) + "\n[carrier]\nepsilon = 1.5\n"
        path = write_scenario(tmp_path, body)
        with pytest.raises(ValidationError) as err:
            cli_io.parse_scenario(path, environ={})
        assert "epsilon" in str(err.value)

    def test_unknown_family_lists_known(self, tmp_path):
        body = MINIMAL.format(out=tmp_path).replace(
            "family = straight", "family = wiggly"
        )
        path = write_scenario(tmp_path, body)
        with pytest.raises(ValidationError) as err:
            cli_io.parse_scenario(path, environ={})
        assert "straight" in str(err.value) and "power_law" in str(err.value)

    def test_all_errors_reported_at_once(self, tmp_path):
        body = MINIMAL.format(out=tmp_path)
        body = body.replace("family = straight", "family = wiggly")
        body += "\n[carrier]\nepsilon = 2.0\n"
        path = write_scenario(tmp_path, body)
        with pytest.raises(ValidationError) as err:
            cli_io.parse_scenario(path, environ={})
        msg = str(err.value)
        assert "family" in msg and "epsilon" in msg

    def test_non_numeric_values_reported_together(self, tmp_path, capsys):
        body = MINIMAL.format(out=tmp_path / "o")
        for old, new in [("nx = 65", "nx = abc"), ("flux = 1.0", "flux = abc"),
                         ("t_list = 1, 2", "t_list = 1, x")]:
            body = body.replace(old, new)
        path = write_scenario(tmp_path, body)
        with pytest.raises(ValidationError) as err:
            cli_io.parse_scenario(path, environ={})
        msg = str(err.value)
        assert "[grid] nx: expected an integer, got 'abc'" in msg
        assert "[carrier] flux: expected a number, got 'abc'" in msg
        assert "[harness] t_list: expected a number, got '1, x'" in msg
        assert cli_io.main(["solve", "--scenario", str(path), "--quiet"]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        body = MINIMAL.format(out=tmp_path / "o").replace("nx = 65", "nx = 65.5")
        with pytest.raises(ValidationError, match="expected an integer"):
            cli_io.parse_scenario(write_scenario(tmp_path, body), environ={})

    def test_malformed_lines_raise_parse_error_with_lines(self, tmp_path):
        path = write_scenario(tmp_path, "name = x\nthis is not a pair\n")
        with pytest.raises(ParseError) as err:
            cli_io.parse_scenario(path, environ={})
        assert "line 2" in str(err.value)

    def test_env_override(self, tmp_path):
        path = write_scenario(tmp_path, MINIMAL.format(out=tmp_path / "o"))
        sc = cli_io.parse_scenario(
            path, environ={"CHANNELLAB_SOLVER__TOL": "1e-7",
                           "CHANNELLAB_OUTPUT__SEED": str(2**53 + 1)}
        )
        assert sc.solver.tol == 1e-7
        assert sc.seed == 2**53 + 1  # integer text is not read through a float

    def test_unknown_keys_reported_together(self, tmp_path):
        body = MINIMAL.format(out=tmp_path / "o") + (
            "\n[solver]\ntolerance = 1e-12\n[profile]\nd1 = 2\n"
            "[harness]\nuniqueness_tol = 1e-6\n[carrier]\nepsilon = 1.5\n"
        )
        path = write_scenario(tmp_path, body)
        with pytest.raises(ValidationError) as err:
            cli_io.parse_scenario(
                path, environ={"CHANNELLAB_SOLVR__TOL": "1e-3",
                               "CHANNELLAB_SOLVER__TOL": "1e-7"}
            )
        msg = str(err.value)
        for key in ("[solver] tolerance", "[solvr] tol", "[profile] d1",
                    "[harness] uniqueness_tol"):
            assert f"{key}: unknown key" in msg
        assert "epsilon" in msg and "[solver] tol:" not in msg

    def test_errors_name_the_line_of_the_key(self, tmp_path):
        body = MINIMAL.format(out=tmp_path / "o").replace("nx = 65", "nx = abc")
        body += "[solver]\ntolerance = 1e-12\n"
        lines = body.splitlines()
        path = write_scenario(tmp_path, body)
        with pytest.raises(ValidationError) as err:
            cli_io.parse_scenario(path, environ={})
        msg = str(err.value)
        nx_line = lines.index("nx = abc") + 1
        tol_line = lines.index("tolerance = 1e-12") + 1
        assert f"line {nx_line}: [grid] nx: expected an integer" in msg
        assert f"line {tol_line}: [solver] tolerance: unknown key" in msg

    def test_errors_name_the_override_variable(self, tmp_path):
        path = write_scenario(tmp_path, MINIMAL.format(out=tmp_path / "o"))
        with pytest.raises(ValidationError) as err:
            cli_io.parse_scenario(
                path, environ={"CHANNELLAB_SOLVR__TOL": "1e-3",
                               "CHANNELLAB_GRID__NX": "abc"}
            )
        msg = str(err.value)
        assert "CHANNELLAB_SOLVR__TOL: [solvr] tol: unknown key" in msg
        assert "CHANNELLAB_GRID__NX: [grid] nx: expected an integer" in msg
        assert "line" not in msg

    def test_value_errors_name_their_line_or_variable(self, tmp_path):
        body = MINIMAL.format(out=tmp_path / "o")
        for old, new in [("family = straight", "family = wiggly"),
                         ("b = 4", "b = -5")]:
            body = body.replace(old, new)
        body += "[solver]\ntol = -1\nrelax = 0.5\n[carrier]\ncutoff = box\n"
        lines = body.splitlines()
        at = {text: lines.index(text) + 1
              for text in ("family = wiggly", "a = -4", "b = -5", "tol = -1",
                           "relax = 0.5", "cutoff = box")}
        path = write_scenario(tmp_path, body)
        with pytest.raises(ValidationError) as err:
            cli_io.parse_scenario(path, environ={"CHANNELLAB_CARRIER__FLUX": "-1"})
        msg = str(err.value)
        assert f"line {at['family = wiggly']}: [profile] family: unknown family" in msg
        assert (f"line {at['a = -4']}: [grid] a, line {at['b = -5']}: [grid] b: "
                "need b > a") in msg
        assert f"line {at['tol = -1']}: [solver] tol: tol must be positive" in msg
        assert f"line {at['relax = 0.5']}: [solver] relax: unsupported value" in msg
        assert (f"line {at['cutoff = box']}: [carrier] cutoff: unsupported value "
                "'box'") in msg
        assert "CHANNELLAB_CARRIER__FLUX: [carrier] flux: must be nonnegative" in msg
        body = MINIMAL.format(out=tmp_path / "o") + "[carrier]\nepsilon = 1.5\n"
        eps_line = body.splitlines().index("epsilon = 1.5") + 1
        with pytest.raises(ValidationError) as err:
            cli_io.parse_scenario(write_scenario(tmp_path, body), environ={})
        assert f"line {eps_line}: [carrier] epsilon: must lie in (0,1)" in str(err.value)

    def test_rejected_wall_names_its_lines(self, tmp_path):
        # the family factory names no key, so every [profile] value it got
        # is located
        scenarios = Path(__file__).resolve().parents[1] / "scenarios"
        body = (scenarios / "widening.scn").read_text(encoding="utf-8")
        assert body.splitlines()[6] == "alpha = 0.5"
        path = write_scenario(tmp_path, body.replace("alpha = 0.5", "alpha = 1.2"))
        with pytest.raises(ValidationError) as err:
            cli_io.parse_scenario(path, environ={})
        assert ("line 6: [profile] d0, line 7: [profile] alpha: power_law needs"
                in str(err.value))

    def test_bundled_scenarios_parse(self):
        scenarios = Path(__file__).resolve().parents[1] / "scenarios"
        paths = sorted(scenarios.glob("*.scn"))
        assert len(paths) == 4
        for path in paths:
            cli_io.parse_scenario(path, environ={})

    def test_linear_solver_key(self, tmp_path):
        body = MINIMAL.format(out=tmp_path / "o") + "\n[solver]\n"
        path = write_scenario(tmp_path, body + "linear_solver = banded_direct\n")
        assert cli_io.parse_scenario(path, environ={}).solver.tol == 1e-9
        path = write_scenario(tmp_path, body + "linear_solver = krylov_ilu\n")
        with pytest.raises(ValidationError) as err:
            cli_io.parse_scenario(path, environ={})
        assert "linear_solver" in str(err.value)
        assert "Krylov path" in str(err.value)

    def test_retired_solver_keys(self, tmp_path):
        body = MINIMAL.format(out=tmp_path / "o") + "\n[solver]\n"
        for relax in ("1.0", "1"):
            path = write_scenario(
                tmp_path, body + f"relax = {relax}\nconvection = central\n")
            assert cli_io.parse_scenario(path, environ={}).solver.max_iter == 60
        path = write_scenario(
            tmp_path,
            body + "relax = 0.8\nconvection = upwind\ncontinuation = 1, 2\n",
        )
        with pytest.raises(ValidationError) as err:
            cli_io.parse_scenario(path, environ={})
        msg = str(err.value)
        assert "[solver] relax" in msg and "under-relaxation" in msg
        assert "[solver] convection" in msg and "upwind" in msg
        assert "[solver] continuation" in msg

    def test_retired_cutoff_key(self, tmp_path):
        body = MINIMAL.format(out=tmp_path / "o") + "\n[carrier]\n"
        path = write_scenario(tmp_path, body + "cutoff = quintic\n")
        assert cli_io.parse_scenario(path, environ={}).params.phi == 1.0
        body += "cutoff = exp_bump\n"
        line = body.splitlines().index("cutoff = exp_bump") + 1
        with pytest.raises(ValidationError) as err:
            cli_io.parse_scenario(write_scenario(tmp_path, body), environ={})
        assert (f"line {line}: [carrier] cutoff: unsupported value 'exp_bump'; "
                "the other cutoffs were removed, only quintic remains"
                in str(err.value))

    def test_custom_profile_expressions(self, tmp_path):
        body = MINIMAL.format(out=tmp_path).replace(
            "family = straight\nd0 = 1.0",
            "family = custom\nf1 = -(1+abs(x))^0.5\nf2 = (1+abs(x))^0.5",
        )
        path = write_scenario(tmp_path, body)
        sc = cli_io.parse_scenario(path, environ={})
        assert float(sc.profile.f2(3.0)) == pytest.approx(2.0)

    def test_too_deep_wall_is_a_located_error(self, tmp_path):
        body = MINIMAL.format(out=tmp_path).replace(
            "family = straight\nd0 = 1.0",
            "family = custom\nf1 = -(1+abs(x))^0.5\nf2 = (1+abs(x))^0.5",
        )
        path = write_scenario(tmp_path, body)
        deep = "+".join(["x"] * 3000)
        with pytest.raises(ValidationError) as err:
            cli_io.parse_scenario(path, environ={"CHANNELLAB_PROFILE__F2": deep})
        assert "CHANNELLAB_PROFILE__F2: [profile] f2: cannot parse 'x+x" in str(err.value)

    def test_rejected_custom_wall_names_only_its_line(self, tmp_path):
        # the custom factory says which wall failed, so the other wall's
        # line is not named
        path = Path(__file__).resolve().parents[1] / "scenarios" / "custom_walls.scn"
        assert path.read_text(encoding="utf-8").splitlines()[6] == "f2 = (1+abs(x))^0.5"
        body = path.read_text(encoding="utf-8").replace("f2 = (1+abs(x))^0.5", "f2 = 0^-1")
        with pytest.raises(ValidationError) as err:
            cli_io.parse_scenario(write_scenario(tmp_path, body), environ={})
        assert str(err.value).startswith("scenario: line 7: [profile] f2: ")
        assert "f1" not in str(err.value)


class TestArtifacts:
    def test_csv_deterministic_bytes(self, tmp_path):
        rows = [{"a": 1.0 / 3.0, "b": 2}, {"a": np.float64(0.1), "b": -1}]
        p1 = cli_io.write_csv(tmp_path / "x.csv", rows)
        p2 = cli_io.write_csv(tmp_path / "y.csv", iter(rows))
        assert p1.read_bytes() == p2.read_bytes()
        assert p1.read_text().splitlines()[1:3] == ["a,b", "0.33333333333333331,2"]

    def test_field_file_round_trip(self, straight, tmp_path):
        params = fc.CarrierParams(1.0, 0.5)
        state = ns.solve_steady(straight, params, -4, 4, 65, 17)
        path = cli_io.write_field_file(tmp_path / "f.field", state)
        header, arrays, current = {}, {}, None
        for line in path.read_text(encoding="utf-8").splitlines()[1:]:
            if line.startswith("["):
                current = arrays.setdefault(line[1:-1], [])
            elif current is None:
                key, _, value = line.partition(" = ")
                header[key] = value
            else:
                current.append([float(v) for v in line.split()])
        assert header["nx"] == "65" and header["ny"] == "17"
        assert float(header["flux"]) == 1.0
        for name, arr in [("psi", state.psi), ("u1", state.u1)]:
            assert np.array_equal(np.array(arrays[name]), arr)

    def test_svg_written(self, tmp_path):
        p = cli_io.write_svg_plot(
            tmp_path / "p.svg",
            [("a", [0, 1, 2], [1.0, 2.0, 1.5])],
            title="t", xlabel="x", ylabel="y",
        )
        text = p.read_text()
        assert text.startswith("<svg") and "polyline" in text

    def test_comparison_csv_without_phi_builds_majorant(self, tmp_path):
        t = np.linspace(0, 1.5, 40)
        z = 0.2 * np.exp(t / 2)
        lines = ["t,z"] + [f"{a:.17g},{b:.17g}" for a, b in zip(t, z)]
        path = tmp_path / "prob2.csv"
        path.write_text("\n".join(lines))
        prob = cli_io.load_comparison_csv(path, cl.separable_psi(c1=1.0), 0.5)
        assert cl.comparison_conclude(prob) is cl.Verdict.DOMINATED

    def test_comparison_csv_loader(self, tmp_path):
        t = np.linspace(0, 2, 30)
        z = np.exp(t)
        phi = 4 * np.exp(t / 2)
        lines = ["t,z,phi"] + [
            f"{a:.17g},{b:.17g},{c:.17g}" for a, b, c in zip(t, z, phi)
        ]
        path = tmp_path / "prob.csv"
        path.write_text("\n".join(lines))
        prob = cli_io.load_comparison_csv(path, cl.separable_psi(c1=1.0), 0.5)
        assert cl.comparison_conclude(prob) is cl.Verdict.DOMINATED


class TestRun:
    def scenario(self, tmp_path):
        return write_scenario(tmp_path, MINIMAL.format(out=tmp_path / "out"))

    def test_carrier_check_passes(self, tmp_path):
        path = self.scenario(tmp_path)
        sc = cli_io.parse_scenario(path, environ={})
        status = cli_io.run("carrier-check", sc, scenario_path=path, quiet=True)
        assert status == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert "carrier_report.csv" in manifest["outputs"]
        assert manifest["scenario_sha256"]

    def test_carrier_check_passes_across_a_wall_joint(self, tmp_path):
        # seed 59 samples x1 = 4.00008, one stencil step from bump_outlet's
        # joint at x1 = k = 4, where the walls' third derivative jumps
        path = Path(__file__).resolve().parents[1] / "scenarios" / "bump_outlet.scn"
        sc = cli_io.parse_scenario(path, environ={
            "CHANNELLAB_OUTPUT__SEED": "59", "CHANNELLAB_OUTPUT__DIR": str(tmp_path)})
        assert cli_io.run("carrier-check", sc, scenario_path=path, quiet=True) == 0

    def test_gradient_check_redraws_stencils_across_a_kink(self):
        # custom_walls' abs walls turn at x1 = 0: a stencil of step h around
        # x1 = +-0.5h misses the slope there by O(1), whatever h is
        path = Path(__file__).resolve().parents[1] / "scenarios" / "custom_walls.scn"
        sc = cli_io.parse_scenario(path, environ={})
        a, b = sc.grid_window[:2]
        h = 1e-5

        class Draws:
            """The given unit draws first, then a seeded stream's."""

            def __init__(self, first):
                self.first = list(first)
                self.rng = np.random.default_rng(0)
                self.taken = 0

            def random(self, shape=()):
                n = int(np.prod(shape))
                head, self.first = self.first[:n], self.first[n:]
                self.taken += n
                return np.concatenate(
                    [head, self.rng.random(n - len(head))]).reshape(shape)

            def uniform(self, lo, hi):
                return lo + (hi - lo) * float(self.random())

        draws = Draws([(0.5 * h - a) / (b - a), 0.5, (-0.5 * h - a) / (b - a), 0.5])
        err = cli_io._grad_fd_spot_check(sc.params, sc.profile, (a, b), draws)
        assert err <= 1e-6
        assert draws.taken == 2 * (40 + 2)  # both kink points drawn again

    @pytest.mark.parametrize("wall, message", [
        ("2^2^2^2^2", "2 to the power 65536 is not a finite real number"),
        ("0^-1", "0 to the power -1 is not a finite real number"),
    ])
    def test_unfoldable_constant_power_is_a_located_error(
            self, tmp_path, monkeypatch, capsys, wall, message):
        path = Path(__file__).resolve().parents[1] / "scenarios" / "custom_walls.scn"
        monkeypatch.setenv("CHANNELLAB_PROFILE__F1", wall)
        status = cli_io.main(["carrier-check", "--scenario", str(path),
                              "--out", str(tmp_path), "--quiet"])
        assert status == 1
        err = capsys.readouterr().err
        assert f"CHANNELLAB_PROFILE__F1: [profile] f1: {message}" in err
        assert "Traceback" not in err

    def test_bare_number_wall_is_constant(self, tmp_path, monkeypatch):
        path = Path(__file__).resolve().parents[1] / "scenarios" / "custom_walls.scn"
        sc = cli_io.parse_scenario(path, environ={"CHANNELLAB_PROFILE__F1": "-1"})
        x = np.linspace(-3.0, 3.0, 7)
        assert np.array_equal(sc.profile.f1(x), np.full(7, -1.0))
        assert np.array_equal(sc.profile.f1p(x), np.zeros(7))
        monkeypatch.setenv("CHANNELLAB_PROFILE__F1", "-1")
        assert cli_io.main(["carrier-check", "--scenario", str(path),
                            "--out", str(tmp_path), "--quiet"]) == 0

    def test_manifest_merges_every_command(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        path = self.scenario(tmp_path)
        sc = cli_io.parse_scenario(path, environ={})
        statuses = {
            cmd: cli_io.run(cmd, sc, scenario_path=path, quiet=True)
            for cmd in cli_io._PIPELINES
        }
        out = tmp_path / "out"
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["scenario"] == "case.scn"
        assert {
            cmd: entry["exit_status"] for cmd, entry in manifest["commands"].items()
        } == statuses
        written = [p.name for p in out.glob("*.csv")] + ["flow.field"]
        assert len(written) > 8
        for name in written:
            digest = hashlib.sha256((out / name).read_bytes()).hexdigest()
            assert manifest["outputs"][name] == digest, name

    def test_manifest_of_another_scenario_is_replaced(self, tmp_path):
        first = self.scenario(tmp_path)
        second = write_scenario(
            tmp_path, MINIMAL.format(out=tmp_path / "out"), name="other.scn"
        )
        for path, cmd in ((first, "solve"), (second, "carrier-check")):
            sc = cli_io.parse_scenario(path, environ={})
            assert cli_io.run(cmd, sc, scenario_path=path, quiet=True) == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert list(manifest["commands"]) == ["carrier-check"]
        assert list(manifest["outputs"]) == ["carrier_report.csv"]

    def test_growth_scan_and_report(self, tmp_path):
        path = self.scenario(tmp_path)
        sc = cli_io.parse_scenario(path, environ={})
        assert cli_io.run("growth-scan", sc, scenario_path=path, quiet=True) == 0
        assert cli_io.run("report", sc, scenario_path=path, quiet=True) == 0
        summary = (tmp_path / "out" / "summary.csv").read_text()
        assert "PASS" in summary and "FAIL" not in summary

    def test_hat_inequality_bug_fails_growth_scan(self, tmp_path, monkeypatch):
        # a LemmaViolation is an implementation bug, not a skipped check
        def broken(*args, **kwargs):
            raise LemmaViolation("comparison did not conclude domination")

        monkeypatch.setattr(cli_io.eh, "hat_energy_inequality", broken)
        path = self.scenario(tmp_path)
        sc = cli_io.parse_scenario(path, environ={})
        assert cli_io.run("growth-scan", sc, scenario_path=path, quiet=True) == 1

    def test_grid_option_sizes_scans(self, tmp_path, monkeypatch):
        # --grid nx,ny: the scans keep nx from target_hx and take the ny
        policies = []

        def capture(profile, params, t_max, policy, config):
            policies.append(policy)
            raise OutOfRange("captured")

        monkeypatch.setattr(cli_io.eh, "padded_solve", capture)
        body = MINIMAL.format(out=tmp_path / "out") + "\n[harness]\noutlet_k = 0.5\n"
        path = write_scenario(tmp_path, body)
        for command in ("growth-scan", "decay-scan", "poiseuille"):
            argv = [command, "--scenario", str(path), "--grid", "65,9", "--quiet"]
            assert cli_io.main(argv) == 1
        assert policies == [cli_io.eh.GridPolicy(target_hx=0.25, ny=9)] * 3

    def test_poiseuille_rejects_t_list_before_solving(self, tmp_path,
                                                      monkeypatch, capsys):
        def no_lookup(*args, **kwargs):
            raise AssertionError("looked up a state before checking t_list")

        # no solve and no reuse of a cached state either
        monkeypatch.setattr(cli_io, "_padded_state", no_lookup)
        body = MINIMAL.format(out=tmp_path / "out").replace(
            "t_list = 1, 2", "t_list = 2, 4, 8\noutlet_k = 4"
        )
        sc = cli_io.parse_scenario(write_scenario(tmp_path, body), environ={})
        assert cli_io.run("poiseuille", sc) == 1
        assert "two windows" in capsys.readouterr().err

    def test_solve_writes_field_and_history(self, tmp_path):
        path = self.scenario(tmp_path)
        sc = cli_io.parse_scenario(path, environ={})
        assert cli_io.run("solve", sc, scenario_path=path, quiet=True) == 0
        out = tmp_path / "out"
        assert (out / "flow.field").exists()
        hist = (out / "residual_history.csv").read_text().splitlines()
        assert hist[1] == "iteration,residual"

    def test_invalid_profile_gives_exit_1(self, tmp_path):
        # width hits zero inside the grid window: AssumptionViolation -> 1
        body = MINIMAL.format(out=tmp_path / "out").replace(
            "family = straight\nd0 = 1.0",
            "family = custom\nf1 = 0*x - 1 + x^2/8\nf2 = 1 - x^2/8",
        )
        path = write_scenario(tmp_path, body)
        sc = cli_io.parse_scenario(path, environ={})
        assert cli_io.run("growth-scan", sc, scenario_path=path, quiet=True) == 1

    def test_main_cli_round_trip(self, tmp_path, capsys):
        path = self.scenario(tmp_path)
        status = cli_io.main(
            ["carrier-check", "--scenario", str(path), "--quiet"]
        )
        assert status == 0

    def test_python_m_channellab(self):
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(src), env.get("PYTHONPATH")) if p
        )
        proc = subprocess.run(
            [sys.executable, "-m", "channellab", "--help"], env=env,
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "RuntimeWarning" not in proc.stderr
        assert "carrier-check" in proc.stdout

    def test_determinism_byte_identical_csv(self, tmp_path, solve_calls):
        path = self.scenario(tmp_path)
        sc = cli_io.parse_scenario(path, environ={})
        cli_io.run("growth-scan", sc, scenario_path=path, quiet=True)
        first = (tmp_path / "out" / "growth.csv").read_bytes()
        # a second directory, so the second run solves afresh
        sc.out_dir = tmp_path / "again"
        cli_io.run("growth-scan", sc, scenario_path=path, quiet=True)
        second = (tmp_path / "again" / "growth.csv").read_bytes()
        assert len(solve_calls) == 2
        assert first == second


class TestSessionSolves:
    """Scan commands into one output directory share their padded solves."""

    # outlet_k 0.5 gives poiseuille two plateau windows in t_list 1, 2
    BODY = MINIMAL + "\n[harness]\noutlet_k = 0.5\n"

    def scenario(self, tmp_path, out="out"):
        text = self.BODY.format(out=tmp_path / out)
        return write_scenario(tmp_path, text, name=f"{out}.scn")

    def command(self, command, path, *extra):
        return cli_io.main([command, "--scenario", str(path), "--quiet", *extra])

    def states(self, out):
        return sorted(p.name for p in out.glob(".padded-*"))

    def test_growth_then_poiseuille_solve_once(self, tmp_path, solve_calls):
        path = self.scenario(tmp_path)
        assert self.command("growth-scan", path) == 0
        status = self.command("poiseuille", path)
        assert len(solve_calls) == 1
        # a fresh solve in another directory writes the same bytes
        fresh = self.scenario(tmp_path, out="fresh")
        assert self.command("poiseuille", fresh) == status
        assert len(solve_calls) == 2
        for name in ("poiseuille.csv", "poiseuille_verdicts.csv"):
            reused = (tmp_path / "out" / name).read_bytes()
            assert reused == (tmp_path / "fresh" / name).read_bytes(), name

    def test_another_process_reuses_the_state(self, tmp_path, solve_calls):
        path = self.scenario(tmp_path)
        assert self.command("growth-scan", path) == 0
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(src), env.get("PYTHONPATH")) if p
        )
        proc = subprocess.run(
            [sys.executable, "-m", "channellab", "poiseuille", "--scenario",
             str(path)], env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        lines = [line for line in proc.stdout.splitlines()
                 if "padded window" in line]
        assert len(lines) == 1 and lines[0].endswith(": reused"), proc.stdout

    def test_two_directories_solve_twice(self, tmp_path, solve_calls):
        for out in ("run1", "run2"):
            assert self.command("growth-scan", self.scenario(tmp_path, out)) == 0
        assert len(solve_calls) == 2

    @pytest.mark.parametrize(
        "edit, env, extra",
        [
            (("flux = 1.0", "flux = 0.5"), {}, ()),
            (None, {"CHANNELLAB_SOLVER__TOL": "1e-10"}, ()),
            (None, {}, ("--grid", "65,13")),
            (("target_hx = 0.25", "target_hx = 0.2"), {}, ()),
            (None, {"CHANNELLAB_PROFILE__D0": "1.5"}, ()),
            (("d0 = 1.0", "d0 = 1.25"), {}, ()),
        ],
        ids=["flux", "tol", "grid-ny", "target-hx", "profile-env",
             "profile-file"],
    )
    def test_changed_input_solves_again(self, tmp_path, monkeypatch, solve_calls,
                                        edit, env, extra):
        path = self.scenario(tmp_path)
        assert self.command("growth-scan", path) == 0
        first = self.states(tmp_path / "out")
        if edit is not None:
            path.write_text(path.read_text().replace(*edit))
        for key, value in env.items():
            monkeypatch.setenv(key, value)
        self.command("growth-scan", path, *extra)
        assert len(solve_calls) == 2
        # the new session's state replaced the old one
        second = self.states(tmp_path / "out")
        assert len(first) == len(second) == 1 and first != second

    def test_changed_code_solves_again(self, tmp_path, monkeypatch, solve_calls):
        path = self.scenario(tmp_path)
        assert self.command("growth-scan", path) == 0
        monkeypatch.setattr(cli_io, "_code_version", lambda: "edited")
        assert self.command("growth-scan", path) == 0
        assert len(solve_calls) == 2

    def test_session_keeps_each_window(self, tmp_path, monkeypatch, solve_calls):
        path = self.scenario(tmp_path)
        monkeypatch.setenv("CHANNELLAB_HARNESS__T_RANGE", "1, 3")
        for command in ("growth-scan", "decay-scan", "poiseuille", "decay-scan"):
            self.command(command, path)
        # t_max 2 (growth, poiseuille) and 3 (decay): two windows, both kept
        assert len(solve_calls) == 2
        assert solve_calls[0][2:4] != solve_calls[1][2:4]
        assert len(self.states(tmp_path / "out")) == 2

    def test_unreadable_state_solves_again(self, tmp_path, solve_calls):
        path = self.scenario(tmp_path)
        assert self.command("growth-scan", path) == 0
        (state,) = (tmp_path / "out").glob(".padded-*")
        state.write_bytes(b"not a state")
        assert self.command("growth-scan", path) == 0
        assert len(solve_calls) == 2
        assert self.command("poiseuille", path) == 0
        assert len(solve_calls) == 2

    def test_reused_state_is_read_only(self, tmp_path, solve_calls):
        path = self.scenario(tmp_path)
        assert self.command("growth-scan", path) == 0
        sc = cli_io.parse_scenario(path, environ={})
        state = cli_io._padded_state(sc, sc.out_dir, max(sc.t_list), quiet=True)
        assert len(solve_calls) == 1
        with pytest.raises(ValueError):
            state.psi[1, 1] = 0.0

    def test_failed_solve_is_not_cached(self, tmp_path, monkeypatch, capsys):
        calls = []

        def diverge(*args, **kwargs):
            calls.append(args)
            raise NonConvergence("diverged", best_residual=0.3, iterations=4)

        monkeypatch.setattr(ns, "solve_steady", diverge)
        path = self.scenario(tmp_path)
        for command in ("growth-scan", "poiseuille"):
            assert cli_io.main([command, "--scenario", str(path)]) == 1
            assert "NonConvergence: diverged" in capsys.readouterr().err
        assert len(calls) == 2
        assert self.states(tmp_path / "out") == []

    def test_scans_say_what_they_solved(self, tmp_path, capsys, solve_calls):
        path = self.scenario(tmp_path)
        for command in ("growth-scan", "poiseuille"):
            cli_io.main([command, "--scenario", str(path)])
        lines = [line.strip() for line in capsys.readouterr().out.splitlines()
                 if "padded window" in line]
        assert len(lines) == 2 and len(solve_calls) == 1
        a, b, nx, ny = solve_calls[0][2:6]
        hx = (b - a) / (nx - 1)
        assert lines[0] == (f"padded window [{a:.6g}, {b:.6g}], {nx}x{ny}, "
                            f"hx {hx:.4g}: solved")
        assert lines[1] == lines[0].replace("solved", "reused")
