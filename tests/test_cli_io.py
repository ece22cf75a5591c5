import json
from pathlib import Path

import numpy as np
import pytest

from channellab import cli_io
from channellab import comparison_lemmas as cl
from channellab import flux_carrier as fc
from channellab import geometry as geo
from channellab import ns_solver as ns
from channellab.errors import LemmaViolation, ParseError, ValidationError


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
        path = write_scenario(tmp_path, MINIMAL.format(out=tmp_path / "o"))
        sc = cli_io.parse_scenario(path, environ={})
        assert sc.name == "minimal"
        assert sc.params.epsilon == 0.5  # default rule at flux 1
        assert sc.solver.tol == 1e-9
        assert sc.grid_window == (-4.0, 4.0, 65, 17)

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

    def test_malformed_lines_raise_parse_error_with_lines(self, tmp_path):
        path = write_scenario(tmp_path, "name = x\nthis is not a pair\n")
        with pytest.raises(ParseError) as err:
            cli_io.parse_scenario(path, environ={})
        assert "line 2" in str(err.value)

    def test_env_override(self, tmp_path):
        path = write_scenario(tmp_path, MINIMAL.format(out=tmp_path / "o"))
        sc = cli_io.parse_scenario(
            path, environ={"CHANNELLAB_SOLVER__TOL": "1e-7"}
        )
        assert sc.solver.tol == 1e-7

    def test_linear_solver_key(self, tmp_path):
        body = MINIMAL.format(out=tmp_path / "o") + "\n[solver]\n"
        path = write_scenario(tmp_path, body + "linear_solver = banded_direct\n")
        assert cli_io.parse_scenario(path, environ={}).solver.tol == 1e-9
        path = write_scenario(tmp_path, body + "linear_solver = krylov_ilu\n")
        with pytest.raises(ValidationError) as err:
            cli_io.parse_scenario(path, environ={})
        assert "linear_solver" in str(err.value)
        assert "Krylov path" in str(err.value)

    def test_custom_profile_expressions(self, tmp_path):
        body = MINIMAL.format(out=tmp_path).replace(
            "family = straight\nd0 = 1.0",
            "family = custom\nf1 = -(1+abs(x))^0.5\nf2 = (1+abs(x))^0.5",
        )
        path = write_scenario(tmp_path, body)
        sc = cli_io.parse_scenario(path, environ={})
        assert float(sc.profile.f2(3.0)) == pytest.approx(2.0)


class TestArtifacts:
    def test_csv_deterministic_bytes(self, tmp_path):
        rows = [{"a": 1.0 / 3.0, "b": 2}, {"a": np.float64(0.1), "b": -1}]
        p1 = cli_io.write_csv(tmp_path / "x.csv", ["a", "b"], rows)
        p2 = cli_io.write_csv(tmp_path / "y.csv", ["a", "b"], rows)
        assert p1.read_bytes() == p2.read_bytes()

    def test_field_file_round_trip(self, straight, tmp_path):
        params = fc.CarrierParams(1.0, 0.5)
        state = ns.solve_steady(straight, params, -4, 4, 65, 17)
        path = cli_io.write_field_file(tmp_path / "f.field", state)
        header, arrays = cli_io.read_field_file(path)
        assert header["nx"] == 65 and header["ny"] == 17
        assert header["flux"] == 1.0
        for name, arr in [("psi", state.psi), ("u1", state.u1)]:
            assert np.array_equal(arrays[name], arr)

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

    def test_determinism_byte_identical_csv(self, tmp_path):
        path = self.scenario(tmp_path)
        sc = cli_io.parse_scenario(path, environ={})
        cli_io.run("growth-scan", sc, scenario_path=path, quiet=True)
        first = (tmp_path / "out" / "growth.csv").read_bytes()
        cli_io.run("growth-scan", sc, scenario_path=path, quiet=True)
        second = (tmp_path / "out" / "growth.csv").read_bytes()
        assert first == second
