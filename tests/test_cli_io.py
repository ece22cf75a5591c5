import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from channellab import cli_io
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


RANGE = "need two numbers lo, hi with 0 < lo < hi"
DISTINCT = "need two or more distinct values, all > 0"


class TestParsing:
    def test_minimal_scenario_fills_defaults(self, tmp_path):
        body = MINIMAL.format(out=tmp_path / "o").replace("target_hx = 0.25\n", "")
        sc = cli_io.parse_scenario(write_scenario(tmp_path, body), environ={})
        assert sc.name == "minimal"
        assert sc.params.epsilon == 0.5  # default rule at flux 1
        assert not hasattr(sc, "solver")  # solves use ns.SolverConfig()
        assert sc.grid_window == (-4.0, 4.0, 65, 17)
        assert sc.target_hx == 0.125

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

    @pytest.mark.parametrize("edits, where, text", [
        ({"a = -10": "a = 15", "b = 10": "b = nan"}, "b = 10", "nan"),
        ({"a = -10": "a = 15", "b = 10": "b = abc"}, "b = 10", "abc"),
        ({"a = -10": "a = abc", "b = 10": "b = -20"}, "a = -10", "abc"),
        ({"flux = 1.0": "flux = abc"}, "flux = 1.0", "abc"),
        ({"epsilon = 0.5": "epsilon = nan"}, "epsilon = 0.5", "nan"),
        ({"target_hx = 0.125": "target_hx = abc"}, "target_hx = 0.125", "abc"),
        ({"t_list = 2, 4, 6, 8": "t_list = 8, nan"}, "t_list = 2, 4, 6, 8", "8, nan"),
        ({"t_range = 2, 8": "t_range = 8, nan"}, "t_range = 2, 8", "8, nan"),
        ({"x_max = 6": "x_max = abc"}, "x_max = 6", "abc"),
    ], ids=["b-nan-below-a", "b-text-below-a", "a-text-above-b", "flux-text",
            "epsilon-nan", "target-hx-text", "t-list-nan", "t-range-nan",
            "x-max-text"])
    def test_rejected_value_reads_one_error(self, tmp_path, edits, where, text):
        # a rejected value's default once stood in for the range checks:
        # a = 15, b = nan also read "need b > a" against b's default 10
        src = Path(__file__).resolve().parents[1] / "scenarios" / "straight.scn"
        body = src.read_text(encoding="utf-8")
        lines = body.splitlines()
        line = lines.index(where) + 1
        section = next(s for s in reversed(lines[:line]) if s.startswith("["))
        for old, new in edits.items():
            body = body.replace(old, new)
        with pytest.raises(ValidationError) as err:
            cli_io.parse_scenario(write_scenario(tmp_path, body), environ={})
        assert err.value.constraint == (
            f"line {line}: {section} {where.split()[0]}: expected "
            f"{'a number' if text == 'abc' else 'a finite number'}, got {text!r}")

    @pytest.mark.parametrize("new, message", [
        ("target_hx = 0", "[harness] target_hx: must be positive"),
        ("target_hx = -1", "[harness] target_hx: must be positive"),
        ("pad_factor = -0.5", "[harness] pad_factor: unknown key"),
        ("wall_delta = 0.6", "[harness] wall_delta: unknown key"),
        ("wall_delta = -0.1", "[harness] wall_delta: unknown key"),
        ("growth_ratio_bound = 1e9", "[harness] growth_ratio_bound: unknown key"),
        ("growth_lower_bound = -1", "[harness] growth_lower_bound: unknown key"),
        ("decay_ratio_bound = 1e9", "[harness] decay_ratio_bound: unknown key"),
        ("plateau_fraction = 1e9", "[harness] plateau_fraction: unknown key"),
        ("t_range = 40, 10", f"[harness] t_range: {RANGE}"),
        ("t_range = 8", f"[harness] t_range: {RANGE}"),
        ("t_range = 10, 20, 40", f"[harness] t_range: {RANGE}"),
        ("t_range = 0, 2", f"[harness] t_range: {RANGE}"),
        ("t_list = 8", f"[harness] t_list: {DISTINCT}"),
        ("t_list = 2, 2", f"[harness] t_list: {DISTINCT}"),
        ("t_list = -1, 2", f"[harness] t_list: {DISTINCT}"),
        ("x_max = -5", "[harness] x_max: must be positive"),
        ("x_max = 0", "[harness] x_max: must be positive"),
    ], ids=["zero_hx", "negative_hx", "negative_pad", "wide_wall_delta",
            "negative_wall_delta", "growth_ratio_bound", "growth_lower_bound",
            "decay_ratio_bound", "plateau_fraction", "reversed_t_range",
            "one_t_range", "three_t_range", "zero_t_range", "one_t_list",
            "repeated_t_list", "negative_t_list", "negative_x_max",
            "zero_x_max"])
    def test_scan_grid_values_are_rejected_at_their_line(
            self, tmp_path, capsys, new, message):
        # the verdict bounds and the pad are constants, so a scenario cannot
        # loosen them: any value of theirs, even one that would pass every
        # flow, is an unknown key.  A scan window that passes by construction
        # (one slice range, one t) or reaches past the padded state is refused.
        # A key stands once: the value replaces MINIMAL's own line of it
        body = MINIMAL.format(out=tmp_path / "o")
        key = new.partition(" =")[0]
        if f"\n{key} = " not in body:
            key = "target_hx"
        body = re.sub(rf"^{key} = .*$", new, body, count=1, flags=re.M)
        line = body.splitlines().index(new) + 1
        path = write_scenario(tmp_path, body)
        assert cli_io.main(["growth-scan", "--scenario", str(path), "--quiet"]) == 1
        assert f"line {line}: {message}" in capsys.readouterr().err
        body = body.replace(new, "pad_factor = 0")  # once accepted
        with pytest.raises(ValidationError) as err:
            cli_io.parse_scenario(write_scenario(tmp_path, body), environ={})
        assert f"line {line}: [harness] pad_factor: unknown key" in str(err.value)

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

    def test_empty_family_is_reported_at_its_line(self, tmp_path, capsys):
        body = MINIMAL.format(out=tmp_path / "o").replace(
            "family = straight", "family =")
        line = body.splitlines().index("family =") + 1
        path = write_scenario(tmp_path, body)
        assert cli_io.main(["carrier-check", "--scenario", str(path), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert f"line {line}: [profile] family: unknown family ''; known: straight" in err

    @pytest.mark.parametrize("walls", [
        "c1 = -1", "c2 = 1", "d0 = 1.0\nc1 = -1\nc2 = 1",
    ], ids=["lower_only", "upper_only", "d0_and_walls"])
    def test_straight_needs_d0_or_both_walls(self, tmp_path, capsys, walls):
        body = MINIMAL.format(out=tmp_path / "o").replace("d0 = 1.0", walls)
        lines = body.splitlines()
        where = ", ".join(f"line {lines.index(w) + 1}: [profile] {w[:2]}"
                          for w in walls.split("\n"))
        path = write_scenario(tmp_path, body)
        assert cli_io.main(["carrier-check", "--scenario", str(path), "--quiet"]) == 1
        assert (f"{where}: straight takes either d0 or both walls c1 and c2"
                in capsys.readouterr().err)

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

    def test_key_given_twice_in_a_section(self, tmp_path):
        # the second flux once replaced the first silently; a repeated
        # header merges, and an override still replaces the file's value
        body = MINIMAL.format(out=tmp_path / "o")
        twice = body.replace("flux = 1.0", "flux = 1.0\nflux = 50")
        lines = twice.splitlines()
        first, second = lines.index("flux = 1.0") + 1, lines.index("flux = 50") + 1
        with pytest.raises(ParseError) as err:
            cli_io.parse_scenario(write_scenario(tmp_path, twice), environ={})
        assert (f"line {second}: [carrier] flux: already given on line {first}"
                in str(err.value))
        merged = write_scenario(tmp_path, body + "[carrier]\nepsilon = 0.25\n")
        sc = cli_io.parse_scenario(
            merged, environ={"CHANNELLAB_CARRIER__FLUX": "0.5"})
        assert (sc.params.phi, sc.params.epsilon) == (0.5, 0.25)

    def test_blank_section_header_is_malformed(self, tmp_path):
        body = MINIMAL.format(out=tmp_path / "o").replace("[grid]", "[ ]")
        with pytest.raises(ParseError) as err:
            cli_io.parse_scenario(write_scenario(tmp_path, body), environ={})
        line = body.splitlines().index("[ ]") + 1
        assert f"line {line}: malformed section header '[ ]'" in str(err.value)

    def test_negative_seed_is_rejected(self, tmp_path, capsys):
        body = MINIMAL.format(out=tmp_path / "o").replace("seed = 11", "seed = -1")
        path = write_scenario(tmp_path, body)
        line = body.splitlines().index("seed = -1") + 1
        with pytest.raises(ValidationError) as err:
            cli_io.parse_scenario(path, environ={})
        assert f"line {line}: [output] seed: must be nonnegative" in str(err.value)
        assert cli_io.main(["carrier-check", "--scenario", str(path), "--quiet"]) == 1
        assert "Traceback" not in capsys.readouterr().err

    def test_env_override(self, tmp_path):
        path = write_scenario(tmp_path, MINIMAL.format(out=tmp_path / "o"))
        sc = cli_io.parse_scenario(
            path, environ={"CHANNELLAB_CARRIER__FLUX": "0.25",
                           "CHANNELLAB_OUTPUT__SEED": str(2**53 + 1)}
        )
        assert sc.params.phi == 0.25
        assert sc.seed == 2**53 + 1  # integer text is not read through a float
        # keys that are gone are unknown at their variable, at any value
        for var, value, key in (
                ("CHANNELLAB_SOLVER__TOL", "1e-7", "[solver] tol"),
                ("CHANNELLAB_SOLVER__MAX_ITER", "60", "[solver] max_iter"),
                ("CHANNELLAB_HARNESS__PAD_FACTOR", "2.0", "[harness] pad_factor")):
            with pytest.raises(ValidationError) as err:
                cli_io.parse_scenario(path, environ={var: value})
            assert f"{var}: {key}: unknown key" in str(err.value)

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
        assert "epsilon" in msg
        assert "CHANNELLAB_SOLVER__TOL: [solver] tol: unknown key" in msg

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
        assert f"line {at['tol = -1']}: [solver] tol: unknown key" in msg
        assert f"line {at['relax = 0.5']}: [solver] relax: unknown key" in msg
        assert f"line {at['cutoff = box']}: [carrier] cutoff: unknown key" in msg
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

    def unknown_at_their_lines(self, tmp_path, section, lines):
        """Parse MINIMAL plus ``lines`` under ``[section]``; each line's key
        must be reported as an unknown key at that line."""
        body = MINIMAL.format(out=tmp_path / "o") + f"\n[{section}]\n"
        body += "".join(f"{line}\n" for line in lines)
        at = body.splitlines()
        with pytest.raises(ValidationError) as err:
            cli_io.parse_scenario(write_scenario(tmp_path, body), environ={})
        for line in lines:
            key = line.partition(" =")[0]
            assert (f"line {at.index(line) + 1}: [{section}] {key}: unknown key"
                    in str(err.value))

    def test_linear_solver_key(self, tmp_path):
        # the one value it used to accept is rejected too: the key is gone
        self.unknown_at_their_lines(tmp_path, "solver",
                                    ["linear_solver = banded_direct"])

    def test_retired_solver_keys(self, tmp_path):
        # solves use ns.SolverConfig(): the tolerance and the step cap are
        # no scenario keys, whatever their value
        self.unknown_at_their_lines(
            tmp_path, "solver",
            ["relax = 1", "convection = central", "continuation = 1, 2",
             "tol = 1e-9", "max_iter = 60"])

    def test_retired_cutoff_key(self, tmp_path):
        self.unknown_at_their_lines(tmp_path, "carrier", ["cutoff = quintic"])

    def test_retired_comparison_keys(self, tmp_path):
        # `comparison` judges one fixed problem: a scenario chooses neither
        # its Psi and delta1 nor a file of its own
        keys = ["c1 = 0.0", "c2 = 1.0", "exponent = 1.5", "delta1 = 0.5",
                "file = problem.csv"]
        self.unknown_at_their_lines(tmp_path, "comparison", keys)
        path = write_scenario(tmp_path, MINIMAL.format(out=tmp_path / "o"))
        for key, _, value in (k.partition(" = ") for k in keys):
            var = f"CHANNELLAB_COMPARISON__{key.upper()}"
            with pytest.raises(ValidationError) as err:
                cli_io.parse_scenario(path, environ={var: value})
            assert f"{var}: [comparison] {key}: unknown key" in str(err.value)

    def test_non_utf8_scenario_is_a_parse_error(self, tmp_path, capsys):
        path = tmp_path / "latin1.scn"
        path.write_bytes(MINIMAL.format(out=tmp_path / "o").replace(
            "name = minimal", "name = caf\xe9").encode("latin-1"))
        with pytest.raises(ParseError, match=f"{path}: line 2: not UTF-8"):
            cli_io.parse_scenario(path, environ={})
        assert cli_io.main(["solve", "--scenario", str(path), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert f"{path}: line 2: not UTF-8 text" in err and "Traceback" not in err

    def test_readme_scenario_example_parses(self, tmp_path):
        # the annotated example lists every key it shows; none may be unknown
        readme = Path(__file__).resolve().parents[1] / "README.md"
        text = readme.read_text(encoding="utf-8")
        example = text.split("```ini\n", 1)[1].split("```", 1)[0]
        assert "[harness]" in example
        sc = cli_io.parse_scenario(write_scenario(tmp_path, example), environ={})
        assert sc.name == "widening"

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
        # as for a constant power, so for a constant quotient with no finite
        # value, and for one in a derivative, which the message names
        for wall, derivative in (("0^-1", ""), ("2+1/0*x", ""),
                                 ("2 + x/1e-200", "f2': "),
                                 ("1 + (1e200*x)^2", "f2'': ")):
            body = path.read_text(encoding="utf-8").replace(
                "f2 = (1+abs(x))^0.5", f"f2 = {wall}")
            with pytest.raises(ValidationError) as err:
                cli_io.parse_scenario(write_scenario(tmp_path, body), environ={})
            assert str(err.value).startswith(
                f"scenario: line 7: [profile] f2: {derivative}")
            assert "not a finite real number" in str(err.value)
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

    def test_field_file_text_is_per_number_format(self, straight, tmp_path):
        # the row templates write exactly format(v, ".17g") of each number
        grid = geo.make_grid(straight, -1, 1, 9, 8)
        rng = np.random.default_rng(3)
        psi = rng.standard_normal((9, 8)) * 10.0 ** rng.integers(-30, 30, (9, 8))
        psi[0, :3] = [0.0, -0.0, 5e-310]
        omega = -psi.T.ravel().reshape(9, 8)
        state = ns.state_from_fields(grid, fc.CarrierParams(1.0, 0.5), psi,
                                     omega)
        path = cli_io.write_field_file(tmp_path / "f.field", state)
        lines = path.read_text(encoding="utf-8").splitlines()
        body = lines[lines.index("[psi]"):]
        want = []
        for name, arr in [("psi", psi), ("omega", omega), ("u1", state.u1),
                          ("u2", state.u2)]:
            want.append(f"[{name}]")
            want.extend(" ".join(format(v, ".17g") for v in row) for row in arr)
        assert body == want
        assert body[1].split()[:2] == ["0", "-0"]

    def test_svg_written(self, tmp_path):
        p = cli_io.write_svg_plot(
            tmp_path / "p.svg",
            [("a", [0, 1, 2], [1.0, 2.0, 1.5])],
            title="t", xlabel="x", ylabel="y",
        )
        text = p.read_text()
        assert text.startswith("<svg") and "polyline" in text

    @pytest.mark.parametrize("logy", [False, True])
    def test_lone_point_drawn_mid_frame(self, tmp_path, logy):
        # a one-value axis range widens about the point, not above it
        p = cli_io.write_svg_plot(tmp_path / "p.svg",
                                  [("a", [8.0, np.nan], [3e-4, 1.0])],
                                  logy=logy)
        text = p.read_text()
        frame = re.search(r'<rect x="(\d+)" y="(\d+)" width="(\d+)" '
                          r'height="(\d+)" fill="none"', text)
        x, y, w, h = map(int, frame.groups())
        marker = re.search(r'<circle cx="([\d.]+)" cy="([\d.]+)"', text)
        cx, cy = map(float, marker.groups())
        assert (cx, cy) == (x + w / 2, y + h / 2)


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

    def test_wall_with_a_newline_keeps_its_label_on_one_line(
            self, tmp_path, monkeypatch):
        # any whitespace separates the grammar's tokens, a newline included;
        # the label collapses each run to one space, so each row is one line
        path = Path(__file__).resolve().parents[1] / "scenarios" / "custom_walls.scn"
        monkeypatch.setenv("CHANNELLAB_PROFILE__F2", "(1+abs(x))^0.5\n+ 0*x")
        assert cli_io.main(["constants", "--scenario", str(path),
                            "--out", str(tmp_path), "--quiet"]) == 0
        lines = (tmp_path / "constants.csv").read_text().splitlines()
        assert len(lines) == 6  # the version comment, the header, M0 M1 M4 M5
        assert "f2=(1+abs(x))^0.5 + 0*x)" in lines[2]

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
        # each command's own wall time, whatever its exit status
        for entry in manifest["commands"].values():
            assert 0.0 < entry["wall_s"] < 600.0
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

    def test_report_without_verdicts_is_an_error(self, tmp_path, capsys):
        # it once wrote a none,none,PASS row and exited 0
        path = self.scenario(tmp_path)
        assert cli_io.main(["report", "--scenario", str(path)]) == 1
        out = tmp_path / "out"
        assert f"{out}: no *_verdicts.csv to aggregate" in capsys.readouterr().err
        assert not (out / "summary.csv").exists()

    @pytest.mark.parametrize("text, where", [
        (b"# channellab csv v1\nname,status\nx,PASS\n", ""),
        (b"# channellab csv v1\nverdict,status\nx,PASS\ny,PASS,1\n",
         ": line 4"),
        (b"# channellab csv v1\nverdict,status\n\xff\xfe,PASS\n", ""),
    ], ids=["header", "row", "not_utf8"])
    def test_report_on_a_malformed_verdict_file(self, tmp_path, capsys, text,
                                                where):
        # line.split(",") once raised a ValueError traceback, and bytes that
        # are not UTF-8 a UnicodeDecodeError one
        path = self.scenario(tmp_path)
        out = tmp_path / "out"
        out.mkdir()
        (out / "odd_verdicts.csv").write_bytes(text)
        assert cli_io.main(["report", "--scenario", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: ChannelLabError: {out / 'odd_verdicts.csv'}"
                              f"{where}: ")
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["commands"]["report"]["exit_status"] == 1

    def test_report_on_a_manifest_entry_without_status(self, tmp_path,
                                                       capsys):
        # the missing key once raised a KeyError traceback
        path = self.scenario(tmp_path)
        args = ["--scenario", str(path), "--quiet"]
        assert cli_io.main(["growth-scan", *args]) == 0
        manifest_path = tmp_path / "out" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        del manifest["commands"]["growth-scan"]["exit_status"]
        manifest_path.write_text(json.dumps(manifest))
        assert cli_io.main(["report", *args]) == 1
        assert (f"error: ChannelLabError: {manifest_path}: entry 'growth-scan' "
                "has no exit_status") in capsys.readouterr().err
        manifest = json.loads(manifest_path.read_text())
        assert manifest["commands"]["report"]["exit_status"] == 1

    @pytest.mark.parametrize("manifest, reason", [
        ([1], "top level is not an object"),
        ("x", "top level is not an object"),
        ({"commands": ["a"]}, "commands is not an object"),
        ({"commands": None}, "commands is not an object"),
    ], ids=["list", "string", "commands_list", "commands_null"])
    def test_report_on_a_malformed_manifest(self, tmp_path, capsys, manifest,
                                            reason):
        # these once raised a TypeError or an AttributeError traceback
        path = self.scenario(tmp_path)
        out = tmp_path / "out"
        out.mkdir()
        (out / "ok_verdicts.csv").write_text(
            "# channellab csv v1\nverdict,status\nx,PASS\n")
        manifest_path = out / "manifest.json"
        manifest_path.write_text(json.dumps(manifest))
        assert cli_io.main(["report", "--scenario", str(path)]) == 1
        assert (f"error: ChannelLabError: {manifest_path}: {reason}"
                in capsys.readouterr().err)
        recorded = json.loads(manifest_path.read_text())
        assert recorded["commands"]["report"]["exit_status"] == 1

    @pytest.mark.parametrize("key, value", [("outputs", None),
                                            ("commands", ["a"])],
                             ids=["no_outputs", "commands_list"])
    def test_manifest_without_an_object_is_replaced(self, tmp_path, key,
                                                    value):
        # a manifest of this scenario without these objects once stopped
        # the next command with a KeyError or a TypeError traceback
        path = self.scenario(tmp_path)
        args = ["carrier-check", "--scenario", str(path), "--quiet"]
        assert cli_io.main(args) == 0
        manifest_path = tmp_path / "out" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        if value is None:
            del manifest[key]
        else:
            manifest[key] = value
        manifest_path.write_text(json.dumps(manifest))
        assert cli_io.main(args) == 0
        manifest = json.loads(manifest_path.read_text())
        assert list(manifest["commands"]) == ["carrier-check"]
        assert list(manifest["outputs"]) == ["carrier_report.csv"]

    def test_failed_command_is_recorded_and_reported(self, tmp_path, capsys,
                                                     monkeypatch):
        # make_grid rejects 5 eta nodes; the reason once went to stderr only
        # and report exited 0
        monkeypatch.setenv("CHANNELLAB_GRID__NY", "5")
        path = Path(__file__).resolve().parents[1] / "scenarios" / "custom_walls.scn"
        args = ["--scenario", str(path), "--out", str(tmp_path), "--quiet"]
        assert cli_io.main(["poiseuille", *args]) == 1
        reason = capsys.readouterr().err.strip().removeprefix("error: ")
        assert reason.startswith("DegenerateGrid: ")
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        record = manifest["commands"]["poiseuille"]
        assert record.pop("wall_s") > 0.0  # an exit-1 record is timed too
        assert record == {"exit_status": 1, "error": reason, "outputs": []}
        assert cli_io.main(["report", *args]) == 2
        assert (tmp_path / "summary.csv").read_text().splitlines()[1:] == [
            "source,verdict,status", "manifest.json,poiseuille,ERROR"]
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        record = manifest["commands"]["report"]
        assert record.pop("wall_s") > 0.0
        assert record == {"exit_status": 2, "outputs": ["summary.csv"]}

    def test_output_path_of_a_file_is_an_error(self, tmp_path, capsys):
        # the output directory was once made outside the error handling:
        # a FileExistsError traceback
        path = self.scenario(tmp_path)
        taken = tmp_path / "taken"
        taken.write_text("kept\n")
        assert cli_io.main(["solve", "--scenario", str(path),
                            "--out", str(taken), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: FileExistsError: ")
        assert taken.read_text() == "kept\n"

    def test_unwritable_output_is_recorded(self, tmp_path, capsys):
        path = self.scenario(tmp_path)
        out = tmp_path / "out"
        (out / "carrier_report.csv").mkdir(parents=True)
        assert cli_io.main(["carrier-check", "--scenario", str(path),
                            "--quiet"]) == 1
        reason = capsys.readouterr().err.strip().removeprefix("error: ")
        assert reason.startswith("IsADirectoryError: ")
        manifest = json.loads((out / "manifest.json").read_text())
        record = manifest["commands"]["carrier-check"]
        assert record.pop("wall_s") > 0.0
        assert record == {"exit_status": 1, "error": reason, "outputs": []}

    def test_unwritable_manifest_is_an_error(self, tmp_path, capsys):
        path = self.scenario(tmp_path)
        (tmp_path / "out" / "manifest.json").mkdir(parents=True)
        assert cli_io.main(["carrier-check", "--scenario", str(path),
                            "--quiet"]) == 1
        assert capsys.readouterr().err.startswith("error: IsADirectoryError: ")

    def test_growth_scan_judges_the_hat_inequality(self, tmp_path, capsys):
        # MINIMAL's window ends at k(2) = 0.630, not above 1.05 t* (t* =
        # 0.630): the skip is said, not silent
        path = self.scenario(tmp_path)
        assert cli_io.main(["growth-scan", "--scenario", str(path)]) == 0
        assert ("hat_dominated: SKIPPED (x_max too small: no room above t*)"
                in capsys.readouterr().out)
        rows = (tmp_path / "out" / "growth_verdicts.csv").read_text().splitlines()
        assert {"hat_dominated,SKIPPED", "hat_monotone,SKIPPED"} <= set(rows)
        body = MINIMAL.format(out=tmp_path / "hat").replace(
            "t_list = 1, 2", "t_list = 1, 3\nx_max = 3")
        path = write_scenario(tmp_path, body, name="hat.scn")
        assert cli_io.main(["growth-scan", "--scenario", str(path)]) == 0
        assert "SKIPPED" not in capsys.readouterr().out
        rows = (tmp_path / "hat" / "growth_verdicts.csv").read_text().splitlines()
        assert {"hat_dominated,PASS", "hat_monotone,PASS"} <= set(rows)
        assert (tmp_path / "hat" / "hat_energy.csv").exists()

    def test_checks_that_do_not_apply_read_skipped(self, tmp_path):
        # linear walls: conditions (16)/(17) fail and both tails of f^(-5/3)
        # converge.  decay-scan once wrote hypothesis_met,FAIL and exited 0,
        # and report then exited 2 on the same directory
        body = MINIMAL.format(out=tmp_path / "out").replace(
            "family = straight", "family = linear_widen\nslope = 0.3")
        path = write_scenario(tmp_path, body)
        for command in ("decay-scan", "growth-scan", "report"):
            assert cli_io.main([command, "--scenario", str(path), "--quiet"]) == 0
        out = tmp_path / "out"
        decay = (out / "decay_verdicts.csv").read_text().splitlines()[2:]
        assert decay == ["hypothesis_met,SKIPPED", "local_energy_bounded,SKIPPED",
                         "pointwise_bounded,SKIPPED"]
        growth = (out / "growth_verdicts.csv").read_text().splitlines()[2:]
        assert growth[:2] == ["hat_dominated,SKIPPED", "hat_monotone,SKIPPED"]
        summary = (out / "summary.csv").read_text()
        assert summary.count(",SKIPPED") == 5 and ",FAIL" not in summary

    def test_flux_zero_spreads_read_skipped(self, tmp_path):
        # at rest every energy and product is 0: the spreads once read
        # inf and FAIL, so both scans exited 2 on a flow meeting every bound
        body = MINIMAL.format(out=tmp_path / "out").replace(
            "flux = 1.0", "flux = 0.0")
        path = write_scenario(tmp_path, body)
        for command in ("growth-scan", "decay-scan"):
            assert cli_io.main([command, "--scenario", str(path), "--quiet"]) == 0
        out = tmp_path / "out"
        growth = (out / "growth_verdicts.csv").read_text().splitlines()[2:]
        assert "lower_positive,SKIPPED" in growth
        assert "upper_bounded,SKIPPED" in growth
        assert "monotone,PASS" in growth
        decay = (out / "decay_verdicts.csv").read_text().splitlines()[2:]
        assert decay == ["hypothesis_met,PASS", "local_energy_bounded,SKIPPED",
                         "pointwise_bounded,SKIPPED"]

    def test_hat_inequality_bug_fails_growth_scan(self, tmp_path, monkeypatch):
        # a LemmaViolation is an implementation bug, not a skipped check
        def broken(*args, **kwargs):
            raise LemmaViolation("comparison did not conclude domination")

        monkeypatch.setattr(cli_io.eh, "hat_energy_inequality", broken)
        path = self.scenario(tmp_path)
        sc = cli_io.parse_scenario(path, environ={})
        assert cli_io.run("growth-scan", sc, scenario_path=path, quiet=True) == 1

    def test_grid_option_sizes_scans(self, tmp_path, monkeypatch):
        # CHANNELLAB_GRID__NY: the scans keep nx from target_hx and take the ny
        policies = []

        def capture(profile, params, t_max, target_hx, ny):
            policies.append((target_hx, ny))
            raise OutOfRange("captured")

        monkeypatch.setattr(cli_io.eh, "padded_solve", capture)
        body = MINIMAL.format(out=tmp_path / "out") + "\n[harness]\noutlet_k = 0.5\n"
        path = write_scenario(tmp_path, body)
        monkeypatch.setenv("CHANNELLAB_GRID__NY", "9")
        for command in ("growth-scan", "decay-scan", "poiseuille"):
            argv = [command, "--scenario", str(path), "--quiet"]
            assert cli_io.main(argv) == 1
        assert policies == [(0.25, 9)] * 3

    def test_grid_flag_is_not_an_option(self, tmp_path, capsys):
        path = self.scenario(tmp_path)
        with pytest.raises(SystemExit) as exit_:
            cli_io.main(["solve", "--scenario", str(path), "--grid", "65,9"])
        assert exit_.value.code == 2
        assert "unrecognized arguments: --grid 65,9" in capsys.readouterr().err

    def test_poiseuille_rejects_t_list_before_solving(self, tmp_path,
                                                      monkeypatch, capsys):
        def no_lookup(*args, **kwargs):
            raise AssertionError("looked up a state before checking t_list")

        # one distinct window end has no increment to judge; no solve and no
        # reuse of a cached state either
        monkeypatch.setattr(cli_io, "_padded_state", no_lookup)
        body = MINIMAL.format(out=tmp_path / "out").replace(
            "t_list = 1, 2", "t_list = 4, 4")
        path = write_scenario(tmp_path, body)
        assert cli_io.main(["poiseuille", "--scenario", str(path)]) == 1
        assert DISTINCT in capsys.readouterr().err

    def test_poiseuille_skips_plateau_without_two_windows(self, tmp_path, capsys):
        # T = 2 and T = 4 leave k < x1 < T empty at k = 4, so the plateau
        # says why it is skipped; tail_decreasing, over 0 < x1 < T, is judged.
        # The empty windows read NaN, not exact agreement, and are not drawn,
        # also when no window is left to draw.
        for t_list, T in (("8, 2, 4", ["2", "4", "8"]), ("4, 2", ["2", "4"])):
            out = tmp_path / t_list.replace(", ", "-")
            body = MINIMAL.format(out=out).replace(
                "t_list = 1, 2", f"t_list = {t_list}\noutlet_k = 4")
            path = write_scenario(tmp_path, body)
            assert cli_io.main(["poiseuille", "--scenario", str(path)]) == 0
            assert ("plateau: SKIPPED (the plateau needs two windows beyond k = "
                    f"4.0, but the second-largest T is {T[-2]}.0)"
                    in capsys.readouterr().out)
            rows = (out / "poiseuille_verdicts.csv").read_text().splitlines()
            assert rows[2:] == ["plateau,SKIPPED", "tail_decreasing,PASS"]
            table = [r.split(",") for r in
                     (out / "poiseuille.csv").read_text().splitlines()[2:]]
            assert [r[0] for r in table] == T
            assert [r[1] for r in table[:2]] == ["nan", "nan"]
            assert all(math.isfinite(float(r[1])) for r in table[2:])
            svg = (out / "poiseuille.svg").read_text()
            assert "nan" not in svg
            # a lone finite window is drawn as a marker
            assert svg.count("<circle") == len(table) - 2
            labels = re.findall(r'font-size="11">([^<]*)<', svg)
            assert min(float(v) for v in labels[1::2]) >= 1e-300

    def test_solve_writes_field_and_history(self, tmp_path):
        path = self.scenario(tmp_path)
        sc = cli_io.parse_scenario(path, environ={})
        assert cli_io.run("solve", sc, scenario_path=path, quiet=True) == 0
        out = tmp_path / "out"
        assert (out / "flow.field").exists()
        hist = (out / "residual_history.csv").read_text().splitlines()
        assert hist[1] == "iteration,residual"

    @pytest.mark.parametrize("flux", ["1.0", "4.0"])
    def test_solve_prints_the_steps_of_the_loop(self, tmp_path, capsys, flux):
        # the history starts with the Stokes state, which is no step
        body = MINIMAL.format(out=tmp_path / "out").replace(
            "flux = 1.0", f"flux = {flux}")
        path = write_scenario(tmp_path, body)
        assert cli_io.main(["solve", "--scenario", str(path)]) == 0
        rows = (tmp_path / "out" / "residual_history.csv").read_text()
        counts = [int(r.split(",")[0]) for r in rows.splitlines()[2:]]
        assert counts == list(range(len(counts)))
        printed = capsys.readouterr().out
        assert f"converged in {len(counts) - 1} steps; residual" in printed
        # the grid it solved on, read from the xi axis: 8 / 64 = 0.125
        assert "  window [-4, 4], 65x17, hx 0.125\n" in printed

    def test_invalid_profile_gives_exit_1(self, tmp_path):
        # width hits zero inside the grid window: AssumptionViolation -> 1
        body = MINIMAL.format(out=tmp_path / "out").replace(
            "family = straight\nd0 = 1.0",
            "family = custom\nf1 = 0*x - 1 + x^2/8\nf2 = 1 - x^2/8",
        )
        path = write_scenario(tmp_path, body)
        sc = cli_io.parse_scenario(path, environ={})
        assert cli_io.run("growth-scan", sc, scenario_path=path, quiet=True) == 1

    def test_quiet_failure_says_why(self, tmp_path, capsys, monkeypatch):
        # make_grid rejects 5 eta nodes
        monkeypatch.setenv("CHANNELLAB_GRID__NY", "5")
        path = Path(__file__).resolve().parents[1] / "scenarios" / "custom_walls.scn"
        assert cli_io.main(["poiseuille", "--scenario", str(path), "--out",
                            str(tmp_path / "out"), "--quiet"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: DegenerateGrid: ")

    def test_solver_tolerance_cannot_be_set(self, tmp_path, monkeypatch, capsys,
                                            solve_calls):
        # a loose tolerance once stopped widening's solve after one step
        # (residual 3.85e-2) and still wrote converged,true
        path = Path(__file__).resolve().parents[1] / "scenarios" / "widening.scn"
        monkeypatch.setenv("CHANNELLAB_SOLVER__TOL", "0.5")
        assert cli_io.main(["solve", "--scenario", str(path), "--out",
                            str(tmp_path / "out"), "--quiet"]) == 1
        assert ("CHANNELLAB_SOLVER__TOL: [solver] tol: unknown key"
                in capsys.readouterr().err)
        assert solve_calls == []

    @pytest.mark.parametrize("line, new, env, command", [
        ("b = 10", "b = inf", {}, "solve"),
        ("flux = 1.0", "flux = nan", {}, "solve"),
        ("flux = 1.0", "flux = inf", {}, "growth-scan"),
        ("x_max = 6", "x_max = nan", {}, "growth-scan"),
        ("a = -10", "a = nan", {}, "carrier-check"),
        ("t_list = 2, 4, 6, 8", "t_list = 2, 4, nan, 8", {}, "decay-scan"),
        ("d0 = 1.0", "d0 = inf", {}, "constants"),
        (None, None, {"CHANNELLAB_HARNESS__T_RANGE": "2, inf"}, "decay-scan"),
        (None, None, {"CHANNELLAB_HARNESS__X_MAX": "-inf"}, "growth-scan"),
    ], ids=["grid-b-inf", "flux-nan", "flux-inf", "x-max-nan", "grid-a-nan",
            "t-list-nan", "profile-d0-inf", "t-range-env-inf",
            "x-max-env-inf"])
    def test_non_finite_number_is_a_located_error(self, tmp_path, monkeypatch,
                                                  capsys, line, new, env,
                                                  command):
        # each once ran on: nan results, a traceback, or verdicts missing
        src = Path(__file__).resolve().parents[1] / "scenarios" / "straight.scn"
        body = src.read_text(encoding="utf-8")
        if line is None:
            (var, text), = env.items()
            monkeypatch.setenv(var, text)
            section, key = var[len("CHANNELLAB_"):].lower().split("__")
            where = f"{var}: [{section}] {key}"
        else:
            lines = body.splitlines()
            section = next(s for s in reversed(lines[:lines.index(line)])
                           if s.startswith("["))
            where = f"line {lines.index(line) + 1}: {section} {line.split()[0]}"
            text = new.partition("= ")[2]
            body = body.replace(line, new)
        path = write_scenario(tmp_path, body)
        assert cli_io.main([command, "--scenario", str(path), "--out",
                            str(tmp_path / "out"), "--quiet"]) == 1
        assert (f"{where}: expected a finite number, got {text!r}"
                in capsys.readouterr().err)

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

    def command(self, command, path):
        return cli_io.main([command, "--scenario", str(path), "--quiet"])

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
        "edit, env, solves",
        [
            (("flux = 1.0", "flux = 0.5"), {}, 2),
            # the tolerance is no scenario key: the command is refused
            (None, {"CHANNELLAB_SOLVER__TOL": "1e-10"}, 1),
            (None, {"CHANNELLAB_GRID__NY": "13"}, 2),
            (("target_hx = 0.25", "target_hx = 0.2"), {}, 2),
            (None, {"CHANNELLAB_PROFILE__D0": "1.5"}, 2),
            (("d0 = 1.0", "d0 = 1.25"), {}, 2),
        ],
        ids=["flux", "tol", "grid-ny", "target-hx", "profile-env",
             "profile-file"],
    )
    def test_changed_input_solves_again(self, tmp_path, monkeypatch, solve_calls,
                                        edit, env, solves):
        path = self.scenario(tmp_path)
        assert self.command("growth-scan", path) == 0
        first = self.states(tmp_path / "out")
        if edit is not None:
            path.write_text(path.read_text().replace(*edit))
        for key, value in env.items():
            monkeypatch.setenv(key, value)
        status = self.command("growth-scan", path)
        assert len(solve_calls) == solves
        second = self.states(tmp_path / "out")
        assert len(first) == len(second) == 1
        if solves == 2:  # the new session's state replaced the old one
            assert first != second
        else:  # a refused scenario leaves the session's state alone
            assert status == 1 and first == second

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

    def test_reused_state_equals_the_solved_one(self, tmp_path, solve_calls):
        # the state file keeps psi and omega; the velocity is rebuilt from
        # psi on the same grid, bit for bit
        sc = cli_io.parse_scenario(self.scenario(tmp_path), environ={})
        sc.out_dir.mkdir()
        args = (sc, sc.out_dir, max(sc.t_list))
        solved = cli_io._padded_state(*args, quiet=True)
        reused = cli_io._padded_state(*args, quiet=True)
        assert len(solve_calls) == 1
        for name in ("psi", "omega", "u1", "u2"):
            assert np.array_equal(getattr(reused, name), getattr(solved, name))

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
