"""Self-tests of the benchmark's own arithmetic (not of channellab).

Run from the repository root:  python3 -m pytest -q bench/test_bench.py
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import compare  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


# -- self time ----------------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] -> a [1, 6] -> b [2, 5]; root -> c [7, 9]
    points = ["bench:pass", "ns_solver:solve_steady", "ns_solver:splu",
              "geometry:integrate.quad"]
    layer = [spans._layer_of_point(p) for p in points]
    recorded = [
        [0, 0.0, 10.0, -1],
        [1, 1.0, 6.0, 0],
        [2, 2.0, 5.0, 1],
        [3, 7.0, 9.0, 0],
    ]
    selfs = spans.self_times(recorded, layer)
    assert selfs == {"bench": 3.0, "ns_solver": 2.0 + 3.0, "geometry": 2.0}
    assert sum(selfs.values()) == pytest.approx(10.0)


def test_recorder_self_times_sum_to_root_span():
    ticks = iter(range(100))
    rec = spans.Recorder(clock=lambda: float(next(ticks)))
    with rec.span("bench:pass"):
        with rec.span("cli_io:main[solve]"):
            with rec.span("ns_solver:splu"):
                pass
        with rec.span("geometry:parse_expression"):
            pass
    root = rec.spans[0][2] - rec.spans[0][1]
    selfs = rec.layer_self_times()
    assert sum(selfs.values()) == pytest.approx(root)
    assert set(selfs) == {"bench", "cli_io", "ns_solver", "expressions"}


def test_factor_back_solves_are_counted():
    class Factor:
        shape = (2, 2)

        def solve(self, b):
            return b

    rec = spans.Recorder()
    wrapped = spans._wrap(lambda a: Factor(), rec, "ns_solver:splu")
    lu = wrapped(None)
    assert lu.solve(3) == 3 and lu.solve(4) == 4
    assert lu.shape == (2, 2)
    totals = rec.totals()
    assert totals["ns_solver:splu"][0] == 1
    assert totals["ns_solver:splu.solve"][0] == 2
    metrics = spans.derive_metrics(rec)
    assert metrics["ns_solver.factorizations"] == 1
    assert metrics["ns_solver.back_solves"] == 2


# -- missing names ------------------------------------------------------------


def test_missing_patch_point_is_reported_not_zero():
    rec = spans.Recorder()
    restore = spans.install(rec, points=(("ns_solver:no_such_name", "ns_solver"),
                                         ("no_such_module:f", "cli_io"),
                                         ("geometry:integrate.no_such_fn", "geometry")))
    restore()
    assert rec.missing == ["ns_solver:no_such_name", "no_such_module:f",
                           "geometry:integrate.no_such_fn"]

    rec = spans.Recorder()
    rec.missing = ["ns_solver:splu", "ns_solver:make_grid"]
    metrics = spans.derive_metrics(rec)
    assert metrics["ns_solver.factorizations"] is None
    assert metrics["ns_solver.back_solves"] is None
    assert metrics["ns_solver.factor_s"] is None
    assert metrics["ns_solver.factorizations_per_solve"] is None
    # one of three make_grid patch points is gone: the others still measure
    assert metrics["geometry.make_grid_s"] == 0.0
    assert metrics["ns_solver.picard_iterations"] == 0


def test_install_wraps_where_callers_look_and_restores():
    from channellab import comparison_lemmas, geometry, ns_solver

    originals = (ns_solver.splu, geometry.integrate, comparison_lemmas.PsiSpec.inverse,
                 ns_solver.fc)
    rec = spans.Recorder()
    restore = spans.install(rec)
    try:
        assert rec.missing == []
        assert ns_solver.splu is not originals[0]
        assert geometry.integrate.quad is not originals[1].quad
        assert geometry.integrate.trapezoid is originals[1].trapezoid
        psi = comparison_lemmas.separable_psi(c1=1.0, c2=1.0)
        assert psi.inverse(0.0, 2.0) == pytest.approx(1.0)
        geometry.inverse_k(geometry.straight(), 1.0)
        totals = rec.totals()
        assert totals["comparison_lemmas:PsiSpec.inverse"][0] == 1
        assert totals["comparison_lemmas:optimize.brentq"][0] == 1
        assert totals["geometry:inverse_k"][0] == 1
        # scipy itself is untouched: only geometry's view of it is wrapped
        import scipy.integrate

        assert not hasattr(scipy.integrate.quad, "__wrapped__")
    finally:
        restore()
    assert (ns_solver.splu, geometry.integrate, comparison_lemmas.PsiSpec.inverse,
            ns_solver.fc) == originals


def test_every_metric_points_at_a_known_patch_point():
    known = {p for p, _ in spans.PATCH_POINTS}
    known |= {f"{p}.solve" for p in spans.FACTOR_POINTS}
    known |= {f"cli_io:main[{c}]" for c in spans.CLI_COMMANDS}
    for name, (_unit, _better, _kind, points) in spans.METRICS.items():
        assert set(points) <= known, name


def test_benchmark_json_lists_every_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    listed = [m["name"] for m in spec["per_layer"]]
    assert listed == list(run.per_layer_units())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)


# -- error_rate accounting ----------------------------------------------------


def _setup(seconds):
    return {"setup_s": seconds, "raw_setup_s": seconds, "kernel_s": [0.025],
            "kernel_reference_s": 0.025}


def _pass(ops, wall=1.0):
    return {**_setup(0.5), "wall_s": wall, "raw_wall_s": wall, "peak_rss_mb": 100.0,
            "code_hash": "x",
            "env": {"python": "3", "numpy": "2", "scipy": "1", "nproc": 2,
                    "blas_threads": "2"},
            "ops": [{"name": n, "ok": ok, "problems": [] if ok else ["bad"]}
                    for n, ok in ops]}


def test_error_rate_counts_failed_over_attempted(capsys):
    passes = [_pass([("a", True), ("b", False), ("c", True)], wall=2.0),
              _pass([("a", True), ("b", False), ("c", False)], wall=4.0)]
    record = run.summarize("cli-bump", 3, 10, 0, [_setup(0.4)], passes, None)
    assert (record["attempted"], record["failed"]) == (6, 3)
    assert record["error_rate"] == 0.5
    assert record["end_to_end"]["wall_s"] == 3.0
    assert record["end_to_end"]["setup_s"] == 0.5
    run.report(record)
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False
    assert (result["attempted"], result["failed"]) == (6, 3)
    assert set(result["metrics"]) == set(run.END_TO_END)


def test_traced_record_reports_missing_as_null(capsys):
    traced = _pass([("a", True)], wall=1.1)
    traced.update(layers={"ns_solver.factorizations": None, "bench.self_s": 0.0},
                  missing=["ns_solver:splu"],
                  spans=5, self_total_s=1.1, spans_file="x")
    record = run.summarize("cli-bump", 3, 10, 1, [_setup(0.4)], [_pass([("a", True)])],
                           traced)
    assert record["error_rate"] == 0.0
    assert record["per_layer"]["trace.overhead_ratio"] == pytest.approx(1.1)
    run.report(record)
    out = capsys.readouterr().out
    assert "ns_solver.factorizations = missing" in out
    result = json.loads(out.strip().splitlines()[-1])
    assert result["metrics"]["ns_solver.factorizations"]["value"] is None


def test_csv_check_tolerance_and_exact_cells(tmp_path):
    ref = {"header": ["t", "value", "status"],
           "rows": [["1", "100.0", "PASS"], ["2", "1e-3", "PASS"]]}
    path = tmp_path / "x.csv"
    path.write_text("# channellab csv v2\nt,value,status,margin\n"
                    "1,100.00001,PASS,0.5\n2,0.00105,PASS,0.1\n")
    # normwise: 1e-4 absolute on a column whose largest entry is 100
    assert workloads.compare_csv(path, ref) == []
    path.write_text("t,value,status\n1,100.001,PASS\n2,1e-3,FAIL\n")
    problems = workloads.compare_csv(path, ref)
    assert len(problems) == 2
    assert workloads.compare_csv(path, ref, ignored=("value", "status")) == []
    assert workloads.compare_csv(tmp_path / "none.csv", ref) == ["none.csv: missing"]


def test_keyed_table_tolerance_is_per_quantity(tmp_path):
    ref = {"header": ["name", "value", "domain"],
           "rows": [["M1", "0.8", "straight(c1=-1.0,c2=1.0)[-12.0,12.0]"],
                    ["M5", "11.5", "straight(c1=-1.0,c2=1.0)[-12.0,12.0]"],
                    ["margin", "1e-8", "x"]]}
    path = tmp_path / "constants.csv"
    path.write_text("name,value,domain\n"
                    "M1,0.8000009,straight(c1=-1.0,c2=1.0)[-12.0,12.0]\n"
                    "M5,11.50001,straight(c1=-1.0,c2=1.0)[-12.0,12.0]\n"
                    "margin,5e-7,x\n")
    # M1 may move by 1e-6 (floor), M5 by 1.15e-5, the margin by 1e-6
    assert workloads.compare_csv(path, ref) == []
    path.write_text("name,value,domain\n"
                    "M1,0.800002,straight(c1=-1.0,c2=1.0)[-12.0,12.0]\n"
                    "M5,11.5,straight(c1=-1.0,c2=2.0)[-12.0,12.0]\n"
                    "margin,1e-8,x\n")
    problems = workloads.compare_csv(path, ref)
    assert [p.split(":")[0] for p in problems] == ["constants.csv[0].value",
                                                    "constants.csv[1].domain"]


def test_split_row_keeps_bracketed_commas():
    assert workloads.split_row("M0,0.3,custom(f1=-(1+abs(x))^0.5,f2=1)[-8.0,8.0],eigen") == [
        "M0", "0.3", "custom(f1=-(1+abs(x))^0.5,f2=1)[-8.0,8.0]", "eigen"]


def test_digest_store_flags_changed_outputs(tmp_path):
    store = workloads.DigestStore(tmp_path / "d.json", "code")
    assert store.check("k", {"a.csv": "1"}) == []
    store.save()
    again = workloads.DigestStore(tmp_path / "d.json", "code")
    assert again.check("k", {"a.csv": "2"}) == ["a.csv"]
    assert workloads.DigestStore(tmp_path / "d.json", "other").check(
        "k", {"a.csv": "2"}) == []


def test_seeded_problems_repeat_and_keep_their_mix():
    a, b = workloads.draw_problems(5), workloads.draw_problems(5)
    assert a == b
    assert sum(p["c1"] > 0 for p in a) == round(workloads.SEPARABLE_SHARE * len(a))
    assert workloads.draw_problems(6) != a


def test_scenario_seed_is_replaced(tmp_path):
    src = tmp_path / "a.scn"
    src.write_text("name = a\n[output]\ndir = out\nseed = 7 # old\n[grid]\nnx = 5\n")
    text = workloads.scenario_with_seed(src, tmp_path / "b.scn", 42).read_text()
    assert "seed = 42" in text and "seed = 7" not in text and "nx = 5" in text
    src.write_text("name = a\n[grid]\nnx = 5\n")
    text = workloads.scenario_with_seed(src, tmp_path / "c.scn", 3).read_text()
    assert text.endswith("[output]\nseed = 3\n")


# -- machine-speed scaling ---------------------------------------------------


def test_scaled_time_uses_the_pass_mean_kernel_time():
    import calibration

    ref = calibration.REFERENCE_KERNEL_S
    ticks = iter([0.0, 0.0, 0.5, 10.0, 10.0])
    kernel_times = iter([1.0, 1.0, 4.0, 2.0, 2.0, 2.0])
    cal = calibration.Calibrator(clock=lambda: next(ticks), run=lambda: next(kernel_times))
    cal.between()
    cal.between()            # before INTERVAL_S has passed: no sample
    cal.between(force=True)
    assert cal.runs == [1.0, 1.0, 4.0, 2.0, 2.0, 2.0][: 2 * calibration.RUNS]
    mean = sum(cal.runs) / len(cal.runs)
    assert cal.scaled([(4.0, 2.0), (9.0, 1.0)]) == pytest.approx(3.0 * ref / mean)
    latest = cal.runs[-calibration.RUNS:]
    assert cal.scale_now(4.0) == pytest.approx(4.0 * ref * len(latest) / sum(latest))
    # a long operation keeps its measured seconds
    long_op = calibration.LONG_OP_S + 1.0
    assert cal.scaled([(0.0, long_op), (0.0, 1.0)]) == pytest.approx(long_op + ref / mean)


# -- compare verdicts ---------------------------------------------------------


def test_compare_verdicts():
    base = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2]
    faster = [v * 0.7 for v in base]
    slower = [v * 1.3 for v in base]
    pair = lambda a, b: list(zip(a, b))  # noqa: E731
    assert compare.verdict(base, faster, pair(base, faster), "lower", 0.1) == "win"
    assert compare.verdict(base, slower, pair(base, slower), "lower", 0.1) == "regression"
    assert compare.verdict(base, base, pair(base, base), "lower", 0.1) == "no regression"
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    same = list(reversed(noisy))
    assert compare.verdict(noisy, same, pair(noisy, same), "lower", 0.1) == "unresolved"
    assert compare.verdict(base, slower, pair(base, slower), "higher", 0.1) == "win"
