"""channellab benchmark: time to verdict, set-up time and memory per workload.

Measure (run from the repository root):

    python3 bench/run.py --workload cli-bump --seed 1 --seconds 5 --trace 0

Every pass runs in a fresh process with tracing off (``--trace 0``) and
prints the end-to-end metrics; ``--trace 1`` runs one untraced and one traced
pass and prints the per-layer metrics and the tracing overhead.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--out FILE`` also appends the full record
(versions, per-pass samples, failures) to a results file.

Compare two results files (for example the committed baseline and a new set):

    python3 bench/run.py --compare bench/baseline/BENCH_seed.json new.json

Re-pin the reference outputs the checks compare against (only when a change
is meant to alter them, and say so):

    python3 bench/run.py --pin
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import spans  # noqa: E402
from compare import quartiles  # noqa: E402

WORKLOAD_NAMES = ("cli-bump", "uniqueness-tight", "constants-comparison")
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
SETUP_PROBES = 2        # set-up-only processes per run, besides each pass's own
RUN_DEADLINE_S = 170.0  # a run ends within 180 s; no pass starts past this
MAX_FAILURES_SHOWN = 20


def child_env():
    """Environment of every benchmark process.

    ``CHANNELLAB_*`` overrides are removed, the package is taken from
    ``src``, and BLAS thread pools are capped at the processors this process
    may run on.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("CHANNELLAB_")}
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = threads
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    )
    env["PYTHONHASHSEED"] = "0"
    return env


class WorkerError(RuntimeError):
    pass


def spawn(workload, seed, env, deadline, trace=0, setup_only=False, pin=False):
    """Run one worker process to completion; its result dict."""
    with tempfile.NamedTemporaryFile("r", suffix=".json", dir=ROOT / ".bench_tmp") as fh:
        cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", workload,
               "--seed", str(seed), "--trace", str(trace), "--result", fh.name,
               "--spawned-at", repr(time.monotonic())]
        if setup_only:
            cmd.append("--setup-only")
        if pin:
            cmd.append("--pin")
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                                  timeout=max(deadline - time.monotonic(), 1.0))
        except subprocess.TimeoutExpired as exc:
            raise WorkerError(f"{workload} pass exceeded the {RUN_DEADLINE_S:.0f} s "
                              f"run deadline") from exc
        if proc.returncode != 0:
            raise WorkerError(f"{workload} worker exited {proc.returncode}:\n"
                              f"{proc.stderr[-4000:]}")
        return json.loads(Path(fh.name).read_text())


def measure(workload, seed, seconds, trace):
    """Run the set-up probes and the passes of one benchmark run."""
    env = child_env()
    (ROOT / ".bench_tmp").mkdir(exist_ok=True)
    deadline = time.monotonic() + RUN_DEADLINE_S
    setups = [spawn(workload, seed, env, deadline, setup_only=True)
              for _ in range(SETUP_PROBES)]
    passes, traced = [], None
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        passes.append(spawn(workload, seed, env, deadline))
        took = time.monotonic() - t0
        if trace:
            traced = spawn(workload, seed, env, deadline, trace=1)
            break
        if time.monotonic() - start >= seconds or time.monotonic() + took > deadline:
            break
    return setups, passes, traced


def summarize(workload, seed, seconds, trace, setups, passes, traced):
    """The run's record: metrics, operation counts, samples and versions."""
    all_passes = passes + ([traced] if traced else [])
    processes = setups + all_passes
    setup_samples = [p["setup_s"] for p in processes]
    ops = [op for p in all_passes for op in p["ops"]]
    failed = [op for op in ops if not op["ok"]]
    walls = [p["wall_s"] for p in passes]
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "code_hash": passes[0]["code_hash"],
        "env": passes[0]["env"],
        "kernel_reference_s": passes[0]["kernel_reference_s"],
        "end_to_end": {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
        },
        "samples": {"wall_s": walls, "setup_s": setup_samples,
                    "peak_rss_mb": [p["peak_rss_mb"] for p in passes],
                    "raw_wall_s": [p["raw_wall_s"] for p in passes],
                    "raw_setup_s": [p["raw_setup_s"] for p in processes],
                    "kernel_s": [k for p in processes for k in p["kernel_s"]]},
        "attempted": len(ops),
        "failed": len(failed),
        "error_rate": len(failed) / len(ops) if ops else 1.0,
        "failures": [f"{op['name']}: {'; '.join(op['problems'])}"
                     for op in failed[:MAX_FAILURES_SHOWN]],
    }
    if traced:
        layers = dict(traced["layers"])
        layers.update({
            "trace.wall_s": traced["raw_wall_s"],
            "trace.untraced_wall_s": passes[0]["raw_wall_s"],
            "trace.overhead_ratio": traced["wall_s"] / passes[0]["wall_s"],
            "trace.spans": traced["spans"],
            "trace.missing_points": len(traced["missing"]),
            "error_rate": record["error_rate"],
        })
        record["per_layer"] = layers
        record["missing"] = traced["missing"]
        record["self_total_s"] = traced["self_total_s"]
        record["spans_file"] = traced["spans_file"]
    return record


def per_layer_units():
    units = {name: (unit, better) for name, (unit, better, *_) in spans.METRICS.items()}
    units.update(spans.TRACE_METRICS)
    units["error_rate"] = ("ratio", "lower")
    return units


def report(record):
    """Human-readable lines, then the one-line JSON result."""
    lines = [f"workload {record['workload']} seed {record['seed']} "
             f"(python {record['env']['python']}, numpy {record['env']['numpy']}, "
             f"scipy {record['env']['scipy']}, nproc {record['env']['nproc']}, "
             f"BLAS threads {record['env']['blas_threads']})"]
    if record["trace"]:
        units = per_layer_units()
        metrics = {}
        for name, value in record["per_layer"].items():
            unit = units[name][0]
            metrics[name] = {"value": value, "unit": unit}
            shown = "missing" if value is None else f"{value:.6g}"
            lines.append(f"  {name} = {shown} {unit}")
        if record["missing"]:
            lines.append(f"  missing patch points: {', '.join(record['missing'])}")
        layer = record["per_layer"]
        modules = record["self_total_s"] - layer["bench.self_s"]
        lines.append(
            f"  module self_s sum {modules:.4f} s against traced wall_s "
            f"{layer['trace.wall_s']:.4f} s (difference {layer['trace.wall_s'] - modules:+.4f} s; "
            f"benchmark glue and speed samples between operations {layer['bench.self_s']:.4f} s)"
        )
        lines.append(
            f"  tracing overhead: traced over untraced wall_s {layer['trace.overhead_ratio']:.4f} "
            f"(measured {layer['trace.wall_s']:.4f} s traced, "
            f"{layer['trace.untraced_wall_s']:.4f} s untraced)"
        )
    else:
        metrics = {}
        for name, unit in END_TO_END.items():
            value = record["end_to_end"][name]
            samples = record["samples"][name]
            q1, _, q3 = quartiles(samples)
            how = "largest" if name == "peak_rss_mb" else "median"
            metrics[name] = {"value": value, "unit": unit}
            lines.append(f"  {name} = {value:.6g} {unit} ({how} of {len(samples)}; "
                         f"quartiles {q1:.6g}..{q3:.6g})")
        kernel = statistics.fmean(record["samples"]["kernel_s"])
        lines.append(
            f"  (wall_s and setup_s are in reference-machine seconds; measured: wall "
            f"{statistics.median(record['samples']['raw_wall_s']):.6g} s, set-up "
            f"{statistics.median(record['samples']['raw_setup_s']):.6g} s, speed kernel "
            f"{kernel:.4g} s against {record['kernel_reference_s']} s)"
        )
    lines.append(f"  error_rate = {record['error_rate']:.6g} "
                 f"({record['failed']} of {record['attempted']} operations failed)")
    for failure in record["failures"]:
        lines.append(f"  FAILED {failure}")
    print("\n".join(lines))
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))


def append_record(path, record):
    path = Path(path)
    data = json.loads(path.read_text()) if path.exists() else {"records": []}
    data["records"].append(record)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(data, indent=1) + "\n")


def program_present():
    return (ROOT / "src" / "channellab" / "__init__.py").is_file() and all(
        (ROOT / "scenarios" / n).is_file()
        for n in ("bump_outlet.scn", "custom_walls.scn", "straight.scn", "widening.scn")
    )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the full run record to this file")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    parser.add_argument("--pin", action="store_true",
                        help="re-pin bench/reference.json from this checkout")
    args = parser.parse_args(argv)
    # a terminated run raises, so the running worker is killed and waited for
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))

    if args.compare:
        import compare

        compare.main(*args.compare)
        return 0
    if not program_present():
        print("error: no channellab source (src/channellab) or bundled scenarios "
              "under this directory", file=sys.stderr)
        return 2
    try:
        if args.pin:
            env = child_env()
            (ROOT / ".bench_tmp").mkdir(exist_ok=True)
            for name in WORKLOAD_NAMES:
                spawn(name, args.seed, env, time.monotonic() + 600, pin=True)
            print(f"pinned {BENCH_DIR / 'reference.json'}")
            return 0
        if not args.workload:
            parser.error("--workload is required")
        setups, passes, traced = measure(args.workload, args.seed, args.seconds,
                                         args.trace)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    record = summarize(args.workload, args.seed, args.seconds, args.trace,
                       setups, passes, traced)
    if args.out:
        append_record(args.out, record)
    report(record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
