"""One benchmark pass of one workload, in its own process.

Started by ``run.py`` with a cleaned environment.  Set-up (interpreter start,
``import channellab``, scenario parsing, seeded input generation) is timed
from the parent's spawn time; the pass then times each call into the
program, and its outputs are checked.  Both times are also given in
reference-machine seconds (see ``calibration.py``).  The result is written
as JSON to ``--result``.
"""

from __future__ import annotations

import argparse
import gzip
import json
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFERENCE = BENCH_DIR / "reference.json"
OUT_DIR = ROOT / ".bench_out"


def code_hash():
    import hashlib

    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "channellab").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment():
    import os
    import platform

    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "machine": platform.machine(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="parent's time.monotonic() at spawn")
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--pin", action="store_true",
                        help="write this pass's outputs as the reference")
    args = parser.parse_args(argv)

    from calibration import REFERENCE_KERNEL_S, Calibrator
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    tmp_root = ROOT / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_root))
    try:
        inputs = workload.prepare(args.seed, workdir)
        setup_s = time.monotonic() - args.spawned_at
        calibrator = Calibrator()
        calibrator.between(force=True)
        result = {"raw_setup_s": setup_s, "setup_s": calibrator.scale_now(setup_s),
                  "kernel_reference_s": REFERENCE_KERNEL_S}
        if not args.setup_only:
            result.update(_pass(workload, inputs, args, calibrator))
        result["kernel_s"] = calibrator.runs
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    Path(args.result).write_text(json.dumps(result))
    return 0


def _pass(workload, inputs, args, calibrator):
    import spans
    from workloads import run_operations

    rec = spans.Recorder() if args.trace else spans.NullRecorder()
    if args.trace:
        spans.install(rec)
    results, timings = run_operations(workload.operations(inputs), rec, calibrator)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out = {
        "raw_wall_s": sum(seconds for _, seconds in timings),
        "wall_s": calibrator.scaled(timings),
        "peak_rss_mb": peak_rss_mb,
        "code_hash": code_hash(),
        "env": environment(),
    }

    if args.pin:
        reference = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
        reference[workload.name] = workload.pin(inputs, results)
        REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
        out["ops"] = []
        return out

    from workloads import DigestStore

    reference = json.loads(REFERENCE.read_text())[workload.name]
    digests = DigestStore(OUT_DIR / "digests.json", out["code_hash"])
    ops = workload.check(inputs, results, reference, digests)
    digests.save()
    out["ops"] = [op.as_dict() for op in ops]

    if args.trace:
        out["layers"] = spans.derive_metrics(rec)
        out["missing"] = list(rec.missing)
        out["spans"] = len(rec.spans)
        out["self_total_s"] = sum(rec.layer_self_times().values())
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"spans-{workload.name}-{args.seed}.json.gz"
        with gzip.open(path, "wt") as fh:
            json.dump(rec.dump(), fh)
        out["spans_file"] = str(path.relative_to(ROOT))
    return out


if __name__ == "__main__":
    sys.exit(main())
