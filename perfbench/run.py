"""Benchmark of the vfuncta CLI at paper dimensions.

Run from the repository root:

    python3 perfbench/run.py --workload train --seed 1 --seconds 20 --trace 0

Workloads: train, encode, decode (see perfbench/README.md). The program is
imported from `src/` of the checkout the script lives in. Each run sets
its inputs up from the seed several times (reporting the median as
`setup_s`), runs the workload's commands, checks their outputs, prints
one line per metric and, as the last line of standard output, one JSON
object with `correct`, `attempted`, `failed` and `metrics`.

With `--trace 0` the metrics are the end-to-end ones. With `--trace 1`
the run measures the same commands twice, untraced and then traced, and
reports per-layer self times and counts plus the tracing overhead (the
traced wall time minus the untraced one).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# stay at or below the box's two cores, as the issue sizing assumed
BLAS_THREADS = str(min(2, os.cpu_count() or 1))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

# memory left free beside a workload's recorded peak
HEADROOM_MB = 1024


def _parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("train", "encode", "decode"))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def mem_available_mb() -> float | None:
    """`MemAvailable` from /proc/meminfo in MB, or None where it is missing."""
    try:
        with open("/proc/meminfo", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return None


def source_digest() -> str:
    """Commit when the checkout is a git repository, else a hash of src/."""
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text(encoding="ascii").strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            if ref_file.is_file():
                return ref_file.read_text(encoding="ascii").strip()
        else:
            return ref
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return "src-sha256:" + h.hexdigest()[:16]


def _result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                       "metrics": {name: {"value": value, "unit": unit}
                                   for name, (value, unit) in metrics.items()}})


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (ROOT / "src" / "vfuncta" / "cli.py").is_file():
        print(f"perfbench: no vfuncta sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("perfbench: --seconds must be at least 1", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    os.environ.pop("VFUNCTA_SEED", None)  # the workload seed alone fixes the inputs

    import numpy as np

    import vfuncta.cli  # noqa: F401  (tracing re-binds names inside it)
    from report import end_to_end_metrics, per_layer_metrics
    from tracer import Tracer, maxrss_mb
    from workloads import WORKLOADS, Ledger

    workload = WORKLOADS[args.workload]
    env = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace, "commit": source_digest(), "nproc": os.cpu_count(),
           "python": platform.python_version(), "numpy": np.__version__,
           "blas_threads": BLAS_THREADS}
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))

    available = mem_available_mb()
    need = workload.peak_rss_mb + HEADROOM_MB
    if available is not None and available < need:
        print(f"perfbench: {args.workload} needs ~{need} MB, MemAvailable is "
              f"{available:.0f} MB; not run", file=sys.stderr)
        print(_result_line(False, 1, 1, {}))
        return 1

    # a terminated run still removes its files
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        setups, setup_times = [], []
        for k in range(workload.setups):
            (work / f"setup{k}").mkdir(parents=True)
            t0 = time.perf_counter()
            setups.append(workload.setup(work / f"setup{k}", args.seed, args.seconds))
            setup_times.append(time.perf_counter() - t0)

        ledger = Ledger()
        if args.trace:
            # traced pass first: the peak RSS cannot be reset, so only the
            # first pass sees each span's rise of it
            tracer = Tracer()
            traced_ledger = Ledger(tracer)
            (work / "traced").mkdir()
            traced = workload.measure(setups, work / "traced", traced_ledger)
            ledger.attempted += traced_ledger.attempted
            ledger.failed += traced_ledger.failed
        (work / "untraced").mkdir()
        result = workload.measure(setups, work / "untraced", ledger)
        peak_mb = maxrss_mb()

        if args.trace:
            metrics = {}
            if "command_s" in result and "command_s" in traced:
                metrics = per_layer_metrics(tracer, result["command_s"], traced["command_s"])
        else:
            metrics = {}
            if "command_s" in result:
                metrics = end_to_end_metrics(setup_times, result, peak_mb)
            for name, (value, unit, samples) in result.get("report", {}).items():
                print(f"metric {name} = {value:.6g} {unit} (samples: {samples})")
        error_rate = ledger.failed / max(1, ledger.attempted)
        print(f"metric error_rate = {error_rate:.6g} ratio "
              f"(failed {ledger.failed} of {ledger.attempted} commands)")
        print(f"metric setup_s samples: {' '.join(f'{t:.4f}' for t in setup_times)}")
        print(f"metric command_s samples: "
              f"{' '.join(f'{t:.4f}' for t in result.get('command_s', []))}")
        for name, (value, unit) in metrics.items():
            print(f"metric {name} = {value:.6g} {unit}")
        correct = ledger.failed == 0 and bool(metrics)
        print(_result_line(correct, ledger.attempted, ledger.failed, metrics))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    raise SystemExit(main())
