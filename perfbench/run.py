"""Benchmark command: one workload per invocation, one JSON result line.

    python3 perfbench/run.py --workload estimate-100k --seed 3 --seconds 6 --trace 0

Run from the repository root.  The package runs from ``src`` (it is not
installed), with BLAS and OpenMP pinned to one thread and no process pool.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separately traced run; the last line of standard output is the
result object.  Generated inputs live under ``perfbench/out`` for the length
of the run; traces and machine records stay there.
"""

import os

# pinned before numpy is first imported, here and in every child process
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"


def machine_record() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "workers": 1,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    help="replicate-sc1, estimate-100k or leader-k8")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=6.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "dropintmle" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'dropintmle'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(SRC)]
    from perfbench import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"work-{tag}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result, record = workloads.run(args.workload, args.seed, args.seconds,
                                       bool(args.trace), ROOT, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "machine": machine_record(), "result": result, **record}
    with open(OUT / f"{tag}.json", "w") as fh:
        json.dump(record, fh)
    for name, ok, detail in record["checks"]:
        print(f"check {name}: {'ok' if ok else 'FAILED'} ({detail})")
    print("machine " + json.dumps(record["machine"], sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
