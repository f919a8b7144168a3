"""Response-job benchmark for dmresponse.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
./src. Prints a human-readable summary, one JSON record of the run (machine,
calibration floors, job walls), and as the last line one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
# Listed here so arguments parse before numpy loads; a test keeps it in step
# with workloads.WORKLOADS and BENCHMARK.json.
WORKLOAD_NAMES = ("dense_respond", "sparse_chain", "small_variants", "cli_files")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "dmresponse", "__init__.py")):
        print(f"perfbench: no dmresponse package under {SRC}", file=sys.stderr)
        return 2
    # BLAS threads are capped at nproc before numpy loads, and recorded.
    threads = os.cpu_count() or 1
    for var in THREAD_VARS:
        os.environ[var] = str(threads)
    sys.path[:0] = [SRC, ROOT]

    t0 = time.perf_counter()
    from perfbench import workloads  # numpy, scipy and every dmresponse module

    import_s = time.perf_counter() - t0
    from perfbench.harness import END_TO_END, PER_LAYER, execute
    from perfbench.machine import machine_record

    workload = workloads.WORKLOADS[args.workload]()
    work_root = os.path.join(HERE, ".work")
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    try:
        result, record = execute(workload, args.seed, args.seconds, args.trace, workdir, import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(work_root)
        except OSError:  # another run still uses it
            pass
    record["machine"] = machine_record(threads)

    units = PER_LAYER if args.trace else END_TO_END
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{result['attempted']} jobs, {result['failed']} failed")
    print(f"  {'failed_frac':<38} {record['failed_frac']:.6g} frac")
    samples = {"job_p50_s": f"  (median of {len(record['job_walls_s']['untraced'])} jobs)"}
    for name in units:
        m = result["metrics"][name]
        print(f"  {name:<38} {m['value']:.6g} {m['unit']}{samples.get(name, '')}")
    print(json.dumps({"record": record}, default=float))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
