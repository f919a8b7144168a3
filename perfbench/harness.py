"""Set-up, the closed-loop job run, and metric assembly.

One process runs one workload with one client: the next job starts only
after the previous one has finished and been checked. The untraced run
gives the end-to-end metrics; the traced run records a span per call and
alternates traced with untraced jobs, so its tracing overhead is measured
inside the same run.
"""

from __future__ import annotations

import os
import resource
import sys
import time
import traceback
from statistics import median

from .tracing import NULL_TRACER, ROOT, Tracer, job_profiles

END_TO_END = {
    "job_p50_s": "s",
    "jobs_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER = {
    "response.perturb_s": "s",
    "response.suscept_fwd_s": "s",
    "response.suscept_bwd_s": "s",
    "response.bwd_stored_mb": "MB",
    "sp2.steps": "count",
    "sp2.gemm_floor_s": "s",
    "sp2.gemm_equiv_per_step.perturb": "GEMM",
    "sp2.gemm_equiv_per_step.suscept_fwd": "GEMM",
    "sp2.gemm_equiv_per_step.suscept_bwd": "GEMM",
    "sp2.gflops": "GFLOP/s",
    "sparse.expand_s": "s",
    "sparse.replay_s": "s",
    "sparse.steps": "count",
    "sparse.spgemm_floor_s": "s",
    "sparse.spgemm_equiv_per_step": "SpGEMM",
    "sparse.nnz_per_row.d0": "count",
    "sparse.nnz_per_row.chi": "count",
    "thermal.fermi_s": "s",
    "thermal.dm_response_s": "s",
    "thermal.suscept_s": "s",
    "linalg.inverse_sqrt_s": "s",
    "linalg.congruence_s": "s",
    "linalg.sym_eig_s": "s",
    "linalg.eigh_floor_s": "s",
    "linalg.eig_over_floor": "x",
    "scf.ground_state_s": "s",
    "scf.ground_state_sweeps": "count",
    "scf.sweep_s": "s",
    "scf.dm_response_s": "s",
    "scf.suscept_s": "s",
    "mixedprec.pipeline_s": "s",
    "mixedprec.mult_count": "count",
    "mixedprec.sgemm_floor_s": "s",
    "mixedprec.gemm_share": "frac",
    "mixedprec.f64_reference_s": "s",
    "mmio.read_s": "s",
    "mmio.read_mb_per_s": "MB/s",
    "cli.self_s": "s",
    "models.generate_s": "s",
    "trace.coverage": "frac",
    "trace.uncovered_s": "s",
    "trace.overhead": "x",
}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def execute(workload, seed, seconds, trace, workdir, import_s=0.0):
    """Set up, run jobs for at most `seconds` (at least one job, two when
    traced), and return (result, record): the
    result line the benchmark prints last, and a record of everything else
    the run measured."""
    pool, input_s, models_s = [], [], []
    for index in range(workload.pool_size):
        t0 = time.perf_counter()
        inp, m_s = workload.make_inputs(seed, index, workdir)
        input_s.append(time.perf_counter() - t0)
        models_s.append(m_s)
        pool.append(inp)
    t0 = time.perf_counter()
    toy = workload.toy()
    toy_dir = os.path.join(workdir, "warm-up")  # keeps toy files apart from the pool's
    os.makedirs(toy_dir)
    toy.job(toy.make_inputs(seed, 0, toy_dir)[0], NULL_TRACER)
    warm_up_s = time.perf_counter() - t0
    refs = [workload.reference(inp) for inp in pool]  # excluded from every metric

    tracer = Tracer() if trace else None
    walls = {False: [], True: []}  # keyed by "was this job traced"
    attempted = failed = 0
    problems: list[str] = []
    first = None
    start = time.perf_counter()
    while True:
        i = attempted
        k = i % workload.pool_size
        traced = bool(trace) and i % 2 == 0
        attempted += 1
        try:
            t0 = time.perf_counter()
            if traced:
                tracer.job = i
                with tracer.span(ROOT):
                    out = workload.job(pool[k], tracer)
            else:
                out = workload.job(pool[k], NULL_TRACER)
            wall = time.perf_counter() - t0
            walls[traced].append(wall)
            bad = workload.check(out, refs[k])
            if first is None:
                first = (k, workload.summary(pool[k], out))
        except Exception as exc:  # a failing job is counted, never dropped or retried
            traceback.print_exc(file=sys.stderr)
            bad = [f"{type(exc).__name__}: {exc}"]
        if bad:
            failed += 1
            problems.extend(f"job {i}: {p}" for p in bad)
        out = None
        # Start another job only if a typical one still ends inside the run.
        done = walls[False] + walls[True]
        expected_end = time.perf_counter() - start + (median(done) if done else 0.0)
        if expected_end > seconds and (not trace or attempted >= 2):
            break
    if first is None:
        raise RuntimeError("no job completed: " + "; ".join(problems[:5]))

    k, summary = first
    floors = workload.floors(pool[k], summary)
    done = walls[False] + walls[True]
    record = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(bool(trace)),
        "setup": {
            "import_s": import_s,
            "input_median_s": median(input_s),
            "warm_up_s": warm_up_s,
            "models_median_s": median(models_s),
        },
        "job_walls_s": {"untraced": walls[False], "traced": walls[True]},
        "failed_frac": failed / attempted,
        "floors": floors,
        "summary": {k: v for k, v in summary.items() if isinstance(v, (int, float))},
        "problems": problems[:20],
    }
    if trace:
        metrics = _layer_metrics(workload, tracer, walls, summary, floors, models_s)
        units = PER_LAYER
    else:
        metrics = {
            "job_p50_s": median(walls[False]),
            "jobs_per_s": (attempted - failed) / sum(done),
            "peak_rss_mb": _peak_rss_mb(),
            "setup_s": import_s + median(input_s) + warm_up_s,
        }
        units = END_TO_END
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit} for name, unit in units.items()},
    }
    return result, record


def _layer_metrics(workload, tracer, walls, summary, floors, models_s):
    profiles = list(job_profiles(tracer.spans).values())
    names = set().union(*(p.self_s for p in profiles))
    self_med = {n: median(p.self_s.get(n, 0.0) for p in profiles) for n in names}
    dur_med = {n: median(p.duration_s.get(n, 0.0) for p in profiles) for n in names}
    own = workload.layers(self_med, dur_med, summary, floors)
    unknown = set(own) - set(PER_LAYER)
    if unknown:
        raise KeyError(f"{workload.name} reports unlisted per-layer metrics {sorted(unknown)}")
    # A layer the workload never calls reads 0.
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    metrics.update(own)
    metrics["models.generate_s"] = median(models_s)
    metrics["trace.coverage"] = median(p.coverage for p in profiles)
    metrics["trace.uncovered_s"] = median(p.uncovered_s for p in profiles)
    metrics["trace.overhead"] = median(walls[True]) / median(walls[False])
    return metrics
