"""Machine record printed with every run: CPU, caches, BLAS and versions."""

from __future__ import annotations

import glob
import os
import platform


def _read(path):
    try:
        with open(path, encoding="ascii") as fh:
            return fh.read().strip()
    except OSError:
        return None


def _cpu_model():
    text = _read("/proc/cpuinfo") or ""
    for line in text.splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or None


def _caches():
    out = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        level, kind, size = (_read(os.path.join(index, f)) for f in ("level", "type", "size"))
        if level and size:
            out[f"L{level}{'' if kind == 'Unified' else (kind or '')[:1].lower()}"] = size
    return out


def _blas(np):
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{deps.get('name')} {deps.get('version')}"
    except Exception:  # show_config's layout differs across numpy releases
        return None


def machine_record(blas_threads: int) -> dict:
    import numpy as np
    import scipy

    return {
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "caches_cpu0": _caches(),
        "blas": _blas(np),
        "blas_threads": blas_threads,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }
