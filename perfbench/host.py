"""The host block every result file carries.

BLAS threads are left at their default and only recorded: pinning them
would measure a different program (one OpenBLAS thread made training
about 25% slower on a 2-CPU host).
"""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import sys
from typing import Any, Dict, Optional

import numpy as np

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _blas_build() -> Dict[str, Any]:
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        return {"name": None, "version": None}


def _openblas_threads() -> Optional[int]:
    """Threads the OpenBLAS numpy loaded will use, when it can be asked."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                        "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                getter.argtypes = []
                return int(getter())
    return None


def _git_commit(root: str) -> Optional[str]:
    """HEAD's commit, read from ``.git`` without running git."""
    head_path = os.path.join(root, ".git", "HEAD")
    try:
        with open(head_path, encoding="utf-8") as f:
            head = f.read().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        with open(os.path.join(root, ".git", ref), encoding="utf-8") as f:
            return f.read().strip()
    except OSError:
        pass
    try:
        with open(os.path.join(root, ".git", "packed-refs"),
                  encoding="utf-8") as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None


def host_info(root: str) -> Dict[str, Any]:
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": _blas_build(),
        "blas_threads": _openblas_threads(),
        "blas_thread_env": {name: os.environ.get(name) for name in THREAD_VARS},
        "git_commit": _git_commit(root),
    }
