"""The machine a run measured on: environment block, BLAS threads, copy bandwidth.

Everything here reads what the process can see about itself (``/proc/self``,
``/sys/devices/system/cpu``, the loaded BLAS library) and changes no machine
setting. The one thing it changes is this process's own BLAS thread count.
"""

from __future__ import annotations

import ctypes
import os
import platform
import statistics
import sys
import time

import numpy as np

LIMITS = (
    "shared host: other tenants' load moves timings",
    "no core pinning",
    "no page-cache or CPU-cache dropping",
    "no machine setting changed (frequency governor, huge pages, cgroups untouched)",
    "BLAS threads of the benchmark process capped at one",
)

_CPU_SYS = "/sys/devices/system/cpu"

# At most nproc; one keeps the search a single-core process (see cap_blas_threads).
BLAS_THREADS = 1


def _parse_size(text: str) -> int:
    text = text.strip()
    scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(text[-1:].upper(), 1)
    return int(text.rstrip("KMGkmg")) * scale


def _read(path: str) -> str | None:
    try:
        with open(path, encoding="ascii") as fh:
            return fh.read().strip()
    except OSError:
        return None


def caches() -> dict[str, int]:
    """Per-instance size of each data or unified cache level, plus the summed
    size of every distinct last-level cache instance on the online CPUs."""
    sizes: dict[str, int] = {}
    llc_instances: dict[str, int] = {}
    top = 0
    cpus = os.listdir(_CPU_SYS) if os.path.isdir(_CPU_SYS) else []
    for cpu in sorted(c for c in cpus if c.startswith("cpu") and c[3:].isdigit()):
        base = os.path.join(_CPU_SYS, cpu, "cache")
        for index in sorted(os.listdir(base)) if os.path.isdir(base) else []:
            d = os.path.join(base, index)
            level, kind, size = (_read(os.path.join(d, f)) for f in ("level", "type", "size"))
            if not (level and kind and size) or kind == "Instruction":
                continue
            sizes[f"L{level}"] = _parse_size(size)
            if int(level) > top:
                top, llc_instances = int(level), {}
            if int(level) == top:
                llc_instances[_read(os.path.join(d, "shared_cpu_list")) or cpu] = _parse_size(size)
    if llc_instances:
        sizes["llc_total"] = sum(llc_instances.values())
    return sizes


def cpu_model() -> str:
    text = _read("/proc/cpuinfo") or ""
    for line in text.splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _openblas():
    """ctypes handle and symbol names of the OpenBLAS that numpy loaded, or None."""
    maps = _read("/proc/self/maps") or ""
    paths = sorted({ln.split()[-1] for ln in maps.splitlines() if "openblas" in ln.lower() and ".so" in ln})
    for path in paths:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_", ""):
            for suffix in ("64_", ""):
                get = f"{prefix}openblas_get_num_threads{suffix}"
                if hasattr(lib, get):
                    return lib, get, f"{prefix}openblas_set_num_threads{suffix}", path
    return None


def cap_blas_threads(limit: int) -> dict:
    """Lower this process's BLAS thread count to ``limit`` if it is higher.

    ``metrics.mse`` ends in ``flat @ flat``, a BLAS ``ddot`` that OpenBLAS
    splits across threads. At the benchmark's grid sizes a second thread
    leaves the search's wall time unchanged while doubling its CPU time (2-CPU
    KVM guest, 128^2 and 512^2), and its spinning makes timings depend on
    whether another tenant holds the other core.
    """
    found = _openblas()
    if found is None:
        return {"library": "unknown", "default": None, "threads": None}
    lib, get_name, set_name, path = found
    get = getattr(lib, get_name)
    get.restype = ctypes.c_int
    default = get()
    if default > limit:
        set_ = getattr(lib, set_name)
        set_.argtypes = [ctypes.c_int]
        set_(limit)
    return {"library": os.path.basename(path), "default": default, "threads": get()}


def git_commit(root: str) -> str:
    """HEAD's commit id read from ``.git`` files, or 'unknown' outside a git checkout."""
    head = _read(os.path.join(root, ".git", "HEAD"))
    if head is None:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    direct = _read(os.path.join(root, ".git", ref))
    if direct:
        return direct
    for line in (_read(os.path.join(root, ".git", "packed-refs")) or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def environment(root: str) -> dict:
    cpus = usable_cpus()
    blas_config = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": cpus,
        "cpu_model": cpu_model(),
        "caches_bytes": caches(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "fft": "numpy.fft (pocketfft, one thread)",
        "blas": f"{blas_config.get('name')} {blas_config.get('version')}",
        "blas_threads": cap_blas_threads(BLAS_THREADS),
        "git_commit": git_commit(root),
        "limits": list(LIMITS),
    }


def copy_bandwidth(llc_bytes: int, reps: int = 5) -> dict:
    """Sustainable copy rate: ``np.copyto`` between two arrays, each at least
    four times the summed last-level caches, so the copy streams from memory.

    Bytes moved per copy count one read and one write of the array (computed;
    write-allocate traffic is not counted). Reports the median of ``reps``.
    """
    n = -(-4 * llc_bytes // 8)
    src = np.ones(n)
    dst = np.zeros(n)
    np.copyto(dst, src)
    rates = []
    for _ in range(reps):
        t0 = time.perf_counter()
        np.copyto(dst, src)
        rates.append(2 * src.nbytes / (time.perf_counter() - t0) / 1e9)
    return {"copy_gbps": statistics.median(rates), "array_bytes": src.nbytes,
            "llc_bytes": llc_bytes, "reps": reps}
