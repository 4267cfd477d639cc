"""Helpers shared by ``run.py`` and the processes it starts."""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import sys
from typing import Any, Dict, List, Sequence

#: The seed whose outputs are pinned by ``digests.json``; it selects the
#: canonical circuits (``bnre_like()``, ``mdc_like()``, the default
#: ``generate_scaled`` seed), so its table rows equal ``run_experiment``'s.
DEFAULT_SEED = 0

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS_PATH = os.path.join(HERE, "digests.json")


def percentile(values: Sequence[float], q: float) -> float:
    """The *q*-th percentile (0..100), linear between order statistics."""
    data = sorted(values)
    if not data:
        return math.nan
    pos = (len(data) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50)


def digest(obj: Any) -> str:
    """SHA-256 of *obj* as canonical JSON."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def recorded_digests() -> Dict[str, str]:
    with open(DIGESTS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def peak_rss_mb() -> float:
    """Peak RSS of this process and of its largest waited-for child, in MB."""
    import resource

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def host_info(seed: int) -> Dict[str, Any]:
    """Where a result came from; results from different hosts differ."""
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "missing"
    try:
        load = list(os.getloadavg())
    except OSError:
        load = []
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": sys.version.split()[0],
        "numpy": numpy_version,
        "loadavg_start": load,
        "seed": seed,
        "platform": platform.platform(),
    }


def check_paths(n_wires: int, paths: Dict[int, Any], cost_data, label: str) -> List[str]:
    """Every wire routed exactly once; the cost array is the paths' sum."""
    import numpy as np

    problems = []
    if sorted(paths) != list(range(n_wires)):
        problems.append(f"{label}: {len(paths)} paths for {n_wires} wires")
        return problems
    expected = np.zeros(cost_data.size, dtype=np.int64)
    for path in paths.values():
        np.add.at(expected, np.asarray(path.flat_cells, dtype=np.int64), 1)
    if not np.array_equal(expected, np.asarray(cost_data, dtype=np.int64).reshape(-1)):
        problems.append(f"{label}: final cost array differs from the sum of the paths")
    return problems
