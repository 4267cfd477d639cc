"""Content fingerprints: the keys of the result store.

Every storable unit of work — a whole experiment, one simulation row
inside a sweep, or one service job — is identified by a *fingerprint*:
a plain dict of every input that determines its output (experiment id,
circuit netlist, schedule fields, processor count, iteration count,
cost-model fields, and a digest of the package source).
:func:`stable_hash` canonicalises the fingerprint to JSON and hashes it,
so the same configuration always maps to the same key in the SQLite
repository (:mod:`repro.service.repository`) and *any* single field
change maps to a different one.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import asdict, is_dataclass
from enum import Enum
from functools import lru_cache
from pathlib import Path
from typing import Any, Dict

import numpy as np

from .. import __version__
from ..parallel.timing import DEFAULT_COST_MODEL, CostModel

__all__ = [
    "stable_hash",
    "jsonify",
    "code_fingerprint",
    "circuit_fingerprint",
    "cost_model_fingerprint",
]


# ----------------------------------------------------------------------
# canonicalisation and hashing
# ----------------------------------------------------------------------
#: String keys that *look* like a type tag must themselves be tagged,
#: otherwise the string key ``"int:1"`` would collide with the int key 1.
_TAGGED_KEY = re.compile(r"^\w+:")


def _jsonify_key(key: Any) -> str:
    """Canonical string form of a dict key, collision-free across types.

    Non-string keys are type-tagged (``1`` -> ``"int:1"``, ``True`` ->
    ``"bool:True"``, ``(2, 10)`` -> ``"tuple:(2, 10)"``) so distinct keys
    that share a spelling — ``{1: x}`` vs ``{"1": x}``, ``{True: x}`` vs
    ``{1: x}`` — canonicalise differently instead of silently merging
    into one store key.  Plain string keys pass through untouched unless
    they match the tag shape themselves, in which case they get an
    explicit ``str:`` tag.
    """
    if isinstance(key, str):
        return f"str:{key}" if _TAGGED_KEY.match(key) else key
    if isinstance(key, np.generic):
        # numpy scalar reprs differ across numpy versions; the unwrapped
        # Python value is the stable spelling.
        return f"{type(key).__name__}:{key.item()!r}"
    return f"{type(key).__name__}:{key!r}"


def jsonify(obj: Any) -> Any:
    """Recursively convert *obj* into JSON-serialisable plain data.

    Handles numpy scalars/arrays, tuples, sets, enums, dataclasses, and
    dicts with non-string keys (type-tagged, see :func:`_jsonify_key`) —
    everything that appears in experiment rows, extras, and configuration
    fingerprints.
    """
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    if isinstance(obj, Enum):
        return obj.value
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if is_dataclass(obj) and not isinstance(obj, type):
        return jsonify(asdict(obj))
    if isinstance(obj, dict):
        return {_jsonify_key(k): jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonify(v) for v in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted(repr(v) for v in obj)
    return repr(obj)


def stable_hash(fingerprint: Dict[str, Any]) -> str:
    """The store key of a fingerprint dict: sha256 of its canonical JSON."""
    canonical = json.dumps(
        jsonify(fingerprint), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# fingerprint ingredients
# ----------------------------------------------------------------------
@lru_cache(maxsize=1)
def code_fingerprint() -> str:
    """Digest of every ``repro`` source file plus the package version.

    Any code change invalidates stored results — simulation outputs
    depend on the whole simulator stack, not just the harness.
    """
    digest = hashlib.sha256()
    digest.update(__version__.encode())
    root = Path(__file__).resolve().parent.parent
    for path in sorted(root.rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def circuit_fingerprint(circuit) -> str:
    """Digest of a circuit's full netlist (dimensions, wires, pin coords)."""
    digest = hashlib.sha256()
    digest.update(
        f"{circuit.name}|{circuit.n_channels}|{circuit.n_grids}|"
        f"{circuit.n_wires}".encode()
    )
    for wire in circuit.wires:
        digest.update(wire.name.encode())
        for pin in wire.pins:
            digest.update(f"{pin.x},{pin.channel};".encode())
    return digest.hexdigest()


def cost_model_fingerprint(cost_model: CostModel = DEFAULT_COST_MODEL) -> Dict[str, float]:
    """The cost-model fields that shape every simulated time."""
    return asdict(cost_model)
