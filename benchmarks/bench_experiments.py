"""Every paper experiment at full benchmark scale, one benchmark per id.

T1-T6 are the paper's tables, X1-X6 its other claims, A1-A9 ablations of
design choices it discusses, and R1 the multi-seed robustness sweep.
Each run regenerates the artefact, prints the paper-vs-measured table and
asserts its shape checks; DESIGN.md maps each id to the code it drives
and EXPERIMENTS.md records the measured rows.
"""

from __future__ import annotations

import pytest

from .conftest import run_and_report

EXPERIMENT_IDS = (
    [f"T{i}" for i in range(1, 7)]
    + [f"X{i}" for i in range(1, 7)]
    + [f"A{i}" for i in range(1, 10)]
    + ["R1"]
)


@pytest.mark.parametrize("exp_id", EXPERIMENT_IDS)
def test_experiment(benchmark, capsys, exp_id):
    """Reproduce one experiment and verify its qualitative claims."""
    run_and_report(benchmark, capsys, exp_id)
