"""Fault-free runs are bit-identical to the pre-fault engine.

Fault-free runs go through the same DES loop as faulty ones
(:func:`repro.runtime.membership.run_with_ledger`, every fault
construct gated off), and this suite is what makes that safe: every
golden grid point (both engines x policies x arrival processes x
striping, captured from the tree *before* the fault machinery landed)
must reproduce float for float.  New always-computed report fields (``goodput_jps``, the fault
counters) are allowed to appear; every golden key must match exactly.

Regenerate (only after an intentional semantic change)::

    PYTHONPATH=src python tests/runtime/_golden_grid.py
"""

import json
import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
from _golden_grid import DATA_PATH, golden_runs, report_dict  # noqa: E402


def _golden():
    with open(DATA_PATH) as fh:
        return json.load(fh)


GOLDEN = _golden()
POINTS = list(golden_runs())


@pytest.mark.parametrize(
    "key,kwargs", POINTS, ids=[key for key, _ in POINTS])
def test_report_matches_golden(key, kwargs):
    assert key in GOLDEN, (
        f"no golden entry for {key}; regenerate the grid")
    got = report_dict(kwargs)
    want = GOLDEN[key]
    mismatched = {
        field: (want[field], got.get(field))
        for field in want
        if got.get(field) != want[field]
    }
    assert not mismatched, (
        f"{key}: fault-free report drifted from the pre-fault golden "
        f"on {sorted(mismatched)}: {mismatched}")


def test_grid_covers_both_engines_and_all_points():
    engines = {key.split("/")[2] for key, _ in POINTS}
    assert engines == {"des", "fast"}
    assert len(POINTS) == len(GOLDEN)


def test_new_fields_are_inert_when_fault_free():
    # The report grew fault fields; on a fault-free run they must all
    # be zero (and absent from the golden, which predates them).
    key, kwargs = POINTS[0]
    got = report_dict(kwargs)
    for field in ("board_faults", "failures", "retries", "shed_jobs",
                  "shed_degraded", "degraded_jobs", "wasted_service_s"):
        assert field not in GOLDEN[key]
        assert got[field] == 0
