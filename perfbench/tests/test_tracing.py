"""Tracing must not change results, must restore every wrapped name, and its
spans must account for the operation's time.

    python3 -m pytest -q perfbench/tests
"""

import os
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parents[1] / "src"), str(HERE.parent)]

import pytest  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402


def _installed():
    return {(path, attr): vars(tracing._owner(path)).get(attr)
            for path, attr, _, _ in tracing.TARGETS}


def test_traced_fit_is_bit_identical_and_spans_cover_it(tmp_path):
    originals = _installed()
    fit = workloads.fit_m200(7, tmp_path).ops[0]
    plain = fit()

    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        with tracer.operation(1):
            traced = fit()

    assert traced.theta.tobytes() == plain.theta.tobytes()
    assert all(_installed()[key] is original for key, original in originals.items())

    roots = [s for s in tracer.spans if s.parent is None]
    assert len(roots) == 1
    root = roots[0]
    selfs = tracing.self_times(tracer.spans)
    below = sum(t for span_id, t in selfs.items() if span_id != root.id)
    assert abs(below - root.duration) <= 0.01 * root.duration


def test_wrappers_are_restored_when_the_block_raises():
    originals = _installed()
    with pytest.raises(RuntimeError):
        with tracing.traced(tracing.Tracer()):
            assert _installed() != originals
            raise RuntimeError("inside the traced block")
    assert all(_installed()[key] is original for key, original in originals.items())


def test_calls_outside_an_operation_leave_no_spans():
    data = workloads.box_problem(workloads.blob(0, 12, 3))
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        workloads.separation.best_violation(workloads.dual_point(data, 0), data)
    assert tracer.spans == []
