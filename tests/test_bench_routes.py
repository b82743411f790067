"""The benchmark's routes stay runnable against the package.

`bench/workloads.py` imports names from `equichi` and re-runs `verify` and
`strata` call by call in its traced form.  This runs every subdiv-ladder,
char-tables and rotation-groups op both ways, so removing or changing a
name it uses fails here, not only in a benchmark run.  The traced subdiv-ladder route also
computes an orientation character on every corpus action at every
subdivision level.  Inputs are written under the test's temporary
directory; nothing is written under `bench/`.
"""

import importlib
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(BENCH))
    write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        return {name: importlib.import_module(name) for name in ("run", "spans", "workloads")}
    finally:
        sys.dont_write_bytecode = write_bytecode
        sys.path.remove(str(BENCH))


@pytest.mark.parametrize("workload", ["subdiv-ladder", "char-tables", "rotation-groups"])
def test_traced_routes_match_the_command(bench, tmp_path, workload):
    workloads, Tracer, same_outcome = bench["workloads"], bench["spans"].Tracer, bench["run"].same_outcome
    ops = workloads.WORKLOADS[workload](tmp_path, 7)
    assert ops
    for op in ops:
        plain = op.outcome(op.run())
        traced = op.outcome(op.traced(Tracer()))
        assert workloads.check(op, plain) is None, op.id
        assert same_outcome(plain, traced), op.id
