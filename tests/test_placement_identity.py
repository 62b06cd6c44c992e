"""The shortcut placement DP and the trace-free step-pair path change no
answer: every repair equals one run with the artifact's trace-file round
trip and the verbatim triple-loop DP (:func:`reference_placement`).

Inputs are the benchmark's repair workloads — the Table-1 stripped
programs at their smallest repair-suite size and the nested-async stress
programs — plus every distinct program of the 59-submission student
corpus at its CI batch input.
"""

from __future__ import annotations

import importlib.util
import os

import pytest

from repro.bench.students import population_sources
from repro.errors import RepairError
from repro.lang import parse
from repro.repair import repair_program
from repro.repair.bruteforce import reference_placement


def _load_workloads():
    path = os.path.join(os.path.dirname(__file__), os.pardir,
                        "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("_perfbench_workloads",
                                                  path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_WORKLOADS = _load_workloads()


def _cases():
    for program, levels in sorted(_WORKLOADS.REPAIR_LEVELS.items()):
        yield pytest.param(
            _WORKLOADS.table1_source(program, "stripped"),
            _WORKLOADS.table1_args(program, min(levels)),
            id=f"{program}-stripped-{min(levels)}")
    for depth in _WORKLOADS.STRESS_DEPTHS:
        level = min(_WORKLOADS.STRESS_LEVELS)
        yield pytest.param(_WORKLOADS.stress_source(depth), (level,),
                           id=f"stress-{depth}-{level}")
    seen = set()
    for name, source in population_sources():
        if source not in seen:
            seen.add(source)
            yield pytest.param(source, (40,), id=name[:-3])


def _outcome(source, args, **options):
    """(repaired source, per-iteration placements) or the repair error."""
    try:
        payload = repair_program(parse(source), args, **options).to_payload()
    except RepairError as exc:
        return ("error", str(exc))
    return (payload["repaired_source"],
            [it["placements"] for it in payload["iterations"]])


@pytest.mark.parametrize("source,args", list(_cases()))
def test_repair_matches_reference_pipeline(source, args, monkeypatch):
    fast = _outcome(source, args)
    monkeypatch.setattr("repro.repair.engine.solve_placement",
                        reference_placement)
    assert fast == _outcome(source, args, trace_roundtrip=True)
