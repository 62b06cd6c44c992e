"""Correctness checks, independent of the answers under test.

* ``detect`` verdicts are compared with the hand-written ground truth
  (finish-stripped programs race, originals do not) and with the race
  count of the vector-clock detector (``vc_races.json``): MRW must report
  exactly that many races, SRW must agree on racy versus race-free.
* A repaired program must be race-free under the vector-clock detector,
  and its serial elision must print what the submitted program's serial
  elision prints on the ``tree`` engine.
* A classroom submission is graded from its service answers — racy if
  the repair had to insert a finish, otherwise by its measured CPL
  against the CPL of a *hand-written* matched template — and the grade
  must equal the generator's class.

Every check returns ``None`` when the answer is right and a one-line
reason otherwise.  Repair verifications run once the service has
stopped, once per distinct answer.
"""

from __future__ import annotations

import functools
from typing import Any, Dict, List, Optional, Tuple

from repro.bench.students import MATCHED_TEMPLATES, SPAN_TOLERANCE
from repro.graph import measure_program, subtree_completion
from repro.lang import parse, serial_elision
from repro.races import detect_races
from repro.runtime import run_program

from workloads import JobSpec, untagged

#: the hand-written matched template grades are measured against.
REFERENCE_TEMPLATE = MATCHED_TEMPLATES[0][1]


def repair_task(spec: JobSpec, payload: Dict[str, Any]) -> tuple:
    """The verification a repair answer needs.  Job tags are dropped
    first (the uncalled function cannot affect the check), so answers
    that differ only in their tag are verified once."""
    return (untagged(spec.source), untagged(payload["repaired_source"]),
            spec.args, spec.truth.get("original"))


def verify_repair(source: str, repaired_source: str, args: Tuple,
                  original: Optional[str]
                  ) -> Tuple[Optional[str], Optional[float]]:
    """Is the repaired program race-free under vector clocks, with the
    serial output of the submitted one?  Also its CPL ratio against the
    hand-written original, if any (the repaired CPL comes from the same
    vector-clock run's S-DPST)."""
    try:
        repaired = parse(repaired_source)
    except Exception as error:  # a malformed answer is a wrong answer
        return f"repaired source unparsable: {error}", None
    detection = detect_races(repaired, args, algorithm="vc")
    if not detection.report.is_race_free:
        return (f"repaired program has {len(detection.report)} races "
                "under vector clocks"), None
    got = run_program(serial_elision(repaired), args).output
    if got != _reference_output(source, args):
        return "repaired serial output differs from the submitted", None
    if original is None:
        return None, None
    return None, (subtree_completion(detection.dpst.root)
                  / _span(original, args))


@functools.lru_cache(maxsize=None)
def _reference_output(source: str, args: Tuple) -> List[str]:
    """What the submitted program's serial elision prints (tree engine)."""
    return run_program(serial_elision(parse(source)), args,
                       engine="tree").output


@functools.lru_cache(maxsize=None)
def _span(source: str, args: Tuple) -> int:
    return measure_program(parse(source), args).span


class Checker:
    def __init__(self) -> None:
        self._repairs: Dict[tuple, Tuple[Optional[str],
                                         Optional[float]]] = {}

    # -- detect --------------------------------------------------------

    @staticmethod
    def check_detect(spec: JobSpec, payload: Dict[str, Any]
                     ) -> Optional[str]:
        truth = spec.truth
        if payload["race_free"] == truth["racy"]:
            return (f"{spec.source_name}: race_free={payload['race_free']} "
                    f"but the program is "
                    f"{'racy' if truth['racy'] else 'race-free'}")
        if (payload["race_count"] == 0) != payload["race_free"]:
            return f"{spec.source_name}: race_count contradicts race_free"
        expected = truth.get("vc_races")
        if expected is None:
            return f"{spec.source_name}: no vector-clock ground truth"
        if spec.algorithm == "mrw" and payload["race_count"] != expected:
            return (f"{spec.source_name}: {payload['race_count']} races, "
                    f"vector clocks find {expected}")
        if (payload["race_count"] > 0) != (expected > 0):
            return f"{spec.source_name}: verdict differs from vector clocks"
        return None

    # -- repair --------------------------------------------------------

    def check_repair(self, spec: JobSpec, payload: Dict[str, Any]
                     ) -> Tuple[Optional[str], Optional[float]]:
        """(problem, CPL ratio); the ratio is CPL(repaired) / CPL(hand-
        written original) when the program has a hand-written original."""
        if not payload.get("converged"):
            return f"{spec.source_name}: repair did not converge", None
        expected_iterations = spec.truth.get("iterations")
        if (expected_iterations is not None
                and payload["iteration_count"] != expected_iterations):
            return (f"{spec.source_name}: {payload['iteration_count']} "
                    f"repair iterations, expected {expected_iterations}",
                    None)
        task = repair_task(spec, payload)
        if task not in self._repairs:
            self._repairs[task] = verify_repair(*task)
        problem, ratio = self._repairs[task]
        if problem is not None:
            return f"{spec.source_name}: {problem}", None
        return None, ratio

    # -- classroom -----------------------------------------------------

    def grade(self, repair: Dict[str, Any], measure: Dict[str, Any],
              n: int) -> str:
        if repair["inserted_finish_count"] > 0:
            return "racy"
        reference = _span(REFERENCE_TEMPLATE, (n,))
        if measure["span"] > reference * (1.0 + SPAN_TOLERANCE):
            return "over-synchronized"
        return "matched"

    def check_grade(self, spec: JobSpec, repair: Dict[str, Any],
                    measure: Dict[str, Any]) -> Optional[str]:
        if not 0 < measure["span"] <= measure["work"]:
            return f"{spec.source_name}: impossible work/span"
        grade = self.grade(repair, measure, spec.truth["n"])
        if grade != spec.truth["class"]:
            return (f"{spec.source_name}: graded {grade}, known class "
                    f"{spec.truth['class']} ({spec.truth['template']}, "
                    f"n={spec.truth['n']})")
        return None
