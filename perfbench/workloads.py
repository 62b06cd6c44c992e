"""Seeded workload generators with recorded ground truth.

Each generator turns ``--seed`` into the exact sources and arguments the
service receives, plus the answer the benchmark expects back.  The
service never sees the ground truth; it gets plain ``Job`` dictionaries
(kind, source, source name, args, algorithm).

* ``detect-suite`` — closed loop.  ``detect`` jobs on the Table-1
  programs, finish-stripped (known racy) or hand-written (known
  race-free), at an input scale up to the program's repair size.
* ``repair-suite`` — closed loop.  ``repair`` jobs on finish-stripped
  Table-1 programs plus nested-async stress programs of depth 2-4, which
  need exactly ``depth`` repair iterations.
* ``classroom-open`` — open loop.  Seeded arrivals of §7.4 student
  submissions, each sending one ``repair`` and one ``measure`` job.

Closed-loop traffic is dealt from seeded *decks* (see :func:`_decks`), so
every run sees the same mix of programs, sizes and detectors whatever
the seed.  Every closed-loop job is distinct (:func:`tagged`), so the
result cache only writes.
"""

from __future__ import annotations

import json
import os
import random
import re
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.bench.students import (GRADING_INPUTS as _GRADING_ARGS, Grade,
                                  Submission, synthesize_population)
from repro.bench.suite import BENCHMARK_ORDER, get_benchmark
from repro.lang import parse, pretty, strip_finishes
from repro.races import detect_races

#: Detect-suite input scales: values of each program's first argument,
#: all at most its Table-1 repair size.  The largest levels are capped
#: where one job would otherwise run for many seconds (mergesort's
#: race report at n=1000 is 47 MB); lufact keeps its repair size as the
#: race-dense case (~120k races, a ~15 MB report).
DETECT_LEVELS: Dict[str, Tuple[int, ...]] = {
    "fibonacci": (10, 12, 14, 16),
    "quicksort": (100, 250, 500, 1000),
    "mergesort": (32, 64, 128, 192),
    "spanningtree": (50, 100, 150, 200),
    "nqueens": (4, 5, 6),
    "series": (8, 12, 18, 25),
    "sor": (20, 30, 50, 70),
    "crypt": (100, 200, 400, 800),
    "sparse": (25, 50, 75, 100),
    "lufact": (10, 14, 18, 25),
    "fannkuch": (4, 5, 6),
    "mandelbrot": (8, 12, 18, 24),
}

#: Repair-suite input scales (repair costs several detections, so these
#: stop lower than the detect levels).
REPAIR_LEVELS: Dict[str, Tuple[int, ...]] = {
    "fibonacci": (10, 12, 14),
    "quicksort": (100, 175, 250),
    "mergesort": (32, 48, 64),
    "spanningtree": (20, 35, 50),
    "nqueens": (4, 5, 6),
    "series": (8, 12, 18, 25),
    "sor": (12, 20, 30),
    "crypt": (50, 100, 150),
    "sparse": (25, 50, 75, 100),
    "lufact": (8, 10, 14),
    "fannkuch": (4, 5),
    "mandelbrot": (8, 12, 18),
}

#: Stress programs' nesting depths (a depth-d program needs d repair
#: iterations) and input sizes.
STRESS_DEPTHS = (2, 3, 4)
STRESS_LEVELS = (100, 200, 400)

ALGORITHMS = ("mrw", "srw")

#: The §7.4 grading inputs and the number of class populations mixed
#: into one classroom run.
GRADING_INPUTS = tuple(args[0] for args in _GRADING_ARGS)
CLASS_SEEDS_PER_RUN = 3

#: A racy template can be race-free on one particular input: with a
#: finish around only the second recursive async, the n=60 array's
#: partitions leave the unjoined first recursion without a conflicting
#: access.  On that input the submission is correct and maximally
#: parallel, so its known class there is "matched".
RACE_FREE_INPUTS = {"finish around only the second async": (60,)}

VC_TABLE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "vc_races.json")


class JobSpec:
    """One job as sent, plus the answer the benchmark expects."""

    __slots__ = ("kind", "source", "source_name", "args", "algorithm",
                 "truth")

    def __init__(self, kind: str, source: str, source_name: str,
                 args: Sequence[int], algorithm: str = "mrw",
                 truth: Optional[Dict[str, Any]] = None) -> None:
        self.kind = kind
        self.source = source
        self.source_name = source_name
        self.args = tuple(args)
        self.algorithm = algorithm
        self.truth = truth or {}

    def wire(self) -> Dict[str, Any]:
        """The job dictionary POSTed to the service."""
        return {"kind": self.kind, "source": self.source,
                "source_name": self.source_name, "args": list(self.args),
                "algorithm": self.algorithm}


class Arrival:
    """One open-loop arrival: its due time (seconds after the start of
    the measured window) and the jobs it submits together."""

    __slots__ = ("due", "jobs")

    def __init__(self, due: float, jobs: List[JobSpec]) -> None:
        self.due = due
        self.jobs = jobs


# ----------------------------------------------------------------------
# Program texts
# ----------------------------------------------------------------------

_SOURCE_CACHE: Dict[Tuple[str, str], str] = {}


def table1_source(program: str, variant: str) -> str:
    """The hand-written original or its finish-stripped version."""
    key = (program, variant)
    if key not in _SOURCE_CACHE:
        spec = get_benchmark(program)
        if variant == "original":
            text = spec.source
        elif variant == "stripped":
            text = pretty(strip_finishes(spec.parse()))
        else:
            raise ValueError(f"unknown variant {variant!r}")
        _SOURCE_CACHE[key] = text
    return _SOURCE_CACHE[key]


def table1_args(program: str, first: int) -> Tuple[int, ...]:
    return (first,) + tuple(get_benchmark(program).repair_args[1:])


_SWEEP = """
def sweep(a, lo, hi) {
    var s = 1;
    var t = 1;
    for (var i = lo; i < hi; i = i + 1) {
        s = s + a[i] * 3 + a[i] * 5 + a[i] * 7 - a[i] * 2;
        t = t * 3 + s * 7 - t / 2 + s * 5 - t * 9 + s * 13;
        a[i] = s + t * 2 + a[i] * 4;
    }
}
"""


def stress_source(depth: int) -> str:
    """A nested-async program whose repair takes ``depth`` iterations.

    Level ``k`` (outermost 0) is an async that, after its inner async,
    sweeps its own array region and then touches the variable its child
    wrote and the one its parent reads.  The parent-child conflicts nest,
    so each round of finish insertion defers the inner placement to the
    next iteration (the ``stress-*`` shape of ``scripts/bench.py``).
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    lines = ["def main(n) {", f"    var a = new int[{depth + 1} * n];"]
    lines += [f"    var v{k} = 0;" for k in range(depth + 1)]

    def level(k: int, indent: str) -> List[str]:
        body = [f"{indent}async {{"]
        inner = indent + "    "
        if k + 1 < depth:
            body += level(k + 1, inner)
        lo = depth - 1 - k
        body.append(f"{inner}sweep(a, {lo} * n, {lo + 1} * n);")
        if k + 1 < depth:
            body.append(f"{inner}v{k + 1} = v{k + 1} + 1;")
        body.append(f"{inner}v{k} = 5;")
        body.append(f"{indent}}}")
        return body

    lines += level(0, "    ")
    lines.append(f"    sweep(a, {depth} * n, {depth + 1} * n);")
    lines.append("    v0 = v0 + 1;")
    lines.append("}")
    return _SWEEP + "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# Ground-truth race counts (vector-clock detector)
# ----------------------------------------------------------------------

_VC_TABLE: Optional[Dict[str, int]] = None


def vc_key(program: str, variant: str, args: Sequence[int]) -> str:
    return f"{program}|{variant}|{','.join(str(a) for a in args)}"


def vc_table() -> Dict[str, int]:
    """Race counts the vector-clock detector reports for every
    detect-suite (program, variant, args), precomputed by
    ``make_vc_table.py``."""
    global _VC_TABLE
    if _VC_TABLE is None:
        with open(VC_TABLE_PATH, encoding="utf-8") as handle:
            _VC_TABLE = json.load(handle)
    return _VC_TABLE


def detect_space() -> List[Tuple[str, str, Tuple[int, ...]]]:
    """Every (program, variant, args) the detect-suite can send."""
    return [(program, variant, table1_args(program, level))
            for program in BENCHMARK_ORDER
            for variant in ("stripped", "original")
            for level in DETECT_LEVELS[program]]


# ----------------------------------------------------------------------
# Generators
# ----------------------------------------------------------------------

def _decks(rng: random.Random, slots: List[Any],
           levels: Dict[Any, Sequence[int]], count: int,
           algorithms: Sequence[str]) -> List[Tuple[Any, int, str]]:
    """``count`` (slot, level, algorithm) draws, dealt from decks.

    A deck holds every slot at every one of its levels once.  Algorithms
    alternate over a slot's levels, largest first, and from deck to deck,
    so every deck is the same mix of programs, sizes and detectors
    whatever the seed.  The first deck runs every program's largest size
    under the first algorithm (MRW, which reports every race): the
    heaviest job of the suite is in every run, and so is the peak memory
    it sets.

    Only the order is drawn.  Cards of each size rank (every slot's
    largest level, its second largest, ...) are shuffled and spread
    evenly through the deck, so any stretch of a run — in particular the
    part of the last deck a window reaches — carries the deck's mix of
    sizes, and heavy jobs do not bunch up by chance.
    """
    draws: List[Tuple[Any, int, str]] = []
    deck = 0
    while len(draws) < count:
        ranks: Dict[int, List[Tuple[Any, int, str]]] = {}
        for slot in slots:
            for rank, level in enumerate(sorted(levels[slot],
                                                reverse=True)):
                algo = algorithms[(rank + deck) % len(algorithms)]
                ranks.setdefault(rank, []).append((slot, level, algo))
        keyed = []
        for cards in ranks.values():
            rng.shuffle(cards)
            offset = rng.random()
            keyed += [((index + offset) / len(cards), card)
                      for index, card in enumerate(cards)]
        keyed.sort(key=lambda item: item[0])
        draws.extend(card for _key, card in keyed)
        deck += 1
    return draws[:count]


def tagged(source: str, index: int) -> str:
    """``source`` plus an uncalled function naming job ``index``: the
    program behaves identically, but its canonical text — the result
    cache's key — is unique, so decks can repeat without cache hits."""
    return (source + f"\ndef perfbench_job_{index}() {{\n"
            f"    return {index};\n}}\n")


_TAG = re.compile(r"def perfbench_job_\d+\(\)\s*\{\s*return\s+\d+;\s*\}\s*")


def untagged(source: str) -> str:
    """``source`` without its :func:`tagged` function."""
    return _TAG.sub("", source)


def detect_suite(seed: int, count: int) -> List[JobSpec]:
    rng = random.Random(f"detect-suite:{seed}")
    slots = [(program, variant) for program in BENCHMARK_ORDER
             for variant in ("stripped", "original")]
    levels = {slot: DETECT_LEVELS[slot[0]] for slot in slots}
    table = vc_table()
    jobs = []
    for index, ((program, variant), level, algo) in enumerate(
            _decks(rng, slots, levels, count, ALGORITHMS)):
        args = table1_args(program, level)
        jobs.append(JobSpec(
            "detect", tagged(table1_source(program, variant), index),
            f"{program}-{variant}-{level}.hj", args, algo,
            truth={"program": program, "variant": variant,
                   "racy": variant == "stripped",
                   "vc_races": table.get(vc_key(program, variant, args))}))
    return jobs


def repair_suite(seed: int, count: int) -> List[JobSpec]:
    rng = random.Random(f"repair-suite:{seed}")
    slots: List[Any] = list(BENCHMARK_ORDER) + [
        f"stress-{depth}" for depth in STRESS_DEPTHS]
    levels = {slot: REPAIR_LEVELS.get(slot, STRESS_LEVELS)
              for slot in slots}
    jobs = []
    for index, (slot, level, algo) in enumerate(
            _decks(rng, slots, levels, count, ALGORITHMS)):
        if slot.startswith("stress-"):
            depth = int(slot.split("-")[1])
            jobs.append(JobSpec(
                "repair", tagged(stress_source(depth), index),
                f"{slot}-{level}.hj", (level,), algo,
                truth={"program": slot, "iterations": depth,
                       "original": None}))
        else:
            jobs.append(JobSpec(
                "repair", tagged(table1_source(slot, "stripped"), index),
                f"{slot}-stripped-{level}.hj", table1_args(slot, level),
                algo,
                truth={"program": slot,
                       "original": table1_source(slot, "original")}))
    return jobs


def classroom_population(seed: int) -> List[Submission]:
    rng = random.Random(f"classroom-classes:{seed}")
    population: List[Submission] = []
    for _ in range(CLASS_SEEDS_PER_RUN):
        population.extend(
            synthesize_population(seed=rng.randrange(1, 1 << 30)))
    return population


def known_class(submission: Submission, n: int) -> str:
    """The submission's class on grading input ``n``."""
    if n in RACE_FREE_INPUTS.get(submission.description, ()):
        return Grade.MATCHED.value
    return submission.expected.value


def classroom_open(seed: int, seconds: float, rate: float) -> List[Arrival]:
    """``round(rate * seconds)`` arrivals at uniformly drawn instants of
    the window — a Poisson process conditioned on its count, so every
    seed offers exactly the same load with Poisson burstiness."""
    rng = random.Random(f"classroom-open:{seed}")
    population = classroom_population(seed)
    count = max(1, round(rate * seconds))
    dues = sorted(rng.uniform(0.0, seconds) for _ in range(count))
    arrivals = []
    for index, due in enumerate(dues):
        sub = population[rng.randrange(len(population))]
        n = GRADING_INPUTS[rng.randrange(len(GRADING_INPUTS))]
        truth = {"class": known_class(sub, n), "n": n,
                 "template": sub.description, "arrival": index}
        name = f"arrival-{index:04d}-submission-{sub.ident:03d}.hj"
        arrivals.append(Arrival(due, [
            JobSpec("repair", sub.source, name, (n,), "mrw", dict(truth)),
            JobSpec("measure", sub.source, name, (n,), "mrw", dict(truth)),
        ]))
    return arrivals


#: A small program outside every workload, for warm-up jobs.
WARMUP_SOURCE = """
def fill(a, lo, hi, v) {
    for (var i = lo; i < hi; i = i + 1) {
        a[i] = v + i;
    }
}

def main(n) {
    var a = new int[2 * n];
    var total = 0;
    async fill(a, 0, n, 1);
    async fill(a, n, 2 * n, 2);
    for (var i = 0; i < 2 * n; i = i + 1) {
        total = total + a[i];
    }
    print("warmup", total);
}
"""

WARMUP_ORIGINAL = WARMUP_SOURCE.replace(
    "    async fill(a, 0, n, 1);\n    async fill(a, n, 2 * n, 2);\n",
    "    finish {\n        async fill(a, 0, n, 1);\n"
    "        async fill(a, n, 2 * n, 2);\n    }\n")


def warmup_jobs() -> List[JobSpec]:
    """Detect, repair and measure once each on both pool workers."""
    jobs = []
    for index, n in enumerate((24, 32)):
        races = detect_races(parse(WARMUP_SOURCE), (n,), algorithm="vc")
        truth = {"program": "warmup", "racy": True,
                 "vc_races": len(races.report), "original": WARMUP_ORIGINAL,
                 "variant": "stripped"}
        name = f"warmup-{index}.hj"
        jobs.append(JobSpec("detect", WARMUP_SOURCE, name, (n,), "mrw",
                            dict(truth)))
        jobs.append(JobSpec("repair", WARMUP_SOURCE, name, (n,), "mrw",
                            dict(truth)))
        jobs.append(JobSpec("measure", WARMUP_ORIGINAL, name, (n,), "mrw",
                            dict(truth)))
    return jobs
