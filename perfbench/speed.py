"""The speed probe: fixed jobs of the benchmark's own, timed between ops.

The host this benchmark was written on is shared, and its speed moves between
two levels about a factor of two apart, for seconds to minutes at a time, in
wall time and in process CPU time alike.  A run of 20 s cannot average that
out, and two runs of the same code minutes apart can differ by half.  So the
harness times this probe next to the ops and scales every end-to-end timing
to the speed at which the probe takes ``NOMINAL_S``:

    scaled time = measured time * NOMINAL_S / probe time

A program that gets slower still reads slower, by the same factor, because
the probe runs none of the program's code.

The slow periods do not slow all code alike: some slow object-heavy Python
and numpy alike, others slow only bulk numpy work.  So
there are two jobs, and each workload is probed with the one that resembles
its work.  ``objects`` does ``Fraction`` arithmetic, compares and hashes
small objects and makes small numpy arrays, like ``pairing-corpus`` and
``order-checks``.  ``arrays`` gathers from a relation through ``np.indices``
on 48^3 cells, as the FO counter does on ``fo-large``.  In recordings of
five to seven minutes with fast and slow periods, the 20 s medians of single
ops moved by 4 to 11 % (the quartile distance, as a share of the median),
and their ratios to the matching job by 2 to 7 %.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

import numpy as np

NOMINAL_S = 0.005  # between the jobs' times in the host's fast and slow periods
EVERY_S = 0.25  # least time between two probes inside a pass


class _Point:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        self.a = a
        self.b = b

    def __le__(self, other: "_Point") -> bool:
        return (self.a, self.b) <= (other.a, other.b)


def _objects() -> tuple:
    total = Fraction(0)
    for i in range(1, 700):
        total += Fraction(i % 13, 7 + i % 5)
    points = [_Point(i % 17, i * 7 % 11) for i in range(2000)]
    counts: dict[tuple[int, int], int] = {}
    for p in points:
        counts[p.a, p.b] = counts.get((p.a, p.b), 0) + 1
    ordered = sum(1 for p, q in zip(points, points[1:]) if p <= q)
    cells = 0
    for i in range(150):
        a = np.arange(i % 7 + 3)
        cells += int((a[:, None] & a[None, :]).sum())
    return total, len(counts), ordered, cells


def _arrays() -> int:
    idx = np.indices((48, 48, 48))
    mask = (idx[0] * 7 + idx[1]) % 5 == 0
    relation = (np.arange(48)[:, None] * 31 + np.arange(48)[None, :]) % 3 == 0
    total = 0
    for _ in range(4):
        cells = relation[idx[0], idx[1]] & ~mask
        total += int(cells.any(axis=2).sum())
    return total


JOBS = {"objects": _objects, "arrays": _arrays}
EXPECTED = {name: job() for name, job in JOBS.items()}


def probe(job: str) -> float:
    """Wall time of one run of the named job, in seconds."""
    t0 = perf_counter()
    out = JOBS[job]()
    elapsed = perf_counter() - t0
    assert out == EXPECTED[job]
    return elapsed
