"""Shared low-level utilities for the reproduction library.

This package deliberately contains only small, dependency-free helpers:

* :mod:`repro.util.intmath` -- integer logarithms and power-of-two helpers
  used throughout the generation/iteration counting of the GCA algorithm.
* :mod:`repro.util.sentinels` -- the finite representation of the paper's
  "infinity" value used during the row-minimum reductions.
* :mod:`repro.util.validation` -- argument checking helpers that raise
  uniform, descriptive exceptions.
* :mod:`repro.util.formatting` -- plain-text table and matrix renderers used
  by the analysis reports and the benchmark harnesses.
* :mod:`repro.util.rng` -- a thin wrapper around :class:`numpy.random.Generator`
  providing deterministic seeding conventions.
* :mod:`repro.util.setops` -- the sort-based dedup, pair dedup and
  distinct count every production-layer engine uses instead of a bare
  ``np.unique``.
"""

from repro.util.intmath import (
    ceil_div,
    ceil_log2,
    floor_log2,
    is_power_of_two,
    next_power_of_two,
)
from repro.util.sentinels import infinity_for
from repro.util.validation import (
    check_index,
    check_positive,
    check_square,
    check_symmetric_binary,
)

__all__ = [
    "ceil_div",
    "ceil_log2",
    "floor_log2",
    "is_power_of_two",
    "next_power_of_two",
    "infinity_for",
    "check_index",
    "check_positive",
    "check_square",
    "check_symmetric_binary",
]
