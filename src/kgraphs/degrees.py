"""Degree vectors in N^k / Z^k, represented as plain tuples of ints.

All comparisons are coordinatewise.  The distinguished constants are
``zero(k)`` and ``ones(k)`` (the vector e = (1, ..., 1)).
"""

from __future__ import annotations

import operator
from itertools import product
from typing import Iterable, Iterator

from .errors import DegreeMismatch

Degree = tuple[int, ...]


def zero(k: int) -> Degree:
    return (0,) * k


def ones(k: int) -> Degree:
    return (1,) * k


def scaled(j: int, k: int) -> Degree:
    """j * e."""
    return (j,) * k


def unit(i: int, k: int) -> Degree:
    """The standard generator e_i."""
    return tuple(1 if c == i else 0 for c in range(k))


def _rank_mismatch(a: Degree, b: Degree) -> ValueError:
    return ValueError(f"degree vectors {a!r} and {b!r} have different lengths")


def add(a: Degree, b: Degree) -> Degree:
    if len(a) != len(b):
        raise _rank_mismatch(a, b)
    return tuple(map(operator.add, a, b))


def sub(a: Degree, b: Degree) -> Degree:
    if len(a) != len(b):
        raise _rank_mismatch(a, b)
    return tuple(map(operator.sub, a, b))


def neg(a: Degree) -> Degree:
    return tuple(map(operator.neg, a))


def leq(a: Degree, b: Degree) -> bool:
    if len(a) != len(b):
        raise _rank_mismatch(a, b)
    return all(map(operator.le, a, b))


def meet(a: Degree, b: Degree) -> Degree:
    if len(a) != len(b):
        raise _rank_mismatch(a, b)
    return tuple(map(min, a, b))


def join(a: Degree, b: Degree) -> Degree:
    if len(a) != len(b):
        raise _rank_mismatch(a, b)
    return tuple(map(max, a, b))


def is_nonneg(a: Degree) -> bool:
    return all(x >= 0 for x in a)


def is_zero(a: Degree) -> bool:
    return all(x == 0 for x in a)


def norm_max(a: Degree) -> int:
    return max(abs(x) for x in a) if a else 0


def total(a: Degree) -> int:
    return sum(a)


def box(lo: Degree, hi: Degree) -> Iterator[Degree]:
    """All n with lo <= n <= hi, in lexicographic order."""
    if not leq(lo, hi):
        return iter(())
    return product(*(range(l, h + 1) for l, h in zip(lo, hi)))


def wrong_length(d: Degree, k: int) -> ValueError:
    """The error for a degree vector ``d`` whose length is not the rank k."""
    return ValueError(f"expected a length-{k} degree vector, got {d!r}")


def as_integer(value: int, what: str) -> int:
    """``value`` as an int: ints and integer types such as numpy's pass,
    anything else (a float, a numeric string) raises DegreeMismatch."""
    try:
        return operator.index(value)
    except TypeError:
        raise DegreeMismatch(f"{what} must be an integer, got {value!r}") from None


def as_degree(value: Iterable[int], k: int) -> Degree:
    """``value`` as a length-k degree vector of ints; entries coerce as in
    ``as_integer``, so a float or a numeric string raises DegreeMismatch."""
    try:
        d = tuple(map(operator.index, value))
    except TypeError:
        raise DegreeMismatch(f"expected a degree vector of integers, got {value!r}") from None
    if len(d) != k:
        raise wrong_length(d, k)
    return d


def as_nonneg_degree(value: Iterable[int], k: int) -> Degree:
    """as_degree for degrees that must lie in N^k."""
    d = as_degree(value, k)
    if not is_nonneg(d):
        raise DegreeMismatch(f"degree {d} is not in N^k")
    return d
