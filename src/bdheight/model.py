"""Finite birth-and-death chain with linear attach/detach rates.

The chain lives on the states {0, 1, ..., N}.  In state i each of the
N - i idle nodes becomes busy at rate nu and each of the i busy nodes
frees up at rate mu, so the total birth rate is (N - i) * nu and the
total death rate is i * mu.  Everything this package computes depends on
the rates only through rho = nu / mu, so rho is the one rate parameter it
takes: time is measured in units of the mean service time 1/mu.  The
embedded jump chain moves from state i (0 < i < N) up with probability

    p_i = (N - i) * rho / (i + (N - i) * rho)

and down with the complementary probability q_i; state 0 always jumps to
1 and state N always jumps to N - 1.

Everything downstream (the exact height law, the first-passage oracle,
the samplers) consumes only ``ModelParams`` and the jump probabilities
defined here.  ``jump_up_probs`` yields the p_i one state at a time in
plain Python, so this module, which every subcommand loads, imports no
numpy.  All types are immutable after construction and all operations
are pure functions, so values can be shared freely across threads.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterator
from typing import NamedTuple

from .errors import ParameterError

__all__ = [
    "ModelParams",
    "make_params",
    "jump_up_probs",
]

# The sampler modes of bdheight.simulate, which re-exports them.  They live
# here so that the command line can offer them without importing the sampler.
LADDER = "ladder"
JUMP_CHAIN = "jump-chain"
FULL_CTMC = "full-ctmc"
SAMPLER_MODES = (LADDER, JUMP_CHAIN, FULL_CTMC)


class _Params(NamedTuple):
    N: int
    rho: float


class ModelParams(_Params):
    """Validated chain parameters, read-only: the size N, a plain int >= 1,
    and the rate ratio rho = nu / mu, a positive finite float.  Every way of
    making one checks them as ``make_params`` does, ``_replace`` too."""

    __slots__ = ()

    def __new__(cls, N: int, rho: float):
        return super().__new__(cls, _integer("N", N, 1), _positive_rate("rho", rho))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class ReadOnly:
    """Base of a class whose ``__init__`` sets its attributes through
    ``vars(self)``: assigning or deleting one later raises ``AttributeError``."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign {name!r}: {type(self).__name__} is read-only")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: {type(self).__name__} is read-only")


def _positive_rate(name: str, value) -> float:
    """``value`` as a float: a ``numbers.Real`` (numpy's too) but bool, positive and finite.

    A value of type exactly ``int`` or ``float``, which is all argparse
    hands over, needs no type check; only another type imports
    ``numbers``, so no command loads it."""
    if type(value) not in (int, float):
        import numbers

        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ParameterError(f"{name} must be a positive real, got {value!r}")
    try:
        x = float(value)
    except OverflowError:  # an int or a Fraction beyond the largest double
        x = math.inf
    if not math.isfinite(x) or x <= 0.0:
        raise ParameterError(f"{name} must be a positive finite real, got {value!r}")
    return x


def _integer(name: str, value, minimum: int) -> int:
    """``value`` as a plain int: any integer type, numpy's included, but not
    bool, at least ``minimum``."""
    if isinstance(value, bool) or not hasattr(value, "__index__"):
        raise ParameterError(f"{name} must be an integer >= {minimum}, got {value!r}")
    if (value := operator.index(value)) < minimum:
        raise ParameterError(f"{name} must be >= {minimum}, got {value}")
    return value


def _grid(name: str, values, check, *args) -> list:
    """The values of a nonempty grid, in the order given, each as
    ``check(name, value, *args)`` gives it, no two equal."""
    grid = [check(name, value, *args) for value in values]
    if not grid:
        raise ParameterError(f"the {name} grid must be nonempty")
    if len(set(grid)) < len(grid):
        raise ParameterError(f"the {name} grid must not repeat a value, got {grid}")
    return grid


def make_params(N: int, rho: float) -> ModelParams:
    """Validate and freeze chain parameters.

    Raises ``ParameterError`` for N < 1, non-integer N, or a ``rho`` that
    is not a positive finite real.
    """
    return ModelParams(N, rho)


def jump_up_probs(p: ModelParams) -> Iterator[float]:
    """Up-move probabilities p_i for the states i = 0..N in turn (1 at 0, 0 at N)."""
    N, rho = p.N, p.rho
    yield 1.0
    for i in range(1, N):
        w = (N - i) * rho
        # Where (N - i) rho overflows, p_i is 1 to within 1e-290, and
        # w / (i + w) would be inf / inf = nan.
        yield w / (i + w) if w < math.inf else 1.0
    yield 0.0
