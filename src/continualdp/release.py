"""Difference-sequence release of local graph statistics.

The release mechanism feeds the per-step differences
``df(t) = f(t) - f(t-1)`` (with ``f(0) := 0`` even when the initial
graph is non-empty) into a binary counting mechanism whose noise scale
is calibrated to the continuous global sensitivity Gamma of the
difference sequence.  Gamma comes from a closed-form registry keyed by
(function, adjacency, regime); cells without a finite bound are
rejected with :class:`UnboundedSensitivity`.  The whole difference
sequence goes to the mechanism as one block.

Histograms run one vector mechanism over the bins 0..D of the declared
degree bound D, so the output's shape never depends on the data; bin i
draws from the child source ``coord{i}`` at scale Gamma * x / epsilon,
because Gamma bounds the L1 distance of the whole vector difference
sequence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .counting import BinaryMechanism, num_levels, theoretical_count_error
from .errors import (
    DegreeViolation,
    OutOfRange,
    UnboundedSensitivity,
    UnknownCombination,
    WeightViolation,
)
from .functions import MONOTONE_FUNCTIONS, GraphFunction, evaluate
from .graphs import GraphSequence, SequenceKind, Update, reversed_sequence
from .noise import RandomSource

UNBOUNDED = math.inf

EDGE = "edge"
NODE = "node"
PARTIALLY_DYNAMIC = "partially-dynamic"
FULLY_DYNAMIC = "fully-dynamic"

_REGIME_ALIASES = {
    "incremental": PARTIALLY_DYNAMIC,
    "decremental": PARTIALLY_DYNAMIC,
    PARTIALLY_DYNAMIC: PARTIALLY_DYNAMIC,
    FULLY_DYNAMIC: FULLY_DYNAMIC,
}


def sensitivity_bound(
    f: GraphFunction,
    adjacency: str,
    regime: str,
    *,
    D: int | None = None,
    W: int | None = None,
) -> float:
    """Continuous global sensitivity Gamma, or UNBOUNDED (= inf).

    D is the promised maximum degree, W the maximum edge weight; each is
    required exactly when the closed form mentions it.
    """
    if adjacency not in (EDGE, NODE):
        raise UnknownCombination(f"unknown adjacency {adjacency!r}")
    try:
        regime = _REGIME_ALIASES[regime]
    except KeyError:
        raise UnknownCombination(f"unknown regime {regime!r}") from None

    name = f.name
    if name in MONOTONE_FUNCTIONS:
        return UNBOUNDED
    if regime == FULLY_DYNAMIC:
        return 2.0 if name == "edge_count" and adjacency == EDGE else UNBOUNDED

    def need_D() -> int:
        if D is None or D < 1:
            raise OutOfRange(f"{name} sensitivity requires a degree bound D >= 1")
        return D

    def need_W() -> int:
        if W is None or W < 1:
            raise OutOfRange(f"{name} sensitivity requires a weight bound W >= 1")
        return W

    if adjacency == EDGE:
        if name == "edge_count":
            return 1.0
        if name == "high_degree":
            return 4.0
        if name == "degree_histogram":
            return 8.0 * need_D()
        if name == "triangle_count":
            return float(need_D())
        if name == "kstar_count":
            d = need_D()
            return 2.0 * (math.comb(d, f.k) - math.comb(d - 1, f.k))
        if name == "mst_weight":
            return 2.0 * need_W()
    else:
        if name == "edge_count":
            return float(need_D())
        if name == "high_degree":
            return 2.0 * need_D() + 1.0
        if name == "degree_histogram":
            d = need_D()
            return 4.0 * d * d + 2.0 * d + 1.0
        if name == "triangle_count":
            return float(math.comb(need_D(), 2))
        if name == "kstar_count":
            d = need_D()
            return float(d * math.comb(d - 1, f.k - 1) + math.comb(d, f.k))
        if name == "mst_weight":
            return 2.0 * need_D() * need_W()
    raise UnknownCombination(f"no table entry for {name}")


def theoretical_release_error(gamma: float, epsilon: float, delta: float, T: int) -> float:
    """Explicit per-time error bound of the calibrated release."""
    return theoretical_count_error(gamma, epsilon, delta, T)


@dataclass
class ReleaseRecord:
    t: int
    true: float | tuple[int, ...]
    released: float | tuple[float, ...]
    abs_error: float
    bound: float


@dataclass(eq=False)
class ReleaseReport:
    """A release held as columns: ``exact`` and ``est`` have one row per
    step, ``(T,)`` for a scalar statistic and ``(T, D + 1)`` for a
    histogram.  Only ``est`` is private output; ``exact``, the errors and
    ``records`` are diagnostics.  ``abs_error`` (each step's largest
    error) and ``records`` (one ``ReleaseRecord`` per step) are built on
    first read."""

    function: str
    epsilon: float
    delta: float
    gamma: float
    adjacency: str
    bound: float
    exact: np.ndarray = field(repr=False)
    est: np.ndarray = field(repr=False)

    @cached_property
    def abs_error(self) -> np.ndarray:
        err = np.abs(self.est - self.exact)
        return err.max(axis=1) if err.ndim == 2 else err

    @property
    def max_abs_error(self) -> float:
        return float(self.abs_error.max())

    @cached_property
    def records(self) -> list[ReleaseRecord]:
        histogram = self.exact.ndim == 2
        exact = (self.exact.astype(int) if histogram else self.exact).tolist()
        rows = zip(exact, self.est.tolist(), self.abs_error.tolist())
        if histogram:
            rows = ((tuple(v), tuple(e), err) for v, e, err in rows)
        return [ReleaseRecord(t, v, e, err, self.bound)
                for t, (v, e, err) in enumerate(rows, start=1)]


def exact_values(seq: GraphSequence, f: GraphFunction, D: int | None = None) -> list:
    """Exact f(G_1), ..., f(G_T) in one pass, which validates the sequence.

    With D declared, a degree of G_0..G_T above D raises DegreeViolation
    after the pass, so an invalid update comes first.  A histogram has the
    counts per degree 0..max degree of its step.  A decremental sequence is
    validated by ``reversed_sequence`` and evaluated backward, as the
    incremental G_T, ..., G_1, so running values only see insertions.
    """
    top = max(seq.initial.degrees().values(), default=0)
    backward = seq.kind is SequenceKind.DECREMENTAL
    if backward:
        rev = reversed_sequence(seq)
        seq = GraphSequence(rev.initial, (Update(),) + rev.updates[:-1])
    values = []
    # zip applies each step before the body reads it; a degree only grows
    # on an edge insert, and never past G_0's in a decremental sequence
    for u, g in zip(seq.updates, seq.iter_graphs()):
        if D is not None:
            top = max([top, *(len(g.adj[v]) for k in u.e_ins for v in k)])
        values.append(evaluate(f, g))
    if D is not None and top > D:
        raise DegreeViolation(f"sequence max degree {top} exceeds declared D={D}")
    return values[::-1] if backward else values


def release(
    seq: GraphSequence,
    f: GraphFunction,
    epsilon: float,
    delta: float,
    rng: RandomSource,
    *,
    adjacency: str = EDGE,
    D: int | None = None,
    W: int | None = None,
) -> ReleaseReport:
    """Release f(t) privately at every step of an update sequence.

    The sequence may be partially or fully dynamic; the sensitivity table
    decides which statistics have a finite Gamma in its regime (fully
    dynamic: only edge_count under edge adjacency).

    ``D`` and ``W`` are caller-declared contract parameters and are
    validated against the sequence; Gamma always comes from the table.
    A degree histogram releases the D + 1 bins 0..D, and each record's
    ``true`` has the same D + 1 entries.
    """
    kind = seq.kind
    regime = FULLY_DYNAMIC if kind is SequenceKind.FULLY_DYNAMIC else PARTIALLY_DYNAMIC
    gamma = sensitivity_bound(f, adjacency, regime, D=D, W=W)
    if math.isinf(gamma):
        raise UnboundedSensitivity(
            f"{f.label()} has no finite sensitivity for {adjacency}/{regime} release"
        )
    if W is not None and (max_weight := seq.max_weight()) > W:
        raise WeightViolation(f"sequence max weight {max_weight} exceeds declared W={W}")

    T = seq.T
    histogram = f.name == "degree_histogram"
    coords = D + 1 if histogram else 1  # the histogram's table cell requires D
    rngs = [rng.child(f"coord{i}") for i in range(coords)]
    # the bound refuses a bad T, epsilon or delta before the mechanism draws noise
    bound = theoretical_release_error(gamma, epsilon, delta, T)
    mech = BinaryMechanism(T, epsilon, rngs if histogram else rngs[0], item_width=gamma)
    # every check that needs no replay is above; the one replay comes last
    values = exact_values(seq, f, D)
    if histogram:
        exact = np.zeros((T, coords))
        for row, value in zip(exact, values):
            row[:len(value)] = value
    else:
        exact = np.array(values, float)
    est = mech.feed(np.diff(exact, axis=0, prepend=0.0))[1]
    return ReleaseReport(
        function=f.label(),
        epsilon=epsilon,
        delta=delta,
        gamma=gamma,
        adjacency=adjacency,
        bound=bound,
        exact=exact,
        est=est,
    )


__all__ = [
    "EDGE",
    "NODE",
    "PARTIALLY_DYNAMIC",
    "FULLY_DYNAMIC",
    "UNBOUNDED",
    "ReleaseRecord",
    "ReleaseReport",
    "num_levels",
    "release",
    "sensitivity_bound",
    "theoretical_release_error",
]
