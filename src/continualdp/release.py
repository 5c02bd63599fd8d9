"""Difference-sequence release of local graph statistics.

The release mechanism feeds the per-step differences
``df(t) = f(t) - f(t-1)`` (with ``f(0) := 0`` even when the initial
graph is non-empty) into a binary counting mechanism whose noise scale
is calibrated to the continuous global sensitivity Gamma of the
difference sequence.  Gamma comes from a closed-form registry keyed by
(function, adjacency, regime), where the regime is the log's
``SequenceKind`` value: incremental, decremental (whose cells are derived
in ``sensitivity_bound``) or fully dynamic.  Cells without a finite bound
are rejected with :class:`UnboundedSensitivity`.  The whole difference
sequence goes to the mechanism as one block.  A scalar statistic's columns
are lists of floats, so its release runs without numpy.

Histograms run one vector mechanism over the bins 0..D of the declared
degree bound D, so the output's shape never depends on the data; bin i
draws from the child source ``coord{i}`` at scale Gamma * x / epsilon,
because Gamma bounds the L1 distance of the whole vector difference
sequence.  Their columns are (T, D + 1) arrays.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import TYPE_CHECKING, NamedTuple

from .counting import BinaryMechanism, num_levels, theoretical_count_error
from .errors import (
    DegreeViolation,
    OutOfRange,
    ParameterOutOfRange,
    UnboundedSensitivity,
    UnknownCombination,
    WeightViolation,
)
from .functions import MONOTONE_FUNCTIONS, GraphFunction, evaluate
from .graphs import EDGE_INS, GraphSequence, SequenceKind, reversed_sequence
from .noise import RandomSource

if TYPE_CHECKING:
    import numpy as np

UNBOUNDED = math.inf

EDGE = "edge"
NODE = "node"
FULLY_DYNAMIC = SequenceKind.FULLY_DYNAMIC.value


def sensitivity_bound(
    f: GraphFunction,
    adjacency: str,
    regime: str,
    *,
    D: int | None = None,
    W: int | None = None,
) -> float:
    """Continuous global sensitivity Gamma, or UNBOUNDED (= inf).

    ``regime`` is a ``SequenceKind`` value.  D is the promised maximum
    degree, W the maximum edge weight; each is required exactly when the
    closed form mentions it.  A D or W whose cell is too large for a float
    raises ParameterOutOfRange.

    Gamma bounds sum_t |g(t) - g(t-1)|, the L1 distance of two adjacent
    difference sequences, where g(t) = f(B_t) - f(A_t) and g(0) = 0.  On a
    decremental pair A deletes the differing element x (edge e* or node v*)
    at t* and B never does, and the two agree on every other element:

    - Triangle and k-star counts (either adjacency) and node-level
      edge_count: f(G) = f(G - x) + s_x(G), where s_x counts the structures
      through x, so g = s_x(B_t) - s_x(A_t).  Each term only falls as
      elements go, from the same value at t = 0 to at least 0, so the total
      variation of g is at most 2 * max s_x: twice the incremental cell,
      whose value bounds s_x.  Edge-level edge_count keeps 1, because
      s_x(B_t) = 1 and s_x(A_t) = 1 before t* and 0 after.
    - Edge-level high_degree (4) and histogram (8D): after t*, an endpoint
      u of e* has degree d + 1 in B against d in A.  Its high_degree term
      [d = tau - 1] rises at most once and falls at most once, and its
      histogram term e_{d+1} - e_d moves by 2 at t* and by at most 4 at each
      of at most D - 1 falls of d: 4D - 2 per endpoint.
    - Node-level high_degree (2D + 2) and histogram (4D^2 + 6D + 1): only
      v* and its at most D neighbours in G_0 differ.  Each of their 0/1
      threshold terms in A and in B changes at most once (2D + 2), and each
      unit vector e_deg moves at most D times by 2, and by 1 when its node
      goes (2D + 1 per node and sequence, 2D for v* in B).
    - Edge-level MST (2W): let beta_t be the least heaviest weight on a path
      between e*'s endpoints in A_t (inf if none).  g(t) is 0 while
      beta_t <= w(e*), w(e*) - beta_t while beta_t is finite and larger, and
      w(e*) once they are disconnected.  beta_t only grows, so g falls to no
      less than w(e*) - W and then rises once to at most w(e*): at most
      2W - w(e*).
    - Node-level MST (2(2W - 1)(2D - 1)): let k_j be the number of
      components of (X_t - v*) cut to edges of weight <= j that v* reaches by
      such an edge (0 once v* is gone).  Then MST(X_t) - MST(X_t - v*) =
      W k_W - (k_1 + ... + k_{W-1}).  k_j never exceeds v*'s at most D
      neighbours, rises only as deletions split components and falls only
      as v* loses neighbours, so it varies by at most 2D - 1 in each
      sequence, and g by at most 2(2W - 1)(2D - 1).
    """
    if adjacency not in (EDGE, NODE):
        raise UnknownCombination(f"unknown adjacency {adjacency!r}")
    try:
        kind = SequenceKind(regime)
    except ValueError:
        raise UnknownCombination(f"unknown regime {regime!r}") from None

    name = f.name
    if name in MONOTONE_FUNCTIONS:
        return UNBOUNDED
    if kind is SequenceKind.FULLY_DYNAMIC:
        return 2.0 if name == "edge_count" and adjacency == EDGE else UNBOUNDED
    try:
        gamma = _cell(f, adjacency, kind is SequenceKind.DECREMENTAL, D, W)
    except OverflowError:  # an int cell too large to convert
        gamma = math.inf
    if gamma == math.inf:
        raise ParameterOutOfRange(
            f"{f.label()} sensitivity is too large for a float; declare a smaller D or W")
    return gamma


def _cell(f: GraphFunction, adjacency: str, dec: bool, D: int | None, W: int | None) -> float:
    """The table's cell for an incremental or decremental (``dec``) log."""
    name = f.name
    twice = 2.0 if dec else 1.0  # a structure count, see sensitivity_bound

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
            return twice * need_D()
        if name == "kstar_count":
            d = need_D()
            return twice * 2.0 * (math.comb(d, f.k) - math.comb(d - 1, f.k))
        if name == "mst_weight":
            return 2.0 * need_W()
    else:
        if name == "edge_count":
            return twice * need_D()
        if name == "high_degree":
            return 2.0 * need_D() + (2.0 if dec else 1.0)
        if name == "degree_histogram":
            d = need_D()
            return 4.0 * d * d + (6.0 if dec else 2.0) * d + 1.0
        if name == "triangle_count":
            return twice * math.comb(need_D(), 2)
        if name == "kstar_count":
            d = need_D()
            return twice * (d * math.comb(d - 1, f.k - 1) + math.comb(d, f.k))
        if name == "mst_weight":
            if dec:
                return 2.0 * (2 * need_W() - 1) * (2 * need_D() - 1)
            return 2.0 * need_D() * need_W()
    raise UnknownCombination(f"no table entry for {name}")


def theoretical_release_error(gamma: float, epsilon: float, delta: float, T: int) -> float:
    """Explicit per-time error bound of the calibrated release."""
    return theoretical_count_error(gamma, epsilon, delta, T)


class ReleaseRecord(NamedTuple):
    t: int
    true: float | tuple[int, ...]
    released: float | tuple[float, ...]
    abs_error: float
    bound: float


class ReleaseReport:
    """A release held as columns: ``exact`` and ``est`` have one row per
    step, lists of T floats for a scalar statistic and ``(T, D + 1)``
    arrays for a histogram.  Only ``est`` is private output; ``exact``, the
    errors and ``records`` are diagnostics.  ``abs_error`` (each step's
    largest error, a list or an array as the columns) and ``records`` (one
    ``ReleaseRecord`` per step) are built on first read."""

    def __init__(self, function: str, epsilon: float, delta: float, gamma: float,
                 adjacency: str, bound: float, exact: list[float] | np.ndarray,
                 est: list[float] | np.ndarray) -> None:
        self.function, self.epsilon, self.delta, self.gamma = function, epsilon, delta, gamma
        self.adjacency, self.bound, self.exact, self.est = adjacency, bound, exact, est

    @cached_property
    def abs_error(self) -> list[float] | np.ndarray:
        if isinstance(self.est, list):
            return [abs(e - v) for e, v in zip(self.est, self.exact)]
        return abs(self.est - self.exact).max(axis=1)  # abs is np.abs on an array

    @property
    def max_abs_error(self) -> float:
        return float(max(self.abs_error))

    @cached_property
    def records(self) -> list[ReleaseRecord]:
        if isinstance(self.est, list):
            rows = zip(self.exact, self.est, self.abs_error)
        else:
            rows = ((tuple(v), tuple(e), err) for v, e, err in zip(
                self.exact.astype(int).tolist(), self.est.tolist(), self.abs_error.tolist()))
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
        # G_T, ..., G_1: an empty first step, then every step of rev but its last
        n = rev.starts[-2]
        seq = GraphSequence._of(rev.initial, rev.op[:n], rev.x[:n], rev.y[:n], rev.w[:n],
                                [0, *rev.starts[:-1]])
    op, x, y, starts = seq.op, seq.x, seq.y, seq.starts
    values = []
    # enumerate applies each step before the body reads it; a degree only
    # grows on an edge insert, and never past G_0's in a decremental sequence
    for t, g in enumerate(seq.iter_graphs(), start=1):
        if D is not None:
            for i in range(starts[t - 1], starts[t]):
                if op[i] == EDGE_INS:
                    top = max(top, len(g.adj[x[i]]), len(g.adj[y[i]]))
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
    exact: list[float] | np.ndarray | None = None,
) -> ReleaseReport:
    """Release f(t) privately at every step of an update sequence.

    The sequence may be incremental, decremental or fully dynamic, and Gamma
    is the table's cell for its kind; the table decides which statistics
    have a finite Gamma in that regime (fully dynamic: only edge_count under
    edge adjacency).

    ``D`` and ``W`` are caller-declared contract parameters and are
    validated against the sequence; Gamma always comes from the table.
    A degree histogram releases the D + 1 bins 0..D, and each record's
    ``true`` has the same D + 1 entries.

    ``exact``, the ``exact`` column of an earlier report on the same sequence,
    function and D, skips the replay and its checks; it must be such a
    column: a list of T floats, or for a histogram a (T, D + 1) array.
    """
    regime = seq.kind.value
    gamma = sensitivity_bound(f, adjacency, regime, D=D, W=W)
    if math.isinf(gamma):
        raise UnboundedSensitivity(
            f"{f.label()} has no finite sensitivity for {adjacency}/{regime} release"
        )
    if gamma == 0:  # e.g. 3-stars at D = 2: the statistic is 0 on every log D allows
        raise ParameterOutOfRange(f"{f.label()} is 0 on every graph of max degree D={D}")
    if W is not None and (max_weight := seq.max_weight()) > W:
        raise WeightViolation(f"sequence max weight {max_weight} exceeds declared W={W}")

    T = seq.T
    histogram = f.name == "degree_histogram"
    coords = D + 1 if histogram else 1  # the histogram's table cell requires D
    rngs = [rng.child(f"coord{i}") for i in range(coords)]
    # the bound refuses a bad T, epsilon or delta before the mechanism draws noise
    bound = theoretical_release_error(gamma, epsilon, delta, T)
    if exact is not None and not (
            getattr(exact, "shape", None) == (T, coords) if histogram
            else type(exact) is list and len(exact) == T and {*map(type, exact)} <= {float}):
        want = f"an array of shape {(T, coords)}" if histogram else f"a list of {T} floats"
        raise OutOfRange(f"exact must be {want}")
    mech = BinaryMechanism(T, epsilon, rngs if histogram else rngs[0], item_width=gamma)
    # every check that needs no replay is above; the one replay comes last
    if histogram:
        import numpy as np

        if exact is None:
            exact = np.zeros((T, coords))
            for row, value in zip(exact, exact_values(seq, f, D)):
                row[:len(value)] = value
        diffs = np.diff(exact, axis=0, prepend=0.0)
    else:
        if exact is None:
            exact = list(map(float, exact_values(seq, f, D)))
        # b - a against a leading 0.0: the IEEE result of np.diff(prepend=0.0)
        diffs = [b - a for a, b in zip([0.0, *exact], exact)]
    est = mech.feed(diffs)[1]
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
    "FULLY_DYNAMIC",
    "UNBOUNDED",
    "ReleaseRecord",
    "ReleaseReport",
    "num_levels",
    "release",
    "sensitivity_bound",
    "theoretical_release_error",
]
