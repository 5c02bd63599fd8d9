"""Sparse vector technique and the multiplicative-error release of
monotone graph statistics.

The SVT instance draws its threshold perturbation zeta exactly once
and never resamples it; each query draws a fresh nu.  A query answers
Top when value + nu >= threshold + zeta (inclusive), Bottom otherwise,
and Abort once c Tops have been spent.

The monotone mechanism walks a geometric threshold ladder (1+beta)^k:
for each incoming value it keeps raising k while the SVT answers Top,
then releases (1+beta)^k.  With budget c = ceil(log_{1+beta}(r)) the
ladder spans the declared value range [1, r].  With probability at
least 1 - delta every output satisfies

    f(t) - alpha <= o_t <= (1+beta) f(t) + alpha,
    alpha = 16 log_{1+beta}(r) rho ln(2T/delta) / epsilon.

Decreasing statistics on decremental sequences are handled by running
the mechanism over the time-reversed sequence and mapping the outputs
back.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

from .errors import (
    BadDelta,
    NonMonotoneInput,
    OutOfRange,
    UnboundedSensitivity,
    UnknownRange,
    WeightViolation,
)
from .functions import MONOTONE_FUNCTIONS, STATISTICS, GraphFunction, static_sensitivity
from .graphs import GraphSequence, SequenceKind
from .noise import RandomSource, sample_laplace
from .release import EDGE, exact_values


class SvtAnswer(enum.Enum):
    TOP = "top"
    BOTTOM = "bottom"
    ABORT = "abort"


class SparseVector:
    """Above-threshold queries with a budget of c positive answers."""

    def __init__(
        self,
        epsilon: float,
        rho: float,
        c: int,
        rng: RandomSource,
    ) -> None:
        if not 0 < epsilon < math.inf:
            raise OutOfRange(f"epsilon must be positive and finite, got {epsilon}")
        if rho <= 0:
            raise OutOfRange(f"rho must be positive, got {rho}")
        if c < 1:
            raise OutOfRange(f"budget c must be >= 1, got {c}")
        self.epsilon = epsilon
        self.rho = rho
        self.c = c
        self.epsilon1 = epsilon / 2.0
        self.epsilon2 = epsilon - self.epsilon1
        self._rng = rng
        # zeta is drawn once at initialization and never resampled
        self.zeta = sample_laplace(rng, rho / self.epsilon1)
        self.count = 0

    @property
    def nu_scale(self) -> float:
        return 2.0 * self.c * self.rho / self.epsilon2

    def query(self, value: float, threshold: float) -> SvtAnswer:
        if self.count >= self.c:
            return SvtAnswer.ABORT
        nu = sample_laplace(self._rng, self.nu_scale)
        if value + nu >= threshold + self.zeta:
            self.count += 1
            return SvtAnswer.TOP
        return SvtAnswer.BOTTOM


@dataclass
class MonotoneRecord:
    t: int
    true: float
    output: float
    lower_ok: bool
    upper_ok: bool
    alpha: float


@dataclass
class MonotoneReport:
    """Only each record's ``output`` is private; ``true``, ``lower_ok`` and
    ``upper_ok`` are diagnostics."""

    function: str
    epsilon: float
    beta: float
    delta: float
    r: float
    rho: float
    c: int
    alpha: float
    budget_exhausted: bool = False
    top_count: int = 0
    records: list[MonotoneRecord] = field(default_factory=list)

    @property
    def all_bounds_hold(self) -> bool:
        return all(rec.lower_ok and rec.upper_ok for rec in self.records)


def threshold_budget(beta: float, r: float) -> int:
    """c = ceil(log_{1+beta}(r)); the ladder reaches the range top r."""
    if not 0 < beta <= 1:
        raise OutOfRange(f"beta must be in (0, 1], got {beta}")
    if not 1 <= r < math.inf:
        raise OutOfRange(f"range r must be in [1, inf), got {r}")
    val = math.log(r) / math.log(1.0 + beta)
    return max(1, math.ceil(val - 1e-9))


def _check_parameters(epsilon: float, beta: float, delta: float, r: float) -> None:
    """Refuse a bad beta, r, epsilon or delta, in that order."""
    threshold_budget(beta, r)
    if not 0 < epsilon < math.inf:
        raise OutOfRange(f"epsilon must be positive and finite, got {epsilon}")
    if not 0 < delta < 1:
        raise BadDelta(f"delta must be in (0, 1), got {delta}")


def additive_error(epsilon: float, beta: float, delta: float, r: float, rho: float, T: int) -> float:
    """alpha = 16 log_{1+beta}(r) rho ln(2T/delta) / epsilon."""
    if T < 1:
        raise OutOfRange(f"T must be >= 1, got {T}")
    _check_parameters(epsilon, beta, delta, r)
    log_r = math.log(r) / math.log(1.0 + beta)
    return 16.0 * log_r * rho * math.log(2.0 * T / delta) / epsilon


class MonotoneMechanism:
    """Geometric-threshold release for a non-decreasing value stream."""

    def __init__(
        self,
        epsilon: float,
        beta: float,
        r: float,
        rho: float,
        rng: RandomSource,
    ) -> None:
        self.beta = beta
        self.r = r
        self.c = threshold_budget(beta, r)
        self.svt = SparseVector(epsilon, rho, self.c, rng)
        self.k = 0
        self.budget_exhausted = False

    def process(self, value: float) -> float:
        """Feed the next value; returns the released (1+beta)^k."""
        while True:
            answer = self.svt.query(value, (1.0 + self.beta) ** self.k)
            if answer is SvtAnswer.TOP:
                self.k += 1
                continue
            if answer is SvtAnswer.ABORT:
                self.budget_exhausted = True
            return (1.0 + self.beta) ** self.k


def monotone_run(
    values,
    epsilon: float,
    beta: float,
    delta: float,
    r: float,
    rho: float,
    rng: RandomSource,
    *,
    function: str = "custom",
) -> MonotoneReport:
    """Run the monotone mechanism over an explicit non-decreasing list."""
    values = [float(v) for v in values]
    for a, b in zip(values, values[1:]):
        if b < a:
            raise NonMonotoneInput(f"values decrease: {a} -> {b}")
    # alpha checks every parameter before the mechanism draws noise
    alpha = additive_error(epsilon, beta, delta, r, rho, max(len(values), 1))
    mech = MonotoneMechanism(epsilon, beta, r, rho, rng)
    report = MonotoneReport(
        function=function,
        epsilon=epsilon,
        beta=beta,
        delta=delta,
        r=r,
        rho=rho,
        c=mech.c,
        alpha=alpha,
    )
    for t, v in enumerate(values, start=1):
        out = mech.process(v)
        # values below the ladder base 1 carry no sandwich guarantee
        if v < 1.0:
            lower_ok = upper_ok = True
        else:
            lower_ok = v - alpha <= out
            upper_ok = out <= (1.0 + beta) * v + alpha
        report.records.append(MonotoneRecord(t, v, out, lower_ok, upper_ok, alpha))
    report.budget_exhausted = mech.budget_exhausted
    report.top_count = mech.svt.count
    return report


def monotone_release(
    seq: GraphSequence,
    f: GraphFunction,
    epsilon: float,
    beta: float,
    delta: float,
    rng: RandomSource,
    *,
    r: float,
    W: int | None = None,
    adjacency: str = EDGE,
    true_values=None,
) -> MonotoneReport:
    """Release a monotone statistic along a partially dynamic sequence.

    No node-level rho is derived, so only ``adjacency="edge"`` is accepted.
    Min cut and s-t min cut take only logs without node insertions or
    deletions, on which they are monotone; the update types decide this
    before any value is computed.

    ``r`` is the declared top of the value range [1, r] and is required.
    ``W`` is the declared maximum edge weight, validated against the
    sequence; it is required for the weighted statistics (the cuts and
    weighted matching), whose rho is W.  rho always comes from
    ``static_sensitivity``.
    ``true_values`` may carry ``exact_values(seq, f)`` of this same
    sequence, to avoid re-evaluating it across repeated trials; they skip
    the replay, which is what validates the log.
    Decremental sequences are processed in reverse and the outputs are
    timestamped back.
    """
    if f.name not in MONOTONE_FUNCTIONS:
        raise UnknownRange(f"{f.name} is not released via the monotone mechanism")
    if adjacency != EDGE:
        raise UnboundedSensitivity(f"no {adjacency}-level rho is derived for monotone {f.label()}")
    kind = seq.kind
    if kind is SequenceKind.FULLY_DYNAMIC:
        raise NonMonotoneInput("monotone release requires a partially dynamic sequence")
    if W is not None and (max_weight := seq.max_weight()) > W:
        raise WeightViolation(f"sequence max weight {max_weight} exceeds declared W={W}")
    rho = static_sensitivity(f, W)
    if STATISTICS[f.name].edge_logs_only and any(u.v_ins or u.v_del for u in seq.updates):
        # a new node can lower a cut: its domain is edge-only logs
        raise NonMonotoneInput(f"{f.label()} release requires a log without node updates")
    _check_parameters(epsilon, beta, delta, r)

    if true_values is None:
        true_values = exact_values(seq, f)
    true_values = [float(v) for v in true_values]
    if len(true_values) != seq.T:
        raise OutOfRange("true_values length must equal T")

    reverse = kind is SequenceKind.DECREMENTAL
    feed = list(reversed(true_values)) if reverse else true_values
    report = monotone_run(feed, epsilon, beta, delta, r, rho, rng, function=f.label())
    if reverse:
        recs = report.records
        report.records = [
            MonotoneRecord(len(recs) - rec.t + 1, rec.true, rec.output,
                           rec.lower_ok, rec.upper_ok, rec.alpha)
            for rec in reversed(recs)
        ]
    return report
