"""Machine-readable verifiers for the metric inequality suite.

Every verifier returns InequalityReport rows with explicit slack values.
Before any comparison the two sides are computed by both metric routes
(filter-function and Morozova-Cencov oracle) and must agree to 1e-10, so
no inequality is ever verified against itself.  Each statement is
evaluated on arrays over a frame's stack (``dsf._Frame``): the public
verifiers use the unstacked frame of one (state, S); the random corpus
groups its trials by dim and builds one stacked frame each for S and B
per group, on which every fixed family's filter is evaluated once.
"""

from __future__ import annotations

import functools
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from . import families as fam
from .dsf import _dot, _dot_exp, _Frame, _frame_pair, _sum_rule_values
from .hilbert import GibbsState, HermitianOperator, _scaled_state, as_operator, eigendecompose
from .metrics import _cross_value, _oracle_value, _spectral_value

__all__ = [
    "InequalityReport",
    "GEOMETRIC_MC_CROSSOVER",
    "chain_check",
    "commutator_bounds",
    "geometric_mean_checks",
    "cauchy_schwarz_cross",
    "random_instance",
    "VerificationSummary",
    "run_verification_suite",
]

_CHAIN = ("bures", "wy", "bkm", "geometric", "mc", "har")
_GM_LINK = "chain:geometric<=mc"  # scored only inside GEOMETRIC_MC_CROSSOVER
_BLOCK = 512  # trials drawn and checked together: memory stays bounded for any count

# Positive root of sinh^2 x = x^2 cosh x.  The filters obey
# g_G(x) <= g_MC(x) only for |x| <= this value, so the geometric <= MC
# link of the ordering chain is a theorem only when every Bohr frequency
# satisfies |omega|/2 <= GEOMETRIC_MC_CROSSOVER; beyond it the two
# metrics genuinely cross (e.g. a two-level system with splitting 10 has
# d2_G ~ 0.742 > d2_MC = 0.25).
GEOMETRIC_MC_CROSSOVER = 2.676073964919652


@dataclass
class InequalityReport:
    """One verified statement lhs <= rhs with slack = rhs - lhs."""

    name: str
    lhs: float
    rhs: float
    slack: float
    passed: bool
    tolerance: float

    def to_dict(self):
        return asdict(self)


class _Check:
    """One statement lhs <= rhs, evaluated for every matrix of a frame's stack.

    ``name`` is one string, or a tuple with one name per matrix when the
    statement's label carries a per-trial parameter.  The tolerance is
    1e-12 relative unless given.
    """

    def __init__(self, name, lhs, rhs, tolerance=None):
        self.name = name
        self.lhs = np.asarray(lhs, dtype=float)
        self.rhs = np.broadcast_to(np.asarray(rhs, dtype=float), self.lhs.shape)
        if tolerance is None:
            tolerance = 1e-12 * np.maximum(np.maximum(np.abs(self.lhs), np.abs(self.rhs)), 1e-30)
        self.tolerance = np.broadcast_to(np.asarray(tolerance, dtype=float), self.lhs.shape)
        self.passed = self.rhs - self.lhs >= -self.tolerance

    def report(self, i=()) -> InequalityReport:
        """The report of matrix i; () for an unstacked frame."""
        name = self.name[i] if isinstance(self.name, tuple) else self.name
        lhs, rhs = float(self.lhs[i]), float(self.rhs[i])
        return InequalityReport(name, lhs, rhs, rhs - lhs, bool(self.passed[i]), float(self.tolerance[i]))


def _reports(checks: list[_Check]) -> list[InequalityReport]:
    return [check.report() for check in checks]


def _per_matrix(fn, *args):
    """fn(*args), matrix by matrix over the arguments that are tuples.

    A tuple holds one entry per matrix of a frame's stack (a family whose
    parameter varies by trial, say).  Equal results collapse to one, so a
    family shared by all matrices is evaluated once.
    """
    size = next((len(a) for a in args if isinstance(a, tuple)), None)
    if size is None:
        return fn(*args)
    out = tuple(fn(*(a[i] if isinstance(a, tuple) else a for a in args)) for i in range(size))
    return out[0] if len(set(out)) == 1 else out


def _filters(frame: _Frame):
    """log g_f at the frame's pairs, evaluated once per family.

    The argument is one family, or a tuple with one family per matrix of
    the frame's stack.  The frames of _frame_pair share the pairs.
    """
    return functools.cache(lambda family: fam._log_g(family, frame.x))


def _checked(frame: _Frame, family, log_g: np.ndarray) -> np.ndarray:
    """Spectral values from the filter g = e^{log_g}, cross-validated value by value against the oracle."""
    fast = _spectral_value(frame, log_g)
    slow = _oracle_value(frame, family)
    bad = np.abs(fast - slow) > 1e-10 * np.maximum(np.maximum(np.abs(fast), np.abs(slow)), 1e-30)
    if np.any(bad):
        i = int(np.flatnonzero(bad)[0])
        label = (family[i] if isinstance(family, tuple) else family).label
        raise ArithmeticError(
            f"metric routes disagree for {label}: {float(np.ravel(fast)[i])!r} vs {float(np.ravel(slow)[i])!r}"
        )
    return fast


def _values(frame: _Frame, filters, *families) -> dict:
    """Checked value of each family on the frame, keyed by family."""
    return {family: _checked(frame, family, filters(family)) for family in families}


def _chain_checks(v: dict) -> list[_Check]:
    named = fam.named_families()
    return [
        _Check(f"chain:{a}<={b}", v[named[a]], v[named[b]])
        for a, b in zip(_CHAIN, _CHAIN[1:])
    ]


def chain_check(state: GibbsState, S) -> list[InequalityReport]:
    """The ordering d2_B <= d2_WY <= d2_BKM <= d2_G <= d2_MC <= d2_Har.

    All links except geometric <= MC hold for every state; that one is
    guaranteed only while the spectrum stays below the filter crossover
    (see GEOMETRIC_MC_CROSSOVER) and the report may honestly fail beyond
    it.  run_verification_suite accounts for the regime.
    """
    frame = _Frame(state, S)
    return _reports(_chain_checks(_values(frame, _filters(frame), *fam.named_families().values())))


def _commutator_checks(v: dict, c) -> list[_Check]:
    gaps = [
        ("mc_minus_bkm", v[fam.MC] - v[fam.BKM], c / 48.0),
        ("bkm_minus_bures", v[fam.BKM] - v[fam.BURES], c / 48.0),
        ("mc_minus_bures", v[fam.MC] - v[fam.BURES], c / 24.0),
    ]
    checks = []
    for name, gap, bound in gaps:
        checks.append(_Check(f"{name}:nonneg", np.zeros_like(gap), gap))
        checks.append(_Check(f"{name}:bound", gap, bound))
    return checks


def commutator_bounds(state: GibbsState, S) -> list[InequalityReport]:
    """Double-sided commutator bounds on the metric gaps.

    0 <= d2_MC - d2_BKM <= C/48, 0 <= d2_BKM - d2_B <= C/48 and
    0 <= d2_MC - d2_B <= C/24 with C = <[[S, T], S]> = 2 M_1, the first
    moment of the commutator chain; each bound yields a nonnegativity and
    an upper-bound report.
    """
    frame = _Frame(state, S, chain_order=1)
    v = _values(frame, _filters(frame), fam.BURES, fam.BKM, fam.MC)
    return _reports(_commutator_checks(v, 2.0 * frame.moments[1]))


def _geometric_mean_checks(v: dict, pair) -> list[_Check]:
    """``pair`` is one half_pair family, or a tuple of one per matrix."""
    lo = _per_matrix(lambda q: q.members[0], pair)
    hi = _per_matrix(lambda q: q.members[1], pair)
    return [
        _Check("bkm<=geomean(bures,mc)", v[fam.BKM], np.sqrt(v[fam.BURES] * v[fam.MC])),
        _Check("geo<=geomean(bures,har)", v[fam.GEOMETRIC], np.sqrt(v[fam.BURES] * v[fam.HAR])),
        _Check(_per_matrix(lambda q: f"geo<=geomean({q.label})", pair), v[fam.GEOMETRIC], np.sqrt(v[lo] * v[hi])),
    ]


def geometric_mean_checks(state: GibbsState, S, d: float) -> list[InequalityReport]:
    """Geometric-mean bounds, including the power-difference pair at offset d."""
    if not 0.0 <= d <= 1.5:
        raise ValueError("pair offset d must lie in [0, 3/2]")
    frame = _Frame(state, S)
    pair = fam.half_pair(d)
    v = _values(frame, _filters(frame), *fam.named_families().values(), *pair.members)
    return _reports(_geometric_mean_checks(v, pair))


def _geometric_mean_family(f: fam.MonotoneFamily, f_bar: fam.MonotoneFamily):
    """The catalog family whose f equals sqrt(f * f_bar), if supported."""
    kinds = {f.kind, f_bar.kind}
    if kinds == {"bures", "mc"}:
        return fam.BKM
    if kinds == {"bures", "har"}:
        return fam.GEOMETRIC
    if kinds == {"pdiff"} and abs(f.param + f_bar.param - 1.0) < 1e-12:
        return fam.GEOMETRIC
    raise ValueError(
        f"no catalog family represents sqrt(f * f_bar) for "
        f"({f.label}, {f_bar.label})"
    )


def _cauchy_schwarz_checks(frame_a: _Frame, frame_b: _Frame, f, f_bar, filters) -> list[_Check]:
    """Cauchy-Schwarz checks on two frames of one state; frame_b is frame_a when A = B.

    f and f_bar are families, or tuples of one per matrix.
    """
    f_tilde = _per_matrix(_geometric_mean_family, f, f_bar)
    lhs = np.abs(_cross_value(frame_a, frame_b, filters(f_tilde))) ** 2
    d2_f = _cross_value(frame_a, frame_a, filters(f)).real
    d2_f_bar = _cross_value(frame_b, frame_b, filters(f_bar)).real
    name = _per_matrix(lambda a, b, t: f"cs:{a.label},{b.label}->{t.label}", f, f_bar, f_tilde)
    checks = [_Check(name, lhs, d2_f * d2_f_bar)]
    if frame_b is frame_a:
        # (1 + e^{-w}) times the line weight |dA_mn|^2 rho_m, on both sides of each pair
        log_pair_weights = np.logaddexp(*frame_a.pair_log_weights)
        diagonal = 2.0 * _dot(frame_a.state.weights, np.abs(frame_a.table.diagonal - frame_a.mean[..., None]) ** 2)
        for family, d2 in ((f, d2_f), (f_bar, d2_f_bar)):
            classical = 0.125 * (_dot_exp(filters(family) + log_pair_weights, frame_a.table.abs2) + diagonal)
            label = _per_matrix(lambda one: f"classical_bound:{one.label}", family)
            checks.append(_Check(label, d2, classical))
        checks.append(
            _Check(
                "cross_bures<=cross_bkm",
                _cross_value(frame_a, frame_a, filters(fam.BURES)).real,
                _cross_value(frame_a, frame_a, filters(fam.BKM)).real,
            )
        )
    return checks


def cauchy_schwarz_cross(
    state: GibbsState, A, B, f: fam.MonotoneFamily, f_bar: fam.MonotoneFamily
) -> list[InequalityReport]:
    """Cauchy-Schwarz bound |d2_ftilde(dA, dB)|^2 <= d2_f(dA) d2_fbar(dB).

    ftilde = sqrt(f * f_bar) must itself be in the catalog; supported
    pairs are (Bures, MC) -> BKM, (Bures, Har) -> geometric and
    power-difference pairs with p + p' = 1 -> geometric.  When A and B
    coincide, the classical-regime upper bound (dropping the (x coth x)^-1
    factor) and the Bures <= BKM cross bound are reported as well.
    """
    a_op, b_op = as_operator(A), as_operator(B)
    frame_a, frame_b = _frame_pair(state, a_op, a_op if np.array_equal(a_op.matrix, b_op.matrix) else b_op)
    return _reports(_cauchy_schwarz_checks(frame_a, frame_b, f, f_bar, _filters(frame_a)))


def random_instance(rng: np.random.Generator, dim: int, spread: float | None = None):
    """Seeded GUE-style Hermitian pair (T, S) with controlled T spread.

    The spectral range of T is rescaled to ``spread`` (drawn log-uniformly
    from [0.1, 10] when omitted), covering near-classical through deeply
    quantum regimes.
    """
    t, s = _random_pair(rng, dim, spread)
    return HermitianOperator(t), HermitianOperator(s)


def _gue(rng: np.random.Generator, dim: int) -> np.ndarray:
    """A GUE-style matrix, Hermitian by construction."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return 0.5 * (g + g.conj().T)


def _random_pair(rng: np.random.Generator, dim: int, spread: float | None = None):
    """The arrays behind random_instance, drawn in the same order."""
    if spread is None:
        spread = float(10.0 ** rng.uniform(-1.0, 1.0))
    t = _gue(rng, dim)
    eigs = np.linalg.eigvalsh(t)
    current = float(eigs[-1] - eigs[0])
    if current > 0.0:
        t = t * (spread / current)
    return t, _gue(rng, dim)


@dataclass
class VerificationSummary:
    """Aggregated outcome of the randomized verification corpus.

    ``failures`` holds violations of statements that are theorems for the
    instance at hand; a geometric <= MC report evaluated beyond its
    validity regime is excluded from failures and tallied instead (with
    crossings counted), since the two metrics genuinely cross there.
    """

    seed: int
    trials: int
    checks: int
    failures: list[InequalityReport]
    passed: bool
    gm_link_out_of_regime: int = 0
    gm_link_crossings: int = 0

    def to_dict(self):
        return asdict(self)


class _Trial(NamedTuple):
    """The random instance of one corpus trial, as arrays that are Hermitian by construction."""

    T: np.ndarray
    S: np.ndarray
    B: np.ndarray
    d: float  # pair offset
    p: float  # power-difference exponent


def _draw(entropy, dims) -> _Trial:
    """Draw one trial; the order is dim, (T, S), B, pair offset d, exponent p.

    B is the observable of random_instance(rng, dim, spread=1.0): its
    generator is drawn, to keep the stream's order, and dropped.
    """
    rng = np.random.default_rng(entropy)
    dim = int(rng.choice(dims))
    T, S = _random_pair(rng, dim)
    _gue(rng, dim)
    B = _gue(rng, dim)
    d = float(rng.uniform(0.0, 1.5))
    p = float(rng.uniform(0.5, 1.5))
    return _Trial(T, S, B, d, p)


def _stack(matrices) -> HermitianOperator:
    """One checked operator for the stacked matrices of a group."""
    return HermitianOperator(np.stack(list(matrices)))


def _group_checks(trials: list[_Trial]) -> tuple[list[_Check], np.ndarray]:
    """Every check of the corpus for trials of one dim, in report order.

    One stacked Gibbs state, one stacked frame each for S and B, one
    commutator chain and one filter per fixed family serve the whole
    group.  Also returns, per trial, whether the geometric <= MC link is
    in its regime.
    """
    T = _stack(t.T for t in trials)
    state = _scaled_state(eigendecompose(T), T.matrix, 1.0)
    # C = 2 M_1 and the sum rules p <= 6 read the chain of S to M_5
    frame, frame_b = _frame_pair(state, _stack(t.S for t in trials), _stack(t.B for t in trials), chain_order=5)
    filters = _filters(frame)
    pair = _per_matrix(fam.half_pair, tuple(t.d for t in trials))
    members = [_per_matrix(lambda q: q.members[i], pair) for i in (0, 1)]
    values = _values(frame, filters, *fam.named_families().values(), *members)
    checks = _chain_checks(values)
    checks += _commutator_checks(values, 2.0 * frame.moments[1])
    checks += _geometric_mean_checks(values, pair)
    power = _per_matrix(fam.power_difference, tuple(t.p for t in trials))
    co_power = _per_matrix(lambda p: fam.power_difference(1.0 - p), tuple(t.p for t in trials))
    for f, f_bar in ((fam.BURES, fam.MC), (fam.BURES, fam.HAR), (power, co_power)):
        checks += _cauchy_schwarz_checks(frame, frame_b, f, f_bar, filters)
    for p, (_, _, rel_error) in enumerate(_sum_rule_values(frame, 6)):
        checks.append(_Check(f"sum_rule:p{p}", rel_error, 1e-9, tolerance=0.0))
    return checks, 0.5 * frame.max_omega <= GEOMETRIC_MC_CROSSOVER


def run_verification_suite(seed: int, trials: int, dims=(2, 3, 4, 5, 6, 7, 8)) -> VerificationSummary:
    """Run every verifier over a seeded random corpus.

    Each trial draws a (T, S) instance, checks the ordering chain, the
    commutator bounds, the geometric-mean bounds at a random pair offset,
    the Cauchy-Schwarz cross bounds against an independent observable, and
    the moment sum rules (p = 0..6, relative error <= 1e-9).  Trials use
    independently spawned seed streams, so the report is deterministic by
    seed.  Trials are drawn in blocks of _BLOCK and checked in groups of
    one dim; failures are reported in trial order, then in report order.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    failures: list[InequalityReport] = []
    checks = 0
    gm_out = 0
    gm_crossings = 0
    streams = np.random.SeedSequence(seed).spawn(trials)
    for start in range(0, trials, _BLOCK):
        block = [_draw(stream, dims) for stream in streams[start:start + _BLOCK]]
        found = []  # (trial, position in the report order, report)
        for dim in sorted({len(trial.T) for trial in block}):
            members = [i for i, trial in enumerate(block) if len(trial.T) == dim]
            group, in_regime = _group_checks([block[i] for i in members])
            for position, check in enumerate(group):
                checks += len(members)
                scored = check.passed
                if check.name == _GM_LINK:
                    gm_out += int(np.count_nonzero(~in_regime))
                    gm_crossings += int(np.count_nonzero(~in_regime & ~check.passed))
                    scored = check.passed | ~in_regime
                found += [(start + members[j], position, check.report(j)) for j in np.flatnonzero(~scored)]
        failures += [report for *_, report in sorted(found, key=lambda item: item[:2])]
    return VerificationSummary(
        seed, trials, checks, failures, not failures, gm_out, gm_crossings
    )
