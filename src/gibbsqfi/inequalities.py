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
_BLOCK = 2048  # trials spawned together; a block holds 0.5 KB of generator per trial and one dim group, for any count

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

    ``name`` is one string, or a function of the matrix index when the
    statement's label carries a per-trial parameter; it is called only for
    the reports made.  The tolerance is 1e-12 relative unless given.
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
        name = self.name if isinstance(self.name, str) else self.name(i)
        lhs, rhs = float(self.lhs[i]), float(self.rhs[i])
        return InequalityReport(name, lhs, rhs, rhs - lhs, bool(self.passed[i]), float(self.tolerance[i]))


def _at(family, i):
    """The family of matrix i: ``family`` itself, or entry i of a _Stacked family."""
    return family[i] if isinstance(family, fam._Stacked) else family


def _filters(frame: _Frame):
    """log g_f at the frame's pairs (which the frames of _frame_pair share), once per family or _Stacked family."""
    return functools.cache(lambda family: fam._log_g(family, frame.g_columns))


def _checked(frame: _Frame, family, log_g: np.ndarray) -> np.ndarray:
    """Spectral values from the filter g = e^{log_g}, cross-validated value by value against the oracle."""
    fast = _spectral_value(frame, log_g)
    slow = _oracle_value(frame, family)
    with np.errstate(invalid="ignore"):  # equal values agree; inf against another value has |diff| / scale = nan
        bad = (fast != slow) & ~(np.abs(fast - slow) / np.maximum(np.maximum(np.abs(fast), np.abs(slow)), 1e-30) <= 1e-10)
    if np.any(bad):
        i = int(np.flatnonzero(bad)[0])
        raise ArithmeticError(
            f"metric routes disagree for {_at(family, i).label}: {float(np.ravel(fast)[i])!r} vs {float(np.ravel(slow)[i])!r}"
        )
    return fast


def _values(frame: _Frame, filters, *families) -> dict:
    """Checked value of each family on the frame, keyed by family."""
    return {family: _checked(frame, family, filters(family)) for family in families}


def _chain_checks(v: dict) -> list[_Check]:
    named = fam.named_families()
    return [_Check(f"chain:{a}<={b}", v[named[a]], v[named[b]]) for a, b in zip(_CHAIN, _CHAIN[1:])]


def chain_check(state: GibbsState, S) -> list[InequalityReport]:
    """The ordering d2_B <= d2_WY <= d2_BKM <= d2_G <= d2_MC <= d2_Har.

    All links except geometric <= MC hold for every state; that one is
    guaranteed only while the spectrum stays below the filter crossover
    (see GEOMETRIC_MC_CROSSOVER) and the report may honestly fail beyond
    it.  run_verification_suite accounts for the regime.
    """
    frame = _Frame(state, S)
    return [check.report() for check in _chain_checks(_values(frame, _filters(frame), *fam.named_families().values()))]


def _commutator_checks(v: dict, c) -> list[_Check]:
    gaps = [
        ("mc_minus_bkm", v[fam.MC] - v[fam.BKM], c / 48.0),
        ("bkm_minus_bures", v[fam.BKM] - v[fam.BURES], c / 48.0),
        ("mc_minus_bures", v[fam.MC] - v[fam.BURES], c / 24.0),
    ]
    pairs = [(_Check(f"{name}:nonneg", np.zeros_like(gap), gap), _Check(f"{name}:bound", gap, bound)) for name, gap, bound in gaps]
    return [check for pair in pairs for check in pair]


def commutator_bounds(state: GibbsState, S) -> list[InequalityReport]:
    """Double-sided commutator bounds on the metric gaps.

    0 <= d2_MC - d2_BKM <= C/48, 0 <= d2_BKM - d2_B <= C/48 and
    0 <= d2_MC - d2_B <= C/24 with C = <[[S, T], S]> = 2 M_1, the first
    moment of the commutator chain; each bound yields a nonnegativity and
    an upper-bound report.
    """
    frame = _Frame(state, S, chain_order=1)
    v = _values(frame, _filters(frame), fam.BURES, fam.BKM, fam.MC)
    return [check.report() for check in _commutator_checks(v, 2.0 * frame.moments[1])]


def _geometric_mean_checks(v: dict, pair) -> list[_Check]:
    """``pair`` is one half_pair family, or a _Stacked one with one per matrix."""
    lo, hi = pair.members
    return [
        _Check("bkm<=geomean(bures,mc)", v[fam.BKM], np.sqrt(v[fam.BURES] * v[fam.MC])),
        _Check("geo<=geomean(bures,har)", v[fam.GEOMETRIC], np.sqrt(v[fam.BURES] * v[fam.HAR])),
        _Check(lambda i: f"geo<=geomean({_at(pair, i).label})", v[fam.GEOMETRIC], np.sqrt(v[lo] * v[hi])),
    ]


def geometric_mean_checks(state: GibbsState, S, d: float) -> list[InequalityReport]:
    """Geometric-mean bounds, including the power-difference pair at offset d."""
    if not 0.0 <= d <= 1.5:
        raise ValueError("pair offset d must lie in [0, 3/2]")
    frame = _Frame(state, S)
    pair = fam.half_pair(d)
    v = _values(frame, _filters(frame), *fam.named_families().values(), *pair.members)
    return [check.report() for check in _geometric_mean_checks(v, pair)]


def _geometric_mean_family(f: fam.MonotoneFamily, f_bar: fam.MonotoneFamily):
    """The catalog family whose f equals sqrt(f * f_bar), if supported."""
    kinds = {f.kind, f_bar.kind}
    if kinds == {"bures", "mc"}:
        return fam.BKM
    if kinds == {"bures", "har"} or (kinds == {"pdiff"} and np.all(np.abs(f.param + f_bar.param - 1.0) < 1e-12)):
        return fam.GEOMETRIC
    raise ValueError(f"no catalog family represents sqrt(f * f_bar) for ({f}, {f_bar})")


def _cauchy_schwarz_checks(frame_a: _Frame, frame_b: _Frame, f, f_bar, filters) -> list[_Check]:
    """Cauchy-Schwarz checks on two frames of one state; frame_b is frame_a when A = B.

    f and f_bar are families, or _Stacked ones with one per matrix.
    """
    f_tilde = _geometric_mean_family(f, f_bar)
    lhs = np.abs(_cross_value(frame_a, frame_b, filters(f_tilde))) ** 2
    d2_f = _cross_value(frame_a, frame_a, filters(f)).real
    d2_f_bar = _cross_value(frame_b, frame_b, filters(f_bar)).real
    checks = [_Check(lambda i: f"cs:{_at(f, i).label},{_at(f_bar, i).label}->{f_tilde.label}", lhs, d2_f * d2_f_bar)]
    if frame_b is frame_a:
        # (1 + e^{-w}) times the line weight |dA_mn|^2 rho_m, on both sides of each pair
        log_pair_weights = np.logaddexp(*frame_a.pair_log_weights)
        diagonal = 2.0 * _dot(frame_a.state.weights, np.abs(frame_a.table.diagonal - frame_a.mean[..., None]) ** 2)
        for family, d2 in ((f, d2_f), (f_bar, d2_f_bar)):
            classical = 0.125 * (_dot_exp(filters(family) + log_pair_weights, frame_a.table.abs2) + diagonal)
            checks.append(_Check(lambda i, family=family: f"classical_bound:{_at(family, i).label}", d2, classical))
        bures, bkm = (_cross_value(frame_a, frame_a, filters(family)).real for family in (fam.BURES, fam.BKM))
        checks.append(_Check("cross_bures<=cross_bkm", bures, bkm))
    return checks


def cauchy_schwarz_cross(state: GibbsState, A, B, f: fam.MonotoneFamily, f_bar: fam.MonotoneFamily) -> list[InequalityReport]:
    """Cauchy-Schwarz bound |d2_ftilde(dA, dB)|^2 <= d2_f(dA) d2_fbar(dB).

    ftilde = sqrt(f * f_bar) must itself be in the catalog; supported
    pairs are (Bures, MC) -> BKM, (Bures, Har) -> geometric and
    power-difference pairs with p + p' = 1 -> geometric.  When A and B
    coincide, the classical-regime upper bound (dropping the (x coth x)^-1
    factor) and the Bures <= BKM cross bound are reported as well.
    """
    a_op, b_op = as_operator(A), as_operator(B)
    frame_a, frame_b = _frame_pair(state, a_op, a_op if np.array_equal(a_op.matrix, b_op.matrix) else b_op)
    return [check.report() for check in _cauchy_schwarz_checks(frame_a, frame_b, f, f_bar, _filters(frame_a))]


def random_instance(rng: np.random.Generator, dim: int, spread: float | None = None):
    """Seeded GUE-style Hermitian pair (T, S) with controlled T spread.

    The spectral range of T is rescaled to ``spread`` (drawn log-uniformly
    from [0.1, 10] when omitted), covering near-classical through deeply
    quantum regimes.
    """
    if dim < 1:
        raise ValueError(f"random_instance needs dim >= 1, got {dim}")
    if spread is None:
        spread = float(10.0 ** rng.uniform(-1.0, 1.0))
    normals = rng.normal(size=(4, dim, dim))
    t, s = _hermitized(normals[0::2] + 1j * normals[1::2])
    return HermitianOperator._trusted(_rescaled(t, spread)), HermitianOperator._trusted(s)


def _hermitized(g: np.ndarray) -> np.ndarray:
    """g overwritten by (g + g^dagger)/2, exactly Hermitian matrix by matrix."""
    return np.multiply(np.add(g, np.swapaxes(g.conj(), -1, -2), out=g), 0.5, out=g)


def _rescaled(t: np.ndarray, spread) -> np.ndarray:
    """t with each matrix's spectral range rescaled in place to its spread (kept at range 0); the Hermitian check rejects inf or nan."""
    eigs = np.linalg.eigvalsh(t)
    current = eigs[..., -1] - eigs[..., 0]
    with np.errstate(over="ignore", invalid="ignore"):
        factor = np.divide(spread, current, out=np.ones_like(current), where=current > 0.0)
        return np.multiply(t, factor[..., None, None], out=t)


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


class _Group(NamedTuple):
    """The trials of one dim in a block: their positions in it, their stacked matrices and parameters."""

    members: np.ndarray
    T: HermitianOperator
    S: HermitianOperator
    B: HermitianOperator
    d: np.ndarray  # pair offsets
    p: np.ndarray  # power-difference exponents


def _draw_groups(streams, dims):
    """One trial per seed stream, yielded one dim group at a time in dim order.

    A stream's generator draws the dim, the spread of T, the normals of T,
    S, a dropped matrix and B, the pair offset d and the exponent p.  The
    dims and spreads of all trials come first; then each group draws its
    members' T, S and B straight into one complex (3, k, n, n) stack,
    symmetrized and rescaled in place.
    """
    rngs = [np.random.default_rng(stream) for stream in streams]
    dim_of = np.array([dims[rng.integers(len(dims))] for rng in rngs])  # the index rng.choice(dims) draws
    spreads = np.array([10.0 ** (2.0 * rng.random() - 1.0) for rng in rngs])  # uniform(lo, hi) is lo + (hi - lo) * random()
    for dim in sorted(set(dim_of.tolist())):
        members = np.flatnonzero(dim_of == dim)
        stack, u = np.empty((3, len(members), dim, dim), complex), np.empty((len(members), 2))
        re, im = stack.real, stack.imag
        for j, rng in enumerate(rngs[i] for i in members):
            normals = rng.standard_normal((8, dim, dim))  # parts 4 and 5 are the dropped matrix's
            re[:2, j], im[:2, j], re[2, j], im[2, j] = normals[0:4:2], normals[1:4:2], normals[6], normals[7]
            u[j] = rng.random(2)  # d and p, uniform on [0, 1.5] and [0.5, 1.5]
        _rescaled(_hermitized(stack)[0], spreads[members])
        yield _Group(members, *(HermitianOperator._trusted(m) for m in stack), 1.5 * u[:, 0], 0.5 + u[:, 1])


def _group_checks(group: _Group) -> tuple[list[_Check], np.ndarray]:
    """Every check of the corpus for one dim group, in report order.

    One stacked Gibbs state, one stacked frame each for S and B, one
    commutator chain and one filter per family serve the whole group: the
    families whose parameter varies by trial are _Stacked.  Also returns,
    per trial, whether the geometric <= MC link is in its regime.
    """
    state = _scaled_state(eigendecompose(group.T), group.T, 1.0)
    # C = 2 M_1 and the sum rules p <= 6 read the chain of S to M_5
    frame, frame_b = _frame_pair(state, group.S, group.B, chain_order=5)
    filters = _filters(frame)
    pair = fam._Stacked("pair", group.d)
    values = _values(frame, filters, *fam.named_families().values(), *pair.members)
    checks = _chain_checks(values)
    checks += _commutator_checks(values, 2.0 * frame.moments[1])
    checks += _geometric_mean_checks(values, pair)
    power, co_power = fam._Stacked("pdiff", group.p), fam._Stacked("pdiff", 1.0 - group.p)
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
    seed.  A block of _BLOCK trials spawns its streams when it starts (the
    streams of one up-front spawn, which spawning continues), holds one
    generator per trial (about 0.5 KB), and draws and checks one dim group
    at a time.  ``dims`` is a non-empty sequence of integers >= 1.
    Failures are reported in trial order, then in report order.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not (np.ndim(dims) == 1 and len(dims) and all(np.issubdtype(type(n), np.integer) and n >= 1 for n in dims)):
        raise ValueError(f"dims must be a non-empty sequence of integers >= 1, got {dims!r}")
    checks = gm_out = gm_crossings = 0
    found = []  # (trial, position in the report order, report) of each failure
    root = np.random.SeedSequence(seed)
    for start in range(0, trials, _BLOCK):
        for group in _draw_groups(root.spawn(min(_BLOCK, trials - start)), dims):
            group_checks, in_regime = _group_checks(group)
            for position, check in enumerate(group_checks):
                checks += len(group.members)
                scored = check.passed
                if check.name == _GM_LINK:
                    gm_out += int(np.count_nonzero(~in_regime))
                    gm_crossings += int(np.count_nonzero(~in_regime & ~check.passed))
                    scored = check.passed | ~in_regime
                found += [(start + group.members[j], position, check.report(j)) for j in np.flatnonzero(~scored)]
            del group, group_checks  # released before the next group is drawn
    failures = [report for *_, report in sorted(found, key=lambda item: item[:2])]
    return VerificationSummary(seed, trials, checks, failures, not failures, gm_out, gm_crossings)
