"""Machine-readable verifiers for the metric inequality suite.

Every verifier returns InequalityReport rows with explicit slack values.
Before any comparison the two sides are computed by both metric routes
(filter-function and Morozova-Cencov oracle) and must agree to 1e-10, so
no inequality is ever verified against itself.  A corpus trial builds one
frame (``dsf._Frame``) each for S and B, which every verifier and the sum
rules read.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import families as fam
from .dsf import _Frame, _sum_rule_rows
from .hilbert import GibbsState, HermitianOperator, as_operator, gibbs_state
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


def _report(name: str, lhs: float, rhs: float) -> InequalityReport:
    tolerance = 1e-12 * max(abs(lhs), abs(rhs), 1e-30)
    slack = rhs - lhs
    return InequalityReport(name, lhs, rhs, slack, slack >= -tolerance, tolerance)


def _checked(frame, family) -> float:
    """Spectral value cross-validated against the oracle route."""
    fast = _spectral_value(frame, family)
    slow = _oracle_value(frame, family)
    if abs(fast - slow) > 1e-10 * max(abs(fast), abs(slow), 1e-30):
        raise ArithmeticError(
            f"metric routes disagree for {family.label}: {fast!r} vs {slow!r}"
        )
    return fast


def _values(frame: _Frame, *families: fam.MonotoneFamily) -> dict:
    """Checked value of each family on the frame, keyed by family."""
    return {family: _checked(frame, family) for family in families}


def _chain_reports(v: dict) -> list[InequalityReport]:
    named = fam.named_families()
    return [
        _report(f"chain:{a}<={b}", v[named[a]], v[named[b]])
        for a, b in zip(_CHAIN, _CHAIN[1:])
    ]


def chain_check(state: GibbsState, S) -> list[InequalityReport]:
    """The ordering d2_B <= d2_WY <= d2_BKM <= d2_G <= d2_MC <= d2_Har.

    All links except geometric <= MC hold for every state; that one is
    guaranteed only while the spectrum stays below the filter crossover
    (see GEOMETRIC_MC_CROSSOVER) and the report may honestly fail beyond
    it.  run_verification_suite accounts for the regime.
    """
    return _chain_reports(_values(_Frame(state, S), *fam.named_families().values()))


def _commutator_reports(v: dict, c: float) -> list[InequalityReport]:
    gaps = [
        ("mc_minus_bkm", v[fam.MC] - v[fam.BKM], c / 48.0),
        ("bkm_minus_bures", v[fam.BKM] - v[fam.BURES], c / 48.0),
        ("mc_minus_bures", v[fam.MC] - v[fam.BURES], c / 24.0),
    ]
    reports = []
    for name, gap, bound in gaps:
        reports.append(_report(f"{name}:nonneg", 0.0, gap))
        reports.append(_report(f"{name}:bound", gap, bound))
    return reports


def commutator_bounds(state: GibbsState, S) -> list[InequalityReport]:
    """Double-sided commutator bounds on the metric gaps.

    0 <= d2_MC - d2_BKM <= C/48, 0 <= d2_BKM - d2_B <= C/48 and
    0 <= d2_MC - d2_B <= C/24 with C = <[[S, T], S]> = 2 M_1, the first
    moment of the commutator chain; each bound yields a nonnegativity and
    an upper-bound report.
    """
    frame = _Frame(state, S, chain_order=1)
    return _commutator_reports(_values(frame, fam.BURES, fam.BKM, fam.MC), 2.0 * frame.moments[1])


def _geometric_mean_reports(v: dict, d: float) -> list[InequalityReport]:
    lo, hi = fam.half_pair(d).members
    return [
        _report("bkm<=geomean(bures,mc)", v[fam.BKM], np.sqrt(v[fam.BURES] * v[fam.MC])),
        _report("geo<=geomean(bures,har)", v[fam.GEOMETRIC], np.sqrt(v[fam.BURES] * v[fam.HAR])),
        _report(f"geo<=geomean(pair:{d:g})", v[fam.GEOMETRIC], np.sqrt(v[lo] * v[hi])),
    ]


def geometric_mean_checks(state: GibbsState, S, d: float) -> list[InequalityReport]:
    """Geometric-mean bounds, including the power-difference pair at offset d."""
    if not 0.0 <= d <= 1.5:
        raise ValueError("pair offset d must lie in [0, 3/2]")
    families = (*fam.named_families().values(), *fam.half_pair(d).members)
    return _geometric_mean_reports(_values(_Frame(state, S), *families), d)


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


def _cauchy_schwarz_reports(
    frame_a: _Frame, frame_b: _Frame, f: fam.MonotoneFamily, f_bar: fam.MonotoneFamily
) -> list[InequalityReport]:
    """Cauchy-Schwarz reports on two frames; frame_b is frame_a when A = B."""
    f_tilde = _geometric_mean_family(f, f_bar)
    lhs = abs(_cross_value(frame_a, frame_b, f_tilde)) ** 2
    d2_f = _cross_value(frame_a, frame_a, f).real
    d2_f_bar = _cross_value(frame_b, frame_b, f_bar).real
    reports = [_report(f"cs:{f.label},{f_bar.label}->{f_tilde.label}", lhs, d2_f * d2_f_bar)]
    if frame_b is frame_a:
        w = frame_a.state.weights
        # (1 + e^{-w}) times the line weight |dA_mn|^2 rho_m
        pair_weights = (w[:, None] + w[None, :]) * np.abs(frame_a.centered) ** 2
        for family, d2 in ((f, d2_f), (f_bar, d2_f_bar)):
            classical = 0.125 * float(np.sum(fam.eval_g(family, frame_a.x) * pair_weights))
            reports.append(_report(f"classical_bound:{family.label}", d2, classical))
        reports.append(
            _report(
                "cross_bures<=cross_bkm",
                _cross_value(frame_a, frame_a, fam.BURES).real,
                _cross_value(frame_a, frame_a, fam.BKM).real,
            )
        )
    return reports


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
    frame_a = _Frame(state, a_op)
    frame_b = frame_a if np.array_equal(a_op.matrix, b_op.matrix) else _Frame(state, b_op)
    return _cauchy_schwarz_reports(frame_a, frame_b, f, f_bar)


def random_instance(rng: np.random.Generator, dim: int, spread: float | None = None):
    """Seeded GUE-style Hermitian pair (T, S) with controlled T spread.

    The spectral range of T is rescaled to ``spread`` (drawn log-uniformly
    from [0.1, 10] when omitted), covering near-classical through deeply
    quantum regimes.
    """
    if spread is None:
        spread = float(10.0 ** rng.uniform(-1.0, 1.0))
    def gue():
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        return 0.5 * (g + g.conj().T)
    t = gue()
    eigs = np.linalg.eigvalsh(t)
    current = float(eigs[-1] - eigs[0])
    if current > 0.0:
        t = t * (spread / current)
    return HermitianOperator(t), HermitianOperator(gue())


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


def _run_trial(entropy, dims):
    """One corpus trial; returns (scored reports, gm_out, gm_crossings).

    Draw order: dim, (T, S), B, pair offset d, power-difference p.
    """
    rng = np.random.default_rng(entropy)
    dim = int(rng.choice(dims))
    T, S = random_instance(rng, dim)
    _, B = random_instance(rng, dim, spread=1.0)
    d = float(rng.uniform(0.0, 1.5))
    p = float(rng.uniform(0.5, 1.5))
    state = gibbs_state(T)
    frame = _Frame(state, S, chain_order=5)  # C = 2 M_1 and the sum rules p <= 6
    frame_b = _Frame(state, B)
    values = _values(frame, *fam.named_families().values(), *fam.half_pair(d).members)
    reports = []
    gm_out = 0
    gm_crossings = 0
    in_regime = 0.5 * frame.max_omega <= GEOMETRIC_MC_CROSSOVER
    for report in _chain_reports(values):
        if report.name == "chain:geometric<=mc" and not in_regime:
            gm_out += 1
            if not report.passed:
                gm_crossings += 1
            continue
        reports.append(report)
    reports += _commutator_reports(values, 2.0 * frame.moments[1])
    reports += _geometric_mean_reports(values, d)
    for f, f_bar in (
        (fam.BURES, fam.MC),
        (fam.BURES, fam.HAR),
        (fam.power_difference(p), fam.power_difference(1.0 - p)),
    ):
        reports += _cauchy_schwarz_reports(frame, frame_b, f, f_bar)
    for row in _sum_rule_rows(frame, 6):
        slack = 1e-9 - row.rel_error
        name = f"sum_rule:p{row.p}"
        reports.append(InequalityReport(name, row.rel_error, 1e-9, slack, slack >= 0.0, 0.0))
    return reports, gm_out, gm_crossings


def run_verification_suite(seed: int, trials: int, dims=(2, 3, 4, 5, 6, 7, 8)) -> VerificationSummary:
    """Run every verifier over a seeded random corpus.

    Each trial draws a (T, S) instance, checks the ordering chain, the
    commutator bounds, the geometric-mean bounds at a random pair offset,
    the Cauchy-Schwarz cross bounds against an independent observable, and
    the moment sum rules (p = 0..6, relative error <= 1e-9).  Trials use
    independently spawned seed streams, so the report is deterministic by
    seed.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    failures: list[InequalityReport] = []
    checks = 0
    gm_out = 0
    gm_crossings = 0
    for stream in np.random.SeedSequence(seed).spawn(trials):
        reports, out, crossings = _run_trial(stream, dims)
        checks += len(reports) + out
        gm_out += out
        gm_crossings += crossings
        failures += [r for r in reports if not r.passed]
    return VerificationSummary(
        seed, trials, checks, failures, not failures, gm_out, gm_crossings
    )
