"""Machine-readable verifiers for the metric inequality suite.

Every verifier returns InequalityReport rows with explicit slack values.
Before any comparison the two sides are computed by both metric routes
(filter-function and Morozova-Cencov oracle) and must agree to 1e-10, so
no inequality is ever verified against itself.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import families as fam
from .dsf import build_cross_dsf, sum_rule_report
from .hilbert import GibbsState, HermitianOperator, as_operator, gibbs_state, to_eigenbasis
from .metrics import (
    _Frame,
    _max_coupled_omega,
    _oracle_value,
    _spectral_value,
    cross_metric,
)

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
        return {
            "name": self.name,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "slack": self.slack,
            "passed": self.passed,
            "tolerance": self.tolerance,
        }


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


def chain_check(state: GibbsState, S) -> list[InequalityReport]:
    """The ordering d2_B <= d2_WY <= d2_BKM <= d2_G <= d2_MC <= d2_Har.

    All links except geometric <= MC hold for every state; that one is
    guaranteed only while the spectrum stays below the filter crossover
    (see GEOMETRIC_MC_CROSSOVER) and the report may honestly fail beyond
    it.  run_verification_suite accounts for the regime.
    """
    frame = _Frame(state, S)
    values = {name: _checked(frame, f) for name, f in fam.named_families().items()}
    return [
        _report(f"chain:{a}<={b}", values[a], values[b])
        for a, b in zip(_CHAIN, _CHAIN[1:])
    ]


def commutator_bounds(state: GibbsState, S) -> list[InequalityReport]:
    """Double-sided commutator bounds on the metric gaps.

    0 <= d2_MC - d2_BKM <= C/48, 0 <= d2_BKM - d2_B <= C/48 and
    0 <= d2_MC - d2_B <= C/24 with C = <[[S, T], S]> = 2 M_1, the first
    moment of the commutator chain; each bound yields a nonnegativity and
    an upper-bound report.
    """
    frame = _Frame(state, S, chain_order=1)
    d2 = {name: _checked(frame, fam.named_families()[name]) for name in ("bures", "bkm", "mc")}
    c = 2.0 * frame.moments[1]
    gaps = [
        ("mc_minus_bkm", d2["mc"] - d2["bkm"], c / 48.0),
        ("bkm_minus_bures", d2["bkm"] - d2["bures"], c / 48.0),
        ("mc_minus_bures", d2["mc"] - d2["bures"], c / 24.0),
    ]
    reports = []
    for name, gap, bound in gaps:
        reports.append(_report(f"{name}:nonneg", 0.0, gap))
        reports.append(_report(f"{name}:bound", gap, bound))
    return reports


def geometric_mean_checks(state: GibbsState, S, d: float) -> list[InequalityReport]:
    """Geometric-mean bounds, including the power-difference pair at offset d."""
    if not 0.0 <= d <= 1.5:
        raise ValueError("pair offset d must lie in [0, 3/2]")
    frame = _Frame(state, S)
    named = fam.named_families()
    v = {name: _checked(frame, f) for name, f in named.items()}
    lo, hi = fam.half_pair(d).members
    v_lo = _checked(frame, lo)
    v_hi = _checked(frame, hi)
    return [
        _report("bkm<=geomean(bures,mc)", v["bkm"], np.sqrt(v["bures"] * v["mc"])),
        _report("geo<=geomean(bures,har)", v["geometric"], np.sqrt(v["bures"] * v["har"])),
        _report(
            f"geo<=geomean(pair:{d:g})", v["geometric"], np.sqrt(v_lo * v_hi)
        ),
    ]


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
    f_tilde = _geometric_mean_family(f, f_bar)
    lhs = abs(cross_metric(state, A, B, f_tilde)) ** 2
    rhs = cross_metric(state, A, A, f).real * cross_metric(state, B, B, f_bar).real
    reports = [_report(f"cs:{f.label},{f_bar.label}->{f_tilde.label}", lhs, rhs)]
    a_matrix = as_operator(A).matrix
    b_matrix = as_operator(B).matrix
    if a_matrix.shape == b_matrix.shape and np.array_equal(a_matrix, b_matrix):
        Q = build_cross_dsf(state, A, A)
        p_weights = (1.0 + np.exp(-Q.omegas)) * Q.weights.real
        for family in (f, f_bar):
            g = fam.eval_g(family, 0.5 * Q.omegas)
            classical = 0.125 * float(np.sum(g * p_weights))
            reports.append(
                _report(
                    f"classical_bound:{family.label}",
                    cross_metric(state, A, A, family).real,
                    classical,
                )
            )
        reports.append(
            _report(
                "cross_bures<=cross_bkm",
                cross_metric(state, A, A, fam.BURES).real,
                cross_metric(state, A, A, fam.BKM).real,
            )
        )
    return reports


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
        return {
            "seed": self.seed,
            "trials": self.trials,
            "checks": self.checks,
            "failures": [r.to_dict() for r in self.failures],
            "passed": self.passed,
            "gm_link_out_of_regime": self.gm_link_out_of_regime,
            "gm_link_crossings": self.gm_link_crossings,
        }


def _worker_count() -> int:
    """Worker threads from QFI_NUM_THREADS (default 1; unparsable means 1)."""
    raw = os.environ.get("QFI_NUM_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def _run_trial(entropy, dims):
    """One corpus trial; returns (scored reports, gm_out, gm_crossings)."""
    rng = np.random.default_rng(entropy)
    dim = int(rng.choice(dims))
    T, S = random_instance(rng, dim)
    _, B = random_instance(rng, dim, spread=1.0)
    state = gibbs_state(T)
    reports = []
    gm_out = 0
    gm_crossings = 0
    in_regime = 0.5 * _max_coupled_omega(to_eigenbasis(state, S)) <= GEOMETRIC_MC_CROSSOVER
    for report in chain_check(state, S):
        if report.name == "chain:geometric<=mc" and not in_regime:
            gm_out += 1
            if not report.passed:
                gm_crossings += 1
            continue
        reports.append(report)
    reports += commutator_bounds(state, S)
    reports += geometric_mean_checks(state, S, float(rng.uniform(0.0, 1.5)))
    reports += cauchy_schwarz_cross(state, S, B, fam.BURES, fam.MC)
    reports += cauchy_schwarz_cross(state, S, B, fam.BURES, fam.HAR)
    p = float(rng.uniform(0.5, 1.5))
    reports += cauchy_schwarz_cross(
        state, S, B, fam.power_difference(p), fam.power_difference(1.0 - p)
    )
    for row in sum_rule_report(state, S):
        reports.append(
            InequalityReport(
                name=f"sum_rule:p{row.p}",
                lhs=row.rel_error,
                rhs=1e-9,
                slack=1e-9 - row.rel_error,
                passed=row.rel_error <= 1e-9,
                tolerance=0.0,
            )
        )
    return reports, gm_out, gm_crossings


def run_verification_suite(seed: int, trials: int, dims=(2, 3, 4, 5, 6, 7, 8)) -> VerificationSummary:
    """Run every verifier over a seeded random corpus.

    Each trial draws a (T, S) instance, checks the ordering chain, the
    commutator bounds, the geometric-mean bounds at a random pair offset,
    the Cauchy-Schwarz cross bounds against an independent observable, and
    the moment sum rules (p = 0..6, relative error <= 1e-9).  Trials use
    independently spawned seed streams, so they may run on worker threads
    (QFI_NUM_THREADS) while the report stays deterministic by seed.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    streams = np.random.SeedSequence(seed).spawn(trials)
    workers = _worker_count()
    if workers > 1 and trials > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(lambda sq: _run_trial(sq, dims), streams))
    else:
        outcomes = [_run_trial(sq, dims) for sq in streams]
    failures: list[InequalityReport] = []
    checks = 0
    gm_out = 0
    gm_crossings = 0
    for reports, out, crossings in outcomes:
        checks += len(reports) + out
        gm_out += out
        gm_crossings += crossings
        failures += [r for r in reports if not r.passed]
    return VerificationSummary(
        seed, trials, checks, failures, not failures, gm_out, gm_crossings
    )
