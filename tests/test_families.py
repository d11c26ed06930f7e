"""Catalog tests: the monotone functions, their filters and coefficients.

Oracles are the direct textbook formulas evaluated with math/mpmath,
independent of the package's stable evaluation paths.
"""

import math
import re
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gibbsqfi import families as fam

GRID = np.concatenate(
    [np.logspace(-3, 3, 41), [0.5, 0.9, 0.999, 1.0, 1.001, 2.0, math.e]]
)


def f_oracle(label, x):
    """Direct closed-form evaluation, valid away from x = 1."""
    if label == "har":
        return 2 * x / (1 + x)
    if label == "bures":
        return (1 + x) / 2
    if label == "bkm":
        return (x - 1) / math.log(x)
    if label == "mc":
        return ((x - 1) / math.log(x)) ** 2 * 2 / (1 + x)
    if label == "geometric":
        return math.sqrt(x)
    raise KeyError(label)


def verify_standard(family, grid) -> bool:
    """f(1) = 1, f(1/x) = f(x)/x, positivity and monotonicity of f on a grid.

    Each relative violation must stay below 1e-12.
    """
    pts = np.sort(np.asarray(grid, dtype=float))
    if pts.size == 0:
        raise ValueError("grid must be nonempty")
    f = fam.eval_f(family, pts)
    norm_err = abs(fam.eval_f(family, 1.0) - 1.0)
    sym_err = float(np.max(np.abs(fam.eval_f(family, 1.0 / pts) - f / pts) / np.maximum(f / pts, 1e-300)))
    diffs = np.diff(f)
    mono = float(max(0.0, np.max(-diffs / np.maximum(np.abs(f[:-1]), 1e-300)))) if diffs.size else 0.0
    return norm_err <= 1e-12 and sym_err <= 1e-12 and float(np.min(f)) > 0.0 and mono <= 1e-12


def wyd_oracle(alpha, x):
    return alpha * (1 - alpha) * (x - 1) ** 2 / ((x ** alpha - 1) * (x ** (1 - alpha) - 1))


def pdiff_oracle(p, x):
    return (p - 1) / p * (x ** p - 1) / (x ** (p - 1) - 1)


NAMED = [fam.HAR, fam.BURES, fam.BKM, fam.MC, fam.GEOMETRIC]
PARAMETRIC = [fam.wyd(0.3), fam.wyd(0.5), fam.power_difference(1.5), fam.power_difference(-0.4)]
ALL_SINGLE = NAMED + PARAMETRIC


class TestEvalF:
    def test_named_against_direct_formulas(self):
        for family in NAMED:
            for x in GRID:
                if abs(x - 1.0) < 1e-6:
                    continue
                assert fam.eval_f(family, x) == pytest.approx(
                    f_oracle(family.kind, x), rel=1e-13
                )

    def test_parametric_against_direct_formulas(self):
        for x in GRID:
            if abs(x - 1.0) < 1e-6:
                continue
            assert fam.eval_f(fam.wyd(0.3), x) == pytest.approx(wyd_oracle(0.3, x), rel=1e-12)
            assert fam.eval_f(fam.power_difference(1.5), x) == pytest.approx(
                pdiff_oracle(1.5, x), rel=1e-12
            )

    def test_normalization_exact(self):
        for family in ALL_SINGLE:
            assert fam.eval_f(family, 1.0) == 1.0

    def test_bures_at_three(self):
        assert fam.eval_f(fam.BURES, 3.0) == pytest.approx(2.0, rel=1e-15)

    def test_mc_at_e(self):
        # (e-1)^2 * 2 / (1+e), frozen from a 40-digit evaluation
        assert fam.eval_f(fam.MC, math.e) == pytest.approx(1.5880950278780514, rel=1e-13)

    def test_removable_singularity_stability(self):
        # mpmath limits at x = 1 +/- 1e-9
        for family in [fam.BKM, fam.MC, fam.wyd(0.3), fam.power_difference(1.5)]:
            for eps in (1e-9, -1e-9):
                x = 1.0 + eps
                with mpmath.workdps(40):
                    if family.kind == "bkm":
                        ref = (mpmath.mpf(x) - 1) / mpmath.log(x)
                    elif family.kind == "mc":
                        ref = ((mpmath.mpf(x) - 1) / mpmath.log(x)) ** 2 * 2 / (1 + mpmath.mpf(x))
                    elif family.kind == "wyd":
                        a = mpmath.mpf(family.param)
                        xx = mpmath.mpf(x)
                        ref = a * (1 - a) * (xx - 1) ** 2 / ((xx ** a - 1) * (xx ** (1 - a) - 1))
                    else:
                        p = mpmath.mpf(family.param)
                        xx = mpmath.mpf(x)
                        ref = (p - 1) / p * (xx ** p - 1) / (xx ** (p - 1) - 1)
                assert fam.eval_f(family, x) == pytest.approx(float(ref), rel=1e-12)

    def test_large_ratio_finite_without_warnings(self):
        # u = ln x = 400: exprel(u)^2 alone would overflow, f itself does not
        x = math.exp(400.0)
        with mpmath.workdps(40):
            xx = mpmath.e ** 400
            mc = (xx - 1) ** 2 / 400 ** 2 * 2 / (1 + xx)
            a = mpmath.mpf("0.3")
            wyd = a * (1 - a) * (xx - 1) ** 2 / ((xx ** a - 1) * (xx ** (1 - a) - 1))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for family, ref in ((fam.MC, mc), (fam.wyd(0.3), wyd)):
                assert fam.eval_f(family, x) == pytest.approx(float(ref), rel=1e-12)
                assert fam.eval_c(family, 1.0, x) == pytest.approx(float(1 / ref), rel=1e-12)

    def test_domain_error(self):
        # f(inf) would read e^inf times a kernel of 0
        for bad in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                fam.eval_f(fam.BKM, bad)

    def test_power_difference_special_points(self):
        for x in GRID:
            assert fam.eval_f(fam.power_difference(2.0), x) == pytest.approx(
                fam.eval_f(fam.BURES, x), rel=1e-12
            )
            assert fam.eval_f(fam.power_difference(-1.0), x) == pytest.approx(
                fam.eval_f(fam.HAR, x), rel=1e-12
            )
            assert fam.eval_f(fam.power_difference(0.5), x) == pytest.approx(
                fam.eval_f(fam.GEOMETRIC, x), rel=1e-12
            )
            assert fam.eval_f(fam.power_difference(1.0), x) == pytest.approx(
                fam.eval_f(fam.BKM, x), rel=1e-12
            )

    def test_extreme_wyd_approaches_bkm(self):
        # g_WYD(a) -> 1 as a -> 0 or 1, so f approaches the BKM function
        xs = np.logspace(-1, 1, 11)
        for alpha in (1e-4, 1.0 - 1e-4):
            ratio = fam.eval_f(fam.wyd(alpha), xs) / fam.eval_f(fam.BKM, xs)
            assert np.allclose(ratio, 1.0, rtol=2e-4)
        # and the symmetry alpha <-> 1 - alpha is exact
        assert np.allclose(
            fam.eval_f(fam.wyd(1e-4), xs), fam.eval_f(fam.wyd(1.0 - 1e-4), xs), rtol=1e-13
        )

    def test_pdiff_near_integer_exponents(self):
        xs = np.logspace(-1, 1, 11)
        near_one = fam.power_difference(1.0 - 1e-12)
        assert np.allclose(fam.eval_f(near_one, xs), fam.eval_f(fam.BKM, xs), rtol=1e-9)

    def test_power_difference_between_geometric_and_bures(self):
        xs = np.logspace(-2, 2, 25)
        for p in (0.5, 0.9, 1.3, 1.7, 2.0):
            fp = fam.eval_f(fam.power_difference(p), xs)
            assert np.all(fp >= fam.eval_f(fam.GEOMETRIC, xs) - 1e-12 * np.abs(fp))
            assert np.all(fp <= fam.eval_f(fam.BURES, xs) + 1e-12 * np.abs(fp))

    @settings(max_examples=200, deadline=None)
    @given(
        x=st.floats(min_value=1e-3, max_value=1e3),
        idx=st.integers(min_value=0, max_value=len(ALL_SINGLE) - 1),
    )
    def test_symmetry_property(self, x, idx):
        family = ALL_SINGLE[idx]
        f_x = fam.eval_f(family, x)
        assert fam.eval_f(family, 1.0 / x) == pytest.approx(f_x / x, rel=1e-11)


class TestFAtZero:
    def test_named_limits(self):
        assert fam.eval_f_at_zero(fam.BURES) == 0.5
        assert fam.eval_f_at_zero(fam.BKM) == 0.0
        assert fam.eval_f_at_zero(fam.HAR) == 0.0
        assert fam.eval_f_at_zero(fam.MC) == 0.0
        assert fam.eval_f_at_zero(fam.GEOMETRIC) == 0.0

    def test_wyd_limit_against_small_argument(self):
        # alpha(1 - alpha); f(1e-8) = 0.2500500025 at alpha = 1/2
        assert fam.eval_f_at_zero(fam.wyd(0.5)) == pytest.approx(0.25, abs=0)
        assert fam.eval_f(fam.wyd(0.5), 1e-8) == pytest.approx(0.2500500025, rel=1e-9)
        for alpha in (0.1, 0.3, 0.7):
            limit = fam.eval_f_at_zero(fam.wyd(alpha))
            assert limit == pytest.approx(alpha * (1 - alpha), rel=1e-15)
            # convergence to the limit goes as x^min(a, 1-a)
            assert fam.eval_f(fam.wyd(alpha), 1e-60) == pytest.approx(limit, rel=1e-3)

    def test_power_difference_limits(self):
        assert fam.eval_f_at_zero(fam.power_difference(2.0)) == pytest.approx(0.5)
        assert fam.eval_f_at_zero(fam.power_difference(1.5)) == pytest.approx(1.0 / 3.0)
        assert fam.eval_f_at_zero(fam.power_difference(0.7)) == 0.0
        assert fam.eval_f_at_zero(fam.power_difference(-1.0)) == 0.0


class TestEvalC:
    def test_bures_harmonic_mean(self):
        assert fam.eval_c(fam.BURES, 0.3, 0.7) == pytest.approx(2.0, rel=1e-14)

    def test_equal_arguments(self):
        assert fam.eval_c(fam.BKM, 0.5, 0.5) == pytest.approx(2.0, rel=1e-14)
        for family in ALL_SINGLE:
            assert fam.eval_c(family, 0.25, 0.25) == pytest.approx(4.0, rel=1e-13)

    def test_bkm_on_qubit_weights(self):
        # ln(rho1/rho2)/(rho1 - rho2) for the splitting-1 Gibbs weights
        assert fam.eval_c(fam.BKM, 0.7310585786300049, 0.2689414213699951) == pytest.approx(
            2.163953413738653, rel=1e-12
        )

    def test_domain_error(self):
        with pytest.raises(ValueError):
            fam.eval_c(fam.BKM, -0.1, 0.5)

    @settings(max_examples=200, deadline=None)
    @given(
        x=st.floats(min_value=1e-6, max_value=1e6),
        y=st.floats(min_value=1e-6, max_value=1e6),
        t=st.floats(min_value=1e-3, max_value=1e3),
        idx=st.integers(min_value=0, max_value=len(ALL_SINGLE) - 1),
    )
    def test_symmetry_and_homogeneity(self, x, y, t, idx):
        family = ALL_SINGLE[idx]
        c = fam.eval_c(family, x, y)
        assert fam.eval_c(family, y, x) == pytest.approx(c, rel=1e-11)
        assert fam.eval_c(family, t * x, t * y) == pytest.approx(c / t, rel=1e-11)


def g_oracle(label, x):
    """Hyperbolic closed forms quoted for the named filters."""
    if x == 0:
        return 1.0
    if label == "har":
        return math.sinh(2 * x) / (2 * x)
    if label == "bures":
        return math.tanh(x) / x
    if label == "bkm":
        return 1.0
    if label == "mc":
        return x / math.tanh(x)
    if label == "geometric":
        return math.sinh(x) / x
    raise KeyError(label)


class TestEvalG:
    def test_named_closed_forms(self):
        xs = np.linspace(-6.0, 6.0, 41)
        for family in NAMED:
            for x in xs:
                assert fam.eval_g(family, x) == pytest.approx(
                    g_oracle(family.kind, x), rel=1e-13
                )

    def test_bkm_is_one(self):
        assert fam.eval_g(fam.BKM, 0.7) == 1.0

    def test_removable_zero(self):
        assert fam.eval_g(fam.MC, 0.0) == 1.0
        for family in ALL_SINGLE:
            assert fam.eval_g(family, 0.0) == 1.0

    def test_bures_value(self):
        assert fam.eval_g(fam.BURES, 0.5) == pytest.approx(math.tanh(0.5) / 0.5, rel=1e-14)

    def test_wy_equals_half_angle_form(self):
        xs = np.linspace(-4, 4, 17)
        for x in xs:
            if x == 0:
                continue
            assert fam.eval_g(fam.WY, x) == pytest.approx(
                math.tanh(x / 2) / (x / 2), rel=1e-13
            )

    def test_defining_identity_with_f(self):
        # g_f(x) = (e^{2x} - 1)/(2x f(e^{2x})) ties the filters back to f
        xs = [-5.0, -1.3, -0.2, 0.2, 0.8, 2.5, 5.0]
        for family in ALL_SINGLE:
            for x in xs:
                direct = math.expm1(2 * x) / (2 * x * fam.eval_f(family, math.exp(2 * x)))
                assert fam.eval_g(family, x) == pytest.approx(direct, rel=1e-11)

    def test_even_on_wide_range(self):
        xs = np.linspace(1e-8, 20.0, 101)
        for family in ALL_SINGLE:
            left = fam.eval_g(family, -xs)
            right = fam.eval_g(family, xs)
            assert np.allclose(left, right, rtol=1e-13, atol=0.0)

    def test_large_argument_no_overflow(self):
        # beyond sinh overflow the factored form e^{net |x|} * (factors in
        # (0, 1]) stays finite wherever the value itself does
        val = fam.eval_g(fam.GEOMETRIC, 500.0)
        assert math.isfinite(val) and val > 1e200
        assert fam.eval_g(fam.BURES, 800.0) == pytest.approx(1.0 / 800.0, rel=1e-10)

    def test_ordering_inside_crossover(self):
        # g_B <= g_WY <= 1 <= g_G <= g_MC <= g_Har, with the G <= MC link
        # valid only below the sinh^2 x = x^2 cosh x crossover
        xs = np.linspace(0.01, 2.6, 40)
        gb = fam.eval_g(fam.BURES, xs)
        gwy = fam.eval_g(fam.WY, xs)
        gg = fam.eval_g(fam.GEOMETRIC, xs)
        gmc = fam.eval_g(fam.MC, xs)
        gh = fam.eval_g(fam.HAR, xs)
        assert np.all(gb <= gwy + 1e-15)
        assert np.all(gwy <= 1.0 + 1e-15)
        assert np.all(1.0 <= gg + 1e-15)
        assert np.all(gg <= gmc + 1e-15)
        assert np.all(gmc <= gh + 1e-15)

    def test_global_links_beyond_crossover(self):
        xs = np.linspace(3.0, 12.0, 10)
        assert np.all(fam.eval_g(fam.MC, xs) <= fam.eval_g(fam.HAR, xs))
        assert np.all(fam.eval_g(fam.GEOMETRIC, xs) <= fam.eval_g(fam.HAR, xs))
        # the printed G <= MC ordering genuinely reverses out here
        assert np.all(fam.eval_g(fam.GEOMETRIC, xs) > fam.eval_g(fam.MC, xs))

    def test_mc_bures_product_is_one(self):
        xs = np.linspace(-8, 8, 33)
        prod = fam.eval_g(fam.MC, xs) * fam.eval_g(fam.BURES, xs)
        assert np.allclose(prod, 1.0, rtol=1e-13)

    def test_pair_product_identity(self):
        xs = np.linspace(-4, 4, 21)
        for d in (0.0, 0.3, 0.7, 1.2, 1.5):
            lo, hi = fam.half_pair(d)
            prod = fam.eval_g(lo, xs) * fam.eval_g(hi, xs)
            assert np.allclose(prod, fam.eval_g(fam.GEOMETRIC, xs) ** 2, rtol=1e-12)


CATALOG = list(fam.named_families().values()) + [
    fam.power_difference(p) for p in (-1.0, -0.7, 0.2, 1.3, 2.0)
] + [fam.wyd(0.3)]
NAMED_SCALES = {
    "har": ((2.0,), ()),
    "bures": ((1.0, 1.0), (2.0,)),
    "bkm": ((), ()),
    "mc": ((2.0,), (1.0, 1.0)),
    "geometric": ((1.0,), ()),
}


def sinhc_ratio_reference(family, x, hat=False):
    """g_f (or ghat_f) at x as a textbook sinhc ratio in 50-digit arithmetic.

    The scales are formed in double precision, as the package forms them,
    so the reference measures the evaluation and not the rounding of p - 1.
    """
    k, p = family.kind, family.param
    if k == "wyd":
        nums, dens = (p, 1.0 - p), (1.0,)
    elif k == "pdiff":
        nums, dens = (1.0, p - 1.0), (p,)
    else:
        nums, dens = NAMED_SCALES[k]
    with mpmath.workdps(50):
        x = mpmath.mpf(float(x))
        if x == 0:
            return mpmath.mpf(1)

        def sinhc(a):
            y = mpmath.mpf(a) * x
            return mpmath.sinh(y) / y if y != 0 else mpmath.mpf(1)

        value = mpmath.fprod(sinhc(a) for a in nums) / mpmath.fprod(sinhc(d) for d in dens)
        return value * mpmath.tanh(x) / x if hat else value


class TestFilterReference:
    """eval_g and eval_g_hat against 50-digit sinhc ratios for |x| <= 700."""

    XS = np.concatenate([
        [0.0, 1e-300, 1e-9, 1e-4, 0.03],
        np.linspace(0.5, 700.0, 281),
        [269.9, 300.1, 334.9],
        -np.linspace(1.0, 700.0, 15),
    ])

    @pytest.mark.parametrize("hat", [False, True])
    @pytest.mark.parametrize("family", CATALOG, ids=lambda f: f.label)
    def test_matches_reference_or_overflows_to_inf(self, family, hat):
        with np.errstate(over="ignore", under="ignore", invalid="raise", divide="raise"):
            values = (fam.eval_g_hat if hat else fam.eval_g)(family, self.XS)
        assert not np.any(np.isnan(values))
        for x, value in zip(self.XS, values):
            reference = sinhc_ratio_reference(family, x, hat)
            if reference < 1e300:
                error = abs(mpmath.mpf(float(value)) - reference) / reference
                assert error <= 1e-13, f"x={x}: {value} against {reference}"
            else:
                assert value == math.inf or value > 1e299, f"x={x}: {value}"

    US = [sign * u for u in (1e-12, 1e-3, 30.0, 300.0, 700.0) for sign in (1.0, -1.0)]

    @pytest.mark.parametrize("family", [
        fam.BKM, fam.MC, fam.wyd(0.3), fam.power_difference(-0.7), fam.power_difference(1.3),
    ], ids=lambda f: f.label)
    def test_f_through_exprel_matches_reference(self, family):
        # g_f(u/2) = exprel(u) / f(e^u), so f at x = e^u reads the same
        # reference; c_f(1, x) = 1/f(x) is what the oracle sums
        x = np.exp(self.US)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            values, inverses = fam.eval_f(family, x), fam.eval_c(family, 1.0, x)
        for u, value, inverse in zip(self.US, values, inverses):
            with mpmath.workdps(50):
                reference = mpmath.expm1(u) / u / sinhc_ratio_reference(family, 0.5 * u)
            for got, expected in ((value, reference), (inverse, 1 / reference)):
                error = abs(mpmath.mpf(float(got)) - expected) / expected
                assert error <= 1e-13, f"u={u}: {got} against {expected}"

    def test_overflow_is_inf_only_past_double_range(self):
        # g_HAR(x) = sinhc(2x) ~ e^{2x}/(4x) passes 1.8e308 near x = 358.5
        with np.errstate(over="ignore"):
            assert fam.eval_g(fam.HAR, 359.0) == math.inf
        assert fam.eval_g(fam.HAR, 358.0) > 6e307


def mp_f(family, x):
    """The textbook f at an mpmath x, away from x = 1."""
    k, p = family.kind, family.param
    if k == "wyd":
        return p * (1 - p) * (x - 1) ** 2 / ((x ** p - 1) * (x ** (1 - p) - 1))
    if k == "pdiff":
        return (p - 1) / p * (x ** p - 1) / (x ** (p - 1) - 1)
    return {
        "har": lambda: 2 * x / (1 + x),
        "bures": lambda: (1 + x) / 2,
        "bkm": lambda: (x - 1) / mpmath.log(x),
        "mc": lambda: ((x - 1) / mpmath.log(x)) ** 2 * 2 / (1 + x),
        "geometric": lambda: mpmath.sqrt(x),
    }[k]()


class TestLogForms:
    """log f(e^u) and log g(x) against 60-digit textbook formulas for |u|, 2|x| up to 1e4.

    A double log form is exact to a few roundings of its terms, which grow
    with |u| (the exponent a u, and the scale 1 - p of WYD): the tolerance
    is 2e-15 (|u| + |log| + 1).
    """

    FAMILIES = [*fam.named_families().values(), fam.wyd(0.3), *map(fam.power_difference, (-1.0, -0.7, 0.3, 1.5, 2.0))]
    US = [sign * u for u in (1e-8, 0.3, 30.0, 700.0, 745.5, 3000.0, 1e4) for sign in (1.0, -1.0)]

    @pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.label)
    def test_log_f(self, family):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = fam._log_f(family, np.array(self.US))
        with mpmath.workdps(60):
            for u, value in zip(self.US, values):
                reference = mpmath.log(mp_f(family, mpmath.exp(mpmath.mpf(u))))
                assert abs(value - reference) <= 2e-15 * (abs(u) + abs(reference) + 1.0), (u, value, reference)

    @pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.label)
    def test_log_g(self, family):
        # g(x) = (e^{2x} - 1)/(2x f(e^{2x})), even in x
        xs = [0.5 * u for u in self.US]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = fam._log_g(family, np.array(xs))
        with mpmath.workdps(60):
            for x, value in zip(xs, values):
                y = mpmath.mpf(2 * abs(x))
                reference = mpmath.log(mpmath.expm1(y) / (y * mp_f(family, mpmath.exp(y))))
                assert abs(value - reference) <= 2e-15 * (float(y) + abs(reference) + 1.0), (x, value, reference)


class TestStackedFamilies:
    """A _Stacked family, one parameter per leading index, against per-family evaluation.

    _log_f is the same arithmetic entry by entry.  _log_g reads both from
    f's one form, but a stack's array scales are not merged: it keeps the
    zero scales that _g_scales drops and the equal scales whose powers it
    sums, which moves its sum by a few roundings, so g is compared to 1e-13
    relative.
    """

    # p = 0 and 1 drop a zero scale, p = -1, 0.5 and 1 cancel an equal
    # pair, and p = 1 -+ 1e-13 keep scales 1e-13 apart; then the pair
    # members 1/2 -+ d at d = 0, 0.5, 1 and 1.5
    STACKS = {
        "pdiff": [-1.0, 0.0, 0.5, 1.0, 2.0, 1.0 - 1e-13, 1.0 + 1e-13, *(0.5 + s * d for d in (0.0, 0.5, 1.0, 1.5) for s in (-1.0, 1.0)), -0.7, 1.7],
        "wyd": [0.1, 0.3, 0.5, 0.9],
    }

    @staticmethod
    def grid(rows, scale, edges):
        v = np.random.default_rng(rows).normal(scale=scale, size=(rows, 9))
        v[:, :len(edges)] = edges
        return v

    @pytest.mark.parametrize("kind", STACKS)
    def test_log_g(self, kind):
        params = self.STACKS[kind]
        x = self.grid(len(params), 10.0, [0.0, 1e-9, -1e-9, 40.0, -40.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = fam._log_g(fam._Stacked(kind, np.array(params)), x)
        expected = np.stack([fam._log_g(fam.MonotoneFamily(kind, p), xi) for p, xi in zip(params, x)])
        assert got.shape == x.shape
        np.testing.assert_allclose(np.exp(got), np.exp(expected), rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("kind", STACKS)
    def test_log_f(self, kind):
        params = self.STACKS[kind]
        u = self.grid(len(params), 30.0, [0.0, 1e-9, -1e-9, 700.0, -700.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = fam._log_f(fam._Stacked(kind, np.array(params)), u)
        expected = np.stack([fam._log_f(fam.MonotoneFamily(kind, p), ui) for p, ui in zip(params, u)])
        assert np.array_equal(got, expected)

    def test_entries_and_labels(self):
        d = np.array([0.25, 1.5])
        lo, hi = fam._Stacked("pdiff", 0.5 - d), fam._Stacked("pdiff", 0.5 + d)
        assert [(lo[i], hi[i]) for i in range(2)] == [fam.half_pair(0.25), fam.half_pair(1.5)]
        assert [lo[1].label, hi[1].label] == ["pdiff:-1", "pdiff:2"]
        p = np.array([0.7])
        assert (fam._Stacked("pdiff", p)[0].label, fam._Stacked("pdiff", 1.0 - p)[0].label) == ("pdiff:0.7", "pdiff:0.3")

    def test_rejections(self):
        with pytest.raises(ValueError, match="pdiff requires p"):
            fam._Stacked("pdiff", np.array([0.5, 2.5]))
        with pytest.raises(ValueError, match="wyd requires alpha"):
            fam._Stacked("wyd", np.array([0.5, math.nan]))


class TestPinnedFilterValues:
    """Far-tail filter values that the scales of f's form fix: the linear exponent is 1 - a, not a sum of rounded scales, and no scale is cancelled against a near-equal one."""

    @pytest.mark.parametrize("alpha", [0.1, 0.3])
    def test_wyd_tail_is_its_limit(self, alpha):
        # sinhc(a x) sinhc((1 - a) x)/sinhc(x) -> 1/(2 a (1 - a) x); the exponent
        # summed as a + (1 - a) - 1 rounds off 0, which read inf and 0.0 at 5e19
        x = 5e19
        assert fam.eval_g(fam.wyd(alpha), x) == pytest.approx(1.0 / (2.0 * alpha * (1.0 - alpha) * x), rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("p, expected", [(1.0 + 1e-13, 0.05003999575487506), (1.0 - 1e-13, 24402001.88314164)])
    def test_pdiff_next_to_bkm(self, p, expected):
        # sinhc(x) sinhc((p - 1) x)/sinhc(p x): cancelling sinhc(x) against
        # sinhc(p x) as equal scales read 1093.43 and 1104.41 at x = 1e14
        with mpmath.workdps(60):
            x = mpmath.mpf(1e14)

            def sinhc(a):
                return mpmath.sinh(a * x) / (a * x)

            reference = float(sinhc(1) * sinhc(mpmath.mpf(p) - 1) / sinhc(mpmath.mpf(p)))
        assert reference == pytest.approx(expected, rel=1e-15)
        assert fam.eval_g(fam.power_difference(p), 1e14) == pytest.approx(reference, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("kind, params, x", [("wyd", (0.1, 0.3), 5e19), ("pdiff", (1.0 + 1e-13, 1.0 - 1e-13), 1e14)])
    def test_stacked_tails_match(self, kind, params, x):
        # a stack, as verify builds its per-trial families, reads the same exponent 1 - a
        got = np.exp(fam._log_g(fam._Stacked(kind, np.array(params)), np.full((len(params), 1), x)))
        expected = [fam.eval_g(fam.MonotoneFamily(kind, p), x) for p in params]
        np.testing.assert_allclose(got[:, 0], expected, rtol=1e-13, atol=0.0)


class TestEvalGHat:
    def test_mc_hat_is_exactly_one(self):
        assert fam.eval_g_hat(fam.MC, 1.3) == 1.0
        xs = np.linspace(-10, 10, 21)
        assert np.allclose(fam.eval_g_hat(fam.MC, xs), 1.0, rtol=0, atol=0)

    def test_bkm_hat(self):
        assert fam.eval_g_hat(fam.BKM, 0.5) == pytest.approx(math.tanh(0.5) / 0.5, rel=1e-14)

    def test_value_at_zero(self):
        for family in ALL_SINGLE:
            assert fam.eval_g_hat(family, 0.0) == 1.0

    def test_hat_is_g_times_tanh_factor(self):
        xs = [-3.0, -0.7, 0.4, 1.9]
        for family in ALL_SINGLE:
            for x in xs:
                expected = fam.eval_g(family, x) * math.tanh(x) / x
                assert fam.eval_g_hat(family, x) == pytest.approx(expected, rel=1e-12)


class TestTaylorCoeffs:
    def test_bkm_vanishes(self):
        assert fam.taylor_coeffs(fam.BKM, "g", 3) == [0.0, 0.0, 0.0]

    def test_mc_leading(self):
        assert fam.taylor_coeffs(fam.MC, "g", 1) == pytest.approx([1.0 / 3.0], rel=1e-14)

    def test_bures_leading_two(self):
        assert fam.taylor_coeffs(fam.BURES, "g", 2) == pytest.approx(
            [-1.0 / 3.0, 2.0 / 15.0], rel=1e-14
        )

    def test_against_finite_difference_oracle(self):
        # mpmath numerical differentiation of the defining expression
        for family in [fam.wyd(0.3), fam.power_difference(1.3), fam.HAR]:
            for kind in ("g", "g_hat"):
                coeffs = fam.taylor_coeffs(family, kind, 4)
                with mpmath.workdps(40):
                    def g_mp(x):
                        if x == 0:
                            return mpmath.mpf(1)
                        y = mpmath.exp(2 * x)
                        if family.kind == "wyd":
                            a = mpmath.mpf(family.param)
                            f = a * (1 - a) * (y - 1) ** 2 / ((y ** a - 1) * (y ** (1 - a) - 1))
                        elif family.kind == "pdiff":
                            p = mpmath.mpf(family.param)
                            f = (p - 1) / p * (y ** p - 1) / (y ** (p - 1) - 1)
                        else:
                            f = 2 * y / (y + 1)
                        g = (y - 1) / (2 * x * f)
                        if kind == "g_hat":
                            g = g * mpmath.tanh(x) / x
                        return g

                    series = mpmath.taylor(g_mp, 0, 8)
                ref = [float(series[2 * l]) for l in range(1, 5)]
                assert coeffs == pytest.approx(ref, rel=1e-8, abs=1e-10)

    def test_series_reproduces_g_below_half(self):
        xs = np.linspace(-0.5, 0.5, 21)
        for family in ALL_SINGLE:
            coeffs = fam.taylor_coeffs(family, "g", 12)
            approx = np.ones_like(xs)
            for l, a in enumerate(coeffs, start=1):
                approx += a * xs ** (2 * l)
            assert np.allclose(approx, fam.eval_g(family, xs), rtol=1e-9, atol=1e-12)

    def test_argument_errors(self):
        with pytest.raises(ValueError):
            fam.taylor_coeffs(fam.MC, "g", 0)
        with pytest.raises(ValueError):
            fam.taylor_coeffs(fam.MC, "nope", 2)

    @pytest.mark.parametrize("L", [2.5, 3.0, "3"])
    def test_non_integer_truncation_rejected(self, L):
        with pytest.raises(ValueError, match="L must be a positive integer"):
            fam.taylor_coeffs(fam.MC, "g", L)


class TestSeriesRadius:
    def test_radii(self):
        assert fam.g_series_radius(fam.BURES) == pytest.approx(math.pi / 2)
        assert fam.g_series_radius(fam.WY) == pytest.approx(math.pi)
        assert fam.g_series_radius(fam.MC) == pytest.approx(math.pi)
        assert fam.g_series_radius(fam.BKM) == math.inf
        assert fam.g_series_radius(fam.HAR) == math.inf
        assert fam.g_series_radius(fam.GEOMETRIC) == math.inf
        assert fam.g_series_radius(fam.power_difference(0.75)) == pytest.approx(math.pi / 0.75)
        assert fam.g_series_radius(fam.power_difference(1.0)) == math.inf

    def test_hat_radii(self):
        assert fam.g_hat_series_radius(fam.MC) == math.inf
        assert fam.g_hat_series_radius(fam.HAR) == math.inf
        assert fam.g_hat_series_radius(fam.BKM) == pytest.approx(math.pi / 2)
        assert fam.g_hat_series_radius(fam.BURES) == pytest.approx(math.pi / 2)


class TestVerifyStandard:
    def test_named_families_pass(self):
        grid = np.logspace(-1, 1, 30)
        for family in NAMED:
            assert verify_standard(family, grid)

    def test_wyd_on_log_grid(self):
        assert verify_standard(fam.wyd(0.3), np.logspace(-3, 3, 60))

    def test_pdiff_two_equals_bures(self):
        grid = np.logspace(-2, 2, 40)
        assert verify_standard(fam.power_difference(2.0), grid)
        assert np.allclose(
            fam.eval_f(fam.power_difference(2.0), grid),
            fam.eval_f(fam.BURES, grid),
            rtol=1e-13,
        )

    def test_empty_grid_error(self):
        with pytest.raises(ValueError):
            verify_standard(fam.BKM, [])


class TestIdentifiers:
    def test_round_trip(self):
        for text in ["har", "bures", "bkm", "mc", "geometric", "wyd:0.3", "pdiff:1.5"]:
            assert fam.parse_family(text).label == text

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            fam.parse_family("frobnicate")
        with pytest.raises(ValueError):
            fam.parse_family("wyd:nope")
        with pytest.raises(ValueError):
            fam.parse_family("wyd:1.5")

    def test_family_validation(self):
        with pytest.raises(ValueError):
            fam.MonotoneFamily("wyd", 0.0)
        with pytest.raises(ValueError):
            fam.power_difference(2.5)
        with pytest.raises(ValueError):
            fam.half_pair(-0.1)
        with pytest.raises(ValueError):
            fam.MonotoneFamily("har", 0.3)

    def test_pair_members(self):
        lo, hi = fam.half_pair(0.25)
        assert (lo.kind, lo.param) == ("pdiff", 0.25)
        assert (hi.kind, hi.param) == ("pdiff", 0.75)
        assert fam.half_pair(1.5) == (fam.power_difference(-1.0), fam.power_difference(2.0))
        for d in (-0.1, 1.6, math.nan, math.inf):
            with pytest.raises(ValueError, match=re.escape("pair requires d in [0, 3/2]")):
                fam.half_pair(d)

    def test_pair_is_no_family_kind(self):
        # every family is one operator monotone function; pair:d is a config identifier the CLI expands
        assert "pair" not in fam._KINDS
        for build in (lambda: fam.MonotoneFamily("pair", 0.5), lambda: fam._Stacked("pair", np.array([0.5])), lambda: fam.parse_family("pair:0.5")):
            with pytest.raises(ValueError, match="unknown family kind 'pair'"):
                build()


def mp_series_of_scales(nums, dens, L):
    """Reference coefficients of x^{2l}, l = 1..L, of prod sinhc(a x)/prod sinhc(d x), from mpmath at 60 digits."""
    with mpmath.workdps(60):
        def sinhc_series(a):
            a2 = mpmath.mpf(a) ** 2
            return [a2 ** l / mpmath.factorial(2 * l + 1) for l in range(L + 1)]

        series = [mpmath.mpf(1)] + [mpmath.mpf(0)] * L
        for a in nums:
            b = sinhc_series(a)
            series = [mpmath.fsum(series[i] * b[l - i] for i in range(l + 1)) for l in range(L + 1)]
        for d in dens:
            b, quotient = sinhc_series(d), [mpmath.mpf(0)] * (L + 1)
            for l in range(L + 1):
                quotient[l] = series[l] - mpmath.fsum(quotient[i] * b[l - i] for i in range(l))
            series = quotient
        return [float(c) for c in series[1:]]


SERIES_FAMILIES = [
    *fam.named_families().values(),
    *(fam.wyd(a / 10) for a in range(1, 10)),
    *(fam.power_difference(p) for p in (-0.7, -0.3, 0.25, 0.75, 1.3, 2.0)),
    *fam.half_pair(0.3),
]


@pytest.mark.parametrize("kind", ["g", "g_hat"])
def test_rational_coefficients_are_the_mpmath_ones(kind):
    # float(Fraction) is correctly rounded; the 60-digit mpmath sums rounded the same 23 families the same way
    assert len(SERIES_FAMILIES) == 23
    for family in SERIES_FAMILIES:
        scales = fam._g_scales(family, hat=kind == "g_hat")
        for L in (1, 3, 6, 8, 12, 20):
            assert fam.taylor_coeffs(family, kind, L) == mp_series_of_scales(*scales, L), (family.label, L)
