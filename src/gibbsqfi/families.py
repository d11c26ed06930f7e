"""Catalog of standard operator monotone functions and their filter functions.

A standard operator monotone function f maps (0, inf) to (0, inf), is
normalized by f(1) = 1 and symmetric under f(1/x) = f(x)/x.  Each one
defines a monotone Riemannian metric on density matrices; the kernel that
enters the metric is the Morozova-Cencov function

    c_f(x, y) = 1 / (x * f(y/x)),

and the spectral weight relative to the Kubo-Mori (BKM) case is carried by
the even filter function

    g_f(x) = (e^{2x} - 1) / (2 x f(e^{2x})),      g_f(0) = 1,

together with its companion ghat_f(x) = g_f(x) * tanh(x)/x.

Every family in the catalog has a filter function that reduces to a ratio
of sinhc factors, g_f(x) = prod_i sinhc(a_i x) / prod_j sinhc(d_j x) with
sinhc(y) = sinh(y)/y.  This representation is used throughout: it is
positive, manifestly even, free of removable singularities, and makes the
Taylor coefficients and the convergence radius of the g-series uniform
across named and parametric families.  It is evaluated on one path for
every x, as a log form built on the log-mean kernel (1 - e^{-z})/z of the
Duhamel weights; f has a log form of its own.  The routes add these logs
to the log weights and exponentiate each pair term once, and eval_g,
eval_f and eval_c are inf only where the value itself is past double range.

Sign convention: the Wigner-Yanase-Dyson prefactor is alpha*(1-alpha),
which is forced by positivity and f(1) = 1; sources quoting alpha*(alpha-1)
differ by an overall sign.  The power-difference prefactor (p-1)/p is
handled the same way (it cancels in the stable form used here).
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .hilbert import _exprel_neg

__all__ = [
    "MonotoneFamily",
    "HAR",
    "BURES",
    "BKM",
    "MC",
    "GEOMETRIC",
    "WY",
    "wyd",
    "power_difference",
    "half_pair",
    "parse_family",
    "named_families",
    "eval_f",
    "eval_f_at_zero",
    "eval_c",
    "eval_g",
    "eval_g_hat",
    "taylor_coeffs",
    "g_series_radius",
    "g_hat_series_radius",
]

_KINDS = ("har", "bures", "bkm", "mc", "geometric", "wyd", "pdiff", "pair")


@dataclass(frozen=True)
class MonotoneFamily:
    """One member of the catalog, identified by kind and optional parameter.

    kind is one of "har", "bures", "bkm", "mc", "geometric", "wyd",
    "pdiff", "pair".  The parameter is the WYD alpha in (0, 1), the
    power-difference exponent p in [-1, 2], or the pair offset d in
    [0, 3/2]; it is None for the parameter-free kinds.
    """

    kind: str
    param: float | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown family kind {self.kind!r}")
        if self.kind == "wyd":
            if self.param is None or not 0.0 < self.param < 1.0:
                raise ValueError("wyd requires alpha in (0, 1)")
        elif self.kind == "pdiff":
            if self.param is None or not -1.0 <= self.param <= 2.0:
                raise ValueError("pdiff requires p in [-1, 2]")
        elif self.kind == "pair":
            if self.param is None or not 0.0 <= self.param <= 1.5:
                raise ValueError("pair requires d in [0, 3/2]")
        elif self.param is not None:
            raise ValueError(f"family {self.kind!r} takes no parameter")

    @property
    def label(self) -> str:
        """Canonical identifier, e.g. "bkm" or "wyd:0.5"."""
        if self.param is None:
            return self.kind
        return f"{self.kind}:{self.param:g}"

    @property
    def members(self) -> tuple["MonotoneFamily", "MonotoneFamily"]:
        """The two power-difference members of a pair family."""
        if self.kind != "pair":
            raise ValueError("members is defined only for pair families")
        d = self.param
        return (power_difference(0.5 - d), power_difference(0.5 + d))

    def __str__(self):
        return self.label


HAR = MonotoneFamily("har")
BURES = MonotoneFamily("bures")
BKM = MonotoneFamily("bkm")
MC = MonotoneFamily("mc")
GEOMETRIC = MonotoneFamily("geometric")


def wyd(alpha: float) -> MonotoneFamily:
    """Wigner-Yanase-Dyson family with exponent alpha in (0, 1)."""
    return MonotoneFamily("wyd", float(alpha))


def power_difference(p: float) -> MonotoneFamily:
    """Power-difference family f_p, operator monotone for p in [-1, 2].

    p = -1, 1/2, 1, 2 reproduce the harmonic, geometric, BKM and Bures
    functions respectively.
    """
    return MonotoneFamily("pdiff", float(p))


def half_pair(d: float) -> MonotoneFamily:
    """The ordered pair (f_{1/2-d}, f_{1/2+d}) used in joint inequalities."""
    return MonotoneFamily("pair", float(d))


WY = wyd(0.5)


def parse_family(text: str) -> MonotoneFamily:
    """Parse a canonical identifier like "bures", "wyd:0.3" or "pdiff:1.5"."""
    body = text.strip().lower()
    if ":" in body:
        kind, _, arg = body.partition(":")
        try:
            value = float(arg)
        except ValueError:
            raise ValueError(f"bad family parameter in {text!r}") from None
        return MonotoneFamily(kind, value)
    return MonotoneFamily(body)


def named_families() -> dict[str, MonotoneFamily]:
    """The six parameter-free chain members keyed by label (WY = wyd:0.5)."""
    return {
        "bures": BURES,
        "wy": WY,
        "bkm": BKM,
        "geometric": GEOMETRIC,
        "mc": MC,
        "har": HAR,
    }


def _require_single(family: MonotoneFamily):
    if family.kind == "pair":
        raise ValueError(
            "pair families have no single monotone function; use .members"
        )


def _g_scales(family: MonotoneFamily) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Sinhc scales (numerators, denominators) of the filter function."""
    _require_single(family)
    k, p = family.kind, family.param
    if k == "har":
        raw = ((2.0,), ())
    elif k == "bures":
        raw = ((1.0, 1.0), (2.0,))
    elif k == "bkm":
        raw = ((), ())
    elif k == "mc":
        raw = ((2.0,), (1.0, 1.0))
    elif k == "geometric":
        raw = ((1.0,), ())
    elif k == "wyd":
        raw = ((p, 1.0 - p), (1.0,))
    else:  # pdiff
        raw = ((1.0, p - 1.0), (p,))
    return _simplify_scales(*raw)


def _g_hat_scales(family: MonotoneFamily):
    """Scales of ghat_f = g_f * tanh(x)/x  (tanh(x)/x = sinhc(x)^2/sinhc(2x))."""
    nums, dens = _g_scales(family)
    return _simplify_scales(nums + (1.0, 1.0), dens + (2.0,))


def _simplify_scales(nums, dens):
    """Drop zero scales (sinhc(0) = 1) and cancel equal |scale| pairs."""
    nums = sorted(abs(a) for a in nums if a != 0.0)
    dens = sorted(abs(d) for d in dens if d != 0.0)
    out_n, out_d = [], list(dens)
    for a in nums:
        for i, d in enumerate(out_d):
            if abs(a - d) < 1e-12:
                del out_d[i]
                break
        else:
            out_n.append(a)
    return tuple(out_n), tuple(out_d)


def _log_form(forms, v):
    """The parts sum w log _exprel_neg(|k v|) and (a if v > 0 else b) v of the form (a, b, (w, ...), (k, ...)).

    One form applies to all of v; otherwise form i applies to v[i], padded
    with w = k = 0.  Both parts are finite for every finite v.
    """
    shape = () if len(forms) == 1 else (-1,) + (1,) * (np.ndim(v) - 1)
    a, b, ws, ks = zip(*forms)
    out = 0.0
    for w, k in zip(*(itertools.zip_longest(*part, fillvalue=0.0) for part in (ws, ks))):
        out = out + np.reshape(w, shape) * np.log(_exprel_neg(np.abs(np.reshape(k, shape) * v)))
    return out, np.where(v > 0.0, np.reshape(a, shape), np.reshape(b, shape)) * v


def _exp(a, b=0.0):
    """exp(a + b) for the parts of a log form, the rounding error of a + b (TwoSum) applied as 1 + err.

    A float for a scalar; inf, without a warning, only past double range.
    """
    s = a + b
    err = (a - (s - (s - a))) + (b - (s - a))
    with np.errstate(over="ignore"):
        out = np.exp(s) * (1.0 + err)
    return float(out) if np.ndim(out) == 0 else out


def _g_parts(family, x, scales=_g_scales):
    """The parts of log g_f(x), or of log ghat_f(x) with _g_hat_scales, for a family or a tuple of one per entry of x's leading axis.

    sinhc(a x) = e^{a y/2} _exprel_neg(a y) with y = 2|x|: the form has
    the exponent (sum a - sum d)/2, rounded once, and terms (1, a), (-1, d).
    """
    forms = []
    for nums, dens in map(scales, family if isinstance(family, tuple) else (family,)):
        half = 0.5 * math.fsum(nums + tuple(-d for d in dens))
        forms.append((half, half, (1.0,) * len(nums) + (-1.0,) * len(dens), nums + dens))
    return _log_form(forms, 2.0 * np.abs(np.asarray(x, dtype=float)))


def _log_g(family, x):
    """log g_f(x); ``family`` may also be a tuple with one family per entry of the leading axis of x."""
    return sum(_g_parts(family, x))


def eval_g(family: MonotoneFamily, x):
    """Filter function g_f(x) = (e^{2x}-1)/(2x f(e^{2x})); even, g_f(0) = 1.

    Accepts scalars or arrays; defined for all real x, inf only past
    double range.  ``family`` may also be a tuple with one family per
    entry of the leading axis of x.
    """
    return _exp(*_g_parts(family, x))


def eval_g_hat(family: MonotoneFamily, x):
    """Companion filter ghat_f(x) = g_f(x) tanh(x)/x; ghat_MC is identically 1."""
    return _exp(*_g_parts(family, x, _g_hat_scales))


# f(x) = x^c prod exprel(k u)^w with u = ln x and exprel(v) = (e^v - 1)/v,
# whose factors carry each removable singularity (x = 1) and limit.  As
# log exprel(v) = max(v, 0) + log _exprel_neg(|v|), log f(e^u) is the sum
# of w log _exprel_neg(|k u|) and a u for u > 0, (1 - a) u for u < 0
# (f(1/x) = f(x)/x): each entry maps p to (a, (w, ...), (k, ...))
_F_FORMS = {
    "har": lambda p: (0.0, (1.0, -1.0), (1.0, 2.0)),  # 2x/(x + 1) = x exprel(u)/exprel(2u)
    "bures": lambda p: (1.0, (1.0, -1.0), (2.0, 1.0)),  # (x + 1)/2 = exprel(2u)/exprel(u)
    "geometric": lambda p: (0.5, (), ()),  # sqrt(x)
    "bkm": lambda p: (1.0, (1.0,), (1.0,)),  # (x - 1)/ln x
    "mc": lambda p: (1.0, (3.0, -1.0), (1.0, 2.0)),  # ((x - 1)/ln x)^2 2/(x + 1)
    # alpha*(1-alpha)*(x-1)^2 / ((x^a - 1)(x^{1-a} - 1)): the prefactor
    # cancels against the u-factors of the exprel forms
    "wyd": lambda p: (1.0, (2.0, -1.0, -1.0), (1.0, p, 1.0 - p)),
    "pdiff": lambda p: (min(max(p, 0.0), 1.0), (1.0, -1.0), (p, p - 1.0)),  # (p-1)/p * (x^p - 1)/(x^{p-1} - 1)
}


def _log_f(family, u):
    """log f(e^u) for real u; ``family`` may also be a tuple with one family per entry of the leading axis of u."""
    forms = []
    for member in family if isinstance(family, tuple) else (family,):
        _require_single(member)
        a, ws, ks = _F_FORMS[member.kind](member.param)
        forms.append((a, 1.0 - a, ws, ks))
    return sum(_log_form(forms, u))


def eval_f(family: MonotoneFamily, x):
    """The standard operator monotone function f at finite x > 0.

    exp of the log form log f(e^u), u = ln x (see _F_FORMS): the
    removable singularities at x = 1 (BKM, MC, WYD, power-difference)
    lose no accuracy, and f(1) = 1 exactly.
    """
    _require_single(family)
    x_arr = np.asarray(x, dtype=float)
    if not np.all((x_arr > 0.0) & (x_arr < np.inf)):
        raise ValueError("operator monotone functions are defined for finite x > 0")
    return _exp(_log_f(family, np.log(x_arr)))


def eval_f_at_zero(family: MonotoneFamily) -> float:
    """Limit of f at 0+; positive only for the regular families."""
    _require_single(family)
    k, p = family.kind, family.param
    if k == "bures":
        return 0.5
    if k == "wyd":
        return p * (1.0 - p)
    if k == "pdiff" and p > 1.0:
        return (p - 1.0) / p
    return 0.0


def eval_c(family: MonotoneFamily, x, y):
    """Morozova-Cencov function c_f(x, y) = 1/(x f(y/x)) for x, y > 0.

    exp of -ln x - log f(e^u), u = ln y - ln x.  ``family`` may also be a
    tuple with one family per entry of the leading axis of x and y.
    """
    x_arr = np.asarray(x, dtype=float)
    y_arr = np.asarray(y, dtype=float)
    if np.any(x_arr <= 0.0) or np.any(y_arr <= 0.0):
        raise ValueError("Morozova-Cencov function requires positive arguments")
    log_x = np.log(x_arr)
    return _exp(-log_x - _log_f(family, np.log(y_arr) - log_x))


def g_series_radius(family: MonotoneFamily) -> float:
    """Convergence radius of the Taylor series of g_f around 0."""
    _, dens = _g_scales(family)
    return math.pi / max(dens) if dens else math.inf


def g_hat_series_radius(family: MonotoneFamily) -> float:
    """Convergence radius of the Taylor series of ghat_f around 0."""
    _, dens = _g_hat_scales(family)
    return math.pi / max(dens) if dens else math.inf


def _series_of_scales(nums, dens, L, mp):
    """Coefficients of x^{2l}, l = 0..L, of prod sinhc(a x)/prod sinhc(d x)."""
    def sinhc_series(a):
        a2 = mp.mpf(a) ** 2
        return [a2 ** l / mp.factorial(2 * l + 1) for l in range(L + 1)]

    def mul(A, B):
        return [
            mp.fsum(A[i] * B[l - i] for i in range(l + 1)) for l in range(L + 1)
        ]

    def div(A, B):
        # B[0] = 1 always holds for sinhc series
        Q = [mp.mpf(0)] * (L + 1)
        for l in range(L + 1):
            acc = A[l] - mp.fsum(Q[i] * B[l - i] for i in range(l))
            Q[l] = acc / B[0]
        return Q

    series = [mp.mpf(1)] + [mp.mpf(0)] * L
    for a in nums:
        series = mul(series, sinhc_series(a))
    for d in dens:
        series = div(series, sinhc_series(d))
    return series


@functools.lru_cache(maxsize=256)
def _taylor_cached(nums, dens, L: int) -> tuple[float, ...]:
    import mpmath  # only the series coefficients need it, so no other job loads it
    with mpmath.workdps(60):
        series = _series_of_scales(nums, dens, L, mpmath.mp)
        return tuple(float(c) for c in series[1:])


def taylor_coeffs(family: MonotoneFamily, kind: str = "g", L: int = 12):
    """Taylor coefficients of x^{2l}, l = 1..L, of g_f or ghat_f.

    Computed by exact power-series arithmetic on the sinhc factorization in
    extended precision, so named and parametric families share one code
    path.  kind is "g" or "g_hat".
    """
    if not isinstance(L, numbers.Integral) or L < 1:
        raise ValueError(f"L must be a positive integer, got {L!r}")
    if kind == "g":
        nums, dens = _g_scales(family)
    elif kind == "g_hat":
        nums, dens = _g_hat_scales(family)
    else:
        raise ValueError("kind must be 'g' or 'g_hat'")
    return list(_taylor_cached(nums, dens, L))
