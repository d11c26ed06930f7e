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
every x, through the log-mean kernel (1 - e^{-z})/z of the Duhamel weights,
and is inf only where the value itself is past double range.

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

import mpmath
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


def _eval_scales(rows, x):
    """prod sinhc(a x) / prod sinhc(d x) for rows of (nums, dens) scales.

    One row applies to all of x.  Otherwise row i applies to x[i], padded
    with scale 0 (sinhc(0) = 1) to the length of the longest row.  As
    sinhc(y) = e^{|y|} (1 - e^{-2|y|})/(2|y|), the ratio is
    e^{|x| (sum a - sum d)} times factors (1 - e^{-z})/z.  The exponent's
    sum is rounded once and the exponential applied in two halves, so the
    value is inf only where it overflows.
    """
    y = 2.0 * np.abs(np.asarray(x, dtype=float))
    shape = () if len(rows) == 1 else (-1,) + (1,) * (y.ndim - 1)

    def columns(parts):
        return [np.reshape(c, shape) for c in itertools.zip_longest(*parts, fillvalue=0.0)]

    acc = np.ones_like(y)
    for a in columns([nums for nums, _ in rows]):
        acc *= _exprel_neg(a * y)
    for d in columns([dens for _, dens in rows]):
        acc /= _exprel_neg(d * y)
    net = np.reshape([math.fsum(nums + tuple(-d for d in dens)) for nums, dens in rows], shape)
    half = np.exp(0.25 * net * y)
    out = acc * half * half
    return float(out) if np.ndim(out) == 0 else out


def eval_g(family: MonotoneFamily, x):
    """Filter function g_f(x) = (e^{2x}-1)/(2x f(e^{2x})); even, g_f(0) = 1.

    Accepts scalars or arrays; defined for all real x.  ``family`` may
    also be a tuple with one family per entry of the leading axis of x.
    """
    members = family if isinstance(family, tuple) else (family,)
    return _eval_scales([_g_scales(member) for member in members], x)


def eval_g_hat(family: MonotoneFamily, x):
    """Companion filter ghat_f(x) = g_f(x) tanh(x)/x; ghat_MC is identically 1."""
    return _eval_scales([_g_hat_scales(family)], x)


def eval_f(family: MonotoneFamily, x):
    """The standard operator monotone function f at finite x > 0.

    Removable singularities (x = 1 for BKM, MC, WYD, power-difference) are
    evaluated through exprel(u) = (e^u - 1)/u, so no accuracy is lost near
    them.
    """
    _require_single(family)
    x_arr = np.asarray(x, dtype=float)
    if not np.all((x_arr > 0.0) & (x_arr < np.inf)):
        raise ValueError("operator monotone functions are defined for finite x > 0")
    out = _f(family.kind, family.param, x_arr)
    return float(out) if np.ndim(out) == 0 else out


def _exprel(u):
    """exprel(u) = (e^u - 1)/u as e^{max(u, 0)} times the kernel _exprel_neg(|u|)."""
    return np.exp(np.maximum(u, 0.0)) * _exprel_neg(np.abs(u))


def _f(k: str, p, x_arr: np.ndarray) -> np.ndarray:
    """f of kind k with parameter p (a number or an array broadcasting against x_arr)."""
    if k == "har":
        return 2.0 * x_arr / (x_arr + 1.0)
    if k == "bures":
        return (x_arr + 1.0) / 2.0
    if k == "geometric":
        return np.sqrt(x_arr)
    u = np.log(x_arr)
    if k == "bkm":
        return _exprel(u)
    if k == "mc":
        # never square exprel(u): it overflows for u above about 355
        e = _exprel(u)
        return e * (2.0 * e / (x_arr + 1.0))
    if k == "wyd":
        # alpha*(1-alpha)*(x-1)^2 / ((x^a - 1)(x^{1-a} - 1)); the
        # prefactor cancels against the u-factors of the exprel forms
        e = _exprel(u)
        return (e / _exprel(p * u)) * (e / _exprel((1.0 - p) * u))
    # pdiff: (p-1)/p * (x^p - 1)/(x^{p-1} - 1), limits included, as
    # exprel(a)/exprel(b) with one exponential, which cannot overflow
    a, b = p * u, (p - 1.0) * u
    return np.exp(np.maximum(a, 0.0) - np.maximum(b, 0.0)) * (_exprel_neg(np.abs(a)) / _exprel_neg(np.abs(b)))


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

    ``family`` may also be a tuple with one family per entry of the
    leading axis of x and y; families of one kind are evaluated together.
    """
    x_arr = np.asarray(x, dtype=float)
    y_arr = np.asarray(y, dtype=float)
    if np.any(x_arr <= 0.0) or np.any(y_arr <= 0.0):
        raise ValueError("Morozova-Cencov function requires positive arguments")
    if not isinstance(family, tuple):
        return 1.0 / (x_arr * eval_f(family, y_arr / x_arr))
    x_arr, y_arr = np.broadcast_arrays(x_arr, y_arr)
    out = np.empty_like(x_arr)
    kinds = {}
    for i, member in enumerate(family):
        _require_single(member)
        kinds.setdefault(member.kind, []).append(i)
    for kind, index in kinds.items():
        params = [family[i].param for i in index]
        p = None if params[0] is None else np.reshape(params, (-1,) + (1,) * (x_arr.ndim - 1))
        out[index] = 1.0 / (x_arr[index] * _f(kind, p, y_arr[index] / x_arr[index]))
    return out


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
