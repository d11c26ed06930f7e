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

Each kind has one entry in one table, _F_FORMS: f(x) as a power x^a
times a product of factors exprel(k ln x)^w, exprel(v) = (e^v - 1)/v.
Everything about g_f and ghat_f is read off that form.  As
g_f(x) = exprel(2x)/f(e^{2x}), the filter is a ratio of sinhc factors,
g_f(x) = prod_i sinhc(a_i x) / prod_j sinhc(d_j x) with sinhc(y) =
sinh(y)/y, whose scales are the form's |k| and whose linear exponent
on y = 2|x| is 1 - a.  This representation is used throughout: it is
positive, manifestly even, free of removable singularities, and makes the
Taylor coefficients and the convergence radius of the g-series uniform
across named and parametric families.  f and g are evaluated on one path
for every argument, as log forms built on the log-mean kernel
(1 - e^{-z})/z of the Duhamel weights.  The routes add these logs to the
log weights and exponentiate each pair term once, and eval_g, eval_f and
eval_c are inf only where the value itself is past double range.

Sign convention: the Wigner-Yanase-Dyson prefactor is alpha*(1-alpha),
which is forced by positivity and f(1) = 1; sources quoting alpha*(alpha-1)
differ by an overall sign.  The power-difference prefactor (p-1)/p is
handled the same way (it cancels in the stable form used here).
"""

from __future__ import annotations

import functools
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

_KINDS = ("har", "bures", "bkm", "mc", "geometric", "wyd", "pdiff")


@dataclass(frozen=True)
class MonotoneFamily:
    """One member of the catalog, one operator monotone function, identified by kind and optional parameter.

    kind is one of "har", "bures", "bkm", "mc", "geometric", "wyd",
    "pdiff".  The parameter is the WYD alpha in (0, 1) or the
    power-difference exponent p in [-1, 2]; it is None for the
    parameter-free kinds.
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
        elif self.param is not None:
            raise ValueError(f"family {self.kind!r} takes no parameter")

    @property
    def label(self) -> str:
        """Canonical identifier, e.g. "bkm" or "wyd:0.5"."""
        if self.param is None:
            return self.kind
        return f"{self.kind}:{self.param:g}"

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


def half_pair(d: float) -> tuple[MonotoneFamily, MonotoneFamily]:
    """The ordered pair (f_{1/2-d}, f_{1/2+d}) used in joint inequalities, for d in [0, 3/2]."""
    if not 0.0 <= d <= 1.5:
        raise ValueError("pair requires d in [0, 3/2]")
    return power_difference(0.5 - d), power_difference(0.5 + d)


WY = wyd(0.5)


@dataclass(frozen=True, eq=False)
class _Stacked:
    """Families of one kind, one per matrix of a frame's stack: entry i is MonotoneFamily(kind, param[i]).

    _log_g and _log_f evaluate a stack in one call, from the kind's one
    form in _F_FORMS with array entries.  Compared and hashed by identity,
    so each stack's filter is computed once.
    """

    kind: str
    param: np.ndarray

    def __post_init__(self):  # each kind's valid parameters form an interval, so its ends are checked
        MonotoneFamily(self.kind, float(np.min(self.param)))
        MonotoneFamily(self.kind, float(np.max(self.param)))

    def __getitem__(self, i) -> MonotoneFamily:
        return MonotoneFamily(self.kind, float(self.param[i]))

    def column(self, v):
        """The parameters shaped to broadcast along the leading axis of v."""
        return np.reshape(self.param, (-1,) + (1,) * (np.ndim(v) - 1))


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
    return {"bures": BURES, "wy": WY, "bkm": BKM, "geometric": GEOMETRIC, "mc": MC, "har": HAR}


class _Columns(dict):
    """The columns log _exprel_neg(|k v|) of the log forms on one array v, a number k's formed once.

    A frame or structure factor keeps one per array its routes read, so families that share a
    scale share its column; an array of scales (a _Stacked family's) is formed at each use.
    """

    def __init__(self, v):
        super().__init__()
        self.v = v

    def __missing__(self, k):
        self[k] = column = self.form(k)
        return column

    def form(self, k):
        return np.log(_exprel_neg(np.abs(k * self.v)))


def _g_columns(x) -> _Columns:
    """The _Columns of g's log forms at x, on y = 2|x|; a _Columns given for x is returned as it is."""
    return x if isinstance(x, _Columns) else _Columns(2.0 * np.abs(np.asarray(x, dtype=float)))


def _log_form(form, columns: _Columns):
    """The parts sum w log _exprel_neg(|k v|) and (a if v > 0 else b) v of the form (a, b, (w, ...), (k, ...)), v's columns given.

    An entry is a number, or an array that broadcasts against v (one
    value per entry of its leading axis).  Both parts are finite for
    every finite v, and the sum's terms are taken in the form's order.
    """
    a, b, ws, ks = form
    out, v = 0.0, columns.v
    for w, k in zip(ws, ks):
        term = columns[k] if isinstance(k, float) else columns.form(k)
        out = out + term if w == 1.0 else out - term if w == -1.0 else out + w * term
    return out, (a * v if a is b else np.where(v > 0.0, a, b) * v)


def _exp(a, b=0.0):
    """exp(a + b) for the parts of a log form, the rounding error of a + b (TwoSum) applied as 1 + err.

    A float for a scalar; inf, without a warning, only past double range.
    """
    s = a + b
    err = (a - (s - (s - a))) + (b - (s - a))
    with np.errstate(over="ignore"):
        out = np.exp(s) * (1.0 + err)
    return float(out) if np.ndim(out) == 0 else out


# f(x) = x^c prod exprel(k u)^w with u = ln x and exprel(v) = (e^v - 1)/v,
# whose factors carry each removable singularity (x = 1) and limit.  As
# log exprel(v) = max(v, 0) + log _exprel_neg(|v|), log f(e^u) is the sum
# of w log _exprel_neg(|k u|) and a u for u > 0, (1 - a) u for u < 0
# (f(1/x) = f(x)/x): each entry maps p to (a, (w, ...), (k, ...)).  It is
# the one table per kind: g_f and ghat_f are read off it.
_F_FORMS = {
    "har": lambda p: (0.0, (1.0, -1.0), (1.0, 2.0)),  # 2x/(x + 1) = x exprel(u)/exprel(2u)
    "bures": lambda p: (1.0, (1.0, -1.0), (2.0, 1.0)),  # (x + 1)/2 = exprel(2u)/exprel(u)
    "geometric": lambda p: (0.5, (), ()),  # sqrt(x)
    "bkm": lambda p: (1.0, (1.0,), (1.0,)),  # (x - 1)/ln x
    "mc": lambda p: (1.0, (3.0, -1.0), (1.0, 2.0)),  # ((x - 1)/ln x)^2 2/(x + 1)
    # alpha*(1-alpha)*(x-1)^2 / ((x^a - 1)(x^{1-a} - 1)): the prefactor
    # cancels against the u-factors of the exprel forms
    "wyd": lambda p: (1.0, (2.0, -1.0, -1.0), (1.0, p, 1.0 - p)),
    "pdiff": lambda p: (np.clip(p, 0.0, 1.0), (1.0, -1.0), (p, p - 1.0)),  # (p-1)/p * (x^p - 1)/(x^{p-1} - 1)
}


def _f_form(family, v):
    """f's form; a _Stacked family's has array entries, shaped to broadcast along the leading axis of v."""
    return _F_FORMS[family.kind](family.column(v) if isinstance(family, _Stacked) else family.param)


def _sinhc_scales(form, hat=False):
    """Sinhc scales (numerators, denominators) of g_f, or of ghat_f with hat, from f's form (a, (w, ...), (k, ...)).

    g_f(x) = exprel(2x)/f(e^{2x}) and exprel(2kx) = e^{kx} sinhc(kx), so
    sinhc(x) has the power 1 from exprel(2x), sinhc(|k| x) the power -w of
    each factor of f, and ghat_f adds tanh(x)/x = sinhc(x)^2/sinhc(2x).  A
    number scale's powers are summed exactly, k = 0 (sinhc(0) = 1) is
    dropped, and the others are listed once per unit of their net power,
    ascending; an array scale (a _Stacked family's) follows them, in the
    form's order.
    """
    _, ws, ks = form
    powers, arrays = {}, []
    for k, w in [(1.0, 1.0), *zip(ks, (-w for w in ws)), *([(1.0, 2.0), (2.0, -1.0)] if hat else [])]:
        if isinstance(k, np.ndarray):
            arrays.append((k, w))
        else:
            powers[abs(k)] = powers.get(abs(k), 0.0) + w
    listed = [(k, w) for k, w in sorted(powers.items()) if k != 0.0] + arrays
    return tuple(tuple(k for k, w in listed for _ in range(int(sign * w))) for sign in (1.0, -1.0))


@functools.cache
def _g_scales(family: MonotoneFamily, hat: bool = False) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """_sinhc_scales of the family's form, formed once per family."""
    return _sinhc_scales(_F_FORMS[family.kind](family.param), hat)


def _g_parts(family, x, hat=False):
    """The parts of log g_f(x), or of log ghat_f(x) with hat; ``family`` may also be a _Stacked family, entry i for entry i of the leading axis of x.

    sinhc(k x) = e^{|k| y/2} _exprel_neg(|k| y) with y = 2|x|: the log form
    has the term (1, k) of each numerator scale and (-1, k) of each
    denominator scale, and the exponent 1 - a of f's form (a, ...), as
    log g_f = log exprel(y) - log f(e^y), which tanh(x)/x leaves as it is.
    """
    y = _g_columns(x)
    form = _f_form(family, y.v)
    nums, dens = _sinhc_scales(form, hat) if isinstance(family, _Stacked) else _g_scales(family, hat)
    exponent = 1.0 - form[0]
    return _log_form((exponent, exponent, (1.0,) * len(nums) + (-1.0,) * len(dens), nums + dens), y)


def _log_g(family, x):
    """log g_f(x), x given as an array or its _g_columns; ``family`` may also be a _Stacked family, entry i for entry i of the leading axis of x."""
    return sum(_g_parts(family, x))


def eval_g(family: MonotoneFamily, x):
    """Filter function g_f(x) = (e^{2x}-1)/(2x f(e^{2x})); even, g_f(0) = 1.

    Accepts scalars or arrays; defined for all real x, inf only past
    double range.
    """
    return _exp(*_g_parts(family, x))


def eval_g_hat(family: MonotoneFamily, x):
    """Companion filter ghat_f(x) = g_f(x) tanh(x)/x; ghat_MC is identically 1."""
    return _exp(*_g_parts(family, x, hat=True))


def _log_f(family, u):
    """log f(e^u) for real u, given as an array or its _Columns; ``family`` may also be a _Stacked family, entry i for entry i of the leading axis of u."""
    u = u if isinstance(u, _Columns) else _Columns(u)
    a, ws, ks = _f_form(family, u.v)
    return sum(_log_form((a, 1.0 - a, ws, ks), u))


def eval_f(family: MonotoneFamily, x):
    """The standard operator monotone function f at finite x > 0.

    exp of the log form log f(e^u), u = ln x (see _F_FORMS): the
    removable singularities at x = 1 (BKM, MC, WYD, power-difference)
    lose no accuracy, and f(1) = 1 exactly.
    """
    x_arr = np.asarray(x, dtype=float)
    if not np.all((x_arr > 0.0) & (x_arr < np.inf)):
        raise ValueError("operator monotone functions are defined for finite x > 0")
    return _exp(_log_f(family, np.log(x_arr)))


def eval_f_at_zero(family: MonotoneFamily) -> float:
    """Limit of f at 0+; positive only for the regular families."""
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

    exp of -ln x - log f(e^u), u = ln y - ln x.
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
    _, dens = _g_scales(family, hat=True)
    return math.pi / max(dens) if dens else math.inf


def _series_of_scales(nums, dens, L):
    """Exact rational coefficients of x^{2l}, l = 0..L, of prod sinhc(a x)/prod sinhc(d x); a float scale is read exactly.

    Each factor's series b has b_0 = 1, so a product updates the coefficients in place from the top, and a quotient from the bottom.
    """
    from fractions import Fraction  # only the series coefficients need it, so no other job loads it
    series = [Fraction(1)] + [Fraction(0)] * L
    for scales, sign, order in ((nums, 1, range(L, 0, -1)), (dens, -1, range(1, L + 1))):
        for a in scales:
            b = [Fraction(a) ** (2 * l) / math.factorial(2 * l + 1) for l in range(L + 1)]
            for l in order:
                series[l] += sign * sum(series[i] * b[l - i] for i in range(l))
    return series


@functools.lru_cache(maxsize=256)
def _taylor_cached(nums, dens, L: int) -> tuple[float, ...]:
    """The float coefficients of x^{2l}, l = 1..L: float() of an exact rational is correctly rounded."""
    return tuple(float(c) for c in _series_of_scales(nums, dens, L)[1:])


def taylor_coeffs(family: MonotoneFamily, kind: str = "g", L: int = 12):
    """Taylor coefficients of x^{2l}, l = 1..L, of g_f or ghat_f.

    Computed by exact power-series arithmetic on the sinhc factorization in
    rationals, so named and parametric families share one code path.  kind
    is "g" or "g_hat".
    """
    if not isinstance(L, numbers.Integral) or L < 1:
        raise ValueError(f"L must be a positive integer, got {L!r}")
    if kind not in ("g", "g_hat"):
        raise ValueError("kind must be 'g' or 'g_hat'")
    nums, dens = _g_scales(family, kind == "g_hat")
    return list(_taylor_cached(nums, dens, L))
