"""Scalar special functions: Gamma, Hermite, K_{1/4}, and the
parabolic cylinder function D of real order.

D has two routes, neither of them a quadrature, so the identities whose
other side is an integral check it against an engine it does not share:

* negative real order -nu (nu > 0), for |z| < 15: the defining integral
  D_{-nu}(z) = e^{-z^2/4}/Gamma(nu) * S_nu(-z), with
  S_nu(w) = int_0^inf t^{nu-1} e^{w t - t^2/2} dt, expanded in powers of w.
  For z <= 0 the series has positive terms.  For z > 0 the Wronskian of
  D_{-nu}(z) and D_{-nu}(-z) (DLMF 12.2.11) gives D_{-nu}(z) from the
  positive-term series of S_nu(z), S_{nu+1}(z) and the continued fraction
  for D_{-nu-1}(z)/D_{-nu}(z) (DLMF 12.8.2), after Temme (J. Comput.
  Appl. Math. 121, 2000) and Gil, Segura & Temme (ACM TOMS 32, 2006);
  below z = 3, where the fraction converges slowly, one Taylor step of
  Weber's equation carries D inward from z = 3.  D and D_{-nu-1}/D at
  z = 3 are kept for the last 8 orders used, so points of one order in
  0 < z < 3 pay for the continued fraction once.  The loops count in
  floats, so a step is float arithmetic only, and each is one loop that
  stops once its newest terms are negligible against the sum.  From
  |z| = 15 on, where the sums would take about z^2 terms, D is its
  Poincare expansion (DLMF 12.9.1; for z < 0 with 12.2.15 and 12.9.2),
  as in both papers: at most 49 terms.
* nonnegative integer order n: D_n(z) = 2^{-n/2} e^{-z^2/4} H_n(z/sqrt 2)
  = sqrt(n!) e^{-z^2/4} h_n(z/sqrt 2), the exponential applied to the
  binary exponent of h_n so that nothing underflows before D_n does.

Other orders are rejected explicitly.  K_{1/4}(z) is
sqrt(pi/sqrt z) D_{-1/2}(2 sqrt z) (DLMF 12.7.10).  :func:`pcf_d_product`
is the one product of two D_{-nu} values, each of them D or the scaled
e^{z^2/4} D, that every closed-form right side of a D product calls.
:func:`erfcx` is e^{x^2} erfc(x) = sqrt(2/pi) e^{z^2/4} D_{-1}(z) at
z = sqrt(2) x, which never overflows, for the erfc right sides.
"""

from __future__ import annotations

import functools
import math

from .errors import DomainError
from .hermsum import scaled_hermite_frexp
# not called here: bound for bench/test_bench.py, which checks that the
# benchmark's tracer restores this binding
from .quadrature import integrate_semi_infinite  # noqa: F401

__all__ = [
    "hermite",
    "gamma",
    "bessel_k_quarter",
    "pcf_d",
    "pcf_d_product",
    "erfcx",
]

_ORDER_LIMIT = 20.0
_INT_EPS = 1e-12
_SQRT_2PI = math.sqrt(2.0 * math.pi)
# below _Z1 the continued fraction converges slowly: D(z) for 0 < z < _Z1
# is a Taylor step inward from D(_Z1)
_Z1 = 3.0
_LN2 = math.log(2.0)
# ln 2 in two parts (fdlibm's): n * _LN2_HI is exact for |n| <= 2^21
_LN2_HI, _LN2_LO = 6.93147180369123816490e-01, 1.90821492927058770002e-10
# e^expo splits exactly from -2^21 ln 2 (0.0 below) up to (2^21 - 2^11) ln 2, so that a
# factor made 0.0 times any that is not, its rest and prefactor under 2^300, underflows too
_EXPO_MIN, _EXPO_MAX = -2.0**21 * _LN2, (2.0**21 - 2.0**11) * _LN2
# a sum stops once its new terms fall below this share of it
_SUM_EPS = 2.0**-56
# the continued fraction stops once a level changes it by at most this
# factor; one rounding in that factor can exceed 2^-53 at every level
_CF_EPS = 2.0**-52
# |x - 1| <= _CF_EPS as one chained comparison: x - 1 is exact wherever it can be that small
_CF_LO, _CF_HI = 1.0 - _CF_EPS, 1.0 + _CF_EPS
# from |z| = _Z_POINCARE on, D is its Poincare expansion, whose terms fall below 2^-56
# of the sum before they grow at every order up to 20; the sums below it stay under e^172
_Z_POINCARE = 15.0


def hermite(n: int, x: float) -> float:
    """Physicists' Hermite polynomial H_n(x) = sqrt(2^n n!) h_n(x), with h_n's
    mantissa and binary exponent from :func:`pcfprod.hermsum.scaled_hermite_frexp`
    and the norm rounded once.

    Where H_n(x) overflows a double the result is signed infinity; it is
    never nan at any finite x.  The degree is capped at 2^19: a larger n
    raises :class:`DomainError`.
    """
    frac, expo = scaled_hermite_frexp(n, x)  # checks the degree
    # the top 212 or 213 bits of 2^n n! (an even shift): isqrt leaves 106 exact bits of
    # the norm; from n = 512 on any nonzero h_n overflows, so n need go no further
    norm_sq = math.factorial(min(int(n), 512)) << (min(int(n), 512) + 212)
    shift = (norm_sq.bit_length() - 212) & ~1
    try:
        return math.ldexp(float(math.isqrt(norm_sq >> shift)) * frac, expo + shift // 2 - 106)
    except OverflowError:
        return math.copysign(math.inf, frac)


def gamma(nu: float) -> float:
    """Gamma function for positive real argument.  Where Gamma(nu)
    overflows a double (nu above about 171.6) it raises :class:`DomainError`."""
    if not 0.0 < nu < math.inf:
        raise DomainError(f"gamma requires a finite positive argument, got {nu}")
    try:
        return math.gamma(nu)
    except OverflowError:
        raise DomainError(f"gamma({nu}) overflows a double") from None


def bessel_k_quarter(z: float) -> float:
    """Modified Bessel function K_{1/4}(z) for finite z > 0, as
    sqrt(pi/sqrt z) D_{-1/2}(2 sqrt z) (DLMF 12.7.10)."""
    if not 0.0 < z < math.inf:
        raise DomainError(f"bessel_k_quarter requires finite z > 0, got {z}")
    root = math.sqrt(z)
    # (2 sqrt z)^2 = 4z is passed exactly: rounded, it would cost z ulps
    return math.sqrt(math.pi / root) * _pcf_d_negative_order(0.5, 2.0 * root, 4.0 * z)


def _sums(nu: float, w: float, w2: float) -> tuple[float, float]:
    """nu S_nu(w) and w S_{nu+1}(w) for 0 <= w < _Z_POINCARE and w2 = w^2: the
    sums over k >= 0 of nu T_k and of k T_k, where T_k = 2^{(nu+k)/2-1}
    Gamma((nu+k)/2) w^k/k! and T_{k+2} = T_k (nu+k) w^2/((k+1)(k+2)): two
    interleaved recurrences.  k is a float, so every step is float arithmetic."""
    nu_t0 = 2.0 ** (0.5 * nu) * math.gamma(0.5 * nu + 1.0)  # finite as nu -> 0
    t1 = 2.0 ** (0.5 * (nu - 1.0)) * math.gamma(0.5 * (nu + 1.0)) * w
    t2 = 0.5 * nu_t0 * w2
    s = s1 = 0.0
    k, k1 = 1.0, 2.0  # k1 = k + 1
    # stop once the new terms are negligible against each sum, tested on its
    # own; while the terms still climb to their peak they are not
    while True:
        u = t1 + t2
        v = k * t1 + k1 * t2
        if u <= _SUM_EPS * s and v <= _SUM_EPS * s1:
            return nu_t0 + nu * s, s1
        s += u
        s1 += v
        nuk = nu + k
        k2 = k1 + 1.0
        k3 = k2 + 1.0
        t1 *= nuk * w2 / (k1 * k2)
        t2 *= (nuk + 1.0) * w2 / (k2 * k3)
        k, k1 = k2, k3


def _ratio(nu: float, z: float) -> float:
    """D_{-nu-1}(z)/D_{-nu}(z) = 1/(z + (nu+1)/(z + (nu+2)/(z + ...))) for
    z > 0, by the modified Lentz method: 50 (nu -> 0) to 100 (nu = 20)
    levels at z = 3, fewer as z grows."""
    f = d = 1.0 / z
    c = math.inf
    a = nu
    while True:
        a += 1.0
        d = 1.0 / (z + a * d)
        c = z + a / c
        cd = c * d
        f *= cd
        if _CF_LO <= cd <= _CF_HI:
            return f


def _poincare(a: float, x: float) -> float:
    """sum_s (a)_{2s} x^s/s!, the Poincare series of DLMF 12.9.1 (a = nu, x = -1/(2 z^2))
    and 12.9.2 (a = 1 - nu, x = 1/(2 z^2)), stopped before the first term below 2^-56 of
    the sum, or at its least term: past it the terms grow."""
    total = term = 1.0
    b, s = a, 1.0
    while True:
        nxt = term * b * (b + 1.0) * x / s
        if not _SUM_EPS * abs(total) < abs(nxt) < abs(term):
            return total
        total, term, b, s = total + nxt, nxt, b + 2.0, s + 1.0


def _exp_frexp(x: float, expo: float, power: int) -> tuple[float, int]:
    """x e^expo 2^power as (frac, n) with frac in [0.5, 1) and
    x e^expo 2^power = frac 2^n.  e^expo is split as 2^n e^r with
    |r| <= ln(2)/2, so the powers of two stay exact and only x e^r is
    rounded.  The split is exact for expo in [_EXPO_MIN, _EXPO_MAX]: below
    it the result is (0.0, 0), above it or at a nan an OverflowError."""
    if expo < _EXPO_MIN:
        return 0.0, 0
    if not expo <= _EXPO_MAX:
        raise OverflowError(f"e^{expo} is past e^{_EXPO_MAX:.0f}")
    n = round(expo / _LN2)
    r = (expo - n * _LN2_HI) - n * _LN2_LO
    frac, e = math.frexp(x * math.exp(r))
    return frac, e + n + power


def _times_exp(x: float, expo: float, power: int) -> float:
    """x e^expo 2^power for expo <= 0 (-inf included, never nan), rounded once by ldexp:
    0.0 below e^-746 < 2^-1075, also for a negative x.  It cannot overflow: its callers'
    products are bounded by Cramer's inequality, D_n(z) for n <= 20 by 1.09 sqrt(20!)
    < 1.7e9 and an oscillator eigenfunction by 1.09 pi^{-1/4}."""
    if (math.frexp(x)[1] + power) * _LN2 + expo < -746.0:
        return 0.0
    return math.ldexp(*_exp_frexp(x, expo, power))


def _wronskian_frexp(nu: float, z: float, zz: float, lift: float) -> tuple[float, int, float]:
    """e^lift D_{-nu}(z) = frac 2^n as (frac, n), and D_{-nu-1}(z)/D_{-nu}(z), for
    z > 0, from D_{-nu}(z) = sqrt(2 pi) e^{z^2/4} / (S_{nu+1}(z) + rho nu S_nu(z))."""
    p, q = _sums(nu, z, zz)
    rho = _ratio(nu, z)
    return *_exp_frexp(_SQRT_2PI / (q / z + rho * p), lift + 0.25 * zz, 0), rho


@functools.lru_cache(maxsize=8)
def _anchor(nu: float) -> tuple[float, float]:
    """D_{-nu}(_Z1) and D_{-nu-1}(_Z1)/D_{-nu}(_Z1) for the last 8 orders: a
    grid with nu outermost reuses one, and a fixed order interleaved with
    fresh ones (EQ14's 1/2 between the orders of other checks) stays kept."""
    frac, n, rho = _wronskian_frexp(nu, _Z1, _Z1 * _Z1, 0.0)
    return math.ldexp(frac, n), rho


def _taylor_inward(nu: float, z: float) -> float:
    """D_{-nu}(z) for 0 < z < _Z1: one Taylor step of Weber's equation
    y'' = (t^2/4 + nu - 1/2) y from _Z1 inward, the direction in which D
    grows.  The terms e_k = c_k h^k, h = z - _Z1, follow from
    (k+2)(k+1) c_{k+2} = a c_k + b c_{k-1} + c_{k-2}/4 with
    a = _Z1^2/4 + nu - 1/2 and b = _Z1/2.  One loop runs until the last four
    terms are negligible against the sum, as in :func:`_sums`."""
    d1, rho = _anchor(nu)
    h = z - _Z1
    ah2 = (0.25 * _Z1 * _Z1 + nu - 0.5) * h * h
    bh3 = 0.5 * _Z1 * h**3
    ch4 = 0.25 * h**4
    e_2, e_1, e0, e1 = 0.0, 0.0, d1, -(0.5 * _Z1 + nu * rho) * d1 * h  # D' = -(z/2 + nu rho) D
    total = e0 + e1
    # j = k + 1 and p = (k+1)(k+2), the divisor of the next step
    j, p = 1.0, 2.0
    while abs(e_2) + abs(e_1) + abs(e0) + abs(e1) > _SUM_EPS * total:
        e_2, e_1, e0, e1 = e_1, e0, e1, (ah2 * e0 + bh3 * e_1 + ch4 * e_2) / p
        total += e1
        j += 1.0
        p = j * (j + 1.0)
    return total


def _pcf_d_negative_order_frexp(nu: float, z: float, zz: float, lift: float) -> tuple[float, int]:
    """e^lift D_{-nu}(z) = frac 2^n as (frac, n) for nu > 0, given zz = z^2.  lift
    (0, or zz/4 scaled) joins the route's exponent (-zz/4, zz/4 or none) before its
    one split, so n is exact and -zz/4 + zz/4 is 0.  OverflowError past the split."""
    if z >= _Z_POINCARE:  # DLMF 12.9.1
        # z^-nu; where it is subnormal or 0, m^-nu 2^-(e nu) for z = m 2^e, e nu = k + r/d exactly
        frac, n = math.frexp(z ** -nu)
        if n < -1021 or not frac:
            (m, e), (a, d) = math.frexp(z), nu.as_integer_ratio()
            k, r = divmod(e * a, d)
            frac, n = math.frexp(m ** -nu * 2.0 ** (-r / d))
            n -= k
        return _exp_frexp(frac * _poincare(nu, -0.5 / zz), lift - 0.25 * zz, n)
    if z >= _Z1:
        return _wronskian_frexp(nu, z, zz, lift)[:2]
    if z > 0.0:
        return _exp_frexp(_taylor_inward(nu, z), lift, 0)
    if z > -_Z_POINCARE:
        # D_{-nu}(-w) = e^{-w^2/4} nu S_nu(w)/Gamma(nu+1), all terms positive
        return _exp_frexp(_sums(nu, -z, zz)[0] / math.gamma(nu + 1.0), lift - 0.25 * zz, 0)
    # DLMF 12.2.15 and 12.9.2: D_{-nu}(-w) = sqrt(2 pi)/Gamma(nu) e^{w^2/4} w^{nu-1} sum
    # + cos(pi nu) D_{-nu}(w), with 1/Gamma(nu) = m 2^k/Gamma(nu+1) for nu = m 2^k, so
    # a subnormal order costs no digits; as nu -> 0 the second term dominates, and its
    # shift nb - na stays below 916 (k >= -1074, w^2/4 >= 56)
    m, k = math.frexp(nu)
    fa, na = _exp_frexp(_SQRT_2PI * m / math.gamma(nu + 1.0) * (-z) ** (nu - 1.0)
                        * _poincare(1.0 - nu, 0.5 / zz), lift + 0.25 * zz, k)
    fb, nb = _pcf_d_negative_order_frexp(nu, -z, zz, lift)
    frac, e = math.frexp(fa + math.cos(math.pi * nu) * math.ldexp(fb, nb - na))
    return frac, e + na


def _pcf_d_negative_order(nu: float, z: float, zz: float) -> float:
    """D_{-nu}(z) for nu > 0, given zz = z^2."""
    try:
        return math.ldexp(*_pcf_d_negative_order_frexp(nu, z, zz, 0.0))
    except OverflowError:
        raise DomainError(f"D_{{{-nu}}}({z}) overflows a double") from None


def _check_order(nu_order: float) -> None:
    """DomainError for an order outside [-20, 20]."""
    if not abs(nu_order) <= _ORDER_LIMIT:
        raise DomainError(f"order {nu_order} outside supported range [-20, 20]")


def pcf_d_product(nu: float, z: float, zz: float, w: float, ww: float,
                  factor: float = 1.0, scaled: bool = False) -> float:
    """factor D_{-nu}(z) D_{-nu}(w) for 0 < nu <= 20 and factor > 0, given
    zz = z^2 and ww = w^2, passed exactly where the caller can; with
    ``scaled``, factor [e^{zz/4} D_{-nu}(z)] [e^{ww/4} D_{-nu}(w)].

    This is the right side of every identity that ends in a product of two D
    values.  Each factor is a fraction and a binary exponent, its e^{vv/4}
    joined to its own exponent before the one exact split, and the summed
    exponent is applied once: a subnormal or underflowing factor, or a scale
    past a double, costs no digits, and no large exponent is set against a
    rounded square.  An unscaled factor past v = 2411 is 0.0, and so is the
    product.  Where the product overflows a double (an inf factor too), a
    factor's exponent is past the split (v below -2410, or -1704 scaled) or
    an argument is nan, it raises :class:`DomainError`."""
    _check_order(-nu)
    try:
        f, n = _pcf_d_negative_order_frexp(nu, z, zz, 0.25 * zz if scaled else 0.0)
        g, m = _pcf_d_negative_order_frexp(nu, w, ww, 0.25 * ww if scaled else 0.0)
        product = math.ldexp(factor * f * g, n + m)
    except OverflowError:
        product = math.inf
    if not math.isfinite(product):  # also an inf factor, such as 2 Gamma(1e-308)
        raise DomainError(f"{factor} D_{{{-nu}}}({z}) D_{{{-nu}}}({w}) overflows a double, "
                          "or a factor is past the exact split")
    return product


def erfcx(x: float) -> float:
    """e^{x^2} erfc(x) for x >= 0, in (0, 1]: e^{x^2} erfc(x) below x = 15/sqrt 2,
    and from there the Poincare expansion that :func:`pcf_d` takes from |z| = 15
    (DLMF 12.9.1 for D_{-1}(sqrt(2) x)), so it never overflows; 0.0 at x = inf."""
    xx = x * x
    if xx < 0.5 * _Z_POINCARE * _Z_POINCARE:
        return math.exp(xx) * math.erfc(x)
    return _poincare(1.0, -0.25 / xx) / (x * math.sqrt(math.pi))


def pcf_d(nu_order: float, z: float) -> float:
    """Parabolic cylinder function D_order(z) for real order.

    Supported orders: any negative real order in [-20, 0), and
    nonnegative integers up to 20, at any finite z.  Anything else raises
    :class:`DomainError` -- there is no silent fallback.

    A negative order runs no quadrature: a series of positive terms for
    -15 < z <= 0, the Wronskian for 3 <= z < 15, a Taylor step inward from
    z = 3 for 0 < z < 3 and the Poincare expansions for |z| >= 15 (see the
    module docstring).  Against 40-digit mpmath over orders in [-20, -1e-9]
    and -80 <= z <= 1000 the relative error stays within 16 eps max(1, z^2/2),
    z^2/2 being D's own condition number in z.  On one Xeon core (CPython
    3.11) a call costs 19-21 us for -7 <= z <= 0, 27-41 us for 3 <= z < 7,
    4-15 us for 0 < z < 3 at the order of the previous such call and
    17-34 us at a new one, and 3-13 us for |z| >= 15.  Where D_order(z)
    overflows a double (z < 0 only, e.g. D_{-20}(-53)) it raises
    :class:`DomainError`; beyond z = 2 sqrt(746) it underflows and
    is returned as 0.0.  An integer order n is evaluated in log scale, so
    D_n(z) is 0.0 only where it underflows (D_20(55) = 2.2e-294 is returned;
    beyond |z| = 77.5 every D_n(z) is 0.0), never nan.
    """
    _check_order(nu_order)
    if not math.isfinite(z):
        raise DomainError(f"pcf_d needs a finite argument z, got z={z}")
    if nu_order < 0.0:
        return _pcf_d_negative_order(-nu_order, z, z * z)
    n = round(nu_order)
    if abs(nu_order - n) > _INT_EPS:
        raise DomainError(
            f"positive non-integer order {nu_order} is unsupported "
            "(only negative real orders and nonnegative integers)"
        )
    # D_n(z) = sqrt(n!) e^{-z^2/4} h_n(z/sqrt 2), e^{-z^2/4} applied to h_n's mantissa
    # and binary exponent: it underflows only where D_n does
    frac, expo = scaled_hermite_frexp(n, z / math.sqrt(2.0))
    return _times_exp(math.sqrt(math.factorial(n)) * frac, -0.25 * z * z, expo)
