"""One table of the seeded mpmath references of the accuracy sweeps.

Each costly mpmath sweep of the tests is declared here once: its seed, point
count and ranges, any double derived from its draws (a and b from x and y),
and the mpmath expression, at its working precision, of its references.
Drawing needs neither mpmath nor pcfprod.  ``mpmath_refs.json`` holds the
references, 30 significant digits each, keyed by sweep name; a test reads
its sweep from :func:`points`, and a single named check calls an expression
below live.  Run as a script, this file writes the table; ``--check``
compares a fresh run with it byte for byte, and ``--figures`` prints the
README's accuracy figures that come from a seeded set (the only mode that
runs pcfprod, so ``PYTHONPATH=src`` or an installed pcfprod)::

    python tests/mpmath_refs.py [--check | --figures]
"""

import functools
import hashlib
import itertools
import json
import math
import random
import sys
from pathlib import Path
from typing import Callable, NamedTuple

import mpmath as mp
import numpy as np

TABLE = Path(__file__).with_name("mpmath_refs.json")
DIGITS = 30


def product(nu, x, y, dps=30):
    """D_{-nu}(x) D_{-nu}(y), at the doubles given."""
    with mp.workdps(dps):
        return mp.pcfd(-nu, x) * mp.pcfd(-nu, y)


def laplace(nu, a, b, sign, dps=30):
    """The Laplace form at the doubles a and b, as 2 e^{a/2} Gamma(nu) D D."""
    with mp.workdps(dps):
        a, b = mp.mpf(a), mp.mpf(b)
        x = mp.sqrt(a + mp.sqrt((a - b) * (a + b)))
        return 2 * mp.exp(a / 2) * mp.gamma(nu) * mp.pcfd(-nu, x) * mp.pcfd(-nu, -sign * b / x)


def _hyperbolic(form):
    """A closed form of 13a or 13b at 40 digits plus those that e^{alpha^2
    cosh(phi)} against the erfc and, in 13b, the bracket cancel."""
    @functools.wraps(form)
    def closed(alpha, phi):
        with mp.workdps(40 + int(math.log10(1.0 + alpha * alpha * math.cosh(phi)) + phi / 2.3)):
            al, ph = mp.mpf(alpha), mp.mpf(phi)
            return form(al, ph, mp.cosh(ph / 2), mp.sinh(ph / 2))
    return closed


@_hyperbolic
def closed_13a(al, ph, ch, sh):
    return mp.pi / 2 * mp.exp(al**2 * mp.cosh(ph)) * mp.erfc(al * sh) * mp.erfc(al * ch)


@_hyperbolic
def closed_13b(al, ph, ch, sh):
    return mp.sqrt(mp.pi) / (2 * al) * (mp.exp(al**2 * ch**2) * ch * mp.erfc(al * ch)
                                        - mp.exp(al**2 * sh**2) * sh * mp.erfc(al * sh))


def closed_14(a, phi):
    with mp.workdps(40):
        a, ph = mp.mpf(a), mp.mpf(phi)
        return (mp.sqrt(a * mp.sinh(ph) / mp.pi) * mp.besselk(0.25, a * mp.cosh(ph / 2)**2)
                * mp.besselk(0.25, a * mp.sinh(ph / 2)**2))


CLOSED_FORMS = {"13a": closed_13a, "13b": closed_13b, "14": closed_14}


def _green(lam, x, xp):
    nu, rt2 = (lam - 1) / 2, mp.sqrt(2)
    return mp.gamma(-nu) / (2 * mp.sqrt(mp.pi)) * mp.pcfd(nu, x * rt2) * mp.pcfd(nu, -xp * rt2)


def green_closed(lam, x, xp, dps=30):
    """The Green function by the Titchmarsh closed form, x >= x'."""
    with mp.workdps(dps):
        return _green(mp.mpf(lam), mp.mpf(x), mp.mpf(xp))


def green_and_condition(lam, x, xp):
    """G at 30 digits, x >= x', and its condition number: the sum over
    v = lambda, x, x' of |v d(log G)/dv|.  Rounding the inputs alone moves
    G by about eps times it, whatever computes G."""
    with mp.workdps(30):
        lam, x, xp = mp.mpf(lam), mp.mpf(x), mp.mpf(xp)
        g, nu, h = _green(lam, x, xp), (lam - 1) / 2, mp.mpf(1e-10)
        # z d(log D_nu(z))/dz = z^2/2 - z D_{nu+1}(z)/D_nu(z), at z = x sqrt2 and -x' sqrt2
        kappa = sum(abs(z * z / 2 - z * mp.pcfd(nu + 1, z) / mp.pcfd(nu, z))
                    for z in (x * mp.sqrt(2), -xp * mp.sqrt(2)))
        return g, kappa + abs(lam * (_green(lam + h, x, xp) - _green(lam - h, x, xp)) / (2 * h * g))


def scaled_hermite(n, x):
    """h_n(x) = H_n(x)/sqrt(2^n n!) at 40 digits."""
    with mp.workdps(40):
        return mp.hermite(n, x) / mp.sqrt(mp.mpf(2) ** n * mp.factorial(n))


def hermite_product(n, X, Y):
    with mp.workdps(40):
        return scaled_hermite(n, X) * scaled_hermite(n, Y)


def eigenfunction(n, x):
    with mp.workdps(40):
        return mp.pi ** -0.25 * mp.exp(-mp.mpf(x) ** 2 / 2) * scaled_hermite(n, x)


def pcfd(nu, z):
    with mp.workdps(40):
        return mp.pcfd(-nu, z)


def sum_rule(X, Y, s):
    """B(X, Y, s) for X > Y through the sum rule, at 30 digits:
    e^{(X^2+Y^2)/2} Gamma(s) D_{-s}(sqrt2 X) D_{-s}(-sqrt2 Y)."""
    with mp.workdps(30):
        X, Y, rt2 = mp.mpf(X), mp.mpf(Y), mp.sqrt(2)
        return mp.exp((X * X + Y * Y) / 2) * mp.gamma(s) * mp.pcfd(-s, rt2 * X) * mp.pcfd(-s, -rt2 * Y)


def right_side(route, p, dps=40):
    """The right side that ``route`` forms as a product of two D values, from
    its own parameters ``p``."""
    if route in ("EQ11", "EQ12"):
        return laplace(p["nu"], p["a"], p["b"], 1 if route == "EQ11" else -1, dps)
    with mp.workdps(dps):
        if route == "EQ14":
            root, half = 2 * mp.sqrt(p["a"]), mp.mpf(p["phi"]) / 2
            return (mp.sqrt(2 * mp.pi) * mp.pcfd(-0.5, root * mp.cosh(half))
                    * mp.pcfd(-0.5, root * mp.sinh(half)))
        if route == "green_closed":
            return _green(mp.mpf(p["lam"]), mp.mpf(p["x"]), mp.mpf(p["xprime"]))
        gamma = mp.gamma(p["nu"]) if route == "EQ15" else 1
        return gamma * mp.pcfd(-p["nu"], p["x"]) * mp.pcfd(-p["nu"], -p["y"])


class Sweep(NamedTuple):
    count: int  # the points a test reads
    # draw(ref): the points kept, each (point, references), where ref(*args)
    # gives the references of each point drawn, in draw order
    draw: Callable
    reference: Callable  # the mpmath expression that ref stands for


SWEEPS: dict[str, Sweep] = {}


def sweep(name, count, reference):
    def register(draw):
        SWEEPS[name] = Sweep(count, draw, reference)
    return register


def _log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _ab(x, y):
    """(a, b) = ((x^2+y^2)/2, x y), as ``pcfprod.params_from_xy`` forms them."""
    return 0.5 * (x * x + y * y), x * y


def _xy_sweep(name, seed, count, gap, tols, sign=None, dps=30):
    """The product, points (nu, x, y, tol), or with ``sign`` a Laplace form,
    points (nu, a, b, tol): nu log-uniform in [0.1, 20], y in [0.05, 6],
    x - y 0 at a fifth of the points and else gap[0] gap[1]^u, u in [0, 1),
    and tol log-uniform in 10^tols."""
    @sweep(name, count, functools.partial(product, dps=dps) if sign is None
           else functools.partial(laplace, sign=sign, dps=dps))
    def draw(ref):
        rng, out = random.Random(seed), []
        for _ in range(count):
            nu = 0.1 * 200.0 ** rng.random()
            y = rng.uniform(0.05, 6.0)
            x = y + (0.0 if rng.random() < 0.2 else gap[0] * gap[1] ** rng.random())
            p = (nu, x, y) if sign is None else (nu, *_ab(x, y))
            out.append(((*p, 10.0 ** rng.uniform(*tols)), ref(*p) if sign else ref(nu, x, -y)))
        return out


# tests/test_glasser.py: x - y log-uniform in [1e-3, 3]; next to the
# diagonal, in [5e-6, 0.05] against 40 digits
_xy_sweep("glasser_product", 101, 300, (1e-3, 3000.0), (-14.0, -8.0))
_xy_sweep("glasser_laplace_102", 102, 300, (1e-3, 3000.0), (-14.0, -8.0), sign=1)
_xy_sweep("glasser_laplace_103", 103, 300, (1e-3, 3000.0), (-14.0, -8.0), sign=-1)
_xy_sweep("near_diagonal_product", 111, 100, (0.05, 1e-4), (-12.0, -8.0), dps=40)
_xy_sweep("near_diagonal_laplace_plus", 112, 100, (0.05, 1e-4), (-12.0, -8.0), sign=1, dps=40)


@sweep("laplace_minus_large_b", 40, functools.partial(laplace, sign=-1))
def _(ref):
    """y in [10, 37], else as glasser_laplace_103; points (nu, a, b, tol)."""
    rng, out = random.Random(104), []
    for _ in range(40):
        nu, y = 0.1 * 200.0 ** rng.random(), rng.uniform(10.0, 37.0)
        a, b = _ab(y + 1e-3 * 3000.0 ** rng.random(), y)
        out.append(((nu, a, b, 10.0 ** rng.uniform(-14.0, -8.0)), ref(nu, a, b)))
    return out


@sweep("equal_args", 312, lambda nu, x, a: (
    product(nu, x, -x, dps=40) if a is None else laplace(nu, a, a, 1, dps=40)))
def _(ref):
    """x = y and a = b = x^2 in turn, nu log-uniform in [0.1, 19], x in
    [0.05, 6], tol log-uniform in [1e-14, 1e-8]; points (nu, x, a or None,
    tol).  The README's figures for them are those of ``--figures``."""
    rng, out = random.Random(105), []
    for i in range(312):
        nu, x = _log_uniform(rng, 0.1, 19.0), rng.uniform(0.05, 6.0)
        p = (nu, x, None if i % 2 == 0 else x * x)
        out.append(((*p, _log_uniform(rng, 1e-14, 1e-8)), ref(*p)))
    return out


for _seed in (1, 3):
    @sweep(f"hyperbolic_left_sides_{_seed}", 1500, lambda form, x, phi: CLOSED_FORMS[form](x, phi))
    def _(ref, seed=_seed):
        """13a, 13b or 14 at random; alpha or a in [1e-4, 30], phi in [1e-4,
        50], tol in [1e-12, 1e-6], log-uniform; points (form, x, phi, tol)."""
        rng, out = random.Random(seed), []
        for _ in range(1500):
            form = rng.choice(tuple(CLOSED_FORMS))
            x, phi, tol = (_log_uniform(rng, 1e-4, 30.0), _log_uniform(rng, 1e-4, 50.0),
                           _log_uniform(rng, 1e-12, 1e-6))
            out.append(((form, x, phi, tol), ref(form, x, phi)))
        return out


def _eigen_distance(lam):
    """lambda's distance to the nearest eigenvalue 2n + 1, as the ODE oracle
    measures it."""
    return 1.0 - lam if lam < 1.0 else abs(lam - (2.0 * round((lam - 1.0) / 2.0) + 1.0))


@sweep("green_oracle", 100, green_and_condition)
def _(ref):
    """50 points with -10 < lambda < 1 and 50 with 1 < lambda < 64, lambda at
    least 0.1 from an eigenvalue 2n + 1, |x|, |x'| <= 6 and x >= x'; points
    (lambda, x, x').  A point whose condition number exceeds 500 is drawn
    again: it lies next to a zero of G (lambda > 1), where no double-precision
    route is accurate to 3e-13 relative."""
    rng, out = random.Random(2015), []
    for lo, hi in ((-10.0, 1.0), (1.0, 64.0)):
        kept = 0
        while kept < 50:
            lam = rng.uniform(lo, hi)
            x, xp = sorted((rng.uniform(-6.0, 6.0), rng.uniform(-6.0, 6.0)), reverse=True)
            if _eigen_distance(lam) < 0.1:
                continue
            g, kappa = ref(lam, x, xp)
            if kappa <= 500.0:
                out.append(((lam, x, xp), (g, kappa)))
                kept += 1
    return out


@sweep("green_beside_eigenvalue", 60, functools.partial(green_closed, dps=40))
def _(ref):
    """lambda 1e-14 to 1e-7 from 1, 3 and 5, log-uniform, either side; x' in
    [-2, 1.5] and x - x' in [0.3, 2.5]; points (lambda, x, x')."""
    rng, out = np.random.default_rng(35), []
    for lam0 in (1.0, 3.0, 5.0):
        for _ in range(20):
            lam = float(lam0 + rng.choice((-1.0, 1.0)) * 10 ** rng.uniform(-14, -7))
            xp = float(rng.uniform(-2.0, 1.5))
            p = (lam, float(xp + rng.uniform(0.3, 2.5)), xp)
            out.append((p, ref(*p)))
    return out


@sweep("pcf_d_far", 200, pcfd)
def _(ref):
    """nu log-uniform in [1e-9, 20]; z uniform in [-80, 80] at 70% of the
    points and else log-uniform in [80, 1000]; points (nu, z)."""
    rng, out = random.Random(21), []
    for _ in range(200):
        nu = _log_uniform(rng, 1e-9, 20.0)
        z = rng.uniform(-80.0, 80.0) if rng.random() < 0.7 else _log_uniform(rng, 80.0, 1e3)
        out.append(((nu, z), ref(nu, z)))
    return out


# points whose product is a double though a factor or e^{a/2} is not: e^{a/2} =
# e^{750} overflows, and D_{-11.2}(52.57) = 4.7e-320 is subnormal (EQ11);
# D_{-15.5}(53.74) = 3.7e-342 underflows, G = 1.1e-302 (green_closed)
OUTSIDE_DOUBLE_RANGE = {
    "EQ11": [{"nu": 1.0, "a": 1500.0, "b": 10.0}, {"nu": 11.2, "a": 1385.0, "b": 134.0}],
    "green_closed": [{"lam": -30.0, "x": 38.0, "xprime": 10.0}],
}

# the seed of each is its index in (product_reference, EQ11, ..., green_closed)
for _seed, _route in enumerate(("EQ11", "EQ12", "EQ15", "EQ14", "green_closed"), start=1):
    @sweep(f"right_side_{_route}", 30 + len(OUTSIDE_DOUBLE_RANGE.get(_route, [])), right_side)
    def _(ref, seed=_seed, route=_route):
        """30 parameter sets by name, then those of OUTSIDE_DOUBLE_RANGE:
        orders log-uniform in [0.05, 20] and no argument below -80; some EQ14
        and green_closed points have a factor past z = 98, where the product
        underflows."""
        rng, points = random.Random(seed), []
        for _ in range(30):
            nu = _log_uniform(rng, 0.05, 20.0)
            if route in ("EQ11", "EQ12"):
                a = _log_uniform(rng, 0.5, 3000.0)
                points.append({"nu": nu, "a": a, "b": a * rng.uniform(0.01, 0.99)})
            elif route == "EQ15":
                x = rng.uniform(-5.0, 60.0)
                points.append({"nu": nu, "x": x, "y": max(x - _log_uniform(rng, 0.1, 40.0), -80.0)})
            elif route == "EQ14":
                points.append({"a": _log_uniform(rng, 0.1, 1000.0), "phi": _log_uniform(rng, 1e-3, 5.0)})
            else:
                x = rng.uniform(-10.0, 75.0)
                points.append({"lam": rng.uniform(-39.0, 0.99), "x": x,
                               "xprime": min(x - _log_uniform(rng, 0.1, 40.0), 56.0)})
        return [(p, ref(route, p)) for p in points + OUTSIDE_DOUBLE_RANGE.get(route, [])]


for _name, _count, _seed, _low in (("sum_rule", 80, 2026, False), ("sum_rule_low_tol", 120, 2027, True)):
    @sweep(_name, _count, sum_rule)
    def _(ref, count=_count, seed=_seed, low=_low):
        """X - Y log-uniform in [0.05, 4], Y uniform in [-1.5, 1.5], s
        log-uniform in [0.25, 20], tol log-uniform in [1e-10, 1e-6]; with
        ``low``, tol in [1e-15, 1e-10] and every other s uniform in (-6, 0),
        between the poles.  Points (X, Y, s, tol)."""
        rng, out = np.random.default_rng(seed), []
        tols = [1e-15, 1e-10] if low else [1e-10, 1e-6]
        for i in range(count):
            d, s, tol = np.exp(rng.uniform(np.log([0.05, 0.25, tols[0]]), np.log([4.0, 20.0, tols[1]])))
            y = rng.uniform(-1.5, 1.5)
            if low and i % 2:
                s = rng.uniform(-6.0, 0.0)
            p = (float(y + d), float(y), float(s))
            out.append(((*p, float(tol)), ref(*p)))
        return out


def _grid(name, reference, *axes):
    """``reference`` at every point of the product of ``axes``."""
    points = list(itertools.product(*axes))
    sweep(name, len(points), reference)(lambda ref: [(p, ref(*p)) for p in points])


EIGENFUNCTION_DEGREES = SCALED_HERMITE_DEGREES = (100, 1000, 2985, 10000)
HERMITE_PAIRS = ((1.3, 0.4), (5.0, -4.9), (0.01, 3.0))
HERMITE_DEGREES = (3, 57, 700, 5000, 65537, 300001, 524287)
PCF_D_ORDERS = (1e-9, 1e-6, 1e-3, 0.03, 0.1, 0.5, 1.0, 1.7, 3.0, 6.5, 12.2209, 20.0)
PCF_D_ARGUMENTS = sorted(float(z) for z in {
    *np.linspace(-53.5, 53.5, 23), *np.linspace(-1.0, 1.0, 9), *np.linspace(2.5, 3.5, 9),
    1e-12, -1e-12, 2.999999, 3.000001})
# points (n, x), (n, x), (nu, z) and ((X, Y), n)
_grid("eigenfunction", eigenfunction, EIGENFUNCTION_DEGREES,
      [*(float(x) for x in np.linspace(-45.0, 45.0, 37)), 40.0])
_grid("scaled_hermite", scaled_hermite, SCALED_HERMITE_DEGREES,
      [float(x) for x in np.linspace(-45.0, 45.0, 19)])
_grid("pcf_d_grid", pcfd, PCF_D_ORDERS, PCF_D_ARGUMENTS)
_grid("hermite_products", lambda pair, n: hermite_product(n, *pair), HERMITE_PAIRS, HERMITE_DEGREES)


def digest(kept):
    """A digest of the points a sweep kept."""
    return hashlib.sha256(repr([p for p, _ in kept]).encode()).hexdigest()[:16]


def _values(row, exact=False):
    """A table row as its references: floats, or with ``exact`` 30-digit
    mpmath numbers; a tuple for a point with several."""
    with mp.workdps(DIGITS):
        kind = mp.mpf if exact else float
        return tuple(map(kind, row)) if isinstance(row, list) else kind(row)


def compute(name):
    """Sweep ``name``'s table entry, from mpmath."""
    rows = []

    def ref(*args):
        value = SWEEPS[name].reference(*args)
        text = [mp.nstr(v, DIGITS, min_fixed=0, max_fixed=1)
                for v in (value if isinstance(value, tuple) else (value,))]
        rows.append(text if len(text) > 1 else text[0])
        return _values(rows[-1])  # as read back, so the table keeps the same points

    return {"inputs": digest(SWEEPS[name].draw(ref)), "values": rows}


@functools.cache
def table():
    return json.loads(TABLE.read_text())


def points(name, exact=False):
    """Sweep ``name`` drawn against the table: the points it keeps, each
    (point, references), the references floats or with ``exact`` 30-digit
    mpmath numbers."""
    rows = iter(table()[name]["values"])
    kept = SWEEPS[name].draw(lambda *args: _values(next(rows), exact))
    if len(kept) != SWEEPS[name].count or next(rows, None) is not None:
        raise ValueError(f"{TABLE.name} holds other draws of {name}; rewrite it")
    return kept


def figures():
    from pcfprod import (GreenQuery, LaplaceParams, ProductQuery, green_ode_oracle, laplace_I,
                         product_via_integral)

    equal, worst, most = points("equal_args"), 0.0, 0
    for (nu, x, a, tol), exact in equal:
        r = (product_via_integral(ProductQuery(nu, x, x), tol) if a is None
             else laplace_I(LaplaceParams(nu, a, a), 1, tol))
        worst, most = max(worst, abs(r.value - exact) / (tol * exact)), max(most, r.evaluations)
    print(f"x = y and a = b, {len(equal)} points: within {worst:.2g} tol of mpmath, "
          f"in at most {most} evaluations")
    oracle = points("green_oracle")
    worst = max(abs(green_ode_oracle(GreenQuery(*p)) / g - 1.0) for p, (g, _) in oracle)
    print(f"green_ode, {len(oracle)} points: worst relative error {worst:.2g}")


def main(argv):
    if argv == ["--figures"]:
        return figures()
    if argv not in ([], ["--check"]):
        sys.exit(f"usage: {sys.argv[0]} [--check | --figures]")
    text = "{\n" + ",\n".join(f"{json.dumps(name)}: {json.dumps(compute(name), separators=(',', ':'))}"
                              for name in SWEEPS) + "\n}\n"
    if not argv:
        TABLE.write_text(text)
    elif text.encode() != TABLE.read_bytes():
        sys.exit(f"{TABLE.name} differs from a fresh run; rewrite it with python tests/mpmath_refs.py")


if __name__ == "__main__":
    main(sys.argv[1:])
