"""Generate ``refs.json``: 30-digit values of the benchmark's frozen points.

Every value comes from mpmath's own special functions (pcfd, erfc,
besselk, gamma), never from pcfprod, so a change that breaks both
routes of an identity through a shared engine still misses these
values.  The hyperbolic closed forms are cross-checked against mpmath
quadrature of the left sides before anything is written.

    python3 bench/make_refs.py      # rewrites bench/refs.json

mpmath ships with the test extra of pcfprod.
"""

from __future__ import annotations

import json
from pathlib import Path

import mpmath as mp

mp.mp.dps = 40
DIGITS = 30

# (kind, params, tol): corners and interior points of each stream's domain
QUAD_POINTS = [
    ("EQ10", {"nu": 0.06, "x": 2.0, "y": 1.0}, 1e-8),
    ("EQ10", {"nu": 0.5, "x": 1.02, "y": 1.0}, 1e-12),
    ("EQ10", {"nu": 1.9, "x": 3.0, "y": 2.98}, 1e-10),
    ("EQ10", {"nu": 7.5, "x": 4.0, "y": 0.3}, 1e-9),
    ("EQ10", {"nu": 20.0, "x": 30.5, "y": 30.0}, 1e-8),
    ("EQ11", {"nu": 0.3, "a": 1.05125, "b": 1.05}, 1e-10),
    ("EQ11", {"nu": 12.0, "a": 6.25, "b": 1.75}, 1e-12),
    ("EQ12", {"nu": 1.0, "a": 2.5, "b": 2.0}, 1e-9),
    ("EQ12", {"nu": 0.08, "a": 1.05125, "b": 1.05}, 1e-8),
    ("EQ13A", {"alpha": 4.0, "phi": 3.0}, 1e-8),
    ("EQ13A", {"alpha": 0.2, "phi": 0.05}, 1e-12),
    ("EQ13B", {"alpha": 4.0, "phi": 3.0}, 1e-8),
    ("EQ13B", {"alpha": 0.5, "phi": 0.2}, 1e-10),
    ("EQ14", {"a": 0.2, "phi": 0.05}, 1e-8),
    ("EQ14", {"a": 4.0, "phi": 3.0}, 1e-12),
    ("GREEN_ODE", {"lam": -4.0, "x": 1.0, "xprime": 0.0}, 1e-6),
    ("GREEN_ODE", {"lam": 0.85, "x": 5.5, "xprime": -5.0}, 1e-6),
]

SERIES_POINTS = [
    ("SERIES_I", {"nu": 1.0, "X": 1.3, "Y": 1.0}, 1e-8),
    ("SERIES_I", {"nu": 0.3, "X": 2.6, "Y": 0.1}, 1e-8),
    ("SUM_RULE", {"nu": 1.0, "x": 2.0, "y": 1.0}, 5e-7),
    ("SUM_RULE", {"nu": 3.0, "x": 1.5, "y": -1.2}, 5e-7),
    ("GREEN_SPECTRAL", {"lam": -1.0, "x": 1.0, "xprime": 0.0}, 1e-6),
    ("GREEN_SPECTRAL", {"lam": 0.5, "x": 1.4, "xprime": 1.15}, 1e-6),
    ("MEHLER", {"X": 1.5, "Y": -1.0, "u": 0.8}, 1e-9),
    ("MEHLER", {"X": -2.5, "Y": 2.0, "u": -0.9}, 1e-9),
]


def _mpf(v):
    return mp.mpf(repr(v))  # the exact double the benchmark passes


def _product(nu, x, y):
    return mp.pcfd(-nu, x) * mp.pcfd(-nu, -y)


def _laplace(nu, a, b, sign):
    disc = mp.sqrt((a - b) * (a + b))
    x = mp.sqrt(a + disc)
    y = b / x
    return 2 * mp.exp(a / 2) * mp.gamma(nu) * mp.pcfd(-nu, x) * mp.pcfd(-nu, -sign * y)


def _green(lam, x, xp):
    order = (lam - 1) / 2
    rt2 = mp.sqrt(2)
    return (mp.gamma((1 - lam) / 2) / (2 * mp.sqrt(mp.pi))
            * mp.pcfd(order, x * rt2) * mp.pcfd(order, -xp * rt2))


def _cutoff(exponent):
    """A t (by doubling) where the damping exponent passes 120, e^-120 < 1e-52."""
    t = mp.mpf(1)
    while exponent(t) < 120:
        t *= 2
    return t


def _hyperbolic(kind, p):
    phi = _mpf(p["phi"])
    ch, sh = mp.cosh(phi / 2), mp.sinh(phi / 2)
    if kind == "EQ14":
        a = _mpf(p["a"])
        closed = (mp.sqrt(a * mp.sinh(phi) / mp.pi)
                  * mp.besselk(0.25, a * ch * ch) * mp.besselk(0.25, a * sh * sh))
        f = lambda t: mp.exp(-a * mp.cosh(t + phi)) / mp.sqrt(mp.sinh(t))  # noqa: E731
        # t = s^2 removes the t^{-1/2} endpoint singularity of the first panel
        lhs = (mp.quad(lambda s: 2 * s * f(s * s), [0, 1])
               + mp.quad(f, [1, _cutoff(lambda t: a * mp.cosh(t + phi))]))
        return closed, lhs
    al = _mpf(p["alpha"])
    expo = lambda t: al * al * mp.sinh(t) * mp.sinh(t + phi)  # noqa: E731
    cut = _cutoff(expo)
    if kind == "EQ13A":
        closed = (mp.pi / 2 * mp.exp(al * al * mp.cosh(phi))
                  * mp.erfc(al * sh) * mp.erfc(al * ch))
        lhs = mp.quad(lambda t: mp.exp(-expo(t)) / mp.cosh(t), [0, 1, cut])
    else:
        closed = (mp.sqrt(mp.pi) / (2 * al)
                  * (mp.exp(al * al * ch * ch) * ch * mp.erfc(al * ch)
                     - mp.exp(al * al * sh * sh) * sh * mp.erfc(al * sh)))
        lhs = mp.quad(lambda t: mp.sinh(t) * mp.exp(-expo(t)), [0, 1, cut])
    return closed, lhs


def reference(kind: str, params: dict):
    p = {k: _mpf(v) for k, v in params.items()}
    if kind == "EQ10":
        return _product(p["nu"], p["x"], p["y"])
    if kind in ("EQ11", "EQ12"):
        return _laplace(p["nu"], p["a"], p["b"], 1 if kind == "EQ11" else -1)
    if kind in ("EQ13A", "EQ13B", "EQ14"):
        closed, lhs = _hyperbolic(kind, params)
        if abs(closed - lhs) > mp.mpf(10) ** -DIGITS * abs(closed):
            raise SystemExit(f"{kind} {params}: closed form and quadrature disagree")
        return closed
    if kind in ("GREEN_ODE", "GREEN_SPECTRAL"):
        return _green(p["lam"], p["x"], p["xprime"])
    if kind == "SERIES_I":
        X, Y, nu = p["X"], p["Y"], p["nu"]
        rt2 = mp.sqrt(2)
        return (2 * mp.exp((X * X + Y * Y) / 2) * mp.gamma(2 * nu)
                * mp.pcfd(-2 * nu, rt2 * X) * mp.pcfd(-2 * nu, -rt2 * Y))
    if kind == "SUM_RULE":
        return mp.gamma(p["nu"]) * _product(p["nu"], p["x"], p["y"])
    if kind == "MEHLER":
        X, Y, u = p["X"], p["Y"], p["u"]
        return mp.exp((2 * X * Y * u - (X * X + Y * Y) * u * u) / (1 - u * u))
    raise ValueError(kind)


def main() -> None:
    doc = {}
    for workload, points in (("quad_points", QUAD_POINTS), ("series_points", SERIES_POINTS)):
        doc[workload] = [
            {"kind": kind, "params": params, "tol": tol,
             "ref": mp.nstr(reference(kind, params), DIGITS, min_fixed=1, max_fixed=0)}
            for kind, params, tol in points
        ]
    out = Path(__file__).with_name("refs.json")
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {sum(len(v) for v in doc.values())} references to {out.name}")


if __name__ == "__main__":
    main()
