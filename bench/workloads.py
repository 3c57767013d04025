"""Seeded input streams and the identity checks the benchmark times.

A *point* is one identity checked at one parameter point: both routes
are evaluated and timed together, then judged against the identity's
tolerance the way ``pcfprod.report.make_record`` judges it (relative
error, absolute error when the right side is essentially zero, or the
mixed rule of the Mehler kernel).

A run's points form a fixed-composition set of blocks: every block
holds the same number of points of each kind, in a seeded order, so the
mix of a run does not drift with the seed.  Apart from that set, each
run checks every *frozen* point of its workload from ``refs.json``:
fixed parameter points whose 30-digit values were computed with mpmath
by ``make_refs.py``.  Both routes must match that value too, which
catches a change that breaks both routes the same way through a shared
engine.

The timed sets stay inside the region where every check passes at the
baseline commit, so that a run's failure count is 0 and any failure is
a regression.  The program's known defects at the edges of the
documented domain are checked apart, as the fixed points of
``KNOWN_DEFECTS``, and counted by the traced run.

The program only ever receives the generated parameters; everything
else here is the benchmark's own bookkeeping.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

from pcfprod import glasser, green, hyperbolic, mehler, specfun

REFS_PATH = Path(__file__).with_name("refs.json")

# make_record's switch to absolute error for an essentially-zero right side
_ABS_SWITCH = 1e-280
_REL_FLOOR = 1e-300

# tolerance floors the hyperbolic functions apply to their own records
# (hyperbolic.py: max(tol, 1e-8) for 13a/13b, max(tol, 1e-7) for 14)
_HYPERBOLIC_FLOOR = {"EQ13A": 1e-8, "EQ13B": 1e-8, "EQ14": 1e-7}

QUAD_TOLS = (1e-8, 1e-9, 1e-10, 1e-11, 1e-12)
SERIES_TOL = {"SERIES_I": 1e-8, "SUM_RULE": 5e-7, "GREEN_SPECTRAL": 1e-6, "MEHLER": 1e-9}
GREEN_ODE_TOL = 1e-6

# kinds per block
QUAD_BLOCK = {"EQ10": 15, "EQ11": 7, "EQ12": 7, "EQ13A": 6, "EQ13B": 6, "EQ14": 8,
              "GREEN_ODE": 1}
SERIES_BLOCK = {"SERIES_I": 3, "SUM_RULE": 3, "GREEN_SPECTRAL": 3, "MEHLER": 1}

# X - Y of the Hermite series arguments, drawn log-uniform over this range
SERIES_SEP = (0.15, 2.5)


def _clamp_quad_tol(tol: float) -> float:
    return min(max(tol, 1e-14), 1e-2)


@dataclass(frozen=True)
class Point:
    kind: str
    params: dict
    tol: float
    ref: float | None = None  # frozen 30-digit value, when this is a frozen point


@dataclass
class Outcome:
    seconds: float
    err_over_tol: float | None = None  # None when the point raised
    failure: str | None = None  # exception name, "ToleranceMiss" or "ReferenceMiss"


# ---------------------------------------------------------------- routes
# Each route function returns (lhs, rhs, tol, mode) for one point.

def _eq10(p, tol):
    q = glasser.ProductQuery(p["nu"], p["x"], p["y"])
    lhs = glasser.product_via_integral(q, _clamp_quad_tol(tol * 0.1)).value
    return lhs, glasser.product_reference(q), tol, "relative"


def _laplace(sign):
    def run(p, tol):
        lp = glasser.LaplaceParams(p["nu"], p["a"], p["b"])
        lhs = glasser.laplace_I(lp, sign, _clamp_quad_tol(tol * 0.1)).value
        q = glasser.xy_from_params(lp)
        y_arg = -q.y if sign == 1 else q.y
        rhs = (2.0 * math.exp(0.5 * p["a"]) * specfun.gamma(p["nu"])
               * specfun.pcf_d(-p["nu"], q.x) * specfun.pcf_d(-p["nu"], y_arg))
        return lhs, rhs, tol, "relative"
    return run


def _hyperbolic(kind):
    def run(p, tol):
        if kind == "EQ14":
            rec = hyperbolic.k_identity_14(hyperbolic.HyperbolicQuery(a=p["a"], phi=p["phi"]), tol)
        else:
            fn = hyperbolic.erfc_identity_13a if kind == "EQ13A" else hyperbolic.erfc_identity_13b
            rec = fn(hyperbolic.HyperbolicQuery(alpha=p["alpha"], phi=p["phi"]), tol)
        return rec.lhs, rec.rhs, max(tol, _HYPERBOLIC_FLOOR[kind]), "relative"
    return run


def _green_ode(p, tol):
    q = green.GreenQuery(p["lam"], p["x"], p["xprime"])
    return green.green_ode_oracle(q), green.green_closed(q), tol, "relative"


def _series_i(p, tol):
    nu, X, Y = p["nu"], p["X"], p["Y"]
    lhs = mehler.series_for_I(nu, X, Y, tol).value
    lp = glasser.LaplaceParams(2.0 * nu, X * X + Y * Y, 2.0 * X * Y)
    rhs = glasser.laplace_I(lp, 1, _clamp_quad_tol(tol * 1e-3)).value
    return lhs, rhs, tol, "relative"


def _sum_rule(p, tol):
    lhs = mehler.sum_rule_lhs(mehler.SumRuleQuery(p["nu"], p["x"], p["y"]), tol * 0.5).value
    rhs = specfun.gamma(p["nu"]) * glasser.product_reference(
        glasser.ProductQuery(p["nu"], p["x"], p["y"]))
    return lhs, rhs, tol, "relative"


def _green_spectral(p, tol):
    q = green.GreenQuery(p["lam"], p["x"], p["xprime"])
    return green.green_spectral(q, tol * 0.5).value, green.green_closed(q), tol, "relative"


def _mehler(p, tol):
    mp = mehler.MehlerPoint(p["X"], p["Y"], p["u"])
    lhs = mehler.mehler_kernel_series(mp, tol * 0.1).value
    return lhs, mehler.mehler_kernel_closed(mp), tol, "mixed"


ROUTES = {
    "EQ10": _eq10,
    "EQ11": _laplace(1),
    "EQ12": _laplace(-1),
    "EQ13A": _hyperbolic("EQ13A"),
    "EQ13B": _hyperbolic("EQ13B"),
    "EQ14": _hyperbolic("EQ14"),
    "GREEN_ODE": _green_ode,
    "SERIES_I": _series_i,
    "SUM_RULE": _sum_rule,
    "GREEN_SPECTRAL": _green_spectral,
    "MEHLER": _mehler,
}


def err_over_tol(a: float, b: float, tol: float, mode: str) -> float:
    """Error of ``a`` against ``b`` over ``tol``, by make_record's rule."""
    abs_err = abs(a - b)
    if mode == "mixed":
        return abs_err / (tol * (1.0 + max(abs(a), abs(b))))
    if abs(b) < _ABS_SWITCH:
        return abs_err / tol
    return abs_err / max(abs(a), abs(b), _REL_FLOOR) / tol


def run_point(pt: Point, clock) -> Outcome:
    """Evaluate both routes of ``pt`` (timed), then judge them (untimed).

    Every exception the program raises is caught and named; a point
    never aborts the run.
    """
    t0 = clock()
    try:
        lhs, rhs, tol, mode = ROUTES[pt.kind](pt.params, pt.tol)
    except Exception as exc:  # the benchmark must outlive any program failure
        return Outcome(clock() - t0, failure=type(exc).__name__)
    seconds = clock() - t0
    if not (math.isfinite(lhs) and math.isfinite(rhs)):
        return Outcome(seconds, failure="NonFinite")
    worst = err_over_tol(lhs, rhs, tol, mode)
    if pt.ref is not None:
        ref_worst = max(err_over_tol(lhs, pt.ref, tol, mode), err_over_tol(rhs, pt.ref, tol, mode))
        if ref_worst > 1.0:
            return Outcome(seconds, max(worst, ref_worst), "ReferenceMiss")
        worst = max(worst, ref_worst)
    return Outcome(seconds, worst, "ToleranceMiss" if worst > 1.0 else None)


# ------------------------------------------------------------ generators
# A point set is a Latin-hypercube design per kind: with n points of a
# kind, every coordinate of u in [0, 1)^4 is cut into n strata and each
# point gets one stratum per coordinate, at a seeded position inside it.
# So every set covers the whole range of every parameter (series costs
# come in window-doubling steps and vary 100-fold with X - Y), and its
# cost mix changes little with the seed, which only pairs the strata.

_DIM = 4


def _design(n: int, rng: random.Random) -> list[list[float]]:
    """n points in [0, 1)^_DIM, one per stratum in every coordinate."""
    cols = [[(k + rng.random()) / n for k in rng.sample(range(n), n)] for _ in range(_DIM)]
    return [[col[j] for col in cols] for j in range(n)]


def _log_scale(u: float, lo: float, hi: float) -> float:
    return lo * (hi / lo) ** u


# the smallest order the timed sets draw: below about 0.065 pcf_d
# overflows (see KNOWN_DEFECTS)
NU_MIN = 0.1


def _product_args(u):
    """(nu, x, y) with nu in [NU_MIN, 20], x > y > 0 and y <= 4.

    Half the orders are below 2, where the integrand is singular at the
    origin.  The separation x - y reaches a few hundredths, where the
    tail decays slowly.  Larger y (pcf_d overflows near z = -38, and
    EQ10 misses 1e-11 and 1e-12 from y of about 14) and smaller nu are
    left to KNOWN_DEFECTS.
    """
    nu = NU_MIN + (2.0 - NU_MIN) * 2.0 * u[0] if u[0] < 0.5 else 2.0 + 36.0 * (u[0] - 0.5)
    y = 0.05 + 3.95 * u[1]
    return nu, y + _log_scale(u[2], 0.02, 3.0), y


def _quad_params(kind: str, u) -> dict:
    if kind == "EQ10":
        nu, x, y = _product_args(u)
        return {"nu": nu, "x": x, "y": y}
    if kind in ("EQ11", "EQ12"):
        # a = (x^2+y^2)/2, b = x y keeps a > b > 0 and the value in range
        nu, x, y = _product_args(u)
        return {"nu": nu, "a": 0.5 * (x * x + y * y), "b": x * y}
    if kind in ("EQ13A", "EQ13B"):
        return {"alpha": _log_scale(u[0], 0.2, 4.0), "phi": _log_scale(u[1], 0.05, 3.0)}
    if kind == "EQ14":
        return {"a": _log_scale(u[0], 0.2, 4.0), "phi": _log_scale(u[1], 0.05, 3.0)}
    # GREEN_ODE: lambda < 1 and 0.1 away from it (oracle guard), |x|, |x'| <= 6, x > x'
    xprime = -5.5 + 10.5 * u[1]
    return {"lam": -4.0 + 4.85 * u[0], "x": min(xprime + 0.1 + 2.9 * u[2], 6.0),
            "xprime": xprime}


def _series_params(kind: str, u) -> dict:
    sep = _log_scale(u[0], *SERIES_SEP)
    if kind == "SERIES_I":
        Y = 0.05 + 1.95 * u[1]
        return {"nu": max(4.0 * u[2], 1e-6), "X": Y + sep, "Y": Y}
    if kind == "SUM_RULE":
        # Hermite arguments are x/sqrt2, y/sqrt2
        Y = -1.5 + 3.5 * u[1]
        rt2 = math.sqrt(2.0)
        return {"nu": max(4.0 * u[2], 1e-6), "x": rt2 * (Y + sep), "y": rt2 * Y}
    if kind == "GREEN_SPECTRAL":
        Y = -1.5 + 3.5 * u[1]
        return {"lam": -4.0 + 4.5 * u[2], "x": Y + sep, "xprime": Y}
    return {"X": -3.0 + 6.0 * u[0], "Y": -3.0 + 6.0 * u[1], "u": -0.9 + 1.8 * u[2]}


def load_refs(workload: str) -> list[Point]:
    doc = json.loads(REFS_PATH.read_text())
    return [Point(r["kind"], r["params"], r["tol"], float(r["ref"])) for r in doc[workload]]


def point_set(workload: str, seed: int, blocks: int) -> list[list[Point]]:
    """``blocks`` blocks of ``workload``'s points for ``seed``.

    The design of each kind spans the whole set, so the set covers every
    parameter range in ``blocks`` times finer strata than one block; the
    points are then dealt into blocks of the declared composition."""
    rng = random.Random(seed)
    mix = QUAD_BLOCK if workload == "quad_points" else SERIES_BLOCK
    by_kind = {}
    for kind, n in mix.items():
        pts = []
        for u in _design(n * blocks, rng):
            if workload == "quad_points":
                tol = (GREEN_ODE_TOL if kind == "GREEN_ODE"
                       else QUAD_TOLS[int(u[3] * len(QUAD_TOLS))])
                pts.append(Point(kind, _quad_params(kind, u), tol))
            else:
                pts.append(Point(kind, _series_params(kind, u), SERIES_TOL[kind]))
        by_kind[kind] = pts
    out = []
    for b in range(blocks):
        block = [p for kind, n in mix.items() for p in by_kind[kind][b * n:(b + 1) * n]]
        rng.shuffle(block)
        out.append(block)
    return out


# Fixed points where the program fails at the baseline commit, one per
# known defect; the traced run checks them and reports how many still fail.
KNOWN_DEFECTS = {
    "pcf_d_overflow_small_nu": Point("EQ11", {"nu": 0.03, "a": 2.5, "b": 2.0}, 1e-8),
    "pcf_d_overflow_large_y": Point("EQ10", {"nu": 1.0, "x": 41.0, "y": 40.0}, 1e-8),
    "eq10_tolerance_large_y": Point("EQ10", {"nu": 0.9985, "x": 26.145, "y": 26.0815}, 1e-12),
    "pcf_d_convergence_large_nu_y": Point("EQ10", {"nu": 12.2209, "x": 37.2738, "y": 37.1479},
                                          1e-10),
    "series_stall_near_diagonal": Point("SERIES_I", {"nu": 1.0, "X": 1.2, "Y": 1.0}, 1e-8),
}
