"""Reference values computed without the blochpriors package.

Nothing here imports ``blochpriors``.  Every value comes straight from
the defining densities of the seven priors, with ``mpmath.quad`` at 30
significant digits unless stated otherwise:

* :func:`normalization`: the constant c of c g(r) sin(theta), any prior;
* :func:`record_evidence`: the evidence of any axis-aligned record under
  any prior;
* :func:`direct_divergence`: D(p || Post_q) or D(Post_p || q) from the
  pointwise densities, by 2-D quadrature at 15 digits;
* :func:`truncated_balanced6`: the statistics of the truncated family
  (p0, p1, p2) under the ``balanced6`` record;
* :func:`sphere_mean_record_likelihood` and
  :func:`sphere_mean_record_log_term`: the sphere averages of a record's
  likelihood L (exactly) and of L log((1 +/- s_axis)/2) at a fixed radius.

The radial density of prior k is proportional to its bare factor g_k(r)
on [0, R] (the angular part is uniform), R = 1 for the proper priors and
just below 1 for the truncated ones:

* sld: r^2 (1 - r^2)^(-1/2);
* km: r (1 - r^2)^(-1/2) L;
* mc: (1 - r^2)^(-1/2) L^2;
* ld: r^2;
* p0: r^2 (1 - r^2)^(-3/2);
* p1: r (1 - r^2)^(-1) L;
* p2: (1 - r^2)^(-1/2) L^2,

with L = log((1 + r)/(1 - r)).  Every integral is taken in s = L, where
r = tanh(s/2), 1 - r^2 = sech^2(s/2) and dr = (1 - r^2)/2 ds, which
turns the boundary singularities into smooth growth on [0, S], S = inf
for R = 1.

``balanced6`` is one up and one down outcome along each axis, so the
likelihood of the Bloch vector (x, y, z) is
L6 = (1 - x^2)(1 - y^2)(1 - z^2)/64.  On the sphere of radius r

* its average is (1 - r^2 + r^4/5 - r^6/105)/64, from the moments
  <x^2> = r^2/3, <x^2 y^2> = r^4/15, <x^2 y^2 z^2> = r^6/105;
* the average of log L6 is 3 (<log(1 - x^2)> - 2 log 2), where x = r mu
  with mu uniform on [-1, 1] gives <log(1 - x^2)> = s/r + log(1 - r^2) - 2.

The evidence is Z_q = E_q[L6], and the divergence from the posterior is
D(p || Post(q)) = D(p || q) - E_p[log L6] + log Z_q.
"""

import functools
import math
from fractions import Fraction
from types import MappingProxyType

import mpmath

DPS = 30

# The package truncates at the double nearest to 1 - 1e-10, which lies
# 8.3e-18 below it.  p0's mass piles up at the boundary, so that shift
# moves p0's normalization by 4e-8 and the p1-vs-p0 divergences by 6e-9
# relative; the oracle therefore integrates up to the same double.
TRUNCATION_RADIUS = 1.0 - 1e-10

PROPER = ("sld", "km", "mc", "ld")
TRUNCATED = ("p0", "p1", "p2")

# the two published values the oracle does not reproduce: both are low by
# E_p2[log L6] - E_p1[log L6], as if p1's term had been taken from p2
ERRATA = frozenset({"d.p1.post_p0.balanced6", "d.p1.post_p2.balanced6"})

# bare radial factors g(r), given r, 1 - r^2 and L = s
_BARE = {
    "sld": lambda r, omr2, s: r ** 2 / mpmath.sqrt(omr2),
    "km": lambda r, omr2, s: r * s / mpmath.sqrt(omr2),
    "mc": lambda r, omr2, s: s ** 2 / mpmath.sqrt(omr2),
    "ld": lambda r, omr2, s: r ** 2,
    "p0": lambda r, omr2, s: r ** 2 / omr2 ** 1.5,
    "p1": lambda r, omr2, s: r / omr2 * s,
    "p2": lambda r, omr2, s: s ** 2 / mpmath.sqrt(omr2),
}


def _radial(s):
    """(r, 1 - r^2) at s = log((1 + r)/(1 - r))."""
    return mpmath.tanh(s / 2), mpmath.sech(s / 2) ** 2


def _s_nodes(kind):
    """Breakpoints in s of the prior's support: [0, inf) for the proper
    priors (R = 1), [0, S] at the truncation radius for the others.  They
    keep each tanh-sinh panel smooth and of modest range."""
    if kind in PROPER:
        return [0, 1, 4, 12, 40, mpmath.inf]
    R = mpmath.mpf(TRUNCATION_RADIUS)
    return [0, 1, 4, 12, mpmath.log((1 + R) / (1 - R))]


def _integrate(f, kind):
    """Integral over the support of ``kind`` of f(s, r, 1 - r^2), an
    integrand in r; dr = (1 - r^2)/2 ds is supplied here.  Raises
    ``ArithmeticError`` when the quadrature's own error estimate exceeds
    1e-20 relative."""
    def g(s):
        r, omr2 = _radial(s)
        return f(s, r, omr2) * omr2 / 2
    value, err = mpmath.quad(g, _s_nodes(kind), error=True)
    if not err <= 1e-20 * abs(value):
        raise ArithmeticError(f"oracle quadrature error {err} on {value}")
    return value


@functools.lru_cache(maxsize=None)
def _mass(kind):
    """Integral of the bare factor g_k over [0, R], an mpf."""
    with mpmath.workdps(DPS):
        return _integrate(lambda s, r, omr2: _BARE[kind](r, omr2, s), kind)


def normalization(kind):
    """The constant c = 1/(4 pi mass) of c g(r) sin(theta), as a float."""
    with mpmath.workdps(DPS):
        return float(1 / (4 * mpmath.pi * _mass(kind)))


def radial_density(kind, r):
    """c g(r) of ``kind`` at the double r, as a float."""
    with mpmath.workdps(DPS):
        r = mpmath.mpf(r)
        g = _BARE[kind](r, 1 - r * r, mpmath.log((1 + r) / (1 - r)))
        return float(g / (4 * mpmath.pi * _mass(kind)))


def sphere_mean_likelihood(r):
    """Average of the balanced6 likelihood over the sphere of radius r."""
    r2 = r * r
    return (1 - r2 + r2 ** 2 / 5 - r2 ** 3 / 105) / 64


def sphere_mean_log_likelihood(s):
    """Average of log L6 over the sphere of radius r = tanh(s/2)."""
    r, omr2 = _radial(s)
    return 3 * (s / r + mpmath.log(omr2) - 2 - 2 * mpmath.log(2))


@functools.lru_cache(maxsize=None)
def truncated_balanced6():
    """Statistics of p0, p1, p2 on the truncated ball, keyed like the
    reproduction table: ``norm.<p>`` (the constant c of c g(r) sin(theta)),
    ``z.<p>.balanced6`` (1/Z), ``d.<p>.<q>``, ``d.<p>.post_<q>.balanced6``,
    plus ``e_log_l.<p>.balanced6`` for E_p[log L6].  The mapping is
    read-only and shared by every caller; its values are floats."""
    with mpmath.workdps(DPS):
        # every truncated prior has the same support, hence the same nodes
        def integrate(f):
            return _integrate(f, "p0")

        def density(k, s, r, omr2):
            return _BARE[k](r, omr2, s) / _mass(k)

        out = {}
        evidence, e_log_l = {}, {}
        for p in TRUNCATED:
            out[f"norm.{p}"] = 1 / (4 * mpmath.pi * _mass(p))
            evidence[p] = integrate(lambda s, r, omr2, p=p: density(
                p, s, r, omr2) * sphere_mean_likelihood(r))
            e_log_l[p] = integrate(lambda s, r, omr2, p=p: density(
                p, s, r, omr2) * sphere_mean_log_likelihood(s))
            out[f"z.{p}.balanced6"] = 1 / evidence[p]
            out[f"e_log_l.{p}.balanced6"] = e_log_l[p]
        for p in TRUNCATED:
            for q in TRUNCATED:
                if p == q:
                    continue

                def kl(s, r, omr2, p=p, q=q):
                    dp = density(p, s, r, omr2)
                    return dp * mpmath.log(dp / density(q, s, r, omr2))

                d = integrate(kl)
                out[f"d.{p}.{q}"] = d
                out[f"d.{p}.post_{q}.balanced6"] = (
                    d - e_log_l[p] + mpmath.log(evidence[q]))
        return MappingProxyType({key: float(value)
                                 for key, value in out.items()})


# --- any axis-aligned record -------------------------------------------------
#
# A record maps (axis, sign) to a count, axis in "XYZ" and sign in "+-".  Its
# likelihood at the Bloch vector v is the product over outcomes of
# ((1 +/- v_axis)/2)^n, a polynomial in (x, y, z) with rational
# coefficients.  Monomials average over the unit sphere and the unit circle
# to exact rationals (G. B. Folland, Amer. Math. Monthly 108 (2001) 446):
#
#   <x^a y^b z^c>_sphere = (a-1)!! (b-1)!! (c-1)!! / (a+b+c+1)!!,
#   <cos^a sin^b>_circle = (a-1)!! (b-1)!! / (a+b)!!,
#
# for even a, b, c, and 0 otherwise.


def _double_factorial(k):
    """k!! for k >= -1, with 0!! = (-1)!! = 1."""
    return math.prod(range(k, 0, -2))


def _axis_polynomial(counts, axis):
    """Integer coefficients, lowest power first, of (1 + v)^n+ (1 - v)^n-
    for the counts along ``axis``, and the total n+ + n-."""
    plus, minus = counts.get((axis, "+"), 0), counts.get((axis, "-"), 0)
    out = [0] * (plus + minus + 1)
    for i in range(plus + 1):
        for j in range(minus + 1):
            out[i + j] += math.comb(plus, i) * (-1) ** j * math.comb(minus, j)
    return out, plus + minus


@functools.lru_cache(maxsize=None)
def _likelihood_polynomial(items):
    """The sphere average of the record's likelihood at radius r, as exact
    coefficients {d: c_d} of r^d (d even), and the record total."""
    counts = dict(items)
    (cx, nx), (cy, ny), (cz, nz) = (_axis_polynomial(counts, axis)
                                    for axis in "XYZ")
    # integer sums over the monomials of each even total degree d
    by_degree = {}
    for a in range(0, len(cx), 2):
        for b in range(0, len(cy), 2):
            for c in range(0, len(cz), 2):
                by_degree[a + b + c] = by_degree.get(a + b + c, 0) + (
                    cx[a] * cy[b] * cz[c] * _double_factorial(a - 1)
                    * _double_factorial(b - 1) * _double_factorial(c - 1))
    n = nx + ny + nz
    return {d: Fraction(total, _double_factorial(d + 1) * 2 ** n)
            for d, total in by_degree.items()}, n


def sphere_mean_record_likelihood(counts, r):
    """Exact average of the record's likelihood over the sphere of radius
    r, a Fraction; r is taken as the exact value of the given double."""
    poly, _ = _likelihood_polynomial(tuple(sorted(counts.items())))
    r = Fraction(r)
    return sum(c * r ** d for d, c in poly.items())


@functools.lru_cache(maxsize=None)
def _evidence(kind, items):
    """E_k[L] at the default radius of ``kind``, an mpf.

    At each radius the sphere average of L is the exact polynomial of
    :func:`_likelihood_polynomial`.  Its terms cancel, as in
    :func:`sphere_mean_record_log_term`, so the whole integrand, r
    included, is evaluated with N + 10 guard digits for a record total N:
    an r good to DPS digits alone leaves the sum too noisy for the
    quadrature's error check from N ~ 36 on.
    """
    poly, n = _likelihood_polynomial(items)
    with mpmath.workdps(DPS + n + 10):
        # the coefficients in r^2, highest power first, for Horner's rule
        coeffs = [poly.get(d, 0) for d in range(2 * (n // 2), -1, -2)]
        coeffs = [mpmath.mpf(c.numerator) / c.denominator for c in coeffs]
        return _integrate(lambda s, r, omr2: _BARE[kind](r, omr2, s)
                          * mpmath.polyval(coeffs, r * r),
                          kind) / _mass(kind)


def record_evidence(kind, counts):
    """Evidence E_k[L] of an axis-aligned record under prior ``kind`` at its
    default radius, as a float."""
    return float(_evidence(kind, tuple(sorted(counts.items()))))


def _ring_polynomial(counts):
    """Coefficients e_j, as Fractions, of the circle average of the X and Y
    factors at in-plane radius rho: sum over j of e_j rho^(2j)."""
    (cx, nx), (cy, ny) = (_axis_polynomial(counts, axis) for axis in "XY")
    sums = [0] * ((len(cx) + 1) // 2 + (len(cy) + 1) // 2)
    for a in range(0, len(cx), 2):
        for b in range(0, len(cy), 2):
            sums[(a + b) // 2] += (cx[a] * cy[b] * _double_factorial(a - 1)
                                   * _double_factorial(b - 1))
    return [Fraction(total, _double_factorial(2 * j) * 2 ** (nx + ny))
            for j, total in enumerate(sums)]


def sphere_mean_record_log_term(counts, r, axis, sign):
    """Average over the sphere of radius r of L log((1 +/- v_axis)/2), with
    L the record's likelihood and +/- given by ``sign``; an mpf, good to
    DPS digits.

    ``axis`` is exchanged with Z, which is a rotation.  The circle average
    of the X and Y factors is then the exact polynomial of
    :func:`_ring_polynomial` in rho^2 = r^2 (1 - mu^2).  Its terms cancel:
    their absolute values sum to at most 1, while on phi in [37, 53] degrees
    every factor is at least 1/10, so the average exceeds 10^-(N_xy + 2)
    for an X and Y count N_xy; it is evaluated with N_xy + 10 guard digits.
    The mu integral, with its log endpoint, goes to ``mpmath.quad``.  That
    routine stops on an absolute error, so the integrand is first divided by
    the exact likelihood average.  Raises ``ArithmeticError`` when the
    quadrature's own error estimate exceeds 1e-20 relative.
    """
    swap = {axis: "Z", "Z": axis}
    aligned = {(swap.get(a, a), s): n for (a, s), n in counts.items()}
    polar = [(s, n) for (a, s), n in aligned.items() if a == "Z"]
    n_xy = sum(n for (a, _), n in aligned.items() if a != "Z")
    scale = sphere_mean_record_likelihood(counts, r)
    guarded = DPS + n_xy + 10
    with mpmath.workdps(guarded):
        ring = [mpmath.mpf(e.numerator) / e.denominator
                for e in reversed(_ring_polynomial(aligned))]
    with mpmath.workdps(DPS):
        r = mpmath.mpf(r)
        scale = mpmath.mpf(scale.numerator) / scale.denominator

        def factor(mu, s):
            return (1 + r * mu) / 2 if s == "+" else (1 - r * mu) / 2

        def f(mu):
            with mpmath.workdps(guarded):
                value = mpmath.polyval(ring, r * r * (1 - mu) * (1 + mu))
            for s, n in polar:
                value *= factor(mu, s) ** n
            return value * mpmath.log(factor(mu, sign)) / scale

        value, err = mpmath.quad(f, [-1, 0, 1], error=True)
        if not err <= 1e-20 * abs(value):
            raise ArithmeticError(f"oracle quadrature error {err} on {value}")
        return value * scale / 2


def direct_divergence(p, q, counts, posterior_first=False):
    """D(P || Q) straight from the pointwise definition of the densities, by
    a 2-D ``mpmath.quad`` over (s, mu) at 15 digits; a float.

    With ``posterior_first`` false, P is prior ``p`` and Q is the posterior
    of prior ``q`` under the record; with it true, P is the posterior of
    ``p`` and Q is prior ``q``.  Both priors are taken at their default
    radius, which must be the same.  The record may only hold Z outcomes,
    so that neither density depends on phi.  A posterior is prior * L / Z
    with Z from :func:`_evidence`.  Raises ``ArithmeticError`` when the
    quadrature's own error estimate exceeds 1e-12 relative.
    """
    if _s_nodes(p) != _s_nodes(q):
        raise ValueError(f"{p} and {q} have different supports")
    if any(axis != "Z" for axis, _ in counts):
        raise ValueError("only Z outcomes keep the integrand free of phi")
    items = tuple(sorted(counts.items()))
    with mpmath.workdps(15):
        z = _evidence(p if posterior_first else q, items)
        c_p, c_q = (1 / (4 * mpmath.pi * _mass(k)) for k in (p, q))

        @functools.lru_cache(maxsize=None)
        def radial(s):
            # r, and the two priors' densities in (r, mu) per ds: 2 pi c g(r)
            # times dr/ds = (1 - r^2)/2
            r, omr2 = _radial(s)
            return (r, mpmath.pi * c_p * _BARE[p](r, omr2, s) * omr2,
                    mpmath.pi * c_q * _BARE[q](r, omr2, s) * omr2)

        def f(s, mu):
            r, dens_p, dens_q = radial(s)
            lik = mpmath.fprod((1 + r * mu) / 2 if sign == "+"
                               else (1 - r * mu) / 2 for (_, sign), n in items
                               for _ in range(n))
            if posterior_first:
                dens_p = dens_p * lik / z
            else:
                dens_q = dens_q * lik / z
            return dens_p * mpmath.log(dens_p / dens_q)

        value, err = mpmath.quad(f, _s_nodes(p), [-1, 0, 1], error=True)
        if not err <= 1e-12 * abs(value):
            raise ArithmeticError(f"oracle quadrature error {err} on {value}")
        return float(value)
