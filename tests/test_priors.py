"""Prior construction, volume elements and normalization."""

import math

import mpmath
import numpy as np
import pytest

from blochpriors import (DEFAULT_TRUNCATION_RADIUS, PRIOR_LABELS, BlochPoint,
                         QuadratureConfig, generator, make_prior,
                         volume_element)
from blochpriors.errors import ImproperPriorError, OutOfSupportError
from blochpriors.priors import boundary_log
from blochpriors.quadrature import _s_rule
from oracles import _BARE, normalization

R10 = DEFAULT_TRUNCATION_RADIUS
GRID = np.linspace(0.05, 0.95, 19)


def _bare(r):
    """r^2 (1-r^2)^(-1/2) (1+r)^(-1), the common factor of every element."""
    return r * r / (math.sqrt(1.0 - r * r) * (1.0 + r))


def test_volume_element_sld():
    f = generator("sld")
    for r in GRID:
        # f_SLD((1-r)/(1+r)) = 1/(1+r), so the element is r^2 (1-r^2)^(-1/2)
        want = r * r / math.sqrt(1.0 - r * r)
        assert volume_element(f, r) == pytest.approx(want, rel=1e-13)
        assert volume_element(f, r) * f((1.0 - r) / (1.0 + r)) \
            == pytest.approx(_bare(r), rel=1e-13)


def test_volume_element_km():
    f = generator("km")
    for r in GRID:
        want = 0.5 * r * boundary_log(r) / math.sqrt(1.0 - r * r)
        assert volume_element(f, r) == pytest.approx(want, rel=1e-12)


def test_volume_element_petz_family():
    for r in GRID:
        omr2 = 1.0 - r * r
        assert volume_element(generator("p0"), r) == pytest.approx(
            r * r * omr2 ** -1.5, rel=1e-12)
        assert volume_element(generator("p1"), r) == pytest.approx(
            0.5 * r * boundary_log(r) / omr2, rel=1e-12)
        assert volume_element(generator("p2"), r) == pytest.approx(
            0.25 * boundary_log(r) ** 2 / math.sqrt(omr2), rel=1e-12)


def test_volume_element_larson_dukes():
    f = generator("ld")
    for r in GRID:
        assert volume_element(f, r) == pytest.approx(r * r / 4.0, rel=1e-13)


@pytest.mark.parametrize("kind", PRIOR_LABELS)
def test_radial_density_is_the_generators_volume_element(kind):
    """Each built-in profile is the volume element of the paper's generator,
    up to the normalization constant."""
    prior, f = make_prior(kind), generator(kind)
    rs = np.linspace(0.01, 0.999, 60)
    ratios = np.array([prior.radial_density(r) / volume_element(f, r)
                       for r in rs])
    np.testing.assert_allclose(ratios, ratios[0], rtol=1e-12)


@pytest.mark.parametrize("kind", PRIOR_LABELS)
def test_log_density_in_s_is_the_radial_density_in_r(kind):
    """The two formulas of g are one density: exp of log(c g) at
    s = L(r) is c g(r), and a rule's nodes in one array give what they give
    one float at a time."""
    p = make_prior(kind)
    radii = [1e-3, 0.3, 0.9, 1.0 - 1e-6]
    if p.support_radius < 1.0:
        radii.append(p.support_radius)
    for r in radii:
        assert math.exp(p.log_radial_density_s(boundary_log(r))) \
            == pytest.approx(p.radial_density(r), rel=1e-13)
    s = _s_rule(p.support_radius, 160)[0]
    one_at_a_time = [p.profile.log_value_s(float(v)) for v in s]
    np.testing.assert_allclose(np.exp(p.profile.log_value_s(s)),
                               np.exp(one_at_a_time), rtol=1e-14)


def test_volume_element_domain():
    with pytest.raises(ValueError):
        volume_element(generator("sld"), 1.0)
    with pytest.raises(ValueError):
        volume_element(generator("sld"), -0.1)
    assert volume_element(generator("sld"), 0.0) == 0.0


def test_normalization_constants():
    assert make_prior("sld").normalization == pytest.approx(
        1.0 / math.pi ** 2, rel=1e-12)
    assert make_prior("km").normalization == pytest.approx(
        1.0 / (4.0 * math.pi ** 2), rel=1e-10)
    assert make_prior("ld").normalization == pytest.approx(
        3.0 / (4.0 * math.pi), rel=1e-12)
    assert make_prior("mc").normalization == pytest.approx(
        0.00513299, rel=1e-6)
    assert make_prior("p0").normalization == pytest.approx(
        1.12542e-6, rel=1e-5)
    assert make_prior("p1").normalization == pytest.approx(
        5.69121e-4, rel=1e-5)
    assert make_prior("p2").normalization == pytest.approx(
        5.13611e-3, rel=1e-5)


def test_improper_priors_rejected_at_unit_radius():
    for kind in ("p0", "p1"):
        with pytest.raises(ImproperPriorError):
            make_prior(kind, R=1.0)
    # p2's profile is integrable over the whole ball
    assert make_prior("p2", R=1.0).normalization > 0


def test_unknown_label_and_bad_radius():
    with pytest.raises(ValueError):
        make_prior("bogus")
    with pytest.raises(ValueError):
        make_prior("sld", R=0.0)
    with pytest.raises(ValueError):
        make_prior("sld", R=1.5)


@pytest.mark.parametrize("kind", PRIOR_LABELS)
def test_prior_integrates_to_one(kind):
    """c g(r) sin(theta) integrates to one exactly when c is 1/(4 pi) over
    the 30-digit mass of g in oracles.py."""
    assert make_prior(kind).normalization == pytest.approx(
        normalization(kind), rel=1e-12)


def _normalization_at(kind, R):
    """c of ``kind`` on the ball of radius R, from a 30-digit integral of
    its bare factor in t = r/R.  Every g vanishes like r^2, so g/R^2 is of
    order one and the quadrature's error criterion holds at any R."""
    with mpmath.workdps(30):
        R = mpmath.mpf(R)

        def g(t):
            r = R * t
            return _BARE[kind](r, 1 - r * r, 2 * mpmath.atanh(r)) / R ** 2

        return float(1 / (4 * mpmath.pi * R ** 3 * mpmath.quad(g, [0, 1])))


@pytest.mark.parametrize("R", [0.6, 0.31, 0.29, 0.1, 1e-2, 1e-4, 1e-6, 1e-8,
                               1e-9, 1e-20])
@pytest.mark.parametrize("kind", PRIOR_LABELS)
def test_normalization_at_small_radius(kind, R):
    """The closed forms of sld and p0 cancel at small R, and the series
    that replaces them there meets the closed form at 0.3 without a
    jump."""
    assert make_prior(kind, R=R).normalization == pytest.approx(
        _normalization_at(kind, R), rel=1e-14)


@pytest.mark.parametrize("kind", PRIOR_LABELS)
def test_radius_too_small_to_normalize(kind):
    """Below R ~ 1e-103 the mass of every prior underflows: a ValueError
    names the radius, where a ZeroDivisionError used to escape."""
    with pytest.raises(ValueError, match="too small"):
        make_prior(kind, R=1e-120)


TIGHT = QuadratureConfig(rel_tol=1e-12, abs_tol=1e-300)


@pytest.mark.parametrize("kind", PRIOR_LABELS)
def test_integrate_is_the_prior_expectation(kind):
    """4 pi p.integrate(h) is E_p[h(r)]: 1 for h = 1, and E_p[z^2], a third
    of E_p[r^2], in closed form for sld, ld and km."""
    p = make_prior(kind, cfg=TIGHT)
    assert 4.0 * math.pi * p.integrate(lambda r, s: 1.0, TIGHT) \
        == pytest.approx(1.0, rel=1e-12)
    var_z = {"sld": 1.0 / 4.0, "ld": 1.0 / 5.0, "km": 5.0 / 18.0}
    if kind in var_z:
        assert 4.0 * math.pi / 3.0 * p.integrate(lambda r, s: r * r, TIGHT) \
            == pytest.approx(var_z[kind], rel=1e-12)


def test_density_conventions_consistent():
    p = make_prior("km")
    pt = BlochPoint.from_spherical(0.7, 1.1, 0.4)
    sph = p.density_at(pt, "spherical")
    cart = p.density_at(pt, "cartesian")
    # joint (r, theta, phi) density = cartesian density * r^2 sin(theta)
    assert sph == pytest.approx(cart * pt.r ** 2 * math.sin(pt.theta),
                                rel=1e-12)
    with pytest.raises(ValueError):
        p.density_at(pt, "weird")


def test_out_of_support():
    p = make_prior("p0")
    with pytest.raises(OutOfSupportError):
        p.radial_density(1.0 - 1e-12)
    with pytest.raises(OutOfSupportError):
        p.density_at(BlochPoint(0.0, 0.0, 1.0))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind", PRIOR_LABELS)
def test_no_density_at_a_point_is_non_finite(kind):
    """At r = 1, and just beyond it within BlochPoint's slack, ld's density
    is finite (c, uniform) and every other prior raises OutOfSupportError,
    in both conventions and with no numpy warning."""
    p = make_prior(kind)
    for z in (1.0, 1.0000000000004):
        pt = BlochPoint(0.0, 0.0, z)
        if kind == "ld":
            assert p.density_at(pt, "cartesian") == p.normalization
            assert p.radial_density(pt.r) == p.normalization * z * z
            continue
        for convention in ("spherical", "cartesian"):
            with pytest.raises(OutOfSupportError):
                p.density_at(pt, convention)
        with pytest.raises(OutOfSupportError):
            p.radial_density(np.array([0.5, z]))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind", PRIOR_LABELS)
def test_log_density_is_minus_inf_at_the_centre(kind):
    """g vanishes like r^2, so log(c g) is -inf at s = 0, for one float and
    inside an array, with no numpy warning."""
    p = make_prior(kind)
    assert p.log_radial_density_s(0.0) == -math.inf
    s = np.array([0.0, 0.5, 0.0, 3.0])
    got = p.log_radial_density_s(s)
    assert got[0] == got[2] == -math.inf
    np.testing.assert_allclose(
        got[[1, 3]], [p.log_radial_density_s(0.5), p.log_radial_density_s(3.0)],
        rtol=1e-14)


def test_radial_ordering_near_boundary():
    sld, km, mc = (make_prior(k) for k in ("sld", "km", "mc"))
    for r in np.linspace(0.985, 0.9995, 9):
        g_mc = mc.radial_density(r)
        g_km = km.radial_density(r)
        g_sld = sld.radial_density(r)
        assert g_mc > g_km > g_sld


def test_bloch_point_geometry():
    pt = BlochPoint.from_spherical(0.8, 0.6, 2.0)
    assert pt.r == pytest.approx(0.8, rel=1e-14)
    assert pt.theta == pytest.approx(0.6, rel=1e-12)
    assert pt.phi == pytest.approx(2.0, rel=1e-12)
    with pytest.raises(ValueError):
        BlochPoint(1.0, 1.0, 1.0)


def test_make_prior_caches():
    assert make_prior("sld") is make_prior("sld")
    assert make_prior("sld") is not make_prior("sld", R=0.9)
