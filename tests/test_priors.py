"""Prior construction, volume elements and normalization."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blochpriors import (DEFAULT_TRUNCATION_RADIUS, PRIOR_LABELS, BlochPoint,
                         QuadratureConfig, density_matrix, integrate_ball,
                         kubo_mori_function, larson_dukes_generator,
                         make_prior, petz_function, sld_function,
                         volume_element)
from blochpriors.errors import ImproperPriorError, OutOfSupportError
from blochpriors.priors import boundary_log

R10 = DEFAULT_TRUNCATION_RADIUS
GRID = np.linspace(0.05, 0.95, 19)


def _bare(r):
    """r^2 (1-r^2)^(-1/2) (1+r)^(-1), the common factor of every element."""
    return r * r / (math.sqrt(1.0 - r * r) * (1.0 + r))


def test_volume_element_sld():
    f = sld_function()
    for r in GRID:
        # f_SLD((1-r)/(1+r)) = 1/(1+r), so the element is r^2 (1-r^2)^(-1/2)
        want = r * r / math.sqrt(1.0 - r * r)
        assert volume_element(f, r) == pytest.approx(want, rel=1e-13)
        assert volume_element(f, r) * f((1.0 - r) / (1.0 + r)) \
            == pytest.approx(_bare(r), rel=1e-13)


def test_volume_element_km():
    f = kubo_mori_function()
    for r in GRID:
        want = 0.5 * r * boundary_log(r) / math.sqrt(1.0 - r * r)
        assert volume_element(f, r) == pytest.approx(want, rel=1e-12)


def test_volume_element_petz_family():
    for r in GRID:
        omr2 = 1.0 - r * r
        assert volume_element(petz_function(0), r) == pytest.approx(
            r * r * omr2 ** -1.5, rel=1e-12)
        assert volume_element(petz_function(1), r) == pytest.approx(
            0.5 * r * boundary_log(r) / omr2, rel=1e-12)
        assert volume_element(petz_function(2), r) == pytest.approx(
            0.25 * boundary_log(r) ** 2 / math.sqrt(omr2), rel=1e-12)


def test_volume_element_larson_dukes():
    f = larson_dukes_generator()
    for r in GRID:
        assert volume_element(f, r) == pytest.approx(r * r / 4.0, rel=1e-13)


def test_volume_element_domain():
    with pytest.raises(ValueError):
        volume_element(sld_function(), 1.0)
    with pytest.raises(ValueError):
        volume_element(sld_function(), -0.1)
    assert volume_element(sld_function(), 0.0) == 0.0


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
    p = make_prior(kind)
    cfg = QuadratureConfig(singularity_exponent=p.profile.boundary_power)
    res = integrate_ball(p.spherical_density, p.support_radius, cfg)
    assert res.value == pytest.approx(1.0, abs=1e-7)


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


@settings(max_examples=60, deadline=None)
@given(st.floats(0.0, 1.0), st.floats(0.0, math.pi),
       st.floats(0.0, 2.0 * math.pi))
def test_density_matrix_properties(r, theta, phi):
    pt = BlochPoint.from_spherical(r, theta, phi)
    rho = density_matrix(pt)
    assert np.allclose(rho, rho.conj().T)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-14)
    eig = np.linalg.eigvalsh(rho)
    assert np.all(eig >= -1e-12)
    # eigenvalues are (1 +/- r)/2
    assert sorted(eig) == pytest.approx(
        [(1.0 - pt.r) / 2.0, (1.0 + pt.r) / 2.0], abs=1e-12)


def test_make_prior_caches():
    assert make_prior("sld") is make_prior("sld")
    assert make_prior("sld") is not make_prior("sld", R=0.9)
