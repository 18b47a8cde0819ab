"""The one-dimensional periodic oracle."""

import numpy as np
import pytest

from sphereq import (
    ParameterError,
    circle_extrema,
    circle_normal_form_amplitude,
    circle_solve,
)


def test_trivial_at_threshold():
    prof = circle_solve(1.0, 1, 64)
    assert prof.trivial
    assert prof.amplitude == 0.0


def test_trivial_below_threshold():
    assert circle_solve(3.9, 2, 64).trivial


def test_amplitude_near_normal_form():
    prof = circle_solve(1.2, 1, 128)
    assert not prof.trivial
    assert prof.residual_norm < 1e-10
    estimate = circle_normal_form_amplitude(1.2, 1)
    assert abs(prof.amplitude - estimate) / estimate < 0.1


def test_amplitude_monotone_in_lambda():
    amps = [circle_solve(lam, 1, 128).amplitude for lam in (1.1, 1.2, 1.5)]
    assert amps[0] < amps[1] < amps[2]


@pytest.mark.parametrize("lam,k", [(1.2, 1), (5.0, 2)])
def test_extrema_evenly_spaced(lam, k):
    prof = circle_solve(lam, k, 256)
    ext = circle_extrema(prof)
    assert len(ext) == 2 * k
    gaps = np.diff(np.concatenate([ext, [ext[0] + 2 * np.pi]]))
    assert np.max(np.abs(gaps - np.pi / k)) < 1e-8


@pytest.mark.parametrize("lam,k", [(1.2, 1), (3.0, 1), (30.0, 3), (10.0, 2)])
def test_extrema_at_multiples_of_half_the_period(lam, k):
    """The profile is even with period 2*pi/k, so its extrema sit exactly at
    j*pi/k; the refined roots find them to within 1e-12."""
    ext = circle_extrema(circle_solve(lam, k, 256))
    assert np.max(np.abs(ext - np.pi * np.arange(2 * k) / k)) < 1e-12


def test_profile_periodicity_and_phase():
    prof = circle_solve(5.0, 2, 256)
    quarter = prof.n // 2  # one fundamental period of k = 2
    assert np.max(np.abs(prof.values - np.roll(prof.values, quarter))) < 1e-10
    assert prof.values[0] > 0  # phase fix u(0) > 0
    # u'(0) = 0 comes with the cosine expansion; check by symmetry
    assert np.max(np.abs(prof.values - prof.values[::-1].take(
        np.arange(-1, prof.n - 1)))) < 1e-10


def test_parameter_validation():
    with pytest.raises(ParameterError):
        circle_solve(2.0, 0, 64)
    with pytest.raises(ParameterError):
        circle_solve(2.0, 1, 63)
    with pytest.raises(ParameterError):
        circle_solve(2.0, 1, 8)
    # a NaN lambda is not <= k^2, so unchecked it would reach Newton and
    # fail only after the whole iteration budget
    for lam in (float("nan"), float("inf")):
        with pytest.raises(ParameterError, match="lambda must be finite"):
            circle_solve(lam, 1, 64)


def test_trivial_profile_has_no_extrema():
    """The derivative series of u = 0 vanishes identically, so no scan
    sample is an extremum."""
    ext = circle_extrema(circle_solve(1.0, 1, 64))
    assert ext.shape == (0,)
