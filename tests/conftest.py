import numpy as np
import pytest

from sphereq import SpectralCoeffs, make_grid, make_operator, sht_inverse


@pytest.fixture(scope="session")
def grid32():
    return make_grid(32, 64)


@pytest.fixture(scope="session")
def grid33():
    """A grid whose n_phi / 2 is odd, so its Nyquist mode is an odd one."""
    return make_grid(33, 66)


@pytest.fixture(scope="session")
def op32(grid32):
    return make_operator(grid32, "spectral")


@pytest.fixture(scope="session")
def fd32(grid32):
    return make_operator(grid32, "finite-difference")


def random_band_limited(grid, degree_cap, rng, scale=1.0):
    """Field synthesized from random harmonic coefficients up to degree_cap."""
    arr = np.zeros((degree_cap + 1, 2 * degree_cap + 1))
    for l in range(degree_cap + 1):
        for m in range(-l, l + 1):
            arr[l, degree_cap + m] = scale * rng.standard_normal()
    return sht_inverse(SpectralCoeffs(degree_cap, arr), grid)


@pytest.fixture
def laplacian_calls(monkeypatch):
    """Record the fields that solver, problems and the test oracles pass
    to apply_laplacian (the audit's one Lap u goes through
    problems.residual); the returned list grows by one per call.  GMRES
    iterations apply none (see
    test_krylov_iteration_applies_no_laplacian), so every call is one a
    state or an audit pays for."""
    import oracles
    from sphereq import harmonics, problems, solver

    calls = []

    def counted(op, field):
        calls.append(field)
        return harmonics.apply_laplacian(op, field)

    for module in (solver, problems, oracles):
        monkeypatch.setattr(module, "apply_laplacian", counted)
    return calls
