import numpy as np
import pytest

from sphereq import SpectralCoeffs, make_grid, make_operator, sht_inverse


@pytest.fixture(scope="session")
def grid32():
    return make_grid(32, 64)


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
    """Record the fields that solver, problems and symmetry pass to
    apply_laplacian outside GMRES matvecs; the returned list grows by one
    per such call."""
    from sphereq import harmonics, problems, solver, symmetry

    calls = []
    in_krylov = []
    krylov_solve = solver._krylov_solve

    def krylov_marked(*args, **kwargs):
        in_krylov.append(True)
        try:
            return krylov_solve(*args, **kwargs)
        finally:
            in_krylov.pop()

    def counted(op, field):
        if not in_krylov:
            calls.append(field)
        return harmonics.apply_laplacian(op, field)

    monkeypatch.setattr(solver, "_krylov_solve", krylov_marked)
    for module in (solver, problems, symmetry):
        monkeypatch.setattr(module, "apply_laplacian", counted)
    return calls
