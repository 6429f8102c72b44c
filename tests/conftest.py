from __future__ import annotations

import pytest

from reslat.enumerator import enumerate_residuated
from reslat.latfile import load_bundled


@pytest.fixture(scope="session")
def a6():
    return load_bundled("a6").lattice


@pytest.fixture(scope="session")
def a8():
    return load_bundled("a8").lattice


@pytest.fixture(scope="session")
def corpus4():
    """Every residuated lattice of order up to 4, isomorph-free."""
    out = []
    for n in range(1, 5):
        out.extend(enumerate_residuated(n, workers=1))
    return tuple(out)


@pytest.fixture(scope="session")
def corpus5(corpus4):
    """Every residuated lattice of order up to 5, isomorph-free."""
    return corpus4 + tuple(enumerate_residuated(5, workers=1))


@pytest.fixture(scope="session")
def corpus6(corpus5):
    """Every residuated lattice of order up to 6, isomorph-free."""
    return corpus5 + enumerate_residuated(6, workers=1)


@pytest.fixture(scope="session")
def corpus7(corpus6):
    """Every residuated lattice of order up to 7, isomorph-free."""
    return corpus6 + enumerate_residuated(7, workers=1)


@pytest.fixture(scope="session")
def a6xa8(a6, a8):
    """The 48-element product a6 x a8 (not mp, since a8 is not)."""
    from lattices import build_product

    return build_product(a6, a8)


@pytest.fixture(scope="session")
def oracle_set(corpus5, a6, a8, a6xa8):
    """The lattices on which table lookups are compared with the scans they replace."""
    return (*corpus5, a6, a8, a6xa8)


@pytest.fixture
def validations(monkeypatch):
    """The lattices passed to validate_axioms.  Every module that might
    import the name is patched, so a call through such an import counts."""
    import reslat.core
    import reslat.enumerator
    import reslat.filters
    import reslat.latfile

    calls = []
    check = reslat.core.validate_axioms

    def counted(lat):
        calls.append(lat)
        return check(lat)

    for module in (reslat.core, reslat.enumerator, reslat.filters, reslat.latfile):
        monkeypatch.setattr(module, "validate_axioms", counted, raising=False)
    return calls
