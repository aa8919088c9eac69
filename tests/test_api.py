"""The public names of the package."""

import dataclasses

import equiwave
import equiwave.spectral
from equiwave.spectral import DiscreteRadialOperator


def test_every_export_resolves_once():
    missing = [name for name in equiwave.__all__ if not hasattr(equiwave, name)]
    assert missing == []
    assert len(set(equiwave.__all__)) == len(equiwave.__all__)


def test_no_dense_eigen_calculus_in_the_package():
    # the dense eigenbasis is a test oracle (tests/_dense.py), not an API
    assert "evolve_linear" not in equiwave.__all__
    assert not hasattr(equiwave, "evolve_linear")
    for name in ("evolve_linear", "_powered"):
        assert not hasattr(equiwave.spectral, name)
    for name in ("_eig", "eigenvectors", "coefficients", "from_coefficients"):
        assert not hasattr(DiscreteRadialOperator, name)
    # the operator is the only stencil object: no separate stencil class
    # or field (a field without a default is no class attribute)
    assert not hasattr(equiwave.spectral, "_Stencil")
    fields = {f.name for f in dataclasses.fields(DiscreteRadialOperator)}
    assert "stencil" not in fields and {"F", "rho"} <= fields
