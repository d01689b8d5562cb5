"""Lattices for tests, built from others."""

from k3lat.intmat import freeze
from k3lat.lattice import IntegralLattice


def rescale(lat: IntegralLattice, n: int) -> IntegralLattice:
    """Same module with the form multiplied by n; must remain even."""
    if n == 0:
        raise ValueError("rescaling factor must be nonzero")
    if any((n * lat.gram[i][i]) % 2 for i in range(lat.rank)):
        raise ValueError("rescaling would produce an odd lattice")
    return IntegralLattice(
        freeze(tuple(n * x for x in row) for row in lat.gram)
    )
