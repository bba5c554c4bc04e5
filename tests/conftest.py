import os
import sys

import pytest

HERE = os.path.dirname(__file__)
sys.path.insert(0, HERE)

from endochain import ringio
from endochain.curve_ring import build_ring, normalization_lattice
from endochain.lattice import Lattice, LatticeMap, direct_sum, kernel_lattice, minimal_generators


@pytest.fixture
def rebuilds_agree():
    """A check that a ring comes out key()-equal, with equal ``gens``, when
    rebuilt from its generators three ways: bounded by its own conductor,
    by the unbounded window schedule and at twice its window."""

    def check(ring):
        f, b, g = ring.field, ring.branches, ring.gens
        for other in (
            build_ring(f, b, g, conductor_bound=ring.conductor),
            build_ring(f, b, g),
            build_ring(f, b, g, window_hint=2 * ring.window_bound),
        ):
            assert other.key() == ring.key() and other.gens == ring.gens

    return check


@pytest.fixture(scope="session")
def e6_syzygy():
    """(R, K, t*K) on E6 = <3,4>: K = Omega(E), the kernel of the minimal
    free cover R^3 -> E, is indecomposable of rank 2 with local End."""
    path = os.path.join(HERE, "..", "data", "rings", "semigroup_3_4.json")
    ring = ringio.ring_from_json(ringio.load_json(path))
    e = normalization_lattice(ring)
    gens = minimal_generators(e)
    free, _ = direct_sum([ring.self_lattice] * len(gens))
    k, _ = kernel_lattice(LatticeMap(free, e, [[[g[0] for g in gens]]]))
    tk = Lattice.from_generators(ring, k.ambient, [tuple(p.shift(1) for p in g) for g in k.genset()])
    return ring, k, tk
