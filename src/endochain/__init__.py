"""endochain: exact engine for one-dimensional curve singularities.

Builds iterated endomorphism-ring chains, resolves torsion-free lattices by
the chain family, and computes the exact global dimension of End(M)^op.
"""

__version__ = "0.1.0"

from .field import FieldSpec, QQ
from .series import LaurentPoly
from .curve_ring import (
    CurveRing,
    RingReport,
    build_ring,
    semigroup_ring,
    maximal_ideal,
    factor,
    ring_report,
)
from .lattice import (
    Ambient,
    Lattice,
    LatticeMap,
    hom_lattice,
    kernel_lattice,
    largest_submodule_over,
    scalar_extension_test,
    direct_sum,
    minimal_generators,
    free_decomposition_over_dvr_product,
)
from .chain import (
    ChainNode,
    ChainTree,
    EFamily,
    end_of_maximal_ideal,
    build_chain_tree,
    chain_family,
    normalization_check,
    representation_module,
)
from .resolver import Resolution, keyred_resolve, verify_hom_exactness, resolve_presented_module
from .endo import (
    EndoAlgebra,
    GldimReport,
    build_endo_algebra,
    global_dimension,
    projectivization_check,
    radical,
    fcmt_check,
)
