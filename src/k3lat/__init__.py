"""Exact arithmetic for even integral lattices: discriminant forms, glue
overlattices, genus certification, the rank-9/rank-10 geometric models,
and degree-2 isogeny towers.

Everything is integer arithmetic, with a rational value held as an
integer over a stated denominator; nothing here uses floating point.  The command-line entry point lives in :mod:`k3lat.cli`.
"""

from .catalog import (
    FamilyDescriptor,
    MembershipFlags,
    build_Mn,
    family_genus,
    family_lattice,
    membership_classification,
    named,
    omega_genus,
    resolve_name,
)
from .evensets import EvenSets, find_even_sets
from .forms import (
    FiniteQuadraticForm,
    SearchBudgetExceeded,
    cyclic_block,
    find_u_block,
    forms_isomorphic,
    group_invariants,
    length,
    milgram_signature,
    negate,
    sum_forms,
    u_block,
)
from .lattice import (
    DiscriminantData,
    Embedding,
    IntegralLattice,
    IsometryAction,
    direct_sum,
    discriminant_form,
    discriminant_group,
    embedding_of,
    from_rows,
    gram_in_basis,
    invariant_split,
    is_primitive,
    orthogonal_complement,
    quotient_by_radical,
    radical,
    root_count,
    saturation,
    short_vectors,
    sublattice,
)
from .nsgeometry import (
    LabeledLattice,
    base_change,
    base_change_report,
    build_UN_vgs,
    build_X2,
    involutions_X2,
    known_even_sets,
    no_reducible_fibers,
    orbit_and_even_sets,
    verify_sections,
    vgs_polarized_complement,
)
from .overlattice import (
    GenusDescriptor,
    genus_equal,
    genus_lemma_quotient,
    genus_of,
    lemma_overlattice,
    unique_in_genus_by_length,
)
from .towers import (
    GaloisInvariants,
    TowerNode,
    cover_step,
    galois_cover_invariants,
    mukai_twisted_check,
    quotient_step,
    tower,
    tower_related,
)

__all__ = [name for name in dir() if not name.startswith("_")]
