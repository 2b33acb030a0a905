"""Exact-arithmetic toolkit for graph complexes of directed multigraphs
carrying several acyclic orientation colors."""

__version__ = "0.1.0"

from .graphs import (
    CanonicalClass,
    ColoredGraph,
    GroupElement,
    Parity,
    TermVector,
    ZERO,
    act,
    canonicalize,
    is_acyclic_in_color,
    is_connected,
    is_passing,
    make_graph,
    valence,
)
from .complexes import (
    BasisSlice,
    Constraint,
    REDUCED_CONSTRAINTS,
    SliceParams,
    contract_edge,
    delete_one_valent,
    differential,
    differential_matrix,
    enumerate_basis,
    homology_dims,
    slice_chain,
)
from .linalg import SparseRationalMatrix, kernel_basis, rank
from .skeleton import (
    SkeletonFamily,
    SkeletonGraph,
    canonicalize_skeleton,
    expand_dotted,
    make_skeleton,
    skeleton_degree_slice,
    skeleton_differential,
    skeleton_homology_dims,
)
from .treemap import (
    induced_matrix,
    spanning_tree_map,
    spanning_trees,
    tree_image,
    verify_chain_map,
    verify_quasi_iso,
)
