"""Orbit combinatorics of wonderful group compactifications.

The compactification of an adjoint group is stratified by subsets I of the
simple roots; each stratum splits into P x P^- orbits named by quadruples
(I, sigma, tau, rho) with sigma, tau minimal coset representatives modulo W_I
and rho in W_I.  This package computes the labels, their dimensions and
point-count polynomials, the rank-1 parabolic moves between them, the closure
partial order, and intersection components -- and cross-checks everything
against a move-generated oracle poset and exact finite-field matrix orbits.
"""

from .coxeter import (
    RootSystem,
    WeylElement,
    WeightFunction,
    CapExceeded,
    build_root_system,
    cartan_matrix,
    system_from_spec,
    bruhat_leq,
    longest_element,
    coset_decompose,
    min_coset_reps,
    parabolic_trichotomy,
    weighted_length,
    enumerate_group,
    greedy_word,
    word_str,
    parse_word,
)
from .orbit_model import (
    LEFT,
    RIGHT,
    OrbitLabel,
    ClosurePoset,
    LabelParseError,
    NotGradedError,
    label_str,
    parse_label,
    strata,
    enumerate_orbits,
    canonicalize,
    codim,
    split_dimension,
    point_count_poly,
    poly_eval,
    poly_str,
    rank1_act,
    is_stable,
    unique_predecessor,
    closure_leq,
    closure_leq_witness,
    intersection_components,
    closure_poset,
    strata_csv,
)
from .oracle import GeneratorCycleError, oracle_poset, compare_posets
from .matrix_model import (
    enumerate_points,
    orbit_partition,
    base_point_matrix,
    matching_report,
    verify_group_cells,
)

__version__ = "0.1.0"
