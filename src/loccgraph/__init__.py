"""LOCC comparability of maximally entangled multipartite states.

States are modelled combinatorially: EPR graphs and entangled hypergraphs
over a fixed agent set.  The package decides comparability questions with
machine-checkable evidence on both sides: bicolored-merging witnesses for
impossibility, replayable LOCC move traces for possibility.
"""

__version__ = "0.1.0"

from .hypergraph import (
    Hypergraph,
    cat_state,
    copies,
    epr_pair,
    format_hypergraph,
    is_connected,
    is_entangled_hypertree,
    is_spanning_epr_tree,
    parse_hypergraph,
    path_tree,
    pendant_vertices,
    star_tree,
    uniformity,
)
from .merging import (
    Bicoloring,
    BlockingWitness,
    bcm_cut,
    find_blocking_witness,
    min_copies_lower_bound,
)
from .protocols import (
    CatExpand,
    Discard,
    MeasureOut,
    ProtocolTrace,
    Swap,
    apply_move,
    cat_copies_to_tree,
    cat_to_epr,
    legal_moves,
    make_trace,
    reachability_search,
    replay_trace,
    tree_to_cat,
    trees_copies_to_tree,
)
from .witnesses import (
    HypertreeProof,
    OrderChain,
    SeparatingPair,
    TreeSplit,
    check_order_chain,
    find_separating_pair,
    r_uniform_incomparability,
    witness_cat_copies_vs_tree,
    witness_cat_vs_disconnected,
    witness_disconnected_vs_cat,
    witness_distinct_spanning_trees,
    witness_ghz_not_two_epr,
    witness_pendant_condition,
    witness_r_uniform_hypertrees,
)
from .distance import DistanceReport, distance_report, find_saturating_pairs, quantum_distance
from .enumeration import (
    all_spanning_trees,
    prufer_decode,
    prufer_encode,
    random_r_uniform_hypertree,
    random_spanning_tree,
)
