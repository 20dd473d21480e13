"""Maximal ambiguously k-colorable graphs and their matrix certificates."""

from .coloring import (Coloring, chromatic_number, count_colorings,
                       enumerate_colorings, is_ambiguously_colorable,
                       is_uniquely_colorable)
from .dfold import (ColorTensor, build_graph_d, count_perfect_matchings,
                    is_dfold_colorable, join, recover_tensor,
                    seymour_example)
from .errors import (AmbigcolorError, InputFormatError, PreconditionError,
                     ReconstructionError, ResourceLimitError)
from .extremal import (ExtremalReport, ambiguous_max_edges,
                       brute_force_max_edges, enumerate_extremal, lemma_bound,
                       max_edges_by_class, turan_number, verify_turan_theorem)
from .graphcore import (SimpleGraph, are_isomorphic, build_graph,
                        canonical_form, clique_number, complement,
                        complete_multipartite, enumerate_graphs,
                        from_edge_list, from_graph6, to_edge_list, to_graph6,
                        turan_graph)
from .matrix import (ColorMatrix, MatrixClass, WitnessSequence, balance_flags,
                     class_key, classify, enumerate_desirable,
                     is_fully_indecomposable, load_matrix, matrix_classes,
                     special_variants, witness_sequence)
from .maximality import (ReconstructionTrace, is_maximal,
                         is_maximal_ambiguous, reconstruct_matrix,
                         verify_theorem1)
from .perfection import is_perfect, verify_perfectness

__version__ = "0.1.0"
