"""Exact generalized Turan numbers on small graphs.

Counting copies of a pattern in a host, maximum vertex-disjoint packings and
the packed/remainder partition, generators for the universal-join family of
extremal constructions, an exhaustive isomorphism-free search oracle, and a
registry of executable checks for the claims those pieces implement.
"""

from .graphs import (Graph, MAX_VERTICES, VerificationError, are_isomorphic,
                     automorphism_count, canonical_form, canonical_graph,
                     complete, complete_bipartite, copies, cycle,
                     delete_vertex, disjoint_union, empty_graph,
                     enumerate_graphs, from_edges, is_connected, join, relabel,
                     turan)
from .graph6 import Graph6Error, decode_graph6, encode_graph6
from .gspec import GraphSpec, SpecError, parse_spec, parse_spec_list
from .counting import (contains, count_copies, count_copies_meeting,
                       count_induced_copies, count_induced_family,
                       count_injections, induced_family, is_family_free,
                       is_free)
from .packing import (CanonicalPartition, Packing, canonical_partition,
                      copy_vertex_sets, greedy_packing, is_kF_free,
                      max_disjoint_packing, max_packing_size)
from .constructions import (default_center_vertex, erdos_value, f_star,
                            prop54_lower, prop61_host, prop61_value, thm32_lower,
                            thm35_leading, thm35_lower, thm62_lower,
                            turan_clique_count, universal_join, x_exponent)
from .search import (ExtremalResult, Objective, SearchProblem, brute_force_ex,
                     merge, parse_problem, result_line, serialize_problem,
                     shard)
from .verify import (TheoremCheck, VerifyConfig, emit_report, registry_ids,
                     run_all, run_check)

__version__ = "0.1.0"
