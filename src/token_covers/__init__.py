"""Token graphs as covering graphs of combined voltage graphs.

The library constructs token graphs, combined voltage graphs and their
covering lifts, verifies the explicit base-graph construction for 2-token
graphs of even complete graphs, checks edge-transitivity classification
instances, and searches for cyclic quotient bases of star token graphs.
"""

from .algebra import Permutation, Subgroup
from .graphs import (
    Multigraph,
    SimpleGraph,
    complete,
    complete_bipartite,
    cycle,
    from_json,
    is_biregular,
    make_family,
    path,
    srg_parameters,
    star,
    to_dot,
    to_json,
    underlying_simple,
)
from .symmetry import (
    automorphisms,
    edge_orbits,
    is_automorphism,
    is_edge_transitive,
    is_isomorphic,
    is_vertex_transitive,
    vertex_orbits,
    zz_check,
)
from .tokens import (
    induced_token_permutation,
    inclusion_bigraph,
    johnson,
    line_graph,
    subdivision,
    token_graph,
)
from .voltage import (
    CombinedVoltageGraph,
    conjecture_search,
    cover_token,
    lift,
    quotient_cyclic,
    quotient_free,
    theorem1_base,
    verify_theorem1,
)

__version__ = "0.1.0"

# The one search kernel is pure Python; perfbench records this name.
SEARCH_BACKEND = "python"
