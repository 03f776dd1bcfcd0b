"""Exact desk-scale analysis of voting-rule manipulability.

Enumerates manipulation points, outcome boundaries, preference fibers,
influences, and local dictators of social choice functions over the uniform
(impartial culture) profile distribution, computes exact rational distances to
the nonmanipulable families, and verifies the quantitative
Gibbard-Satterthwaite lower bounds against brute force.
"""

from .errors import CapExceededError
from .rankings import (
    AdjacentTransposition,
    Profile,
    Ranking,
    all_adjacent_transpositions,
    apply_adjacent_transposition,
    decode_profile,
    decode_ranking,
    encode_profile,
    encode_ranking,
    profile_space_size,
    top_restricted,
    window_permutations,
)
from .scf import (
    SCF,
    Borda,
    Constant,
    MonotoneTwoValued,
    OneCoordinate,
    PairBooleanSCF,
    Plurality,
    TableSCF,
    TopHDictator,
    dump_scf_table,
    exists_anonymous_neutral,
    induced_one_voter,
    is_anonymous,
    is_neutral,
    load_scf_table,
    majority_projection,
    random_monotone_two_valued,
    random_table_scf,
)
from .graphs import (
    BoundarySpec,
    GraphKind,
    boundary,
    boundary_count,
    coordinate_influences,
    edge_boundary,
    neighbors,
    verify_lindsey,
    vertex_boundary,
)
from .fibers import (
    FiberRecord,
    FiberVariant,
    boundary_fiber,
    dictator_fiber_set,
    dictator_pair_set,
    fiber_sweep,
    is_local_dictator,
    local_dictator_sets,
    pairwise_preference_correlation,
    preference_vector,
    refined_topset_membership,
)
from .manip import (
    GSClassification,
    ManipulationCensus,
    ManipulationPair,
    census,
    exact_pair_probability,
    gs_classify,
    is_manipulation_pair,
    is_r_manipulation_point,
    nonmanip_membership,
    sample_manipulation,
    sample_success,
)
from .metrics import (
    DistanceReport,
    distance,
    distance_to_nonmanip,
    distance_to_nonmanip_bar,
    frac_str,
    monotone_violation_fraction,
    nearest_monotone_boolean,
)
from .verify import (
    BoundParams,
    Measurements,
    SweepReport,
    VerificationReport,
    bound_value,
    sweep_one_voter,
    sweep_random_tables,
    verify_lemma_influences,
    verify_main_theorems,
    verify_reverse_hypercontractivity,
    verify_thm_1_5,
    write_counterexample,
)

__version__ = "0.1.0"
