"""Exact desk-scale analysis of voting-rule manipulability.

Counts manipulation points, outcome boundaries, preference fibers,
influences, and local dictators of social choice functions over the uniform
(impartial culture) profile distribution, computes exact rational distances to
the nonmanipulable families, and verifies the quantitative
Gibbard-Satterthwaite lower bounds against brute force.
"""

from .errors import CapExceededError
from .rankings import (
    decode_profile,
    profile_space_size,
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
    is_anonymous,
    load_scf_table,
    random_monotone_two_valued,
    random_table_scf,
)
from .graphs import (
    CoordinateInfluences,
    GraphKind,
    verify_lindsey,
)
from .fibers import (
    FiberRecord,
    FiberVariant,
    fiber_sweep,
    local_dictator_sets,
)
from .manip import (
    GSClassification,
    ManipulationCensus,
    ManipulationPair,
    census,
    exact_pair_probability,
    gs_classify,
    nonmanip_membership,
    sample_success,
)
from .metrics import (
    DistanceReport,
    distance_to_nonmanip,
    distance_to_nonmanip_bar,
    frac_str,
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
