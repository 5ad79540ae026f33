"""Student selection under ranked diversity quotas with overlapping types.

Library surface: build an Instance, call solve() (or the flow module's
choice_flow, check_validity_flow and crucial_vector directly), verify
outputs with the axiom verifiers, extend to several schools with the gda
module.
"""

from .baseline import BaselineResult, sequential_baseline
from .flow import (
    FlowNetwork,
    OptimalityCertificate,
    build_network,
    check_validity_flow,
    choice_flow,
    compute_certificate,
    crucial_vector,
    flow_to_matching,
    matching_to_flow,
    min_cost_max_flow,
)
from .gda import (
    MultiInstance,
    MultiMatching,
    School,
    induced_instance,
    restrict_instance,
    run_gda,
    substitutability_probe,
)
from .generator import generate_instance
from .model import (
    GENERAL_TYPE,
    ChoiceResult,
    Group,
    GroupKey,
    Instance,
    InternalInvariantError,
    MalformedInstanceError,
    Seat,
    SeatMatching,
    Signature,
    StudentRecord,
    group_label,
    lex_compare,
    matching_signature,
    min_selection_ratio,
    parse_group_label,
    selection_ratio,
    verify_non_wasteful,
    verify_same_group_priority,
)
from .oracle import (
    OracleBudget,
    OracleBudgetExceeded,
    enumerate_maximal_diversity_matchings,
    oracle_choice,
    oracle_max_min_ratio,
)
from .solve import solve
from .verify import AxiomReport, verify_balanced_and_jef

__version__ = "0.1.0"

__all__ = [
    "AxiomReport",
    "BaselineResult",
    "ChoiceResult",
    "FlowNetwork",
    "GENERAL_TYPE",
    "Group",
    "GroupKey",
    "Instance",
    "InternalInvariantError",
    "MalformedInstanceError",
    "MultiInstance",
    "MultiMatching",
    "OptimalityCertificate",
    "OracleBudget",
    "OracleBudgetExceeded",
    "School",
    "Seat",
    "SeatMatching",
    "Signature",
    "StudentRecord",
    "build_network",
    "check_validity_flow",
    "choice_flow",
    "compute_certificate",
    "crucial_vector",
    "enumerate_maximal_diversity_matchings",
    "flow_to_matching",
    "generate_instance",
    "group_label",
    "induced_instance",
    "lex_compare",
    "matching_signature",
    "matching_to_flow",
    "min_cost_max_flow",
    "min_selection_ratio",
    "oracle_choice",
    "oracle_max_min_ratio",
    "parse_group_label",
    "restrict_instance",
    "run_gda",
    "selection_ratio",
    "sequential_baseline",
    "solve",
    "substitutability_probe",
    "verify_balanced_and_jef",
    "verify_non_wasteful",
    "verify_same_group_priority",
]
