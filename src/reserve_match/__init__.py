"""Student selection under ranked diversity quotas with overlapping types.

Library surface: build an Instance, call solve() (or the flow module's
choice_flow, check_validity_flow and crucial_vector directly), verify
outputs with the axiom verifier, extend to several schools with the gda
module.
"""

from .baseline import BaselineResult, sequential_baseline
from .flow import (
    FlowNetwork,
    build_network,
    check_validity_flow,
    choice_flow,
    compute_certificate,
    crucial_vector,
    flow_to_matching,
    min_cost_max_flow,
    solve,
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
    StudentColumns,
    StudentRecord,
    group_label,
    matching_signature,
    parse_group_label,
)
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
    "School",
    "Seat",
    "SeatMatching",
    "Signature",
    "StudentColumns",
    "StudentRecord",
    "build_network",
    "check_validity_flow",
    "choice_flow",
    "compute_certificate",
    "crucial_vector",
    "flow_to_matching",
    "generate_instance",
    "group_label",
    "induced_instance",
    "matching_signature",
    "min_cost_max_flow",
    "parse_group_label",
    "restrict_instance",
    "run_gda",
    "sequential_baseline",
    "solve",
    "substitutability_probe",
    "verify_balanced_and_jef",
]
