"""Student selection under ranked diversity quotas with overlapping types.

Library surface: build an Instance, call solve() (or the flow module's
choice_flow, check_validity_flow and crucial_vector directly), verify
outputs with the axiom verifier, extend to several schools with the gda
module.
"""

from .baseline import BaselineResult, sequential_baseline
from .flow import check_validity_flow, choice_flow, crucial_vector, solve
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
    Signature,
    StudentColumns,
    StudentRecord,
    group_label,
    parse_group_label,
)
from .verify import AxiomReport, verify_balanced_and_jef

__version__ = "0.1.0"

__all__ = [
    "AxiomReport",
    "BaselineResult",
    "ChoiceResult",
    "GENERAL_TYPE",
    "Group",
    "GroupKey",
    "Instance",
    "InternalInvariantError",
    "MalformedInstanceError",
    "MultiInstance",
    "MultiMatching",
    "School",
    "Signature",
    "StudentColumns",
    "StudentRecord",
    "check_validity_flow",
    "choice_flow",
    "crucial_vector",
    "generate_instance",
    "group_label",
    "induced_instance",
    "parse_group_label",
    "restrict_instance",
    "run_gda",
    "sequential_baseline",
    "solve",
    "substitutability_probe",
    "verify_balanced_and_jef",
]
