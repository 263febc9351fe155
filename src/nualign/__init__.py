"""Conformance checking for processes with shared, capacity-bounded resources.

Aligns complete multi-case event logs against resource-constrained colored
nets, exposing inter-case deviations that per-case alignment cannot see.
Two engines are provided: an exact search over the synchronous product,
and an approximation that composes per-case alignments and repairs
resource violations locally via a 0/1 ordering program.
"""

from .align import (
    Alignment,
    CostTable,
    Move,
    SearchBudgetError,
    align_log,
    build_sync_product,
    is_valid_alignment,
    optimal_alignment,
)
from .approx import approximate_alignment
from .eventlog import Event, EventLog, parse_log, serialize_log
from .lognet import build_log_net
from .netfile import load_net, net_from_dict, net_to_dict, save_net
from .poset import Multiset, Poset
from .rcnu import (
    ColoredMarking,
    DeviationConfig,
    RcNuNet,
    Role,
    scale_cases,
    simulate,
    validate_structure,
)

__version__ = "0.1.0"

__all__ = [
    "Alignment", "ColoredMarking", "CostTable", "DeviationConfig", "Event",
    "EventLog", "Move", "Multiset", "Poset", "RcNuNet", "Role",
    "SearchBudgetError", "align_log", "approximate_alignment",
    "build_log_net", "build_sync_product",
    "is_valid_alignment", "load_net", "net_from_dict", "net_to_dict",
    "optimal_alignment", "parse_log", "save_net", "scale_cases",
    "serialize_log", "simulate", "validate_structure",
]
