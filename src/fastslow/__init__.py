"""Bio-PEPA with levels: capability semantics and semi-quantitative equivalence.

The package parses discretised biochemical models, generates their
labelled transition systems, decides fast-slow and slow bisimilarity with
respect to a fast/slow partition of the reactions, and classifies
conserved, slow and fast variables from the stoichiometry matrix to
justify checking only the slow reactions on suitably reduced models.
"""

from .classification import (
    ShortcutOutcome,
    ShortcutPreconditionError,
    StateCollisionError,
    StoichMatrix,
    VariableClassification,
    classify,
    classification_report,
    complete_fast,
    conserved_basis,
    shortcut_check,
    slow_basis,
    slow_sufficiency,
    stoich_matrix,
    transform_lts,
)
from .equivalence import (
    CheckOutcome,
    CongruenceReport,
    Witness,
    check_fast_slow_relation,
    check_slow_relation,
    congruence_probe,
    largest_fast_slow,
    largest_slow,
    relation_to_json,
    relation_verdict,
    resolve_relation,
    shared_fast_actions,
)
from .model import (
    EquivConfig,
    InvalidModelError,
    Leaf,
    ModelError,
    Node,
    OverlappingActionsError,
    Prefix,
    Role,
    SpeciesDef,
    SystemDef,
    compose,
    extend_species,
    max_level,
    validate_species,
    validate_system,
)
from .parser import (
    Diagnostic,
    ParseError,
    SourceSpan,
    parse_config,
    parse_model,
    render_config,
    render_model,
)
from .semantics import (
    CapabilityLabel,
    LabelEntry,
    Lts,
    StateSpaceLimitError,
    Transition,
    UnpartitionedActionError,
    WeakViews,
    build_lts,
    filter_label,
    lts_to_dict,
    lts_to_json,
    lts_to_dot,
    step,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
