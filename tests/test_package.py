"""The package's public surface, pinned name for name, so that adding or
removing a public name is a deliberate change of this list."""

from __future__ import annotations

import fastslow

PUBLIC = [
    "CapabilityLabel",
    "CheckOutcome",
    "CongruenceReport",
    "Diagnostic",
    "EquivConfig",
    "InvalidModelError",
    "LabelEntry",
    "Leaf",
    "Lts",
    "ModelError",
    "Node",
    "OverlappingActionsError",
    "ParseError",
    "Prefix",
    "Role",
    "ShortcutOutcome",
    "ShortcutPreconditionError",
    "SourceSpan",
    "SpeciesDef",
    "StateCollisionError",
    "StateSpaceLimitError",
    "StoichMatrix",
    "SystemDef",
    "UnpartitionedActionError",
    "VariableClassification",
    "WeakViews",
    "Witness",
    "build_lts",
    "check_fast_slow_relation",
    "check_slow_relation",
    "classification",
    "classification_report",
    "classify",
    "complete_fast",
    "compose",
    "congruence_probe",
    "conserved_basis",
    "equivalence",
    "extend_species",
    "largest_fast_slow",
    "largest_slow",
    "lts_to_dict",
    "lts_to_dot",
    "lts_to_json",
    "max_level",
    "model",
    "parse_config",
    "parse_model",
    "parser",
    "rational",
    "relation_to_json",
    "relation_verdict",
    "render_config",
    "render_model",
    "semantics",
    "shared_fast_actions",
    "shortcut_check",
    "slow_basis",
    "slow_sufficiency",
    "stoich_matrix",
    "transform_lts",
    "validate_species",
]


def test_public_names():
    assert fastslow.__all__ == PUBLIC
    assert all(hasattr(fastslow, name) for name in PUBLIC)

