"""The paper's core contribution: cliff-edge consensus and its checkers."""

from .._lazy import facade

__all__, __getattr__, __dir__ = facade(
    __name__,
    {
        "decisions": (
            "DEFAULT_DECISION_POLICY", "CallbackPolicy", "ConstantValuePolicy",
            "CoordinatorElectionPolicy", "DecisionPolicy", "ProposedRepair",
        ),
        "flooding": ("FloodMessage", "FloodingConsensusNode", "merge_sets", "pick_minimum"),
        "messages": ("ApplicationMessage", "RoundMessage"),
        "opinions": (
            "REJECT", "Accept", "Opinion", "OpinionVector", "is_accept",
            "is_bottom", "is_reject",
        ),
        "properties": (
            "Decision", "PropertyReport", "SpecificationReport",
            "assert_specification", "check_all", "check_border_termination",
            "check_integrity", "check_locality", "check_progress",
            "check_uniform_border_agreement", "check_view_accuracy",
            "check_view_convergence", "extract_decisions",
        ),
        "protocol": ("CliffEdgeNode", "ProtocolError"),
    },
)
