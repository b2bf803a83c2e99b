"""Trace recording, canonical digests and metrics extraction."""

from .._lazy import facade

__all__, __getattr__, __dir__ = facade(
    __name__,
    {
        "columns": ("EventColumns",),
        "digest": (
            "StreamingTraceDigest", "canonical_text", "combine_digests",
            "combine_partials", "event_line", "hex_of_partial", "trace_digest",
        ),
        "metrics": (
            "RunMetrics", "StreamingRunMetrics", "collect_metrics",
            "communicating_nodes", "message_pairs",
        ),
        "recorder": ("DIGEST_RETAINED_KINDS", "TraceRecorder", "TraceUnavailableError"),
    },
)
