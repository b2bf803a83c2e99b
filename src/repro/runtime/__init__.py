"""Asyncio runtime for running the same protocol processes concurrently."""

from .._lazy import facade

__all__, __getattr__, __dir__ = facade(
    __name__,
    {
        "async_runtime": (
            "AsyncRunResult", "AsyncRuntime", "run_cliff_edge_async",
            "run_cliff_edge_asyncio",
        ),
    },
)
