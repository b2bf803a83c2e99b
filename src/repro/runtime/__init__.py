"""Asyncio runtime for running the same protocol processes concurrently."""

from .._lazy import facade

__all__, __getattr__, __dir__ = facade(
    __name__, {"async_runtime": ("AsyncRuntime", "run_asyncio")}
)
