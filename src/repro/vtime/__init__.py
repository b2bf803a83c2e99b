"""Virtual-time asyncio: deterministic execution of the real runtime.

The third runtime substrate, between the discrete-event simulator and
the wall-clock asyncio runtime: the *same* asyncio protocol code the
wall-clock runtime executes, driven by
:class:`~repro.vtime.loop.VirtualClockEventLoop`, whose clock is a
:class:`~repro.sim.scheduler.KeyedEventScheduler`.  Runs complete with
zero real sleeps and are digest-reproducible across processes and
``PYTHONHASHSEED`` values, which is what makes asyncio scenarios
sweepable (:mod:`repro.scale`) and servable (:mod:`repro.service`).

Spec surface: ``RuntimeSpec(engine="asyncio-virtual")`` /
``repro churn --runtime asyncio-virtual`` / ``repro run SPEC --runtime
asyncio-virtual``.
"""

from .._lazy import facade

__all__, __getattr__, __dir__ = facade(
    __name__,
    {
        "loop": ("VirtualClockEventLoop", "VirtualTimeDeadlock", "VirtualTimeError"),
        "runtime": ("VirtualRuntime", "run_cliff_edge_virtual"),
    },
)
