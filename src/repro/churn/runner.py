"""Bindings the perf ledger wraps, and nothing else.

A churn run is a run with a membership schedule: it starts through
:func:`repro.experiments.runner.run_cliff_edge` (simulator),
:func:`repro.runtime.run_asyncio` (asyncio, either clock) or a spec
through :class:`~repro.api.ExperimentSession`.  ``benchmarks/ledger``
still times ``collect_metrics`` and ``check_churn_all`` by replacing them
as attributes of this module, so the two names stay bound here until the
ledger installs a collector instead (ROADMAP item 5, stage B), which is
when this module goes.
"""

from ..trace import collect_metrics  # noqa: F401  (the perf ledger wraps this binding)
from .properties import check_churn_all  # noqa: F401  (and this one)
