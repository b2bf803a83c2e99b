"""Spec-level adapters: the kinds whose builder is not their schema.

A kind's ``params`` are checked against its builder's signature
(:func:`repro.api.specs.check_kind`), so where a document's parameter
names or defaults are not the library builder's, the difference is
written down here — once, as a signature: ``cascade`` documents have
always run at ``spacing=2.0`` (``cascade_crash`` defaults to 1.0), ``race``
at ``recover_at=6.0`` (40.0), an empty ``flash_crowd`` is the static run
(8 joiners), and ``cascade``'s ``start`` is the node while the builder's is
the time.  ``graph`` and ``seed`` are supplied by the session; every other
argument is a document parameter, required unless it has a default.  The
kinds that match their builder name for name (``region``, ``multi_region``,
the latency models, the ``perfect``/``jittered`` detectors) point straight
at it in the tables of :mod:`repro.api.specs`.

Imported on first use, never by :mod:`repro.api.specs` itself: the builders
live above :mod:`repro.api` in the import graph (their runners import
:mod:`repro.api.result`).
"""

from __future__ import annotations

from ..churn import MembershipSchedule, crash_recover_recrash, flash_crowd_joins, steady_state_churn
from ..churn.membership import leave, recover
from ..experiments.topologies import fig2_topology, fig3_topology
from ..failures import (
    CrashSchedule,
    cascade_crash,
    growing_region_crash,
    random_connected_region,
    region_crash,
)
from ..sim import ScriptedFailureDetector


def _or_seed(own_seed, seed):
    """A generator seed falls back to the experiment seed when absent *or*
    ``null`` — ``random.Random(None)`` would seed from the OS."""
    return seed if own_seed is None else own_seed


# -- topology kinds ---------------------------------------------------------
def fig2_graph():
    return fig2_topology().graph


def fig3_graph():
    return fig3_topology().graph


# -- failure kinds ----------------------------------------------------------
def no_crashes():
    return CrashSchedule()


def explicit_crashes(crashes=(), allow_recrash=False):
    return CrashSchedule(
        tuple((node, float(time)) for node, time in crashes), allow_recrash=allow_recrash
    )


def growing_region(graph, initial, growth, initial_at=1.0, growth_at=10.0, growth_spacing=2.0):
    return growing_region_crash(graph, initial, growth, initial_at, growth_at, growth_spacing)


def cascade(graph, start, size, start_at=1.0, spacing=2.0):
    return cascade_crash(graph, start, size, start=start_at, spacing=spacing)


def random_region(graph, seed, size, at=1.0, spread=0.0, region_seed=None):
    region = random_connected_region(graph, size, seed=_or_seed(region_seed, seed))
    return region_crash(graph, region.members, at=at, spread=spread)


# -- coupled kinds: one call returns (crashes, membership) ------------------
def steady_churn(graph, seed, churn_rate=0.05, duration=100.0, downtime=15.0, churn_seed=None):
    return steady_state_churn(
        graph, churn_rate, duration, seed=_or_seed(churn_seed, seed), downtime=downtime
    )


def race(graph, members, crash_at=1.0, recover_at=6.0, recrash_at=60.0):
    return crash_recover_recrash(graph, members, crash_at, recover_at, recrash_at)


# -- membership kinds -------------------------------------------------------
def static_membership():
    return MembershipSchedule()


def _scripted(event, events):
    built = (event(node, float(time)) for node, time in events)
    return MembershipSchedule(tuple(sorted(built, key=lambda e: (e.time, repr(e.node)))))


def recoveries(events=()):
    return _scripted(recover, events)


def leaves(events=()):
    return _scripted(leave, events)


def flash_crowd(graph, seed, count=0, at=3.0, spacing=1.0, join_seed=None):
    if not count:
        return MembershipSchedule()
    return flash_crowd_joins(
        graph, count=count, at=at, spacing=spacing, seed=_or_seed(join_seed, seed)
    )


# -- failure detectors ------------------------------------------------------
def scripted_detector(delays=(), default_delay=1.0):
    return ScriptedFailureDetector(
        delays={(subscriber, crashed): float(delay) for subscriber, crashed, delay in delays},
        default_delay=default_delay,
    )
