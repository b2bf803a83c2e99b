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
from ..churn.attachment import FreshJoinByLocality
from ..churn.membership import MembershipEventKind, join, leave, recover
from ..experiments.topologies import fig2_topology, fig3_topology
from ..failures import (
    CrashSchedule,
    cascade_crash,
    growing_region_crash,
    random_connected_region,
    region_crash,
)
from ..sim import ScriptedFailureDetector
from .specs import SpecError, thaw


def _or_seed(own_seed, seed):
    """A generator seed falls back to the experiment seed when absent *or*
    ``null`` — ``random.Random(None)`` would seed from the OS."""
    return seed if own_seed is None else own_seed


# -- topology kinds ---------------------------------------------------------
def fig2_graph():
    return fig2_topology().graph


def fig3_graph():
    return fig3_topology().graph


def _rows(param, check):
    """Mark a builder whose ``param`` lists rows: ``check`` validates one
    (never coercing it) and returns what the builder builds from it.  A
    spec runs the same check where it is constructed, so a bad row is a
    :class:`SpecError` there, not in a worker (:func:`repro.api.specs.check_rows`)."""

    def mark(builder):
        builder.rows = (param, check)
        return builder

    return mark


def _row_time(row, time, what):
    """A row's time: an int or a float (not a bool), as a float."""
    if isinstance(time, bool) or not isinstance(time, (int, float)):
        raise SpecError(f"bad {what} row {thaw(row)}: time must be a number")
    return float(time)


# -- failure kinds ----------------------------------------------------------
def no_crashes():
    return CrashSchedule()


def _crash_row(row):
    """One ``[node, t]`` crash row."""
    if not isinstance(row, (list, tuple)) or len(row) != 2:
        raise SpecError(f"bad crash row {thaw(row)}: rows are [node, t]")
    return row[0], _row_time(row, row[1], "crash")


@_rows("crashes", _crash_row)
def explicit_crashes(crashes=(), allow_recrash=False):
    return CrashSchedule(tuple(map(_crash_row, crashes)), allow_recrash=allow_recrash)


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


#: A membership row's kind -> its length: ``[kind, node, t]``, and a join
#: also names the ``fanout`` and ``anchor`` it attaches by locality with.
_ROW_LENGTHS = {"recover": 3, "leave": 3, "join": 5}


def _membership_event(row):
    """One membership row as an event."""
    kind = row[0] if isinstance(row, (list, tuple)) and row else None
    if not isinstance(kind, str) or _ROW_LENGTHS.get(kind) != len(row):
        raise SpecError(
            f"bad membership row {thaw(row)}: rows are [recover|leave, node, t] "
            "or [join, node, t, fanout, anchor]"
        )
    node, time = row[1], _row_time(row, row[2], "membership")
    if kind != "join":
        return (recover if kind == "recover" else leave)(node, time)
    fanout, anchor = row[3], row[4]
    if isinstance(fanout, bool) or not isinstance(fanout, int):
        raise SpecError(f"bad membership row {thaw(row)}: fanout must be an integer")
    return join(node, time, FreshJoinByLocality(fanout=fanout, anchor=anchor))


@_rows("rows", _membership_event)
def explicit_membership(rows=()):
    """The script as written, in its order (an empty one is still churn)."""
    return MembershipSchedule(tuple(_membership_event(row) for row in rows))


def membership_rows(schedule):
    """``schedule`` as ``explicit`` rows (its joins attach by locality)."""
    return [
        [event.kind.value, event.node, event.time]
        + (
            [event.attachment.fanout, event.attachment.anchor]
            if event.kind is MembershipEventKind.JOIN
            else []
        )
        for event in schedule
    ]


def _recovery_row(row):
    """One ``[node, t]`` row of ``recoveries``."""
    return _membership_event(("recover", *row) if isinstance(row, (list, tuple)) else row)


def _leave_row(row):
    """One ``[node, t]`` row of ``leaves``."""
    return _membership_event(("leave", *row) if isinstance(row, (list, tuple)) else row)


def _scripted(events, check):
    built = map(check, events)
    return MembershipSchedule(tuple(sorted(built, key=lambda e: (e.time, repr(e.node)))))


@_rows("events", _recovery_row)
def recoveries(events=()):
    return _scripted(events, _recovery_row)


@_rows("events", _leave_row)
def leaves(events=()):
    return _scripted(events, _leave_row)


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
