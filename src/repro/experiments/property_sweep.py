"""Adversarial property sweep (EXP-C1) and its churn extension.

The paper proves CD1–CD7; the sweep checks them empirically across many
randomised topologies and crash schedules, including the adversarial cases
the proofs worry about: regions growing mid-protocol, cascades, several
simultaneous regions, and slow/fast failure detection mixes.

The churn extension layers a randomised membership script on top — joins
and recoveries racing the cascades — and checks the *epoch-quotiented*
CD1–CD7 specification instead.

Every case is a document drawn from its seed
(:func:`~repro.api.presets.property_case_spec`,
:func:`~repro.api.presets.churn_property_case_spec`), so a violation
(there should be none) is written down and replayed with
``run_spec(churn_property_case_spec(seed))``.  Both sweeps accept
``workers=N`` to shard their cases over a process pool via
:class:`~repro.scale.ShardedSweepRunner`; the outcomes (including the
canonical per-case trace digests) are identical for every worker count.
"""

from __future__ import annotations

from typing import Sequence

from ..scale.task import SweepOutcome


def property_sweep(
    seeds: Sequence[int] = tuple(range(20)), workers: int = 1
) -> list[SweepOutcome]:
    """EXP-C1: one ``property`` outcome per seed, in seed order.

    ``workers > 1`` shards the cases over a process pool; the outcomes
    (digests included) are identical to a ``workers=1`` run.
    """
    from ..scale import ShardedSweepRunner, property_tasks

    return list(ShardedSweepRunner(workers=workers).run(property_tasks(seeds)).outcomes)


def churn_property_sweep(
    seeds: Sequence[int] = tuple(range(20)), workers: int = 1
) -> list[SweepOutcome]:
    """The adversarial churn extension of EXP-C1 (``churn-property``)."""
    from ..scale import ShardedSweepRunner, churn_property_tasks

    return list(
        ShardedSweepRunner(workers=workers).run(churn_property_tasks(seeds)).outcomes
    )


def case_row(outcome: SweepOutcome) -> dict[str, object]:
    """A case's table row, from its outcome and the labels its document
    was built with (a churn case has ``joins``/``recoveries``/``epochs``
    where a static one has ``domains``)."""
    labels = outcome.labels
    shape = ("joins", "recoveries", "epochs") if "epochs" in labels else ("domains",)
    return {
        "seed": outcome.seed,
        "topology": labels["topology"],
        "nodes": outcome.nodes,
        "crashed": labels["crashed"],
        **{key: labels[key] for key in shape},
        "decisions": outcome.decisions,
        "views": outcome.decided_views,
        "messages": outcome.messages,
        "quiescent": outcome.quiescent,
        "spec_holds": outcome.spec_holds,
    }


def sweep_summary(cases: Sequence[SweepOutcome]) -> dict[str, object]:
    """Aggregate view of a sweep (``repro report``'s EXP-C1 claims)."""
    return {
        "cases": len(cases),
        "all_hold": all(case.spec_holds for case in cases),
        "all_quiescent": all(case.quiescent for case in cases),
        "total_decisions": sum(case.decisions for case in cases),
        "total_messages": sum(case.messages for case in cases),
        "violating_seeds": [case.seed for case in cases if not case.spec_holds],
    }
