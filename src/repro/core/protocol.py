"""The cliff-edge consensus protocol (Algorithm 1 of the paper).

:class:`CliffEdgeNode` is a line-by-line implementation of the paper's
*convergent detection of crashed regions*.  Its structure mirrors the
pseudocode:

====================  =====================================================
Paper                  Here
====================  =====================================================
``init`` (l. 1-4)      :meth:`CliffEdgeNode.on_start`
``crash | q`` (l. 5)   :meth:`CliffEdgeNode.on_crash` (view construction)
l. 12-17               :meth:`_maybe_start_instance` (new consensus instance)
``mDeliver`` (l. 18)   :meth:`CliffEdgeNode.on_message` (updating opinions)
l. 26-31               :meth:`_maybe_reject` / :meth:`_reject`
l. 32-40               :meth:`_maybe_complete_round` (round / decision)
====================  =====================================================

The three ``upon event`` guards over local state (lines 12, 26, 32) are
re-evaluated to a fixpoint after every external event, which matches the
paper's mono-threaded event-based semantics.

Two deliberate, documented deviations from the raw pseudocode:

* **Single-node borders.**  The pseudocode's round bookkeeping implicitly
  assumes ``|border(V)| >= 2`` (it runs ``|border(V)| - 1`` rounds).  When a
  proposed view has exactly one border node, that node is the only
  participant; we run a single round and let it decide as soon as its own
  round-1 message is (self-)delivered.
* **Guard of line 32.**  The paper's guard does not mention ``proposed``;
  taken literally it would keep firing after an instance failed.  Because
  the round counter ``r`` belongs to the node's *active* proposal, we
  additionally require an active proposal (``proposed != ⊥``), which is the
  only reading under which the pseudocode terminates.

Both points are covered by dedicated unit tests.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from ..graph import (
    DEFAULT_RANKING,
    KnowledgeGraph,
    NodeId,
    Region,
    RegionRanking,
)
from ..sim.events import EventKind
from ..sim.process import MembershipChange, Process, ProcessContext
from .decisions import DEFAULT_DECISION_POLICY, DecisionPolicy
from .messages import RoundMessage
from .opinions import REJECT, Accept, OpinionVector, is_accept


class ProtocolError(RuntimeError):
    """Raised when the protocol observes an impossible state (a bug)."""


class _OnDemand:
    """A container attribute of a node, built when it is first read.

    A non-data descriptor: once the value is on the instance it shadows
    this, and every later read is a plain attribute load.  Two things it
    deliberately is not, both measured on python 3.11.  Not a
    ``__getattr__`` on the class: defining one takes every attribute read
    of every instance off the interpreter's specialised path (2-5 % of
    ``Simulator.run``).  And not ``functools.cached_property``, which
    stores through ``instance.__dict__``: asking for ``__dict__`` turns
    the instance's inline attribute values into a real dict, and each
    later attribute read of that node costs ~3x — on the border nodes,
    which run every handler (4-7 % of a ledger op).  ``setattr`` keeps the
    values inline.
    """

    def __init__(self, factory: Callable[[], Any]) -> None:
        self._factory = factory

    def __set_name__(self, owner: type, name: str) -> None:
        self._name = name

    def __get__(self, node: Any, owner: Optional[type] = None) -> Any:
        if node is None:
            return self
        value = self._factory()
        setattr(node, self._name, value)
        return value


class CliffEdgeNode(Process):
    """One node of the convergent-detection-of-crashed-regions protocol.

    Parameters
    ----------
    node_id:
        This node's identifier in the knowledge graph.
    decision_policy:
        Provides ``selectValueForView`` and ``deterministicPick``.
    ranking:
        The strict total order ``≺`` on regions; defaults to the paper's
        canonical ranking.
    arbitration_enabled:
        When False the node never rejects lower-ranked views (line 26 is
        disabled).  Only used by the EXP-A1 ablation; the protocol is not
        live without arbitration.
    early_termination:
        Enable the optimisation of the paper's footnote 6: an instance can
        terminate "once a node sees that all nodes in its border set know
        everything (i.e. no ⊥), i.e. after two rounds, in the best case".
        Concretely the node decides at the end of round ``r >= 2`` when the
        round vector is unanimously ``accept`` *and* every border node sent
        a round-``r`` message whose carried vector had no ``⊥`` entry
        (evidence that everybody already knows the full vector, so later
        rounds cannot change anybody's outcome).  Off by default to stay
        faithful to Algorithm 1 as written; EXP-A3 measures the savings.
    on_decide:
        Optional callback ``(view, decision) -> None`` fired when the node
        decides, in addition to the DECIDED trace event.

    ``__init__`` sets the scalars of Algorithm 1.  Its eight containers —
    ``locally_crashed``, ``received``, ``rejected``, ``opinions``,
    ``waiting``, ``instance_border``, ``complete_senders``,
    ``instance_attempt`` — appear when first read (:class:`_OnDemand`): the
    cliff edge reaches a crashed region's border and nobody else (CD3), so a
    node it never reaches costs one object, not nine.  From the first read
    on each is an ordinary instance attribute; reading one off an idle node
    gives an empty container.
    """

    def __init__(
        self,
        node_id: NodeId,
        decision_policy: DecisionPolicy = DEFAULT_DECISION_POLICY,
        ranking: RegionRanking = DEFAULT_RANKING,
        arbitration_enabled: bool = True,
        early_termination: bool = False,
        on_decide: Optional[Callable[[Region, Any], None]] = None,
    ) -> None:
        self.node_id = node_id
        self.decision_policy = decision_policy
        self.ranking = ranking
        self.arbitration_enabled = arbitration_enabled
        self.early_termination = early_termination
        self.on_decide = on_decide

        # --- Algorithm 1 state (lines 1-3): the scalars --------------------
        #: Decision value once decided, else None (the paper's ``decided``).
        self.decided: Optional[Any] = None
        #: The view decided upon (not in the pseudocode, kept for callers).
        self.decided_view: Optional[Region] = None
        #: Value proposed for the current instance, else None (``proposed``).
        self.proposed: Optional[Any] = None
        #: Highest-ranked crashed region known so far (``maxView``).
        self.max_view: Optional[Region] = None
        #: View waiting to be proposed (``candidateView``; None = empty).
        self.candidate_view: Optional[Region] = None
        #: View of the node's own current/last instance (``Vp``).
        self.current_view: Optional[Region] = None
        #: Current round of the node's own active instance (``r``).
        self.round: int = 0
        #: Number of instances this node started (for metrics/tests).
        self.instances_started: int = 0
        #: Number of own instances that failed and were reset.
        self.instances_failed: int = 0
        #: Churn extension: True once a join/recovery announcement has
        #: been folded in.  Gates the after-failure candidate recompute so
        #: the static model's behaviour stays byte-identical.
        self.epoch_changed: bool = False
        #: Churn extension: floor for attempts this node mints.  The
        #: runtime seeds it with ``incarnation << 20`` at (re)spawn (see
        #: :meth:`set_incarnation`), so a reincarnated node's instance
        #: generations can never collide with — and always supersede —
        #: the generations of its previous life.  0 in the static model.
        self.attempt_base: int = 0

    # --- Algorithm 1's containers: each is built when first read ----------
    #: Crashes this node has been notified of (``locallyCrashed``).
    #: Under churn, graceful leaves are announced through the same
    #: channel and land here too: an announced shutdown is fail-stop
    #: by choice, and the border must agree on it all the same.
    locally_crashed: set[NodeId] = _OnDemand(set)
    #: Views for which opinion state is tracked (``received``).
    received: set[Region] = _OnDemand(set)
    #: Views this node has rejected (``rejected``).
    rejected: set[Region] = _OnDemand(set)
    #: ``opinions[V][r]`` — one OpinionVector per view and round.
    opinions: dict[Region, dict[int, OpinionVector]] = _OnDemand(dict)
    #: ``waiting[V][r]`` — border nodes not yet heard from in round r.
    waiting: dict[Region, dict[int, set[NodeId]]] = _OnDemand(dict)
    #: Border of each tracked view, as carried by its round messages.
    instance_border: dict[Region, frozenset[NodeId]] = _OnDemand(dict)
    #: ``complete_senders[V][r]`` — border nodes whose round-``r``
    #: message carried a vector without any ``⊥`` entry (only tracked
    #: when ``early_termination`` is enabled).
    complete_senders: dict[Region, dict[int, set[NodeId]]] = _OnDemand(dict)
    #: Churn extension: per-view instance *generation*.  Always 0 in
    #: the static model.  A membership-epoch purge of a view's
    #: instance state bumps it, and round messages carry it, so stale
    #: in-flight messages from a closed attempt are discarded instead
    #: of poisoning the restarted instance (deliberately *not*
    #: cleared by :meth:`_drop_instance_state`).
    instance_attempt: dict[Region, int] = _OnDemand(dict)

    def set_incarnation(self, incarnation: int) -> None:
        """Called by the runtimes when spawning this process (churn).

        ``incarnation`` counts the node's lives (0 for the initial
        population).  Shifting it into the attempt floor keeps instance
        generations globally monotone across reincarnations; the shift
        leaves room for far more per-life epoch purges than any run can
        produce.
        """
        self.attempt_base = incarnation << 20

    def _attempt_of(self, view: Region) -> int:
        """The current instance generation of ``view`` at this node."""
        return self.instance_attempt.get(view, self.attempt_base)

    # ------------------------------------------------------------------
    # Event handlers (Process interface)
    # ------------------------------------------------------------------
    def on_start(self, ctx: ProcessContext) -> None:
        """Line 1-4: initialise and monitor the node's own border."""
        ctx.monitor_crash(ctx.graph.neighbours(self.node_id))

    def on_crash(self, ctx: ProcessContext, crashed: NodeId) -> None:
        """Lines 5-11: view construction upon a crash notification."""
        if crashed == self.node_id:
            raise ProtocolError("a node cannot be notified of its own crash")
        if crashed in self.locally_crashed:
            # The perfect failure detector notifies at most once per pair;
            # seeing a duplicate would indicate a runtime bug.
            return
        self.locally_crashed.add(crashed)
        # Line 7: extend monitoring to the border of the newly crashed node,
        # so the locally known crashed region can keep growing.
        to_monitor = ctx.graph.neighbours(crashed) - self.locally_crashed - {self.node_id}
        if to_monitor:
            ctx.monitor_crash(to_monitor)
        # Lines 8-11: recompute the highest-ranked locally crashed region.
        components = ctx.graph.connected_components(self.locally_crashed)
        regions = [Region(component) for component in components]
        best = self.ranking.max_ranked(ctx.graph, regions)
        if self.max_view is None or self.ranking.precedes(ctx.graph, self.max_view, best):
            self.max_view = best
            # In the static model this node borders *every* component of
            # its locally crashed set (knowledge only spreads along chains
            # of crashed nodes starting at its own neighbours), so taking
            # the best *bordered* component is exactly ``best`` there.
            # Under churn, recoveries can fragment the knowledge — or
            # stale cross-epoch detector state can notify crashes out of
            # adjacency order — leaving the globally best component
            # without this node on its border; proposing it would be
            # wrong, and staying silent would starve the component the
            # node *does* border (a CD7 deadlock found by the adversarial
            # churn sweep).
            bordered_best = self._best_bordered(ctx, regions)
            if bordered_best is not None:
                self.candidate_view = bordered_best
        self._evaluate_guards(ctx)

    def _best_bordered(self, ctx: ProcessContext, regions: list[Region]) -> Optional[Region]:
        """The highest-ranked region this node borders (None when none)."""
        bordered = [
            region
            for region in regions
            if self.node_id in ctx.graph.border(region.members)
        ]
        if not bordered:
            return None
        return self.ranking.max_ranked(ctx.graph, bordered)

    def on_message(self, ctx: ProcessContext, sender: NodeId, message: Any) -> None:
        """Lines 18-25: updating opinions for a (possibly conflicting) view."""
        if not isinstance(message, RoundMessage):
            raise ProtocolError(f"unexpected message type {type(message).__name__}")
        view = message.view
        # Churn extension: instance-generation gate (no-op statically,
        # where every attempt is 0).  A message from a closed attempt is
        # stale — processing it would poison the restarted instance with
        # opinions (e.g. rejections) given in a previous membership
        # epoch.  A message from a *newer* attempt means a peer already
        # processed an epoch change this node has not seen announced yet:
        # adopt the restart now, so none of the fresh instance's messages
        # are lost to stale local state.
        local_attempt = self._attempt_of(view)
        if message.attempt < local_attempt:
            # The sender is behind — typically a freshly reincarnated
            # border node whose attempt counters restarted at 0.  Its
            # message must not touch current state, but a live proposer
            # cannot be left hanging either (a silent drop deadlocks its
            # instance, and with it every instance waiting on the
            # sender).  Answer every stale-attempt message that carries
            # the sender's own live accept — a round-1 proposal or a
            # mid-instance relay, both meaning the sender is still
            # driving the doomed attempt:
            #
            # * if the view is this node's own current instance at the
            #   newer attempt, catch the sender up by re-sending our
            #   round-1 vector — the original multicast went to the
            #   sender's previous incarnation;
            # * otherwise reject at the sender's attempt (statelessly):
            #   either arbitration would reject it anyway, or the attempt
            #   itself was closed by a membership epoch this node has
            #   processed — in both cases the sender's doomed instance
            #   must fail so view construction can move it on.
            if is_accept(message.opinions.get(sender)):
                if (
                    view == self.current_view
                    and self.proposed is not None
                    and view in self.received
                ):
                    ctx.send(
                        sender,
                        RoundMessage(
                            1,
                            view,
                            self.instance_border[view],
                            self.opinions[view][1].as_mapping(),
                            attempt=local_attempt,
                        ),
                    )
                elif self.arbitration_enabled:
                    border = message.border
                    vector: dict[NodeId, Any] = {node: None for node in border}
                    vector[self.node_id] = REJECT
                    ctx.send(
                        sender,
                        RoundMessage(1, view, border, vector, attempt=message.attempt),
                    )
            return
        if message.attempt > local_attempt:
            if view == self.decided_view:
                # The decision stands (the region itself did not change);
                # record the newer attempt so its messages keep being
                # ignored without re-processing this branch.
                self.instance_attempt[view] = message.attempt
                return
            # Answer live proposers of the dying attempt before adopting
            # the newer one (their round-1 was merged into the state that
            # is about to vanish, and they are waiting on us).
            self._farewell_rejects(ctx, view, exclude=sender)
            self.instance_attempt[view] = message.attempt
            self._drop_instance_state(view)
            if self.current_view == view:
                self.proposed = None
                self.current_view = None
                self.round = 0
            if (
                self.decided is None
                and self.proposed is None
                and self.candidate_view is None
                and self.node_id in message.border
                and view.members <= self.locally_crashed
            ):
                # Re-arm so this node re-enters the fresh attempt; a
                # pending candidate (picked by view construction, which
                # knows more than this message) is never overwritten, and
                # a node only ever proposes from its *own* crash
                # evidence — a fresh incarnation mid-announcement-wave
                # must not start proposing regions on hearsay.
                self.candidate_view = view
        if view in self.rejected:
            # Guard of line 18: messages about rejected views are ignored.
            # One refinement for churn: a *freshly reincarnated* border
            # node proposing this view has never seen the reject this
            # node multicast to its previous incarnation — swallowing the
            # proposal silently would hang its instance forever.  Re-send
            # the stance directly to the proposer; for a same-epoch
            # proposer this is a duplicate whose entries merge to nothing
            # (first-writer-wins), so the static protocol is unaffected
            # beyond the one extra message.
            if (
                self.arbitration_enabled
                and message.round == 1
                and is_accept(message.opinions.get(sender))
            ):
                border = self.instance_border.get(view, message.border)
                vector: dict[NodeId, Any] = {node: None for node in border}
                vector[self.node_id] = REJECT
                ctx.send(
                    sender,
                    RoundMessage(1, view, border, vector, attempt=message.attempt),
                )
            return
        if view not in self.received:
            self._initialise_instance_state(view, message.border)
        elif message.border != self.instance_border[view]:
            # Churn extension: the same view proposed with two different
            # borders can only happen across membership epochs (within an
            # epoch the border is a function of the static graph).  Decide
            # which side is stale by asking the current graph.
            current_border = ctx.graph.border(view.members)
            if message.border != current_border or view == self.decided_view:
                # The *message* is the leftover of a closed epoch (or we
                # already decided on this view); ignore it.
                return
            # Our *local instance* is the leftover: restart it against the
            # current border, re-arming our own proposal so the usual
            # lines 12-17 machinery re-enters the fresh instance.
            self._drop_instance_state(view)
            if self.current_view == view:
                self.proposed = None
                self.current_view = None
                self.round = 0
                if self.decided is None and self.node_id in current_border:
                    self.candidate_view = view
            self._initialise_instance_state(view, message.border)
        round_vector = self.opinions[view].get(message.round)
        if round_vector is None:
            raise ProtocolError(
                f"round {message.round} out of range for view with border "
                f"{sorted(map(repr, message.border))}"
            )
        round_vector.merge(message.opinions)
        rejectors = message.rejectors
        self.waiting[view][message.round].discard(sender)
        if message.round > 1:
            # A round-r message proves the sender sent every earlier round
            # of this instance.  With FIFO channels those messages already
            # arrived — unless this node's instance state was rebuilt by a
            # membership-epoch purge after they were consumed (churn).  A
            # node's own opinion never changes within an instance, so
            # backfilling just the sender's entry and un-waiting it for
            # earlier rounds is a no-op statically and unblocks the
            # restarted instance under churn.
            sender_opinion = message.opinions.get(sender)
            for earlier_round in range(1, message.round):
                earlier_vector = self.opinions[view].get(earlier_round)
                if earlier_vector is None:
                    continue
                if sender_opinion is not None and earlier_vector.get(sender) is None:
                    earlier_vector.set(sender, sender_opinion)
                self.waiting[view][earlier_round].discard(sender)
        if (
            self.epoch_changed
            and view == self.current_view
            and self.proposed is not None
            and self.decided is None
            and message.round < self.round
            and is_accept(message.opinions.get(sender))
        ):
            # Churn catch-up (never triggers statically: the gate requires
            # a processed membership epoch).  The sender is an active
            # participant rounds behind our own instance — typically a
            # reincarnated node whose copies of the earlier rounds were
            # delivered to its previous life and dropped.  Nobody resends
            # rounds in the static protocol, so without help the sender
            # waits forever and the whole border deadlocks behind it.
            # Re-sending our newest round vector lets its backfill (above)
            # un-wait us for every earlier round and absorb our cumulative
            # knowledge; each ahead participant answers for itself.
            newest = self.opinions[view].get(self.round)
            if newest is not None:
                ctx.send(
                    sender,
                    RoundMessage(
                        self.round,
                        view,
                        self.instance_border[view],
                        newest.as_mapping(),
                        attempt=local_attempt,
                    ),
                )
        if rejectors:
            # A rejector has permanently left this instance (line 31): it
            # will never send a message for *any* round of this view, so
            # no round may wait for it.  Removing it only from the current
            # round can livelock a proposer whose later-round waiting sets
            # still name the rejector while every potential relayer has
            # already discarded the view.
            for waiting_round in self.waiting[view].values():
                waiting_round.difference_update(rejectors)
        if self.early_termination:
            border = self.instance_border[view]
            carried_complete = border <= {
                node
                for node, opinion in message.opinions.items()
                if opinion is not None
            }
            if carried_complete:
                self.complete_senders.setdefault(view, {}).setdefault(
                    message.round, set()
                ).add(sender)
        self._evaluate_guards(ctx)

    def on_membership(self, ctx: ProcessContext, change: MembershipChange) -> None:
        """Churn extension: fold a membership announcement into local state.

        Not part of Algorithm 1 (the paper's model is crash-only; see
        :mod:`repro.churn`).  A join or recovery makes ``change.node``
        live, so every piece of state about a view containing it belongs
        to a closed membership epoch and is discarded — including a
        *decision* on such a view, which re-arms the node so it can decide
        again should the region re-crash (the epoch-quotiented CD1 of
        :mod:`repro.churn.properties` permits exactly this).

        Graceful leaves normally reach the protocol as ordinary crash
        notifications (an announced shutdown is fail-stop by choice, and
        the border must agree on the departed region all the same); a
        leave arriving here — a custom runtime delivering it directly —
        is folded in the same way.
        """
        node = change.node
        if not change.alive:
            if node not in self.locally_crashed:
                self.on_crash(ctx, node)
            return
        self.epoch_changed = True
        self.locally_crashed.discard(node)
        self._purge_views_containing(ctx, node, incarnation=change.incarnation)
        current = self.current_view
        if (
            current is not None
            and self.proposed is not None
            and self.decided is None
            and current in self.received
            and node in self.instance_border.get(current, frozenset())
            and node in self.waiting[current].get(1, set())
        ):
            # Our active instance survived the purge, yet the announced
            # node is a participant that never answered round 1: our
            # round-1 multicast was delivered to its previous incarnation
            # and dropped.  Re-send the round-1 vector to the fresh
            # incarnation — without this the instance (and every instance
            # waiting on us) is stranded; incarnation floors alone cannot
            # catch it because different nodes' floors coincide.
            ctx.send(
                node,
                RoundMessage(
                    1,
                    current,
                    self.instance_border[current],
                    self.opinions[current][1].as_mapping(),
                    attempt=self._attempt_of(current),
                ),
            )
        # Re-read the neighbourhood: edges may have changed with the epoch,
        # and a recovered neighbour must be monitored afresh so a re-crash
        # is detected (subscriptions are per-incarnation).
        to_monitor = (
            ctx.graph.neighbours(self.node_id) - self.locally_crashed - {self.node_id}
        )
        if to_monitor:
            ctx.monitor_crash(to_monitor)
        self._recompute_candidate(ctx)
        self._evaluate_guards(ctx)

    def _drop_instance_state(self, view: Region) -> None:
        """Forget all per-instance bookkeeping for ``view``."""
        self.received.discard(view)
        self.rejected.discard(view)
        self.opinions.pop(view, None)
        self.waiting.pop(view, None)
        self.instance_border.pop(view, None)
        self.complete_senders.pop(view, None)

    def _farewell_rejects(
        self,
        ctx: ProcessContext,
        view: Region,
        exclude: NodeId,
    ) -> None:
        """Answer live proposers before their instance state is dropped.

        Called (only under churn) just before an epoch purge or an
        attempt adoption discards ``view``'s instance state.  Any live
        participant whose ``accept`` sits in the round-1 vector has
        already multicast its round-1 and is waiting for this node's
        answer; dropping the state silently would leave that proposer —
        and every instance waiting on *it* — stranded forever.  A
        stateless reject at the dying attempt makes its instance fail, so
        view construction moves it on.  Receivers that already moved past
        this attempt ignore the message (attempt gate), so a redundant
        farewell is harmless.
        """
        vector_by_round = self.opinions.get(view)
        if not vector_by_round:
            return
        round_one = vector_by_round.get(1)
        if round_one is None:
            return
        border = self.instance_border.get(view)
        if border is None:
            return
        attempt = self._attempt_of(view)
        reply: dict[NodeId, Any] = {member: None for member in border}
        reply[self.node_id] = REJECT
        farewell = RoundMessage(1, view, border, reply, attempt=attempt)
        for sender, opinion in round_one.as_mapping().items():
            if (
                sender != self.node_id
                and sender != exclude
                and sender not in self.locally_crashed
                and is_accept(opinion)
            ):
                ctx.send(sender, farewell)

    def _purge_views_containing(
        self, ctx: ProcessContext, node: NodeId, incarnation: int = 0
    ) -> None:
        """Drop every tracked view made stale by ``node`` becoming live.

        ``incarnation`` is the node's life count in the new epoch; the
        *floor* ``incarnation << 20`` is the lowest instance generation
        the fresh incarnation itself can mint (see
        :meth:`set_incarnation`).

        Two kinds of staleness:

        * views *containing* ``node`` — the region no longer exists, so
          instance state, rejections and even decisions about it belong
          to the closed epoch;
        * views whose *participant set* contains ``node``, at a
          generation *below the floor* — the instance was running among a
          border that included the node's previous incarnation.  Its
          round vectors (and any rejection this node issued while a
          since-purged higher-ranked view was in flight) can never
          complete: the old incarnation will not speak again, and a stale
          ``reject`` entry would poison every later attempt, deadlocking
          the border at quiescence with no decision (a CD7 violation
          surfaced by the adversarial churn sweep).  Dropping the state
          re-arms a clean same-view instance among the new epoch's
          incarnations.  An instance already *at or above* the floor was
          started by the fresh incarnation itself (its proposal can race
          its own recovery announcement) and must be left alone.  A
          *decision* on such a view survives either way: the region
          itself did not change, and the epoch-quotiented CD1 forbids
          re-deciding it without a member-level epoch change.
        """
        floor = incarnation << 20

        def border_stale_for(view: Region) -> bool:
            """Participant-set staleness: ``node``'s previous life was in
            the instance's border and the generation predates its new
            incarnation's floor."""
            if view == self.decided_view or self._attempt_of(view) >= floor:
                return False
            border = self.instance_border.get(view)
            if border is None:
                border = ctx.graph.border(view.members)
            return node in border

        def abandon_if_current(view: Region) -> None:
            """Abandon the in-flight attempt; _recompute_candidate re-arms
            it against the new epoch's participant set."""
            if self.current_view == view:
                self.proposed = None
                self.current_view = None
                self.round = 0

        def bump_generation(view: Region) -> None:
            """Open a new instance generation, converging on the
            reincarnated node's floor (rather than local+1) so its own
            fresh proposals land at an equal generation everywhere."""
            self.instance_attempt[view] = max(self._attempt_of(view) + 1, floor)

        tracked = set(self.received) | set(self.rejected) | set(self.opinions)
        member_stale = {view for view in tracked if node in view.members}
        border_stale: set[Region] = set()
        for view in tracked - member_stale:
            if border_stale_for(view):
                border_stale.add(view)
                abandon_if_current(view)
        stale = member_stale | border_stale
        for view in stale:
            if view in border_stale:
                # Live proposers of a border-stale view do not hear this
                # announcement-driven abandonment through their own
                # purges reliably (they abandon member-stale views
                # themselves, but a border-stale instance can be theirs
                # alone); answer them before the state vanishes.
                self._farewell_rejects(ctx, view, exclude=node)
            self._drop_instance_state(view)
            # Messages of the purged attempt still in flight must not
            # contaminate a restart.
            bump_generation(view)
        # A just-proposed current view may not be tracked yet (its state
        # is lazily created by the first round message, which is still in
        # flight).  Its generation must advance all the same — whether
        # ``node`` is a member *or* a border participant — or those
        # in-flight messages would assemble a ghost instance of the
        # closed epoch; worse, an untracked current instance whose
        # round-1 was delivered to the node's previous incarnation would
        # keep waiting for an answer that can never come.
        for held in (self.current_view, self.candidate_view):
            if held is None or held in stale:
                continue
            if node in held.members:
                # Member-staleness is unconditional: the region changed.
                bump_generation(held)
            elif border_stale_for(held):
                bump_generation(held)
                abandon_if_current(held)
        if self.candidate_view is not None and node in self.candidate_view.members:
            self.candidate_view = None
        if self.decided_view is not None and node in self.decided_view.members:
            # The decision concerned a region of a closed epoch; it stays
            # in the trace, but this node may participate (and decide)
            # again in the new epoch.
            self.decided = None
            self.decided_view = None
            self.proposed = None
            self.current_view = None
            self.round = 0
        elif self.current_view is not None and node in self.current_view.members:
            # The in-flight instance is about a region that no longer
            # exists; abandon it without counting a protocol failure.
            self.proposed = None
            self.current_view = None
            self.round = 0

    def _recompute_candidate(self, ctx: ProcessContext) -> None:
        """Re-derive ``maxView``/``candidateView`` after an epoch change."""
        self.locally_crashed = {
            crashed for crashed in self.locally_crashed if crashed in ctx.graph
        }
        if self.locally_crashed:
            components = ctx.graph.connected_components(self.locally_crashed)
            regions = [Region(component) for component in components]
            self.max_view = self.ranking.max_ranked(ctx.graph, regions)
            # As in on_crash: the proposable candidate is the best region
            # this node *borders* — after recoveries fragment the local
            # knowledge, the globally best component may belong to some
            # other border entirely.
            bordered_best = self._best_bordered(ctx, regions)
            if (
                self.decided is None
                and self.proposed is None
                and bordered_best is not None
                and bordered_best != self.current_view
            ):
                self.candidate_view = bordered_best
        else:
            self.max_view = None

    # ------------------------------------------------------------------
    # Guards (lines 12, 26, 32) — evaluated to a fixpoint
    # ------------------------------------------------------------------
    def _evaluate_guards(self, ctx: ProcessContext) -> None:
        progress = True
        while progress:
            progress = (
                self._maybe_reject(ctx)
                or self._maybe_start_instance(ctx)
                or self._maybe_complete_round(ctx)
            )

    def _maybe_start_instance(self, ctx: ProcessContext) -> bool:
        """Lines 12-17: start a new consensus instance."""
        if self.proposed is not None or self.candidate_view is None:
            return False
        if self.decided is not None:
            # A decided node never proposes again (its ``proposed`` is never
            # reset after the deciding instance), so this is unreachable in
            # the unmodified protocol; keep it as a safety net.
            return False
        view = self.candidate_view
        if view in self.rejected:
            # Statically unreachable: once a node rejects a view its own
            # candidates only ever rank higher.  Under churn, the
            # higher-ranked view that justified the stance can be purged
            # by an epoch change, after which view construction
            # legitimately re-picks the rejected view.  The stance (and
            # the instance state poisoned by our own multicast reject) is
            # stale: reopen a clean generation so peers restart with us.
            self._drop_instance_state(view)
            self.instance_attempt[view] = self._attempt_of(view) + 1
        self.current_view = view
        self.candidate_view = None
        self.proposed = self.decision_policy.select_value(ctx.graph, view, self.node_id)
        border = ctx.graph.border(view.members)
        if self.node_id not in border:
            raise ProtocolError(
                f"{self.node_id!r} proposed a view it does not border: {view!r}"
            )
        self.round = 1
        self.instances_started += 1
        initial = {node: None for node in border}
        initial[self.node_id] = Accept(self.proposed)
        ctx.record(
            EventKind.VIEW_PROPOSED,
            payload=view,
            value=self.proposed,
            border_size=len(border),
        )
        ctx.multicast(
            border,
            RoundMessage(
                1,
                view,
                frozenset(border),
                initial,
                attempt=self._attempt_of(view),
            ),
        )
        return True

    def _maybe_reject(self, ctx: ProcessContext) -> bool:
        """Line 26: reject a received view ranked strictly below ``Vp``."""
        if not self.arbitration_enabled or self.current_view is None:
            return False
        for view in sorted(self.received, key=lambda v: self.ranking.key(ctx.graph, v)):
            if view != self.current_view and self.ranking.precedes(
                ctx.graph, view, self.current_view
            ):
                self._reject(ctx, view)
                return True
        return False

    def _reject(self, ctx: ProcessContext, view: Region) -> None:
        """Lines 28-31: multicast a reject vector for ``view``."""
        border = self.instance_border.get(view, ctx.graph.border(view.members))
        vector: dict[NodeId, Any] = {node: None for node in border}
        vector[self.node_id] = REJECT
        self.received.discard(view)
        self.rejected.add(view)
        ctx.record(EventKind.VIEW_REJECTED, payload=view, border_size=len(border))
        ctx.multicast(
            border,
            RoundMessage(
                1,
                view,
                frozenset(border),
                vector,
                attempt=self._attempt_of(view),
            ),
        )

    def _maybe_complete_round(self, ctx: ProcessContext) -> bool:
        """Lines 32-40: complete a round of the node's own instance."""
        if self.proposed is None or self.decided is not None:
            return False
        view = self.current_view
        if view is None or view not in self.received:
            return False
        pending = self.waiting[view][self.round] - self.locally_crashed
        if pending:
            return False
        border = self.instance_border[view]
        total_rounds = max(1, len(border) - 1)
        ctx.record(
            EventKind.ROUND_COMPLETED,
            payload=view,
            round=self.round,
            total_rounds=total_rounds,
        )
        if self.round == total_rounds or self._can_terminate_early(view):
            final_vector = self.opinions[view][self.round]
            if all(is_accept(final_vector.get(node)) for node in border):
                values = final_vector.accepted_values()
                self.decided = self.decision_policy.pick(ctx.graph, view, values)
                self.decided_view = view
                ctx.record(
                    EventKind.DECIDED,
                    payload=view,
                    decision=self.decided,
                    rounds=self.round,
                )
                if self.on_decide is not None:
                    self.on_decide(view, self.decided)
            else:
                # Line 37: the attempt failed (a reject or a crash made a
                # unanimous accept impossible); reset and wait for view
                # construction to produce a higher-ranked candidate.
                self.proposed = None
                self.instances_failed += 1
                ctx.record(
                    EventKind.INSTANCE_FAILED,
                    payload=view,
                    rejectors=tuple(sorted(map(repr, final_vector.rejectors()))),
                )
                # Statically the better candidate is already pending (set
                # by the crash notification that caused the rejection) and
                # line 37 just waits for it.  Under churn a membership
                # purge may have wiped that pending candidate while this
                # instance was in flight; without recomputation the node
                # would idle forever even though its local knowledge
                # already names the view it should propose (a CD7
                # deadlock found by the adversarial churn sweep).  Gated
                # on ``epoch_changed`` so static executions — including
                # the EXP-A2 weak-ranking liveness-loss demonstration —
                # are untouched.
                if self.epoch_changed:
                    self._recompute_candidate(ctx)
        else:
            # Lines 38-40: advance to the next round, relaying everything
            # known from the round that just completed.
            previous = self.opinions[view][self.round]
            self.round += 1
            ctx.multicast(
                border,
                RoundMessage(
                    self.round,
                    view,
                    border,
                    previous.as_mapping(),
                    attempt=self._attempt_of(view),
                ),
            )
        return True

    def _can_terminate_early(self, view: Region) -> bool:
        """Footnote-6 optimisation: everybody provably knows everything.

        True when early termination is enabled, the current round's vector
        is unanimously ``accept``, and every border node's round-``r``
        message carried a complete (no-``⊥``) vector.  Under those
        conditions no later round can change any node's final vector, so
        terminating now preserves CD4/CD5.
        """
        if not self.early_termination or self.round < 2:
            return False
        border = self.instance_border[view]
        vector = self.opinions[view][self.round]
        if not all(is_accept(vector.get(node)) for node in border):
            return False
        complete = self.complete_senders.get(view, {}).get(self.round, set())
        return border <= complete

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _initialise_instance_state(self, view: Region, border: frozenset[NodeId]) -> None:
        """Lines 19-22: allocate opinion/waiting rows for a new view."""
        self.received.add(view)
        self.instance_border[view] = frozenset(border)
        total_rounds = max(1, len(border) - 1)
        self.opinions[view] = {
            round_number: OpinionVector(border)
            for round_number in range(1, total_rounds + 1)
        }
        self.waiting[view] = {
            round_number: set(border) for round_number in range(1, total_rounds + 1)
        }

    # -- Introspection used by tests, experiments and examples ------------
    @property
    def has_decided(self) -> bool:
        """True once the node has raised its ``decide`` event."""
        return self.decided is not None

    def known_crashed_region(self) -> frozenset[NodeId]:
        """The set of nodes this node currently knows to have crashed."""
        return frozenset(self.locally_crashed)

    def describe_state(self) -> str:
        """One-line state summary (used by the quickstart example)."""
        status = "decided" if self.has_decided else (
            "proposing" if self.proposed is not None else "idle"
        )
        view = self.decided_view or self.current_view
        view_text = (
            "{" + ", ".join(map(repr, view.sorted_members())) + "}" if view else "-"
        )
        return (
            f"{self.node_id!r}: {status}, view={view_text}, "
            f"known_crashed={sorted(map(repr, self.locally_crashed))}"
        )
