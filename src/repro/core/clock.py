"""Clocks: periodic handlers.

A clocked component registers a handler at a frequency; the engine calls
``handler(cycle)`` every period.  Handlers return ``True`` to unregister
(SST's convention), which lets idle components drop off the clock and
stop generating events — essential for letting the simulation terminate
and for keeping the pure-Python event loop affordable.

A cancelled/paused clock can be reactivated with
:meth:`Clock.reactivate`, which resumes on the *next* aligned cycle
boundary so a clock that slept keeps its phase.

Shared clock arbiter
--------------------
Real SST drives all same-frequency components from one shared tick
source, and so does this engine: every clock is a member of the
:class:`ClockArbiter` for its ``(period, priority, phase residue)``
class, which keeps ONE queue event per tick boundary and fires the due
members in registration order when it pops.  For a fabric of N
same-frequency components that is one heap push/pop per cycle, not N.

Determinism: the chain event carries the members' priority and a seq
from the simulation's one counter, so ties against link events break
by push order; within one boundary, members fire in registration order.

Lockstep plan: while every member of a class is active, due at the same
boundary and at the same cycle, the arbiter holds their handlers in one
flat list with one shared cycle count and due time, and a boundary is a
bare ``for handler in plan`` pass.  ``Clock.cycle`` and
``Clock.next_tick_time`` are then derived from the shared values.  The
first scheduling change during a pass hands the rest of the boundary to
the member loop (see :meth:`ClockArbiter._dissolve`), so the observable
semantics are the member loop's.

``cancel``/``reactivate`` stay amortised O(1): cancel flips ``active``
(the arbiter skips inactive members), reactivate realigns the member's
due time and at most re-arms the shared chain event.  Either may first
dissolve a lockstep plan, an O(members) write-back; since a plan only
re-forms after a full O(members) boundary, that cost amortises.
"""

from __future__ import annotations

from itertools import islice
from operator import attrgetter
from typing import TYPE_CHECKING, Callable, List, Optional, Tuple

from .event import Event
from .units import SimTime

if TYPE_CHECKING:  # pragma: no cover
    from .simulation import Simulation

#: Clock handlers take the cycle index, return True to unregister.
ClockHandler = Callable[[int], Optional[bool]]

_active = attrgetter("active")
_cycle = attrgetter("_cycle")
_handler = attrgetter("_handler")


class _ArbiterTickEvent(Event):
    """Shared tick token for one :class:`ClockArbiter` chain.

    Carries the arbiter's generation stamp: re-arming the chain at an
    earlier boundary (reactivate, a deferred phase) bumps the
    generation, so the superseded chain event left in the queue becomes
    a no-op.
    """

    __slots__ = ("generation",)

    def __init__(self, generation: int):
        self.generation = generation


class Clock:
    """A recurring tick source bound to one handler.

    Created via :meth:`Simulation.register_clock`, which validates the
    period and phase, picks the arbiter and passes the first due time;
    construction joins the arbiter.  A clock holds only its own state:
    ``sim``, ``period`` and ``priority`` are read through the arbiter.
    ``cycle`` counts handler invocations since registration (while
    inactive the count does *not* advance — it is a tick count, not
    wall time).  The clock is a passive member: its arbiter owns the
    queue event and calls the handler.  ``handler``, ``cycle`` and
    ``next_tick_time`` are read-only; while the arbiter runs a lockstep
    plan the last two are derived from its shared state.  Observers see
    each member tick with the clock itself as the handler
    (``clock:<name>``, see :func:`repro.core.tracelog.describe_handler`).
    """

    __slots__ = ("name", "_handler", "_cycle", "active", "_next_tick",
                 "_arbiter", "_index", "_in_arbiter")

    def __init__(self, name: str, handler: ClockHandler, due: SimTime,
                 arbiter: "ClockArbiter"):
        self.name = name
        self._handler = handler
        self._cycle = 0
        self.active = True
        self._next_tick = due
        self._arbiter = arbiter
        #: position in the arbiter's lockstep plan (valid while one exists)
        self._index = 0
        self._in_arbiter = True
        # Join the arbiter; the chain needs arming only when this member
        # is due before the live chain event (or there is none).
        if arbiter._plan is not None:
            arbiter._dissolve()
        arbiter._members.append(self)
        scheduled = arbiter._scheduled_time
        if scheduled is None or due < scheduled:
            arbiter._ensure_scheduled(due)

    # A clock's class (simulation, period, priority) is its arbiter's.
    sim = property(attrgetter("_arbiter.sim"))
    period = property(attrgetter("_arbiter.period"))
    priority = property(attrgetter("_arbiter.priority"))

    @property
    def handler(self) -> ClockHandler:
        return self._handler

    @property
    def cycle(self) -> int:
        if self.active and self._arbiter._plan is not None:
            return self._arbiter._member_state(self)[0]
        return self._cycle

    @property
    def next_tick_time(self) -> SimTime:
        if self.active and self._arbiter._plan is not None:
            return self._arbiter._member_state(self)[1]
        return self._next_tick

    def cancel(self) -> None:
        """Deactivate; the arbiter skips the clock until reactivated."""
        if self.active and self._arbiter._plan is not None:
            self._arbiter._dissolve()
        self.active = False

    def reactivate(self) -> None:
        """Resume ticking on the next aligned period boundary after `now`."""
        if self.active:
            return
        self.active = True
        now = self.sim.now
        if self._next_tick <= now:
            # Advance to the first aligned boundary strictly after now.
            behind = now - self._next_tick
            steps = behind // self.period + 1
            self._next_tick += steps * self.period
        self._arbiter.rejoin(self)

    # -- checkpoint support ------------------------------------------------
    def capture_state(self) -> dict:
        """The clock's mutable scheduling state (`repro.ckpt`).

        Period/priority/handler are rebuilt from the configuration; only
        what advances during a run is captured, read through the derived
        views so a live lockstep plan is left in place.  The arbiter's
        chain event lives in the event queue and is captured there.
        """
        return {
            "name": self.name,
            "cycle": self.cycle,
            "active": self.active,
            "next_tick": self.next_tick_time,
        }

    def restore_state(self, state: dict) -> None:
        """Adopt captured state."""
        if state["name"] != self.name:
            raise ValueError(
                f"clock state mismatch: captured {state['name']!r}, "
                f"restoring onto {self.name!r}"
            )
        if self._arbiter._plan is not None:
            self._arbiter._dissolve()
        self._cycle = state["cycle"]
        self.active = state["active"]
        self._next_tick = state["next_tick"]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "active" if self.active else "stopped"
        return f"Clock({self.name!r}, period={self.period}ps, cycle={self.cycle}, {state})"


class ClockArbiter:
    """One shared tick chain driving all clocks of one (period, priority,
    phase residue) class.

    Owned by :class:`Simulation` (one per distinct key, created on
    demand by ``register_clock``).  At most ONE ``_ArbiterTickEvent``
    for this arbiter is live in the queue at any time; when it pops, the
    arbiter fires every active member whose due time equals ``now`` (in
    registration order), advances them by one period, and re-arms the
    chain at the earliest due time of any active member.  Members whose
    due time lies in the future (deferred phase starts, reactivations)
    are simply skipped until their boundary comes up.

    Invariant: while any member is active, the chain event is scheduled
    at ``min(member due times)``; with no active members the chain goes
    quiet and costs nothing until a reactivate re-arms it.

    Lockstep plan: after a bare boundary that fired every member, all
    still active at equal cycles with no re-arm request pending, the
    arbiter keeps ``_plan`` (the members' handlers, in member order),
    ``_plan_cycle`` and ``_plan_due``; the members' own ``_cycle`` and
    ``_next_tick`` are stale until :meth:`_dissolve` writes them back.
    Any change to membership or scheduling, observed dispatch and
    checkpoint restore dissolve the plan first.
    """

    __slots__ = ("sim", "period", "priority", "name", "_members",
                 "_generation", "_scheduled_time", "_dispatching",
                 "_resched_hint", "_plan", "_plan_cycle", "_plan_due",
                 "_plan_iter", "_handoff_pos")

    def __init__(self, sim: "Simulation", period: SimTime, priority: int,
                 name: str):
        self.sim = sim
        self.period = period
        self.priority = priority
        self.name = name
        self._members: List[Clock] = []
        self._generation = 0
        #: time the live chain event is scheduled for (None = no chain)
        self._scheduled_time: Optional[SimTime] = None
        self._dispatching = False
        #: earliest re-arm request made during a dispatch (see rejoin)
        self._resched_hint: Optional[SimTime] = None
        #: lockstep plan: member handlers in member order (None = no plan)
        self._plan: Optional[List[ClockHandler]] = None
        self._plan_cycle = 0
        self._plan_due: SimTime = 0
        #: the running lockstep pass's iterator over ``_plan``
        self._plan_iter = None
        #: member whose handler was running when a pass was dissolved
        self._handoff_pos = 0

    def __len__(self) -> int:
        return len(self._members)

    @property
    def active_members(self) -> int:
        return sum(1 for clock in self._members if clock.active)

    def rejoin(self, clock: Clock) -> None:
        """Re-arm for a reactivated member (O(1) amortised).

        A member compacted away while inactive re-enters at the end of
        the member list, so its ordering within a shared boundary is by
        reactivation time from then on.
        """
        if self._plan is not None:
            self._dissolve()
        if not clock._in_arbiter:
            self._members.append(clock)
            clock._in_arbiter = True
        self._ensure_scheduled(clock._next_tick)

    def _ensure_scheduled(self, when: SimTime) -> None:
        """Guarantee the chain will pop at or before ``when``.

        Inductively sufficient: every dispatch re-arms at the earliest
        remaining due time, so a chain event at ``t <= when`` covers all
        boundaries up to ``when``.
        """
        scheduled = self._scheduled_time
        if scheduled is not None and scheduled <= when:
            return  # covered by the live chain
        if self._dispatching:
            # The dispatch epilogue re-arms; just lower its bound.
            hint = self._resched_hint
            if hint is None or when < hint:
                self._resched_hint = when
            return
        if scheduled is not None:
            # A later chain event is live; supersede it (the stale one
            # fails the generation check when it pops).
            self._generation += 1
        self._scheduled_time = when
        self.sim._push(when, self.priority, self._dispatch,
                       _ArbiterTickEvent(self._generation))

    # ------------------------------------------------------------------
    # lockstep plan
    # ------------------------------------------------------------------
    def _pass_position(self) -> int:
        """Plan index of the member whose handler the running pass is in."""
        return len(self._plan) - self._plan_iter.__length_hint__() - 1

    def _member_state(self, clock: Clock) -> Tuple[int, SimTime]:
        """``(cycle, next_tick)`` of a plan member, as the member loop
        would have left it at this point of the boundary."""
        cycle = self._plan_cycle
        due = self._plan_due
        if self._plan_iter is not None:
            pos = self._pass_position()
            if clock._index < pos:
                return cycle, due + self.period
            if clock._index > pos:
                return cycle - 1, due
        return cycle, due

    def _form_plan(self) -> None:
        """Start lockstep if every member is active at one cycle.

        Called after a bare boundary that fired every member with no
        re-arm request pending, so all members are due at the re-armed
        boundary.
        """
        members = self._members
        if not all(map(_active, members)) or \
                len(set(map(_cycle, members))) != 1:
            return
        for index, clock in enumerate(members):
            clock._index = index
        self._plan = list(map(_handler, members))
        self._plan_cycle = members[0]._cycle
        self._plan_due = members[0]._next_tick

    def _dissolve(self) -> None:
        """Write the plan's derived state back into the members; drop it.

        Outside a pass every member gets the shared cycle and due time.
        Inside one (a handler cancelled, reactivated or registered a
        clock, or returned True or raised) members before the current
        one have fired, the current one is mid-tick and the rest have
        not fired, exactly as the member loop would have left them.  The
        pass's iterator is exhausted so the pass ends after the current
        handler, and ``_handoff_pos`` tells :meth:`_dispatch` where the
        member loop resumes.
        """
        cycle = self._plan_cycle
        due = self._plan_due
        members = self._members
        if self._plan_iter is None:
            self._plan = None
            for clock in members:
                clock._cycle = cycle
                clock._next_tick = due
            return
        pos = self._handoff_pos = self._pass_position()
        self._plan.clear()
        self._plan = None
        after = due + self.period
        for clock in members[:pos]:
            clock._cycle = cycle
            clock._next_tick = after
        for clock in members[pos:]:
            clock._cycle = cycle - 1
            clock._next_tick = due
        members[pos]._cycle = cycle

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def _dispatch(self, event: _ArbiterTickEvent, observe=None) -> int:
        """Fire every member due now, re-arm the chain; return how many fired.

        The kernel's bare loop calls ``_dispatch(event)``.  The compiled
        ``Simulation._instr`` closure passes ``observe = (traces, spans,
        perf)``: each fired member is then reported to every trace
        observer before and every span observer after its handler, with
        the member :class:`Clock` as the handler and its own measured
        duration — observers see member ticks, not the shared chain.

        A bare boundary with a lockstep plan is one pass over the plan's
        handlers; the first scheduling change hands the rest of the
        boundary to the bare member loop at the next member.  Observed
        boundaries dissolve the plan and take the instrumented loop.

        The kernel counts the popped record as one executed event; the
        difference to the ``fired`` handler invocations (-1 for a
        superseded record or a boundary that fires nobody) is added here
        so ``events_executed`` keeps meaning "handler deliveries".  A
        member that cancelled itself in its handler leaves the chain
        like one that returned True, so no empty boundary is armed for
        it.
        """
        sim = self.sim
        if event.generation != self._generation:
            sim._events_executed -= 1  # superseded: the kernel counted it
            return 0
        now = sim.now
        period = self.period
        fired = 0
        inactive = 0
        next_due: Optional[SimTime] = None
        self._scheduled_time = None
        self._dispatching = True
        self._resched_hint = None
        try:
            plan = self._plan
            if plan is not None and observe is None:
                cycle = self._plan_cycle + 1
                self._plan_cycle = cycle
                done = False
                self._plan_iter = iter(plan)
                try:
                    for handler in self._plan_iter:
                        if handler(cycle) is True:
                            done = True
                            break
                    if self._plan is not None and done:
                        self._dissolve()
                except BaseException:
                    if self._plan is not None:
                        self._dissolve()
                    raise
                finally:
                    self._plan_iter = None
                if self._plan is not None:
                    # Clean lockstep boundary: every member fired.
                    fired = len(plan)
                    next_due = self._plan_due = now + period
                    members = ()
                else:
                    # Handoff: finish the current member as the member
                    # loop would, then resume it at the next member.
                    pos = self._handoff_pos
                    clock = self._members[pos]
                    fired = pos + 1
                    if done:
                        clock.active = False
                        inactive = 1
                    else:
                        clock._next_tick = now + period
                    if pos or clock.active:
                        next_due = now + period
                    members = islice(self._members, pos + 1, None)
            else:
                if plan is not None:
                    self._dissolve()
                members = self._members
            if observe is None:
                for clock in members:
                    if not clock.active:
                        inactive += 1
                        continue
                    due = clock._next_tick
                    if due == now:
                        fired += 1
                        clock._cycle += 1
                        if clock._handler(clock._cycle) is True:
                            clock.active = False
                            inactive += 1
                            continue
                        due += period
                        clock._next_tick = due
                        if not clock.active:
                            continue  # cancelled itself: off the chain
                    if next_due is None or due < next_due:
                        next_due = due
            else:
                traces, spans, perf = observe
                for clock in members:
                    if not clock.active:
                        inactive += 1
                        continue
                    due = clock._next_tick
                    if due == now:
                        fired += 1
                        for fn in traces:
                            fn(now, clock, event)
                        clock._cycle += 1
                        if spans:
                            t0 = perf()
                            done = clock._handler(clock._cycle)
                            elapsed = perf() - t0
                            for fn in spans:
                                fn(now, clock, event, elapsed)
                        else:
                            done = clock._handler(clock._cycle)
                        if done is True:
                            clock.active = False
                            inactive += 1
                            continue
                        due += period
                        clock._next_tick = due
                        if not clock.active:
                            continue
                    if next_due is None or due < next_due:
                        next_due = due
        finally:
            self._dispatching = False
        sim._events_executed += fired - 1
        hint = self._resched_hint
        if hint is not None and (next_due is None or hint < next_due):
            next_due = hint
        members = self._members
        if inactive and inactive * 2 > len(members):
            # Compact once the dead weight dominates; removed members
            # re-enter through rejoin() on reactivate.
            for clock in members:
                if not clock.active:
                    clock._in_arbiter = False
            self._members = [clock for clock in members if clock.active]
        elif (self._plan is None and observe is None and hint is None
                and fired == len(members) and not inactive):
            self._form_plan()
        if next_due is not None:
            self._scheduled_time = next_due
            # Reuse the chain event object: same generation, one live
            # chain event at a time.
            event.generation = self._generation
            sim._push(next_due, self.priority, self._dispatch, event)
        return fired

    # ------------------------------------------------------------------
    # checkpoint support
    # ------------------------------------------------------------------
    def capture_state(self, clock_index) -> dict:
        """Chain state for `repro.ckpt`.

        ``clock_index`` maps a member Clock to its position in the
        simulation's registration-ordered clock list, which is the
        identity that survives a rebuild.  Member *order* matters: it is
        the within-boundary firing order, part of the determinism
        contract.  A lockstep plan is not captured: it is derived state
        and re-forms after the first full boundary of the resumed run.
        """
        return {
            "generation": self._generation,
            "scheduled_time": self._scheduled_time,
            "members": [clock_index[id(clock)] for clock in self._members],
        }

    def restore_state(self, state: dict, clocks) -> None:
        """Restore chain state captured by :meth:`capture_state`.

        ``clocks`` is the rebuilt simulation's registration-ordered
        clock list.  The chain event itself is restored with the event
        queue; here we only rebuild the member list (dropping members
        that were compacted away at capture time) and the stamps the
        chain event will be validated against.
        """
        if self._plan is not None:
            self._dissolve()
        members = [clocks[i] for i in state["members"]]
        in_members = {id(clock) for clock in members}
        for clock in self._members:
            if id(clock) not in in_members:
                clock._in_arbiter = False
        for clock in members:
            clock._in_arbiter = True
        self._members = members
        self._generation = state["generation"]
        self._scheduled_time = state["scheduled_time"]
        self._dispatching = False
        self._resched_hint = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"ClockArbiter({self.name!r}, period={self.period}ps, "
                f"members={len(self._members)}, "
                f"active={self.active_members})")
