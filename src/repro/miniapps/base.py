"""Skeleton-application framework: BSP programs on the simulated machine.

A miniapp rank is a component sitting behind a NIC that executes a
*program*: a Python generator yielding phases.  The engine drives the
generator through the DES — compute phases advance simulated time,
exchange phases send messages and block until the expected messages
arrive.  This is exactly the "skeleton app" proxy class of the paper's
Fig. 1 (accurate inter-processor communication with synthetic
computation), which is the right fidelity for the network studies
(Figs. 5 and 9): the machine's response to the communication pattern is
what is being measured.

Programs are SPMD: every rank runs the same generator, parameterised by
its rank id.  Three phase types:

* :class:`Compute` — occupy the core for a duration (optionally derived
  from a workload spec via :func:`compute_time_ps`).
* :class:`Exchange` — send a list of messages, then wait until
  ``expect`` messages with the same key have arrived.  With
  ``overlap_ps`` set, computation proceeds concurrently and the phase
  ends at max(compute, communication) — modelling nonblocking MPI with
  compute/communication overlap (the xNOBEL signature).
* :class:`AllReduce` — recursive-doubling reduction across all ranks
  (log2(n) rounds of pairwise small messages), the latency-bound
  collective at the heart of Krylov dot products.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Generator, Iterable, List, Optional, Tuple

from ..core.component import Component, port, stat, state
from ..core.units import SimTime
from ..network.message import NetMessage
from ..processor.core import CoreConfig, CoreTimingModel
from ..processor.mix import WorkloadSpec, workload as lookup_workload
from ..memory.dram import DRAMModel


# ----------------------------------------------------------------------
# phases
# ----------------------------------------------------------------------

@dataclass
class Compute:
    """Occupy the core for ``duration_ps``."""

    duration_ps: SimTime


@dataclass
class Exchange:
    """Send ``sends`` then wait for ``expect`` messages keyed ``key``.

    ``sends`` is a list of ``(dest_rank, size_bytes)``.  ``key`` must be
    unique per (phase, iteration) across the program so early arrivals
    from ranks that are ahead are buffered correctly.  ``overlap_ps``
    lets computation run concurrently with the exchange.
    """

    sends: List[Tuple[int, int]]
    expect: int
    key: str
    overlap_ps: SimTime = 0


@dataclass
class AllReduce:
    """Recursive-doubling all-reduce of ``size`` bytes, keyed ``key``."""

    size: int
    key: str


@dataclass
class Broadcast:
    """Binomial-tree broadcast of ``size`` bytes from ``root``."""

    size: int
    key: str
    root: int = 0


@dataclass
class Reduce:
    """Binomial-tree reduction of ``size`` bytes to ``root``."""

    size: int
    key: str
    root: int = 0


@dataclass
class Barrier:
    """Synchronisation barrier (an all-reduce of one byte)."""

    key: str


@dataclass
class AllToAll:
    """Personalised all-to-all: ``size`` bytes to every other rank."""

    size: int
    key: str


Phase = object  # Compute | Exchange | AllReduce | Broadcast | Reduce | ...
Program = Generator[Phase, None, None]


def compute_time_ps(workload_name: str, instructions: int,
                    issue_width: int = 2, freq_hz: float = 2.0e9,
                    memory_technology: str = "DDR3-1333",
                    n_sharers: int = 1) -> SimTime:
    """Compute-phase duration from a statistical workload on a node model.

    Uses the abstract core's partial-overlap roofline against the named
    memory technology, with ``n_sharers`` cores splitting the node's
    bandwidth (the cores-per-node effect).
    """
    spec = lookup_workload(workload_name)
    model = CoreTimingModel(
        CoreConfig(issue_width=issue_width, freq_hz=freq_hz), spec
    )
    dram = DRAMModel(memory_technology)
    return model.standalone_runtime_ps(instructions, dram, n_sharers=n_sharers)


# ----------------------------------------------------------------------
# the rank engine
# ----------------------------------------------------------------------

class AppRank(Component):
    """One MPI-style rank of a skeleton application.

    Subclasses implement :meth:`program`.  Port ``nic`` connects to a
    :class:`~repro.network.nic.Nic`.

    Common parameters: ``rank``, ``n_ranks``, ``iterations``.

    Statistics: ``iterations`` completed, ``compute_ps``, ``comm_ps``
    (time blocked in exchanges/collectives), ``messages_sent``,
    ``bytes_sent``, ``runtime_ps``.
    """

    nic = port("messages out to / in from the local NIC",
               event=NetMessage, handler="on_message")

    # The live program generator is not picklable: it is excluded from
    # checkpoints and rebuilt by replaying ``_phases_done`` phases.
    _program = state(None, save=False, reconstruct="_rebuild_program",
                     doc="live program generator")
    _phases_done = state(0, gauge=True,
                         doc="phases consumed from the program generator "
                             "— the replay cursor for checkpoint restore")
    _inbox = state(dict, doc="message key -> arrivals not yet awaited")
    _waiting_key = state(None, doc="message key the rank is blocked on")
    _waiting_quota = state(0, doc="arrivals needed to unblock")
    _comm_started = state(0, doc="start time of the blocking phase")
    _overlap_until = state(0, doc="overlapped compute finishes here")
    _rounds = state(None, doc="running collective: (key prefix, message "
                              "size, remaining rounds)")

    s_noise = stat.counter("noise_ps", doc="injected OS-noise detour time")
    s_iterations = stat.counter(doc="top-level iterations completed")
    s_compute = stat.counter("compute_ps", doc="compute-phase time")
    s_comm = stat.counter("comm_ps", doc="time blocked in exchanges")
    s_messages = stat.counter("messages_sent", doc="messages injected")
    s_bytes = stat.counter("bytes_sent", doc="payload bytes injected")
    s_runtime = stat.counter("runtime_ps", doc="time to finish the program")

    def __init__(self, sim, name, params=None):
        super().__init__(sim, name, params)
        p = self.params
        self.rank = p.find_int("rank")
        self.n_ranks = p.find_int("n_ranks")
        if not 0 <= self.rank < self.n_ranks:
            raise ValueError(f"{name}: rank {self.rank} out of range")
        self.iterations = p.find_int("iterations", 1)
        # OS-noise injection (paper §4, the kernel-level noise-injection
        # study): each compute phase suffers Poisson-arriving detours of
        # fixed duration.  ``noise_frequency`` (Hz) x ``noise_duration``
        # gives the net noise fraction; the *shape* (few long vs many
        # short detours at the same net fraction) is what the Fig. EXT
        # noise experiment sweeps.  Per-rank seeding makes rank detours
        # independent — the source of collective amplification.
        noise = (p.find_float("noise_frequency", 0.0),
                 p.find_time("noise_duration", 0))
        if min(noise) < 0:
            raise ValueError(f"{name}: negative noise parameters")
        #: (detour frequency Hz, detour duration ps), or None: no noise
        self.noise = noise if min(noise) > 0 else None
        self.register_as_primary()

    # -- subclass interface ------------------------------------------------
    def program(self) -> Program:
        """Yield the rank's phases (SPMD).  Must be overridden."""
        raise NotImplementedError

    def params_with_defaults(self, defaults: Dict[str, object]):
        """The component's params with class defaults filled underneath.

        Delegates to :meth:`~repro.core.params.Params.with_defaults`, so
        keys read through the overlay still count as consumed for the
        unused-parameter check."""
        return self.params.with_defaults(defaults)

    def iteration_done(self) -> None:
        """Called once per completed top-level iteration (optional hook).

        Subclasses that structure their program as one generator for all
        iterations call this themselves; see :func:`iterating_program`.
        """
        self.s_iterations.add()

    # -- engine ------------------------------------------------------------
    def on_setup(self) -> None:
        self._program = self.program()
        self._advance()

    def _advance(self, _payload=None) -> None:
        assert self._program is not None
        try:
            phase = next(self._program)
        except StopIteration:
            self.s_runtime.add(self.now - self.s_runtime.count)
            self.primary_ok_to_end()
            return
        self._phases_done += 1
        self._dispatch(phase)

    # -- checkpoint protocol (repro.ckpt) -----------------------------------
    def _rebuild_program(self) -> None:
        """Recreate the generator and fast-forward it to the captured phase.

        Program generators are pure functions of the component's
        configuration plus two side channels — ``self.rng`` draws and
        statistic bumps (``iteration_done``) made *inside* the generator
        body.  Both already happened in the captured run, so the replay
        neutralises them: the captured state (including the real ``_rng``
        and statistics) is already applied when this hook runs, so it is
        saved, a scratch RNG and fresh stat values stand in while
        fast-forwarding, and the real values are re-applied afterwards —
        the resumed run continues the real random stream bit-exactly.
        """
        import numpy as np

        real_rng = self._rng
        saved = {name: stat.state_dict()
                 for name, stat in self.stats.all().items()}
        self._rng = np.random.default_rng(0)
        self._program = self.program()
        for _ in range(self._phases_done):
            try:
                next(self._program)
            except StopIteration:  # pragma: no cover - defensive
                break
        for name, snap in saved.items():
            self.stats.all()[name].load_state(snap)
        self._rng = real_rng

    def _noisy(self, duration_ps: SimTime) -> SimTime:
        """Inflate a compute duration with injected OS-noise detours."""
        if self.noise is None:
            return duration_ps
        frequency_hz, detour_ps = self.noise
        expected = duration_ps / 1e12 * frequency_hz
        detours = int(self.rng.poisson(expected))
        extra = detours * detour_ps
        if extra:
            self.s_noise.add(extra)
        return duration_ps + extra

    def _dispatch(self, phase: Phase) -> None:
        if isinstance(phase, Compute):
            duration = self._noisy(phase.duration_ps)
            self.s_compute.add(phase.duration_ps)
            self.schedule(duration, self._advance)
        elif isinstance(phase, Exchange):
            self._comm_started = self.now
            overlap = self._noisy(phase.overlap_ps) if phase.overlap_ps else 0
            self._overlap_until = self.now + overlap
            if phase.overlap_ps:
                self.s_compute.add(phase.overlap_ps)
            for dest, size in phase.sends:
                self._send_msg(dest, size, phase.key)
            self._wait(phase.key, phase.expect)
        elif isinstance(phase, (AllReduce, Broadcast, Reduce, Barrier)):
            self._comm_started = self.now
            self._overlap_until = self.now
            if isinstance(phase, AllReduce):
                rounds = [("sr", label, partner)
                          for label, partner in self._plan_allreduce(phase)]
                size = phase.size
            elif isinstance(phase, Barrier):
                rounds = [("sr", label, partner)
                          for label, partner in self._plan_allreduce(phase)]
                size = 1
            elif isinstance(phase, Broadcast):
                rounds = self._plan_broadcast(phase.root)
                size = phase.size
            else:
                rounds = self._plan_reduce(phase.root)
                size = phase.size
            self._rounds = (phase.key, size, rounds)
            self._next_round()
        elif isinstance(phase, AllToAll):
            # Personalised all-to-all is a full exchange.
            sends = [(j, phase.size) for j in range(self.n_ranks)
                     if j != self.rank]
            self._dispatch(Exchange(sends, expect=len(sends), key=phase.key))
        else:
            raise TypeError(f"{self.name}: unknown phase {phase!r}")

    # -- messaging ----------------------------------------------------------
    def _send_msg(self, dest: int, size: int, key: str) -> None:
        if dest == self.rank:
            raise ValueError(f"{self.name}: self-send in key {key!r}")
        self._ports["nic"].endpoint.send(
            NetMessage(self.rank, dest, size, tag=key))
        self.s_messages.add()
        self.s_bytes.add(size)

    def _wait(self, key: str, quota: int) -> None:
        if quota <= 0 or self._inbox.get(key, 0) >= quota:
            self._inbox.pop(key, None)
            self._finish_comm()
            return
        self._waiting_key = key
        self._waiting_quota = quota

    def on_message(self, event) -> None:
        assert isinstance(event, NetMessage)
        key = event.tag
        self._inbox[key] = self._inbox.get(key, 0) + 1
        if self._waiting_key == key and self._inbox[key] >= self._waiting_quota:
            self._inbox.pop(key, None)
            self._waiting_key = None
            self._waiting_quota = 0
            self._finish_comm()

    def _finish_comm(self) -> None:
        """An exchange or collective round completed."""
        if self._rounds is not None:
            self._next_round()
            return
        self.s_comm.add(max(0, self.now - self._comm_started))
        # Honour compute/communication overlap: the phase cannot finish
        # before the overlapped compute does.
        resume_at = max(self.now, self._overlap_until)
        self.schedule(resume_at - self.now, self._advance)

    # -- collectives ----------------------------------------------------------
    @staticmethod
    def _levels(n: int) -> int:
        levels = 0
        while (1 << levels) < n:
            levels += 1
        return levels

    def _plan_broadcast(self, root: int) -> List[Tuple[str, str, int]]:
        """Binomial-tree broadcast rounds for this rank.

        Round ``k``: ranks with relative index < 2^k (which already hold
        the data) send to relative index + 2^k.  n-1 messages total,
        ceil(log2 n) latency.
        """
        n = self.n_ranks
        rel = (self.rank - root) % n
        rounds: List[Tuple[str, str, int]] = []
        for k in range(self._levels(n)):
            step = 1 << k
            if rel < step:
                peer_rel = rel + step
                if peer_rel < n:
                    rounds.append(("s", f"b{k}", (peer_rel + root) % n))
            elif rel < 2 * step:
                rounds.append(("r", f"b{k}", ((rel - step) + root) % n))
        return rounds

    def _plan_reduce(self, root: int) -> List[Tuple[str, str, int]]:
        """Binomial-tree reduction rounds (the broadcast tree, reversed)."""
        n = self.n_ranks
        rel = (self.rank - root) % n
        rounds: List[Tuple[str, str, int]] = []
        for k in reversed(range(self._levels(n))):
            step = 1 << k
            if step <= rel < 2 * step:
                rounds.append(("s", f"t{k}", ((rel - step) + root) % n))
                break  # a sender's part in the reduction is over
            if rel < step and rel + step < n:
                rounds.append(("r", f"t{k}", ((rel + step) + root) % n))
        return rounds

    def _next_round(self) -> None:
        key, size, rounds = self._rounds
        if not rounds:
            self._rounds = None
            self._finish_comm()
            return
        op, label, partner = rounds.pop(0)
        lo, hi = min(self.rank, partner), max(self.rank, partner)
        round_key = f"{key}/{label}/p{lo}-{hi}"
        if op in ("s", "sr"):
            self._send_msg(partner, size, round_key)
        if op == "s":
            self._next_round()
        else:
            self._wait_round(round_key)

    def _plan_allreduce(self, phase) -> List[Tuple[str, int]]:
        """Recursive-doubling round plan: list of (label, partner).

        Every round is modelled as a symmetric sendrecv (cost-equivalent
        to the directional sends of real recursive doubling, and
        deadlock-free).  For non-power-of-two rank counts, the extra
        ranks fold their contribution into the main power-of-two group
        first ("fi") and receive the result at the end ("fo"); they do
        not participate in the doubling rounds.  Labels are identical on
        both sides of each pair, making message keys match.
        """
        rounds: List[Tuple[str, int]] = []
        n = self.n_ranks
        if n <= 1:
            return rounds
        pow2 = 1
        while pow2 * 2 <= n:
            pow2 *= 2
        extra = n - pow2
        if self.rank >= pow2:
            partner = self.rank - pow2
            return [("fi", partner), ("fo", partner)]
        if self.rank < extra:
            rounds.append(("fi", self.rank + pow2))
        distance = 1
        while distance < pow2:
            rounds.append((f"d{distance}", self.rank ^ distance))
            distance *= 2
        if self.rank < extra:
            rounds.append(("fo", self.rank + pow2))
        return rounds

    def _wait_round(self, key: str) -> None:
        if self._inbox.get(key, 0) >= 1:
            self._inbox.pop(key, None)
            self._next_round()
            return
        self._waiting_key = key
        self._waiting_quota = 1


def grid_dims_3d(n: int) -> Tuple[int, int, int]:
    """Near-cubic 3-D factorisation of ``n`` ranks (largest factors last)."""
    best = (1, 1, n)
    best_score = None
    for x in range(1, int(round(n ** (1 / 3))) + 2):
        if n % x:
            continue
        rest = n // x
        for y in range(x, int(rest ** 0.5) + 2):
            if rest % y:
                continue
            z = rest // y
            dims = tuple(sorted((x, y, z)))
            score = max(dims) - min(dims)
            if best_score is None or score < best_score:
                best, best_score = dims, score
    return best  # type: ignore[return-value]


def halo_neighbors_3d(rank: int, dims: Tuple[int, int, int],
                      periodic: bool = True) -> List[int]:
    """Face-neighbour ranks of ``rank`` in a 3-D decomposition."""
    nx, ny, nz = dims
    x = rank % nx
    y = (rank // nx) % ny
    z = rank // (nx * ny)
    neighbors: List[int] = []
    for d, (c, size) in enumerate(((x, nx), (y, ny), (z, nz))):
        for step in (-1, 1):
            nc = c + step
            if periodic:
                nc %= size
            elif not 0 <= nc < size:
                continue
            if size == 1:
                continue
            coords = [x, y, z]
            coords[d] = nc
            neighbor = coords[0] + coords[1] * nx + coords[2] * nx * ny
            if neighbor != rank and neighbor not in neighbors:
                neighbors.append(neighbor)
    return neighbors
