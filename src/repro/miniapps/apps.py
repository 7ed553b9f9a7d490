"""The Mantevo-style skeleton application library.

Each class reproduces the *communication signature* the paper
attributes to the corresponding production/mini application, riding on
the BSP engine of :mod:`repro.miniapps.base`:

============  ==========================================================
App           Signature (and the Fig. 9 / Fig. 5 behaviour it drives)
============  ==========================================================
CTH           few, very large halo messages that must complete before
              the next step -> strongly injection-bandwidth sensitive
SAGE          similar large-message halo + a small collective
xNOBEL        medium messages fully overlapped with compute -> flat
              until comm time exceeds compute time, then falls off
Charon        many small messages + several latency-bound all-reduces
              per iteration -> essentially bandwidth-insensitive
HPCCG         CG iteration: one halo exchange (matvec) + two 8-byte
              all-reduces (dot products)
MiniFE        an FEA compute phase followed by CG solve iterations
Lulesh        3-D halo + compute hydro step
CGSolver /    the Fig. 5 solver-scaling trio: unpreconditioned CG,
BiCGStabILU / BiCGSTAB+ILU(0) (2 matvecs, 4 dots per iteration) and
MLSolver      BiCGSTAB+ML (adds coarse-level traffic: >40% more
              messages per core than the non-multilevel solvers)
============  ==========================================================

Defaults are per-class (``DEFAULTS``); every one can be overridden via
component parameters.  Compute-phase durations default to values derived
from the statistical workload library on a reference node
(:func:`repro.miniapps.base.compute_time_ps`).
"""

from __future__ import annotations

from collections import namedtuple
from typing import Any, Dict, List, Tuple

from ..core.registry import register
from ..core.units import SimTime
from .base import (AllReduce, AllToAll, AppRank, Barrier, Compute, Exchange,
                   compute_time_ps, grid_dims_3d, halo_neighbors_3d)


# Each app rank holds its per-run constants as one plan value, which
# ``program()`` unpacks once: ``AppRank`` alone holds 28 attributes,
# one short of CPython's inline-attribute budget (docs/COMPONENTS.md,
# "State").
HaloPlan = namedtuple("HaloPlan", "msg_size msgs_per_neighbor compute_ps "
                      "allreduces allreduce_size overlap_fraction neighbors")
FEPlan = namedtuple("FEPlan", "fea_compute_ps solver_compute_ps msg_size "
                    "solver_iterations neighbors")
SolverPlan = namedtuple("SolverPlan", "msg_size compute_ps matvecs dots "
                        "coarse_levels coarse_msg_size neighbors")
MDPlan = namedtuple("MDPlan", "msg_size compute_ps thermo_every neighbors")
XycePlan = namedtuple("XycePlan", "msg_size compute_ps dots neighbors")
MeshPlan = namedtuple("MeshPlan", "msg_size bbox_size contact_size "
                      "contact_fraction compute_ps neighbors")
DSMCPlan = namedtuple("DSMCPlan", "particles bytes_per_particle "
                      "migration_fraction compute_ps neighbors")


class HaloApp(AppRank):
    """Generic bulk-synchronous halo-exchange application.

    Parameters beyond AppRank's (class ``DEFAULTS`` provide per-app
    values): ``msg_size`` (halo message bytes), ``msgs_per_neighbor``,
    ``compute_ps`` (per iteration), ``allreduces`` (count per
    iteration), ``allreduce_size``, ``overlap_fraction`` (0 = blocking
    halo, 1 = fully overlapped with compute), ``periodic`` (domain
    wraparound); ``self.plan`` holds the resolved values.
    """

    DEFAULTS: Dict[str, Any] = {
        "msg_size": "256KB",
        "msgs_per_neighbor": 1,
        "compute_ps": "500us",
        "allreduces": 0,
        "allreduce_size": 8,
        "overlap_fraction": 0.0,
        "periodic": True,
        #: "weak" keeps per-rank work constant; "strong" divides the
        #: total problem across ranks: compute shrinks ~1/n and halo
        #: messages shrink with the surface-to-volume ratio (n^-2/3)
        #: relative to ``ref_ranks``.  Strong scaling is what produces
        #: the xNOBEL overlap-loss falloff at high core counts (Fig. 9).
        "scaling": "weak",
        "ref_ranks": 16,
    }

    def __init__(self, sim, name, params=None):
        super().__init__(sim, name, params)
        p = self.params_with_defaults(self.DEFAULTS)
        msg_size = p.find_size_bytes("msg_size")
        msgs_per_neighbor = p.find_int("msgs_per_neighbor")
        compute_ps = p.find_time("compute_ps")
        allreduces = p.find_int("allreduces")
        allreduce_size = p.find_int("allreduce_size")
        overlap_fraction = p.find_float("overlap_fraction")
        if not 0.0 <= overlap_fraction <= 1.0:
            raise ValueError(f"{name}: overlap_fraction must be in [0,1]")
        scaling = p.find_str("scaling")
        if scaling not in ("weak", "strong"):
            raise ValueError(f"{name}: unknown scaling {scaling!r}")
        if scaling == "strong":
            ref = p.find_int("ref_ranks")
            factor = ref / self.n_ranks
            compute_ps = max(1, int(round(compute_ps * factor)))
            msg_size = max(64, int(round(msg_size * factor ** (2.0 / 3.0))))
        neighbors = halo_neighbors_3d(self.rank, grid_dims_3d(self.n_ranks),
                                      periodic=p.find_bool("periodic"))
        self.plan = HaloPlan(msg_size, msgs_per_neighbor, compute_ps,
                             allreduces, allreduce_size, overlap_fraction,
                             neighbors)

    def program(self):
        (msg_size, msgs_per_neighbor, compute_ps, allreduces, allreduce_size,
         overlap_fraction, neighbors) = self.plan
        for it in range(self.iterations):
            sends: List[Tuple[int, int]] = [
                (nbr, msg_size)
                for nbr in neighbors
                for _ in range(msgs_per_neighbor)
            ]
            expect = len(sends)
            overlap = int(round(overlap_fraction * compute_ps))
            if sends:
                yield Exchange(sends, expect, key=f"halo{it}",
                               overlap_ps=overlap)
            rest = compute_ps - overlap
            if rest > 0:
                yield Compute(rest)
            for a in range(allreduces):
                yield AllReduce(allreduce_size, key=f"ar{it}_{a}")
            self.iteration_done()


@register("miniapps.CTH")
class CTH(HaloApp):
    """Shock physics: large halo messages, no collectives."""

    DEFAULTS = dict(HaloApp.DEFAULTS, msg_size="1MB", compute_ps="9ms",
                    allreduces=0)


@register("miniapps.SAGE")
class SAGE(HaloApp):
    """Adaptive-grid hydro: large halos + one small collective per step."""

    DEFAULTS = dict(HaloApp.DEFAULTS, msg_size="768KB", compute_ps="8ms",
                    allreduces=1)


@register("miniapps.XNOBEL")
class XNOBEL(HaloApp):
    """Hydrocode with full compute/communication overlap."""

    DEFAULTS = dict(HaloApp.DEFAULTS, msg_size="320KB", compute_ps="4ms",
                    overlap_fraction=1.0, allreduces=0,
                    scaling="strong", ref_ranks=16)


@register("miniapps.Charon")
class Charon(HaloApp):
    """Device physics: many small messages, several dots per iteration."""

    DEFAULTS = dict(HaloApp.DEFAULTS, msg_size="1KB", msgs_per_neighbor=6,
                    compute_ps="1200us", allreduces=4)


@register("miniapps.HPCCG")
class HPCCG(HaloApp):
    """CG iteration: halo for the sparse matvec + two dot products."""

    DEFAULTS = dict(HaloApp.DEFAULTS, msg_size="48KB", compute_ps="400us",
                    allreduces=2)


@register("miniapps.Lulesh")
class Lulesh(HaloApp):
    """Hydro step: 3-D halo + compute; one timestep collective."""

    DEFAULTS = dict(HaloApp.DEFAULTS, msg_size="192KB", compute_ps="650us",
                    allreduces=1)


@register("miniapps.MiniFE")
class MiniFE(AppRank):
    """miniFE: an FEA assembly phase, then CG solve iterations.

    Parameters: ``fea_compute_ps``, ``solver_compute_ps`` (per CG
    iteration), ``msg_size``, ``solver_iterations`` (CG iterations per
    outer iteration).  The two phases have very different machine
    response (compute-bound vs bandwidth-bound; Figs. 2-4), which is
    why they are kept separate.
    """

    DEFAULTS: Dict[str, Any] = {
        "fea_compute_ps": "2ms",
        "solver_compute_ps": "350us",
        "msg_size": "48KB",
        "solver_iterations": 5,
    }

    def __init__(self, sim, name, params=None):
        super().__init__(sim, name, params)
        p = self.params_with_defaults(self.DEFAULTS)
        self.plan = FEPlan(
            p.find_time("fea_compute_ps"), p.find_time("solver_compute_ps"),
            p.find_size_bytes("msg_size"), p.find_int("solver_iterations"),
            halo_neighbors_3d(self.rank, grid_dims_3d(self.n_ranks)))
        # registered here, held by program(): two more attributes would
        # take the rank past the inline budget
        self.stats.counter("fea_ps")
        self.stats.counter("solver_ps")

    def program(self):
        (fea_compute_ps, solver_compute_ps, msg_size, solver_iterations,
         neighbors) = self.plan
        s_fea_ps = self.stats.get("fea_ps")
        s_solver_ps = self.stats.get("solver_ps")
        for it in range(self.iterations):
            fea_start = self.now
            yield Compute(fea_compute_ps)
            s_fea_ps.add(self.now - fea_start)
            solver_start = self.now
            for k in range(solver_iterations):
                sends = [(nbr, msg_size) for nbr in neighbors]
                if sends:
                    yield Exchange(sends, len(sends), key=f"mv{it}_{k}")
                yield Compute(solver_compute_ps)
                yield AllReduce(8, key=f"dot{it}_{k}a")
                yield AllReduce(8, key=f"dot{it}_{k}b")
            s_solver_ps.add(self.now - solver_start)
            self.iteration_done()


class SolverApp(AppRank):
    """Base for the Fig. 5 weak-scaling solver trio.

    One iteration = ``matvecs`` halo exchanges + ``dots`` all-reduces +
    compute, plus (for ML) coarse-level traffic: ``coarse_levels``
    rounds of small halo messages and one extra all-reduce each —
    the ">40% more messages per core" signature of the multilevel
    preconditioner.
    """

    DEFAULTS: Dict[str, Any] = {
        "msg_size": "48KB",
        "compute_ps": "400us",
        "matvecs": 1,
        "dots": 2,
        "coarse_levels": 0,
        "coarse_msg_size": "4KB",
    }

    def __init__(self, sim, name, params=None):
        super().__init__(sim, name, params)
        p = self.params_with_defaults(self.DEFAULTS)
        self.plan = SolverPlan(
            p.find_size_bytes("msg_size"), p.find_time("compute_ps"),
            p.find_int("matvecs"), p.find_int("dots"),
            p.find_int("coarse_levels"), p.find_size_bytes("coarse_msg_size"),
            halo_neighbors_3d(self.rank, grid_dims_3d(self.n_ranks)))

    def program(self):
        (msg_size, compute_ps, matvecs, dots, coarse_levels, coarse_msg_size,
         neighbors) = self.plan
        for it in range(self.iterations):
            for m in range(matvecs):
                sends = [(nbr, msg_size) for nbr in neighbors]
                if sends:
                    yield Exchange(sends, len(sends), key=f"mv{it}_{m}")
            yield Compute(compute_ps)
            for d in range(dots):
                yield AllReduce(8, key=f"dot{it}_{d}")
            for lvl in range(coarse_levels):
                sends = [(nbr, coarse_msg_size) for nbr in neighbors]
                if sends:
                    yield Exchange(sends, len(sends), key=f"ml{it}_{lvl}")
                yield AllReduce(8, key=f"mlar{it}_{lvl}")
            self.iteration_done()


@register("miniapps.CGSolver")
class CGSolver(SolverApp):
    """miniFE's unpreconditioned CG: 1 matvec, 2 dots."""

    DEFAULTS = dict(SolverApp.DEFAULTS, matvecs=1, dots=2, coarse_levels=0)


@register("miniapps.BiCGStabILU")
class BiCGStabILU(SolverApp):
    """Charon/Aztec BiCGSTAB + ILU(0): 2 matvecs + 2 triangular sweeps
    (modelled as 2 extra halo exchanges), 4 dots."""

    DEFAULTS = dict(SolverApp.DEFAULTS, matvecs=4, dots=4, coarse_levels=0,
                    compute_ps="650us")


@register("miniapps.MLSolver")
class MLSolver(SolverApp):
    """Charon/Aztec BiCGSTAB + ML multigrid preconditioner: the BiCGSTAB
    skeleton plus coarse-grid traffic every iteration."""

    DEFAULTS = dict(SolverApp.DEFAULTS, matvecs=4, dots=4, coarse_levels=3,
                    compute_ps="800us")


@register("miniapps.MiniMD")
class MiniMD(AppRank):
    """Molecular dynamics force computation (Table 1: miniMD).

    Per timestep: exchange ghost-atom positions with spatial neighbours,
    compute short-range forces, and every ``thermo_every`` steps reduce
    the system energy (the LAMMPS-style thermo output).  Position
    messages are medium-sized and latency matters less than for the
    solvers; the signature is the periodic small collective.
    """

    DEFAULTS: Dict[str, Any] = {
        "msg_size": "96KB",
        "compute_ps": "1200us",
        "thermo_every": 2,
    }

    def __init__(self, sim, name, params=None):
        super().__init__(sim, name, params)
        p = self.params_with_defaults(self.DEFAULTS)
        self.plan = MDPlan(
            p.find_size_bytes("msg_size"), p.find_time("compute_ps"),
            p.find_int("thermo_every"),
            halo_neighbors_3d(self.rank, grid_dims_3d(self.n_ranks)))

    def program(self):
        msg_size, compute_ps, thermo_every, neighbors = self.plan
        for it in range(self.iterations):
            sends = [(nbr, msg_size) for nbr in neighbors]
            if sends:
                yield Exchange(sends, len(sends), key=f"ghost{it}")
            yield Compute(compute_ps)
            if thermo_every and (it + 1) % thermo_every == 0:
                yield AllReduce(16, key=f"thermo{it}")
            self.iteration_done()


@register("miniapps.MiniGhost")
class MiniGhost(HaloApp):
    """FDM/FVM halo exchange (Table 1: miniGhost, BSPMA mode).

    The purest halo motif: moderate faces exchanged every step with a
    reduction for the error check — built to study exactly the exchange
    the other apps embed.
    """

    DEFAULTS = dict(HaloApp.DEFAULTS, msg_size="256KB", compute_ps="1500us",
                    allreduces=1)


@register("miniapps.MiniXyce")
class MiniXyce(AppRank):
    """Circuit RC-ladder transient simulation (Table 1: miniXyce).

    The circuit graph is a 1-D ladder, so each rank talks to exactly two
    neighbours with *tiny* messages (boundary node voltages), plus the
    GMRES dots.  Latency-bound like Charon but with an even narrower
    stencil.
    """

    DEFAULTS: Dict[str, Any] = {
        "msg_size": 512,
        "compute_ps": "250us",
        "dots": 2,
    }

    def __init__(self, sim, name, params=None):
        super().__init__(sim, name, params)
        p = self.params_with_defaults(self.DEFAULTS)
        n = self.n_ranks
        neighbors = []
        if n > 1:
            left, right = (self.rank - 1) % n, (self.rank + 1) % n
            neighbors = sorted({left, right} - {self.rank})
        self.plan = XycePlan(p.find_size_bytes("msg_size"),
                             p.find_time("compute_ps"), p.find_int("dots"),
                             neighbors)

    def program(self):
        msg_size, compute_ps, dots, neighbors = self.plan
        for it in range(self.iterations):
            sends = [(nbr, msg_size) for nbr in neighbors]
            if sends:
                yield Exchange(sends, len(sends), key=f"ladder{it}")
            yield Compute(compute_ps)
            for d in range(dots):
                yield AllReduce(8, key=f"gmres{it}_{d}")
            self.iteration_done()


@register("miniapps.PhdMesh")
class PhdMesh(AppRank):
    """Explicit FEM with contact detection (Table 1: phdMesh).

    Contact search is the interesting part: after the regular halo, all
    ranks exchange coarse bounding boxes (an all-to-all of small
    records), then a *data-dependent* subset of pairs exchanges surface
    patches — modelled as a per-iteration random partner set drawn from
    the rank's seeded stream.
    """

    DEFAULTS: Dict[str, Any] = {
        "msg_size": "128KB",
        "bbox_size": 256,
        "contact_size": "32KB",
        "contact_fraction": 0.25,
        "compute_ps": "1800us",
    }

    def __init__(self, sim, name, params=None):
        super().__init__(sim, name, params)
        p = self.params_with_defaults(self.DEFAULTS)
        self.plan = MeshPlan(
            p.find_size_bytes("msg_size"), p.find_int("bbox_size"),
            p.find_size_bytes("contact_size"),
            p.find_float("contact_fraction"), p.find_time("compute_ps"),
            halo_neighbors_3d(self.rank, grid_dims_3d(self.n_ranks)))

    def _contact_partners(self, iteration: int):
        """Deterministic 'random' contact pairs, symmetric by design:
        rank pair (i, j) is in contact when the seeded hash of the
        unordered pair and iteration crosses the contact threshold."""
        import zlib

        partners = []
        for other in range(self.n_ranks):
            if other == self.rank:
                continue
            lo, hi = min(self.rank, other), max(self.rank, other)
            token = f"{lo}:{hi}:{iteration}".encode()
            draw = (zlib.crc32(token) % 1000) / 1000.0
            if draw < self.plan.contact_fraction:
                partners.append(other)
        return partners

    def program(self):
        (msg_size, bbox_size, contact_size, _fraction, compute_ps,
         neighbors) = self.plan
        for it in range(self.iterations):
            sends = [(nbr, msg_size) for nbr in neighbors]
            if sends:
                yield Exchange(sends, len(sends), key=f"halo{it}")
            yield Compute(compute_ps)
            if self.n_ranks > 1:
                yield AllToAll(bbox_size, key=f"bbox{it}")
                contacts = self._contact_partners(it)
                if contacts:
                    sends = [(c, contact_size) for c in contacts]
                    yield Exchange(sends, len(sends), key=f"contact{it}")
            self.iteration_done()


@register("miniapps.MiniDSMC")
class MiniDSMC(AppRank):
    """Particle-based low-density fluid simulation (Table 1: miniDSMC).

    Direct-simulation Monte Carlo: each step a random fraction of
    particles crosses into neighbouring cells, so message sizes vary per
    step and per rank (seeded per-rank streams keep runs reproducible);
    a barrier closes every step before the collision phase.
    """

    DEFAULTS: Dict[str, Any] = {
        "particles_per_rank": 100_000,
        "bytes_per_particle": 40,
        "migration_fraction": 0.05,
        "compute_ps": "900us",
    }

    def __init__(self, sim, name, params=None):
        super().__init__(sim, name, params)
        p = self.params_with_defaults(self.DEFAULTS)
        self.plan = DSMCPlan(
            p.find_int("particles_per_rank"), p.find_int("bytes_per_particle"),
            p.find_float("migration_fraction"), p.find_time("compute_ps"),
            halo_neighbors_3d(self.rank, grid_dims_3d(self.n_ranks)))

    def program(self):
        (particles, bytes_per_particle, migration_fraction, compute_ps,
         neighbors) = self.plan
        for it in range(self.iterations):
            yield Compute(compute_ps)
            if neighbors:
                migrating = particles * migration_fraction
                sends = []
                for nbr in neighbors:
                    share = float(self.rng.random()) * 2.0 / len(neighbors)
                    count = max(1, int(migrating * share))
                    sends.append((nbr, count * bytes_per_particle))
                yield Exchange(sends, len(neighbors), key=f"mig{it}")
            if self.n_ranks > 1:
                yield Barrier(key=f"step{it}")
            self.iteration_done()
