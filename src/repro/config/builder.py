"""Instantiate a ConfigGraph into runnable simulations.

``build`` produces a sequential :class:`~repro.core.simulation.Simulation`;
``build_parallel`` partitions the graph across N ranks (respecting
per-component rank pins) and produces a
:class:`~repro.core.parallel.ParallelSimulation`.  Component classes are
resolved through the registry (:mod:`repro.core.registry`) so the graph
itself stays declaration-only.

Both builders validate every link endpoint against the target class's
declared ports (:mod:`repro.core.describe`) *before* instantiating
anything, and check required ports are connected after wiring — a typoed
port name fails at graph-build time with the offending component and
port named, instead of at the first ``send()`` mid-run.
"""

from __future__ import annotations

import gc
from typing import Callable, Dict, List, Optional, Tuple, Type

from ..core import registry
from ..core.component import Component
from ..core.describe import SpecError, validate_port_name
from ..core.eventqueue import require_heap
from ..core.parallel import ParallelSimulation
from ..core.params import Params
from ..core.partition import partition
from ..core.simulation import Simulation
from .graph import ConfigComponent, ConfigError, ConfigGraph


def _resolve_classes(graph: ConfigGraph) -> Dict[str, Type[Component]]:
    """Each component's class, resolving and checking each type name once."""
    by_type: Dict[str, Type[Component]] = {}
    classes: Dict[str, Type[Component]] = {}
    for conf in graph.components():
        cls = by_type.get(conf.type_name)
        if cls is None:
            cls = registry.resolve(conf.type_name)
            if not issubclass(cls, Component):
                raise ConfigError(
                    f"component {conf.name!r}: {conf.type_name!r} is a "
                    f"subcomponent type — it fills a slot() on a component, "
                    f"it cannot be instantiated as a graph node"
                )
            by_type[conf.type_name] = cls
        classes[conf.name] = cls
    return classes


def _validate_slots(graph: ConfigGraph,
                    classes: Dict[str, Type[Component]]) -> None:
    """Check every declared slot's configured type, pre-instantiation.

    Mirrors :func:`_validate_ports`: the selected subcomponent type must
    resolve through the registry and satisfy the slot's base class and
    ``choices`` — a typo'd policy name fails at graph-build time with
    the component and slot named instead of mid-construction.  Each
    (slot, type name) pair is checked once.
    """
    checked = set()
    for conf in graph.components():
        for attr, spec in classes[conf.name]._slot_specs.items():
            type_name = spec.configured_type(conf.params)
            if type_name is None or (spec, type_name) in checked:
                continue
            try:
                sub_cls = registry.resolve(type_name)
            except registry.RegistryError:
                choices = (f" (one of {list(spec.choices)})"
                           if spec.choices else "")
                raise ConfigError(
                    f"component {conf.name!r} slot {attr!r}: unknown "
                    f"subcomponent type {type_name!r}{choices}"
                ) from None
            try:
                spec.check(type_name, sub_cls)
            except SpecError as exc:
                raise ConfigError(
                    f"component {conf.name!r}: {exc}") from None
            checked.add((spec, type_name))


def _validate_ports(graph: ConfigGraph,
                    classes: Dict[str, Type[Component]]) -> None:
    """Check every link endpoint against declared ports, pre-instantiation."""
    endpoints: List[Tuple[str, str]] = []
    for link in graph.links():
        endpoints.append((link.comp_a, link.port_a))
        if not link.is_self_link():
            endpoints.append((link.comp_b, link.port_b))
    for comp_name, port_name in endpoints:
        cls = classes[comp_name]
        if not validate_port_name(cls, port_name):
            declared = ", ".join(sorted(cls._port_specs)) or "<none>"
            raise ConfigError(
                f"link endpoint {comp_name}.{port_name}: class "
                f"{cls.__name__} declares no such port "
                f"(declared: {declared})"
            )


def _check_required_ports(instances: Dict[str, Component]) -> None:
    """After wiring: every required declared port must be connected.

    A required indexed family (``cpu<i>``) needs at least one member
    connected; scalar required ports need their one connection.
    """
    for comp in instances.values():
        specs = type(comp)._port_specs
        if not specs:
            continue
        for spec in specs.values():
            if not spec.required:
                continue
            if spec.indexed:
                ok = any(spec.matches(name) and p.connected
                         for name, p in comp._ports.items())
            else:
                ok = comp.port(spec.name).connected
            if not ok:
                raise ConfigError(
                    f"component {comp.name!r} ({type(comp).__name__}): "
                    f"required port {spec.name!r} is not connected"
                )


def _checked_classes(graph: ConfigGraph) -> Dict[str, Type[Component]]:
    """Validate ``graph`` before anything is instantiated; its classes."""
    graph.validate(resolve_types=True)
    classes = _resolve_classes(graph)
    _validate_ports(graph, classes)
    _validate_slots(graph, classes)
    return classes


def _instantiate(graph: ConfigGraph, classes: Dict[str, Type[Component]],
                 sim_for: Callable[[ConfigComponent], Simulation],
                 connect: Callable[..., object]) -> None:
    """Construct every component on ``sim_for(conf)`` and wire every link.

    CPython's cyclic collector is held off meanwhile.  Everything made
    here (components, ports, statistics, clocks) outlives the build, so
    the automatic collections that fire every few hundred allocations
    would only re-traverse fresh objects: about 160 of them for 10 000
    components.  Paused, the new objects pay one young collection after
    the build returns.  The collector comes back as the caller had it:
    a caller that had disabled it keeps it disabled, also when a
    constructor raises.
    """
    instances: Dict[str, Component] = {}
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for conf in graph.components():
            instances[conf.name] = classes[conf.name](
                sim_for(conf), conf.name, Params(conf.params))
        for link in graph.links():
            if link.is_self_link():
                comp = instances[link.comp_a]
                comp.sim.self_link(comp, link.port_a, latency=link.latency)
            else:
                connect(instances[link.comp_a], link.port_a,
                        instances[link.comp_b], link.port_b,
                        latency=link.latency, name=link.name)
    finally:
        if was_enabled:
            gc.enable()
    _check_required_ports(instances)


def build(graph: ConfigGraph, *, sim: Optional[Simulation] = None,
          seed: int = 1, queue: str = "heap", verbose: bool = False,
          validate_events: bool = False) -> Simulation:
    """Instantiate every component and link of ``graph`` into one Simulation.

    The graph is retained on ``sim.config_graph`` — `repro.ckpt`
    snapshots embed it so a restore can rebuild the component set and
    validate identity.  ``validate_events=True`` additionally wraps
    handlers of event-typed declared ports with isinstance checks at
    setup (diagnostics mode; off by default to keep the hot path bare).
    ``queue`` accepts only ``"heap"``, the one event queue.  The cyclic
    garbage collector is paused while components are constructed and
    wired, and left as the caller had it afterwards.
    """
    require_heap(queue)
    classes = _checked_classes(graph)
    if sim is None:
        sim = Simulation(seed=seed, verbose=verbose)
    if validate_events:
        sim.validate_events = True
    sim.config_graph = graph
    _instantiate(graph, classes, lambda conf: sim, sim.connect)
    return sim


def build_parallel(graph: ConfigGraph, num_ranks: int, *,
                   strategy: str = "linear", seed: int = 1,
                   queue: str = "heap", backend: str = "serial",
                   verbose: bool = False,
                   validate_events: bool = False,
                   transport: str = "shm",
                   sync: str = "adaptive") -> ParallelSimulation:
    """Partition ``graph`` across ``num_ranks`` and instantiate per rank.

    Components carrying a ``rank`` pin are honoured; the partitioner
    decides placement for the rest (pins are applied on top of the
    strategy's assignment, so heavy pinning can unbalance ranks).

    ``backend`` selects the execution substrate (``serial`` /
    ``processes``), passed straight through to
    :class:`~repro.core.parallel.ParallelSimulation`.  ``queue``,
    ``transport`` and ``sync`` each name the one implementation and
    accept only it: ``"heap"`` (as in :func:`build`), ``"shm"`` (the
    processes backend's one data plane, now pipes; the name stays for
    callers that still pass it) and ``"adaptive"`` (the sync policy's
    widening window).  Construction pauses the collector as
    :func:`build` does.
    """
    require_heap(queue)
    for option, value, only in (("transport", transport, "shm"),
                                ("sync strategy", sync, "adaptive")):
        if value != only:
            raise ValueError(f"unknown {option} {value!r}; "
                             f"the only choice is {only!r}")
    classes = _checked_classes(graph)
    nodes, edges, weights = graph.partition_inputs()
    result = partition(nodes, edges, num_ranks, strategy=strategy, weights=weights)
    assignment = dict(result.assignment)
    for conf in graph.components():
        if conf.rank is not None:
            if conf.rank >= num_ranks:
                raise ConfigError(
                    f"component {conf.name!r} pinned to rank {conf.rank} "
                    f">= num_ranks {num_ranks}"
                )
            assignment[conf.name] = conf.rank

    psim = ParallelSimulation(num_ranks, seed=seed,
                              backend=backend, verbose=verbose)
    psim.partition_strategy = strategy
    psim.config_graph = graph
    if validate_events:
        for rank in range(num_ranks):
            psim.rank_sim(rank).validate_events = True
    _instantiate(graph, classes,
                 lambda conf: psim.rank_sim(assignment[conf.name]),
                 psim.connect)
    return psim
