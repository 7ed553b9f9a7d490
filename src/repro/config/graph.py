"""ConfigGraph: the declarative machine description.

SST's defining usability feature is its Python-driven configuration:
the user writes a script that declares components (by library type name
and parameter dictionary) and links (by endpoint ports and latency),
and the simulator core instantiates, partitions and runs that graph.
PySST's :class:`ConfigGraph` is that declarative object — it knows
nothing about model classes until build time, so it can be constructed,
validated, serialized and partitioned without importing any model
library.

Example::

    g = ConfigGraph("two-node")
    cpu = g.component("cpu0", "processor.Core", {"clock": "2GHz", "issue_width": 2})
    mem = g.component("mem0", "memory.MainMemory", {"technology": "DDR3-1333"})
    g.link(cpu, "mem", mem, "cpu", latency="2ns")
    g.validate()
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from ..core import units
from ..core.partition import PartitionEdge
from ..core.units import SimTime

#: how many unlinked components validate()'s warning names
_NAMED_ISOLATED = 3


class ConfigError(ValueError):
    """The configuration graph is malformed."""


@dataclass
class ConfigComponent:
    """A declared component: a name, a library type and parameters."""

    name: str
    type_name: str
    params: Dict[str, Any] = field(default_factory=dict)
    #: Optional manual rank pin for parallel builds (None = partitioner's choice).
    rank: Optional[int] = None
    #: Relative work estimate used by weight-aware partitioners.
    weight: float = 1.0

    def param(self, key: str, value: Any) -> "ConfigComponent":
        """Set one parameter (chainable)."""
        self.params[key] = value
        return self

    def __hash__(self) -> int:
        return hash(self.name)


@dataclass
class ConfigLink:
    """A declared link between two (component, port) endpoints."""

    name: str
    comp_a: str
    port_a: str
    comp_b: str
    port_b: str
    latency: SimTime  #: picoseconds
    #: Relative traffic estimate used by cut-aware partitioners.
    weight: float = 1.0

    @property
    def endpoints(self) -> Tuple[Tuple[str, str], Tuple[str, str]]:
        return ((self.comp_a, self.port_a), (self.comp_b, self.port_b))

    def is_self_link(self) -> bool:
        return self.comp_a == self.comp_b and self.port_a == self.port_b


class ConfigGraph:
    """A buildable, serializable machine description."""

    def __init__(self, name: str = "machine"):
        self.name = name
        self._components: Dict[str, ConfigComponent] = {}
        self._links: Dict[str, ConfigLink] = {}
        self._ports_used: Dict[Tuple[str, str], str] = {}  # (comp, port) -> link name

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def component(self, name: str, type_name: str,
                  params: Optional[Dict[str, Any]] = None, *,
                  rank: Optional[int] = None,
                  weight: float = 1.0) -> ConfigComponent:
        """Declare a component.  Names must be unique in the graph."""
        if not name:
            raise ConfigError("component name must be non-empty")
        if name in self._components:
            raise ConfigError(f"duplicate component name {name!r}")
        if not type_name:
            raise ConfigError(f"component {name!r}: type name must be non-empty")
        comp = ConfigComponent(name, type_name, dict(params or {}), rank, weight)
        self._components[name] = comp
        return comp

    def link(self, comp_a: Union[str, ConfigComponent], port_a: str,
             comp_b: Union[str, ConfigComponent], port_b: str, *,
             latency: Union[str, int] = "1ns", name: Optional[str] = None,
             weight: float = 1.0) -> ConfigLink:
        """Declare a link joining two component ports."""
        name_a = comp_a.name if isinstance(comp_a, ConfigComponent) else comp_a
        name_b = comp_b.name if isinstance(comp_b, ConfigComponent) else comp_b
        for comp_name in (name_a, name_b):
            if comp_name not in self._components:
                raise ConfigError(f"link references unknown component {comp_name!r}")
        lat = units.parse_time(latency, default_unit="ps")
        if lat <= 0:
            raise ConfigError("link latency must be >= 1 ps")
        link_name = name or f"{name_a}.{port_a}--{name_b}.{port_b}"
        if link_name in self._links:
            raise ConfigError(f"duplicate link name {link_name!r}")
        is_self = (name_a, port_a) == (name_b, port_b)
        for end in {(name_a, port_a)} if is_self else [(name_a, port_a), (name_b, port_b)]:
            if end in self._ports_used:
                raise ConfigError(
                    f"port {end[0]}.{end[1]} already connected by link "
                    f"{self._ports_used[end]!r}"
                )
        link = ConfigLink(name=link_name, comp_a=name_a, port_a=port_a,
                          comp_b=name_b, port_b=port_b, latency=lat, weight=weight)
        self._links[link_name] = link
        self._ports_used[(name_a, port_a)] = link_name
        if not is_self:
            self._ports_used[(name_b, port_b)] = link_name
        return link

    def self_link(self, comp: Union[str, ConfigComponent], port: str, *,
                  latency: Union[str, int] = "1ns",
                  name: Optional[str] = None) -> ConfigLink:
        """Declare a self-link (component's delayed feedback to itself)."""
        return self.link(comp, port, comp, port, latency=latency, name=name)

    def merge(self, other: "ConfigGraph", prefix: str = "") -> None:
        """Absorb another graph's components/links, optionally prefixed."""
        for comp in other.components():
            self.component(prefix + comp.name, comp.type_name, comp.params,
                           rank=comp.rank, weight=comp.weight)
        for link in other.links():
            self.link(prefix + link.comp_a, link.port_a,
                      prefix + link.comp_b, link.port_b,
                      latency=link.latency,
                      name=(prefix + link.name) if prefix else link.name,
                      weight=link.weight)

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
    def components(self) -> List[ConfigComponent]:
        return list(self._components.values())

    def links(self) -> List[ConfigLink]:
        return list(self._links.values())

    def get_component(self, name: str) -> ConfigComponent:
        try:
            return self._components[name]
        except KeyError:
            raise ConfigError(f"no component named {name!r}") from None

    def get_link(self, name: str) -> ConfigLink:
        try:
            return self._links[name]
        except KeyError:
            raise ConfigError(f"no link named {name!r}") from None

    def has_component(self, name: str) -> bool:
        return name in self._components

    def __len__(self) -> int:
        return len(self._components)

    def __iter__(self) -> Iterator[ConfigComponent]:
        return iter(self._components.values())

    def num_links(self) -> int:
        return len(self._links)

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def validate(self, *, resolve_types: bool = False,
                 require_connected_ports: Optional[bool] = None) -> List[str]:
        """Check structural invariants; raises :class:`ConfigError` on failure.

        Returns a list of non-fatal warnings (e.g. isolated components).
        With ``resolve_types=True``, every type name must resolve in the
        component registry (imports model libraries as a side effect).
        """
        warnings: List[str] = []
        connected: set = set()
        for link in self._links.values():
            for comp_name, _port in link.endpoints:
                if comp_name not in self._components:
                    raise ConfigError(
                        f"link {link.name!r} references unknown component {comp_name!r}"
                    )
            if link.latency <= 0:
                raise ConfigError(f"link {link.name!r} has non-positive latency")
            connected.add(link.comp_a)
            connected.add(link.comp_b)
        isolated: List[str] = []
        for comp in self._components.values():
            if comp.rank is not None and comp.rank < 0:
                raise ConfigError(f"component {comp.name!r}: negative rank pin")
            if comp.name not in connected:
                isolated.append(comp.name)
        if isolated and len(self._components) > 1:
            # one summary line, not one per component (a 10 000-ticker
            # fabric has no links at all)
            named = ", ".join(repr(name) for name in isolated[:_NAMED_ISOLATED])
            more = len(isolated) - _NAMED_ISOLATED
            warnings.append(
                f"{len(isolated)} component(s) have no links: {named}"
                + (f" and {more} more" if more > 0 else ""))
        if resolve_types:
            from ..core import registry

            for type_name in dict.fromkeys(
                    comp.type_name for comp in self._components.values()):
                registry.resolve(type_name)  # raises RegistryError
        return warnings

    # ------------------------------------------------------------------
    # partitioning support
    # ------------------------------------------------------------------
    def partition_inputs(self) -> Tuple[List[str], List[PartitionEdge], Dict[str, float]]:
        """Nodes, edges and weights in the form :func:`repro.core.partition.partition` takes."""
        nodes = list(self._components.keys())
        edges = [
            PartitionEdge(u=l.comp_a, v=l.comp_b, weight=l.weight, latency=l.latency)
            for l in self._links.values()
            if l.comp_a != l.comp_b
        ]
        weights = {c.name: c.weight for c in self._components.values()}
        return nodes, edges, weights

    def min_latency(self) -> Optional[SimTime]:
        if not self._links:
            return None
        return min(l.latency for l in self._links.values())

    def summary(self) -> str:
        by_type: Dict[str, int] = {}
        for comp in self._components.values():
            by_type[comp.type_name] = by_type.get(comp.type_name, 0) + 1
        lines = [f"ConfigGraph {self.name!r}: {len(self)} components, "
                 f"{self.num_links()} links"]
        for type_name in sorted(by_type):
            lines.append(f"  {type_name:<32} x{by_type[type_name]}")
        return "\n".join(lines)
