"""Virtual machine types and the IaaS pricing catalogue.

WiSeDB models the IaaS provider as a menu of VM *types* (Section 2): each type
``i`` has a fixed start-up cost ``f_s^i``, a running cost ``f_r^i`` per unit of
time, and may or may not be able to process a given query template (the
``supports-X`` feature of Section 4.4).  Different types may also execute the
same template at different speeds — the paper's two-type experiment pairs
``t2.medium`` with the cheaper ``t2.small``, on which low-memory (short)
queries run at full speed while memory-hungry queries slow down.

The default single-type catalogue matches Section 7.1: the ``t2.medium``
analogue costs $0.052/hour with a $0.0008 start-up fee.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping

from repro import config, units
from repro.exceptions import SpecificationError, UnknownVMTypeError


@dataclass(frozen=True)
class VMType:
    """A rentable VM configuration.

    Parameters
    ----------
    name:
        Unique identifier (e.g. ``"t2.medium"``).
    startup_cost:
        Fixed provisioning fee ``f_s`` in cents.
    running_cost:
        Rental price ``f_r`` in cents per second.
    default_speed_factor:
        Multiplier applied to a template's base latency when executed on this
        type (1.0 = reference speed, 2.0 = twice as slow).
    speed_factors:
        Per-template overrides of the speed factor, keyed by template name.
    unsupported_templates:
        Template names this VM type cannot process at all (drives the
        ``supports-X`` feature).
    spot:
        Whether this is a spot/preemptible type: discounted pricing in
        exchange for the provider's right to revoke the VM mid-run.
    revocation_rate:
        Expected revocations per hour of uptime (0.0 = never revoked).  Only
        consulted when a :class:`~repro.faults.FaultPlan` with rate
        generators is in effect; the baseline cost model still prices the VM
        as if it never fails.
    """

    name: str
    startup_cost: float = config.DEFAULT_STARTUP_COST
    running_cost: float = config.DEFAULT_RUNNING_COST
    default_speed_factor: float = 1.0
    speed_factors: Mapping[str, float] = field(default_factory=dict)
    unsupported_templates: frozenset[str] = field(default_factory=frozenset)
    spot: bool = False
    revocation_rate: float = 0.0

    def __post_init__(self) -> None:
        if not self.name:
            raise SpecificationError("VM type name must be non-empty")
        if self.startup_cost < 0 or self.running_cost < 0:
            raise SpecificationError(f"VM type {self.name!r} has negative costs")
        if self.default_speed_factor <= 0:
            raise SpecificationError(
                f"VM type {self.name!r} must have a positive speed factor"
            )
        if self.revocation_rate < 0:
            raise SpecificationError(
                f"VM type {self.name!r} has a negative revocation rate"
            )
        # Normalise the collections so the dataclass stays hashable.
        object.__setattr__(self, "speed_factors", dict(self.speed_factors))
        object.__setattr__(
            self, "unsupported_templates", frozenset(self.unsupported_templates)
        )

    def __hash__(self) -> int:
        return hash(self.name)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VMType):
            return NotImplemented
        return self.name == other.name

    def supports(self, template_name: str) -> bool:
        """Whether this VM type can process queries of *template_name*."""
        return template_name not in self.unsupported_templates

    def speed_factor(self, template_name: str) -> float:
        """Latency multiplier for *template_name* on this VM type."""
        return self.speed_factors.get(template_name, self.default_speed_factor)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-serializable representation (exact float round-trip).

        Spot fields are omitted at their defaults so the fingerprints of
        pre-existing (on-demand) catalogues stay byte-identical.
        """
        data = {
            "name": self.name,
            "startup_cost": self.startup_cost,
            "running_cost": self.running_cost,
            "default_speed_factor": self.default_speed_factor,
            "speed_factors": dict(sorted(self.speed_factors.items())),
            "unsupported_templates": sorted(self.unsupported_templates),
        }
        if self.spot:
            data["spot"] = True
        if self.revocation_rate != 0.0:
            data["revocation_rate"] = self.revocation_rate
        return data

    @classmethod
    def from_dict(cls, data: Mapping) -> "VMType":
        """Rebuild a VM type from :meth:`to_dict` output."""
        return cls(
            name=data["name"],
            startup_cost=data["startup_cost"],
            running_cost=data["running_cost"],
            default_speed_factor=data.get("default_speed_factor", 1.0),
            speed_factors=data.get("speed_factors", {}),
            unsupported_templates=frozenset(data.get("unsupported_templates", ())),
            spot=data.get("spot", False),
            revocation_rate=data.get("revocation_rate", 0.0),
        )


class VMTypeCatalog:
    """The set of VM types offered by the IaaS provider."""

    def __init__(self, vm_types: Iterable[VMType]) -> None:
        vm_types = list(vm_types)
        if not vm_types:
            raise SpecificationError("a VM type catalogue requires at least one type")
        names = [vm.name for vm in vm_types]
        if len(set(names)) != len(names):
            raise SpecificationError(f"duplicate VM type names: {sorted(names)}")
        self._vm_types: tuple[VMType, ...] = tuple(vm_types)
        self._by_name = {vm.name: vm for vm in vm_types}

    def __len__(self) -> int:
        return len(self._vm_types)

    def __iter__(self) -> Iterator[VMType]:
        return iter(self._vm_types)

    def __contains__(self, item: object) -> bool:
        if isinstance(item, VMType):
            return item.name in self._by_name
        return item in self._by_name

    def __getitem__(self, name: str) -> VMType:
        try:
            return self._by_name[name]
        except KeyError:
            raise UnknownVMTypeError(name) from None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VMTypeCatalog):
            return NotImplemented
        return self._vm_types == other._vm_types

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"VMTypeCatalog({[vm.name for vm in self._vm_types]})"

    @property
    def names(self) -> tuple[str, ...]:
        """VM type names in declaration order."""
        return tuple(vm.name for vm in self._vm_types)

    @property
    def default(self) -> VMType:
        """The first (reference) VM type in the catalogue."""
        return self._vm_types[0]

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-serializable representation preserving declaration order."""
        return {"vm_types": [vm.to_dict() for vm in self._vm_types]}

    @classmethod
    def from_dict(cls, data: Mapping) -> "VMTypeCatalog":
        """Rebuild a catalogue from :meth:`to_dict` output."""
        return cls(VMType.from_dict(entry) for entry in data["vm_types"])


# ---------------------------------------------------------------------------
# EC2-like catalogue entries (Section 7.1 / Figure 12)
# ---------------------------------------------------------------------------


def t2_medium() -> VMType:
    """The reference VM type: a ``t2.medium`` analogue at $0.052/hour."""
    return VMType(
        name="t2.medium",
        startup_cost=config.DEFAULT_STARTUP_COST,
        running_cost=config.DEFAULT_RUNNING_COST,
    )


def t2_small(slow_templates: Iterable[str] = (), slowdown: float = 1.6) -> VMType:
    """A cheaper ``t2.small`` analogue.

    Low-memory (short) queries run at full speed; templates listed in
    *slow_templates* (the memory-hungry ones) are slowed down by *slowdown*.
    The hourly price ($0.026/hour) is half the ``t2.medium`` price, mirroring
    the EC2 price ratio at the time of the paper.
    """
    return VMType(
        name="t2.small",
        startup_cost=config.DEFAULT_STARTUP_COST,
        running_cost=units.dollars_per_hour(0.026),
        speed_factors={name: slowdown for name in slow_templates},
    )


def spot_variant(
    vm_type: VMType,
    discount: float = 0.7,
    revocation_rate: float = 0.25,
    name: str | None = None,
) -> VMType:
    """A spot/preemptible twin of *vm_type* at a discounted running price.

    ``discount`` is the fraction knocked off the on-demand running cost (0.7
    mirrors typical spot savings); ``revocation_rate`` is the expected number
    of revocations per hour of uptime the type advertises.  Start-up cost and
    execution speeds are unchanged — the provider hands out the same hardware,
    it just reserves the right to take it back.
    """
    if not 0.0 <= discount < 1.0:
        raise SpecificationError("spot discount must be in [0, 1)")
    return VMType(
        name=name or f"{vm_type.name}.spot",
        startup_cost=vm_type.startup_cost,
        running_cost=vm_type.running_cost * (1.0 - discount),
        default_speed_factor=vm_type.default_speed_factor,
        speed_factors=vm_type.speed_factors,
        unsupported_templates=vm_type.unsupported_templates,
        spot=True,
        revocation_rate=revocation_rate,
    )


def single_vm_type_catalog() -> VMTypeCatalog:
    """The default single-type catalogue used by most experiments."""
    return VMTypeCatalog([t2_medium()])


def spot_vm_type_catalog(
    discount: float = 0.7, revocation_rate: float = 0.25
) -> VMTypeCatalog:
    """An on-demand ``t2.medium`` next to its discounted spot twin.

    The scenario-zoo catalogue for revocation experiments: the optimizer can
    chase the spot discount, and a :class:`~repro.faults.FaultPlan` with rate
    generators decides how often that gamble loses.
    """
    reference = t2_medium()
    return VMTypeCatalog(
        [reference, spot_variant(reference, discount, revocation_rate)]
    )


def two_vm_type_catalog(slow_templates: Iterable[str] = ()) -> VMTypeCatalog:
    """The two-type catalogue of Figure 12 (t2.medium + t2.small)."""
    return VMTypeCatalog([t2_medium(), t2_small(slow_templates)])


def synthetic_vm_type_catalog(count: int) -> VMTypeCatalog:
    """A catalogue of *count* VM types with a spread of price/speed trade-offs.

    Used by the training-scalability experiment (Figure 15), which varies the
    number of VM types from 1 to 10.  Types alternate between slightly
    cheaper/slower and pricier/faster variants of the reference type so every
    type is potentially useful to the optimizer.
    """
    if count < 1:
        raise SpecificationError("count must be >= 1")
    vm_types = [t2_medium()]
    for index in range(1, count):
        # Cheaper types are slower; pricier types are faster.
        scale = 1.0 + 0.15 * index
        if index % 2 == 1:
            vm_types.append(
                VMType(
                    name=f"vm.cheap{index}",
                    startup_cost=config.DEFAULT_STARTUP_COST,
                    running_cost=config.DEFAULT_RUNNING_COST / scale,
                    default_speed_factor=min(2.5, scale),
                )
            )
        else:
            vm_types.append(
                VMType(
                    name=f"vm.fast{index}",
                    startup_cost=config.DEFAULT_STARTUP_COST * scale,
                    running_cost=config.DEFAULT_RUNNING_COST * scale,
                    default_speed_factor=max(0.4, 1.0 / scale),
                )
            )
    return VMTypeCatalog(vm_types)
