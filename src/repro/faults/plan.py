"""Deterministic, seeded fault plans for the cloud substrate.

WiSeDB's cost model (Equation 1) prices IaaS VMs as if they never fail; real
clouds crash VMs, revoke spot instances, and stall provisioning.  A
:class:`FaultPlan` is the single source of truth for *when* and *how* those
things happen in a run: a set of explicitly timed events
(:class:`VMFailure`, :class:`SpotRevocation`, :class:`SlowStart`) plus
optional rate-based generators (:class:`FaultRates`) keyed by an explicit RNG
seed.  The plan has one consumer, the online scheduler
(:class:`~repro.runtime.online.OnlineScheduler` and its sessions), which asks
one question — :meth:`FaultPlan.profile_for` — for the *n*-th VM provisioned
in a run: whether (and when) it dies and how its start-up was delayed.  The
batch :class:`~repro.cloud.simulator.ScheduleSimulator` is fault-free.

Determinism is the design constraint that makes fault injection testable:

* every rate draw uses a private ``random.Random`` keyed by ``(seed,
  vm_index)``, so a VM's fate depends only on the plan and its provisioning
  sequence number — two runs of the same scenario produce bit-identical
  outcomes, and calling :meth:`profile_for` twice returns equal profiles;
* an **empty plan is a strict no-op**: consumers take their fault-free code
  paths unchanged, so every golden-scenario digest stays bit-identical.

Rate-generated failures are bounded by the plan's ``horizon`` (draws landing
beyond it are dropped), which keeps revocation storms finite: every
replacement VM is provisioned strictly later than its predecessor died, so a
run always terminates.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from repro.exceptions import SpecificationError

#: Event-kind markers carried by fault profiles.
CRASH = "crash"
REVOCATION = "revocation"
SLOW_START = "slow_start"


@dataclass(frozen=True)
class VMFailure:
    """A hard crash of one VM at an absolute simulation time.

    ``vm_index`` is the VM's provisioning sequence number within the run
    (0-based): the *n*-th VM rented, whichever type it is.  An event timed
    before the VM is actually provisioned fires at the provisioning instant
    (the VM dies immediately).
    """

    at: float
    vm_index: int
    kind: str = field(default=CRASH, init=False)

    def __post_init__(self) -> None:
        if self.at < 0:
            raise SpecificationError("VMFailure.at must be non-negative")
        if self.vm_index < 0:
            raise SpecificationError("VMFailure.vm_index must be non-negative")


@dataclass(frozen=True)
class SpotRevocation:
    """The provider reclaims a spot/preemptible VM at an absolute time.

    Accounting-wise identical to a crash (in-flight work is lost, queued
    queries must be re-placed); the kind is kept distinct so failure reports
    can attribute losses to spot pricing.
    """

    at: float
    vm_index: int
    kind: str = field(default=REVOCATION, init=False)

    def __post_init__(self) -> None:
        if self.at < 0:
            raise SpecificationError("SpotRevocation.at must be non-negative")
        if self.vm_index < 0:
            raise SpecificationError("SpotRevocation.vm_index must be non-negative")


@dataclass(frozen=True)
class SlowStart:
    """Delayed (and possibly repeatedly failing) provisioning of one VM.

    ``delay`` is extra wall-clock before the VM can execute anything;
    ``start_failures`` counts provision attempts that failed before the one
    that succeeded — the consumer adds capped exponential backoff (see
    :class:`BackoffPolicy`) for each failed attempt on top of ``delay``.
    """

    vm_index: int
    delay: float = 0.0
    start_failures: int = 0
    kind: str = field(default=SLOW_START, init=False)

    def __post_init__(self) -> None:
        if self.vm_index < 0:
            raise SpecificationError("SlowStart.vm_index must be non-negative")
        if self.delay < 0 or not math.isfinite(self.delay):
            raise SpecificationError("SlowStart.delay must be finite and non-negative")
        if self.start_failures < 0:
            raise SpecificationError("SlowStart.start_failures must be non-negative")


FaultEvent = VMFailure | SpotRevocation | SlowStart


@dataclass(frozen=True)
class BackoffPolicy:
    """Capped exponential backoff applied to repeated VM start failures.

    The *i*-th retry (0-based) waits ``min(base_delay * multiplier**i,
    max_delay)`` seconds, so no single retry ever exceeds ``max_delay`` —
    the cap the fault suite asserts.
    """

    base_delay: float = 2.0
    multiplier: float = 2.0
    max_delay: float = 60.0

    def __post_init__(self) -> None:
        if self.base_delay < 0 or not math.isfinite(self.base_delay):
            raise SpecificationError("base_delay must be finite and non-negative")
        if self.multiplier < 1.0:
            raise SpecificationError("multiplier must be >= 1")
        if self.max_delay < self.base_delay:
            raise SpecificationError("max_delay must be >= base_delay")

    def delay_for_attempt(self, attempt: int) -> float:
        """Backoff delay (seconds) before retry number *attempt* (0-based)."""
        if attempt < 0:
            raise SpecificationError("attempt must be non-negative")
        return min(self.base_delay * self.multiplier**attempt, self.max_delay)

    def delays(self, failures: int) -> tuple[float, ...]:
        """The individual backoff delays incurred by *failures* failed attempts."""
        return tuple(self.delay_for_attempt(attempt) for attempt in range(failures))

    def total_delay(self, failures: int) -> float:
        """Total backoff delay (seconds) accumulated over *failures* attempts."""
        return sum(self.delays(failures))


@dataclass(frozen=True)
class FaultRates:
    """Rate-based fault generators, keyed by an explicit RNG seed.

    Rates are *per hour* of VM uptime; each provisioned VM draws its fate from
    a private RNG keyed by ``(seed, vm_index)``, so profiles are stateless and
    reproducible.  ``revocation_scale`` multiplies every spot VM type's own
    ``revocation_rate`` (so one plan can sweep revocation pressure without
    editing the catalogue); ``crash_rate`` applies to every VM type.
    ``start_failure_chance`` is the per-attempt probability that provisioning
    fails, capped at ``max_start_failures`` attempts.
    """

    seed: int = 0
    horizon: float = 24 * 3600.0
    revocation_scale: float = 1.0
    crash_rate: float = 0.0
    start_failure_chance: float = 0.0
    max_start_failures: int = 6

    def __post_init__(self) -> None:
        if self.horizon <= 0 or not math.isfinite(self.horizon):
            raise SpecificationError("horizon must be finite and positive")
        if self.revocation_scale < 0:
            raise SpecificationError("revocation_scale must be non-negative")
        if self.crash_rate < 0:
            raise SpecificationError("crash_rate must be non-negative")
        if not 0.0 <= self.start_failure_chance < 1.0:
            raise SpecificationError("start_failure_chance must be in [0, 1)")
        if self.max_start_failures < 0:
            raise SpecificationError("max_start_failures must be non-negative")


@dataclass(frozen=True)
class VMFaultProfile:
    """Everything fault-related about one provisioned VM.

    ``fail_time`` is the absolute simulation time the VM dies (``None`` = it
    survives the run); ``startup_delay`` is the explicit slow-start delay
    *excluding* backoff (consumers add ``backoff.total_delay(start_failures)``
    on top, which :meth:`FaultPlan.provisioning_delay` does for them).
    """

    vm_index: int
    fail_time: float | None = None
    fail_kind: str | None = None
    startup_delay: float = 0.0
    start_failures: int = 0


class FaultPlan:
    """A deterministic schedule of infrastructure faults for one run.

    Combines explicitly timed events (exact chaos drills, regression cases)
    with seeded rate generators (revocation storms, flaky provisioning).
    The plan is immutable and stateless: :meth:`profile_for` is a pure
    function of ``(plan, vm_index, vm_type, provision_time)``.
    """

    def __init__(
        self,
        events: tuple[FaultEvent, ...] | list[FaultEvent] = (),
        rates: FaultRates | None = None,
        backoff: BackoffPolicy | None = None,
    ) -> None:
        events = tuple(events)
        for event in events:
            if not isinstance(event, (VMFailure, SpotRevocation, SlowStart)):
                raise SpecificationError(
                    f"unknown fault event type: {type(event).__name__}"
                )
        self._events = events
        self._rates = rates
        self._backoff = backoff or BackoffPolicy()
        #: vm_index -> earliest (at, kind) failure event targeting it.
        self._failures: dict[int, tuple[float, str]] = {}
        #: vm_index -> (summed delay, summed start failures).
        self._slow_starts: dict[int, tuple[float, int]] = {}
        for event in events:
            if isinstance(event, SlowStart):
                delay, failures = self._slow_starts.get(event.vm_index, (0.0, 0))
                self._slow_starts[event.vm_index] = (
                    delay + event.delay,
                    failures + event.start_failures,
                )
            else:
                current = self._failures.get(event.vm_index)
                if current is None or event.at < current[0]:
                    self._failures[event.vm_index] = (event.at, event.kind)

    # -- constructors ------------------------------------------------------------

    @classmethod
    def empty(cls) -> "FaultPlan":
        """A plan with no faults at all (consumers behave bit-identically)."""
        return cls()

    @classmethod
    def from_rates(
        cls,
        seed: int,
        horizon: float = 24 * 3600.0,
        revocation_scale: float = 1.0,
        crash_rate: float = 0.0,
        start_failure_chance: float = 0.0,
        max_start_failures: int = 6,
        backoff: BackoffPolicy | None = None,
    ) -> "FaultPlan":
        """A purely rate-driven plan (see :class:`FaultRates`)."""
        return cls(
            rates=FaultRates(
                seed=seed,
                horizon=horizon,
                revocation_scale=revocation_scale,
                crash_rate=crash_rate,
                start_failure_chance=start_failure_chance,
                max_start_failures=max_start_failures,
            ),
            backoff=backoff,
        )

    # -- accessors ---------------------------------------------------------------

    @property
    def is_empty(self) -> bool:
        """True when the plan can never produce a fault."""
        if self._events:
            return False
        rates = self._rates
        if rates is None:
            return True
        # A non-zero revocation_scale still needs spot VM types to bite, but
        # the plan cannot know the catalogue here; treat it as non-empty.
        return (
            rates.crash_rate == 0.0
            and rates.start_failure_chance == 0.0
            and rates.revocation_scale == 0.0
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FaultPlan(events={len(self._events)}, "
            f"rates={'yes' if self._rates else 'no'})"
        )

    # -- the consumer query --------------------------------------------------------

    def profile_for(
        self, vm_index: int, vm_type, provision_time: float
    ) -> VMFaultProfile:
        """The fault profile of the *vm_index*-th VM provisioned in a run.

        Pure and deterministic: explicit events targeting ``vm_index`` are
        merged with the rate generators' seeded draws.  Events timed before
        ``provision_time`` are clamped to it (the VM dies at birth); rate
        draws start the hazard clock when the VM actually comes up (after
        start-up delays) and are dropped beyond the plan horizon.
        """
        delay, start_failures = self._slow_starts.get(vm_index, (0.0, 0))
        candidates: list[tuple[float, str]] = []
        explicit = self._failures.get(vm_index)
        if explicit is not None:
            candidates.append((max(explicit[0], provision_time), explicit[1]))

        rates = self._rates
        if rates is not None:
            rng = random.Random(f"wisedb-faults:{rates.seed}:{vm_index}")
            # Draw order is fixed (start failures, crash, revocation) so a
            # profile never depends on which generators happen to be active.
            if rates.start_failure_chance > 0.0:
                while (
                    start_failures < rates.max_start_failures
                    and rng.random() < rates.start_failure_chance
                ):
                    start_failures += 1
            up_at = (
                provision_time + delay + self._backoff.total_delay(start_failures)
            )
            if rates.crash_rate > 0.0:
                offset = rng.expovariate(rates.crash_rate / 3600.0)
                crash_at = up_at + offset
                if crash_at <= rates.horizon:
                    candidates.append((crash_at, CRASH))
            revocation_rate = (
                getattr(vm_type, "revocation_rate", 0.0) * rates.revocation_scale
            )
            if revocation_rate > 0.0:
                offset = rng.expovariate(revocation_rate / 3600.0)
                revoked_at = up_at + offset
                if revoked_at <= rates.horizon:
                    candidates.append((revoked_at, REVOCATION))

        fail_time: float | None = None
        fail_kind: str | None = None
        if candidates:
            fail_time, fail_kind = min(candidates)
        return VMFaultProfile(
            vm_index=vm_index,
            fail_time=fail_time,
            fail_kind=fail_kind,
            startup_delay=delay,
            start_failures=start_failures,
        )

    def provisioning_delay(self, profile: VMFaultProfile) -> float:
        """Total extra provisioning time: slow start plus capped backoff."""
        return profile.startup_delay + self._backoff.total_delay(
            profile.start_failures
        )
