"""Fault plans: the declarative half of the fault-injection harness.

A :class:`FaultPlan` is a value — a seed plus a tuple of
:class:`FaultSpec` entries, each naming a **fault point** (a labelled
location in the engine, e.g. ``storage.block_read``), an **action**
(``raise``, ``delay``, ``corrupt`` or ``crash``), and how often/how many
times it fires.  Plans do nothing by themselves; they are armed through
:func:`repro.faults.registry.install_plan`, typically via
``connect(faults=FaultPlan(...))`` or the ``REPRO_FAULTS`` environment
variable.

Determinism is the whole point: a given ``(plan, seed)`` fires the same
faults at the same decision points on every run, so a chaos failure seen
in CI reproduces locally from the plan string alone.  Each spec draws
from its own :class:`random.Random` seeded from ``(plan seed, point,
action)``, so adding a spec for one point never shifts another point's
decision sequence.

Point names are deliberately **not** validated here: a plan naming an
unregistered point is constructible (and installable) so the RP704
static-analysis check can catch the typo and report it with the list of
registered points — failing loudly at ``verify`` time instead of
silently never firing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.errors import ReproError

__all__ = ["ACTIONS", "FaultPlan", "FaultSpec"]

#: The injection actions a spec may request.  ``raise`` throws a typed
#: :class:`~repro.errors.InjectedFaultError`; ``delay`` sleeps
#: ``delay_seconds``; ``corrupt`` flips a byte in the payload at points
#: that carry one (elsewhere it degrades to ``raise``); ``crash`` degrades
#: to ``raise`` everywhere — no point kills a process.
ACTIONS = frozenset({"raise", "delay", "corrupt", "crash"})

#: Default sleep for ``delay`` specs parsed from ``REPRO_FAULTS`` (the
#: env syntax has no delay field; programmatic plans set their own).
DEFAULT_DELAY_SECONDS = 0.05


@dataclass(frozen=True)
class FaultSpec:
    """One injection rule: at ``point``, perform ``action``.

    ``probability`` is the per-decision firing chance (1.0 = always);
    ``limit`` caps the total number of firings (``None`` = unbounded);
    ``delay_seconds`` is the sleep applied by ``delay`` actions.
    """

    point: str
    action: str = "raise"
    probability: float = 1.0
    limit: Optional[int] = None
    delay_seconds: float = DEFAULT_DELAY_SECONDS

    def __post_init__(self) -> None:
        if not self.point or not isinstance(self.point, str):
            raise ReproError("fault spec needs a non-empty point name")
        if self.action not in ACTIONS:
            raise ReproError(
                f"unknown fault action {self.action!r}; expected one of {sorted(ACTIONS)}"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise ReproError(f"fault probability must be in [0, 1], got {self.probability!r}")
        if self.limit is not None and self.limit < 1:
            raise ReproError(f"fault limit must be positive or None, got {self.limit!r}")
        if self.delay_seconds < 0:
            raise ReproError(f"fault delay must be non-negative, got {self.delay_seconds!r}")


@dataclass(frozen=True)
class FaultPlan:
    """A seed plus the fault specs to arm together."""

    specs: tuple[FaultSpec, ...] = field(default=())
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "specs", tuple(self.specs))
        for spec in self.specs:
            if not isinstance(spec, FaultSpec):
                raise ReproError(f"fault plan entries must be FaultSpec, got {spec!r}")

    def points(self) -> tuple[str, ...]:
        """The distinct point names this plan touches, sorted."""
        return tuple(sorted({spec.point for spec in self.specs}))

    def __bool__(self) -> bool:
        return bool(self.specs)

    @classmethod
    def parse(cls, text: str, seed: int = 0) -> "FaultPlan":
        """Parse the ``REPRO_FAULTS`` environment syntax into a plan.

        Entries are separated by ``;`` or ``,``; each entry is
        ``point[:action[:probability[:limit]]]`` — for example::

            REPRO_FAULTS="storage.block_read:corrupt:0.5;spill.write:raise:1:1"

        arms a 50%-probability block corruption plus exactly one failed
        spill write.  The action defaults to ``raise``, probability to 1.0 and
        the limit to unbounded.
        """
        specs: list[FaultSpec] = []
        for entry in text.replace(";", ",").split(","):
            entry = entry.strip()
            if not entry:
                continue
            parts = entry.split(":")
            if len(parts) > 4:
                raise ReproError(
                    f"malformed REPRO_FAULTS entry {entry!r}; "
                    "expected point[:action[:probability[:limit]]]"
                )
            point = parts[0].strip()
            action = parts[1].strip() if len(parts) > 1 else "raise"
            try:
                probability = float(parts[2]) if len(parts) > 2 else 1.0
                limit = int(parts[3]) if len(parts) > 3 else None
            except ValueError as error:
                raise ReproError(f"malformed REPRO_FAULTS entry {entry!r}: {error}") from None
            specs.append(
                FaultSpec(point=point, action=action, probability=probability, limit=limit)
            )
        return cls(specs=tuple(specs), seed=seed)
