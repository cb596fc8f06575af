"""Exception hierarchy for the :mod:`repro` library.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while the
more specific subclasses document *why* an operation was rejected.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "SchemaError",
    "RelationError",
    "RowAttributeError",
    "DivisionError",
    "PredicateError",
    "ExpressionError",
    "RewriteError",
    "PlanningError",
    "ExecutionError",
    "StorageError",
    "StorageCorruptionError",
    "InjectedFaultError",
    "ViewError",
    "VerificationError",
    "SQLSyntaxError",
    "SQLTranslationError",
    "WorkloadError",
    "MiningError",
]


class ReproError(Exception):
    """Base class for all errors raised by the library."""


class SchemaError(ReproError):
    """A schema is malformed or two schemas are incompatible.

    Raised, for example, when a projection references an attribute that is
    not part of the input schema, or when a union is attempted between
    relations with different attribute sets.
    """


class RelationError(ReproError):
    """A relation value is malformed (e.g. a row misses an attribute)."""


class RowAttributeError(RelationError, KeyError):
    """A row was asked for an attribute it does not have.

    Subclasses :class:`KeyError` as well, so the :class:`collections.abc.Mapping`
    mixins (``get``, ``setdefault``-style lookups) treat it as an ordinary
    missing-key condition.
    """

    def __str__(self) -> str:  # KeyError.__str__ shows repr(args); keep the message
        return self.args[0] if self.args else ""


class DivisionError(SchemaError):
    """The schemas of dividend and divisor violate the operator definition.

    Small divide requires the divisor attributes ``B`` to be a nonempty
    proper subset of the dividend attributes ``A ∪ B``; great divide
    additionally requires a nonempty dividend-only set ``A`` and allows a
    divisor-only set ``C``.
    """


class PredicateError(ReproError):
    """A predicate references unknown attributes or cannot be evaluated."""


class ExpressionError(ReproError):
    """A logical algebra expression is malformed."""


class RewriteError(ReproError):
    """A rewrite rule was applied to an expression it does not match."""


class PlanningError(ReproError):
    """The optimizer could not produce a physical plan."""


class ExecutionError(ReproError):
    """A physical operator failed during execution."""


class StorageError(ReproError):
    """A stored table file or store directory is missing or malformed.

    Raised by the persistent columnar format (:mod:`repro.storage`) when a
    file's magic/header/block index cannot be read, and by
    ``repro.connect(path)`` when ``path`` is not a saved store.
    """


class StorageCorruptionError(StorageError):
    """A stored file's content disagrees with its recorded checksums.

    Raised when a block payload, file header or store manifest fails its
    integrity check — a truncated, bit-flipped or torn write.  ``file``
    names the damaged file, ``block`` the zero-based block number (or
    ``None`` for header/manifest damage), and ``expected``/``actual`` the
    mismatched checksums, so operators can report precisely what broke.
    """

    def __init__(
        self,
        message: str,
        *,
        file: str = "",
        block: "int | None" = None,
        expected: "int | str | None" = None,
        actual: "int | str | None" = None,
    ) -> None:
        super().__init__(message)
        self.file = file
        self.block = block
        self.expected = expected
        self.actual = actual


class InjectedFaultError(ReproError):
    """A deterministic fault raised by the fault-injection harness.

    Only ever raised when a :class:`repro.faults.FaultPlan` is active (via
    ``connect(faults=...)`` or the ``REPRO_FAULTS`` environment variable);
    production code paths never construct it spontaneously.  ``point`` is
    the registered fault-point name that fired.
    """

    def __init__(self, message: str, *, point: str = "") -> None:
        super().__init__(message)
        self.point = point


class ViewError(ReproError):
    """A maintained view cannot be created, updated, or persisted.

    Raised by ``Database.create_view`` for invalid definitions (duplicate
    names, views over views) and by ``Database.save`` when a registered
    fallback view has no persistable counter-table form.
    """


class VerificationError(ReproError):
    """Static analysis found severity-``error`` findings in a plan.

    Raised by the executor's debug-mode pre-execution hook and by
    ``Query.verify()``; the offending findings (with their stable RP codes)
    are listed in the message and attached as ``report``.
    """

    def __init__(self, message: str, report=None) -> None:
        super().__init__(message)
        self.report = report


class SQLSyntaxError(ReproError):
    """The SQL frontend could not tokenize or parse the input text."""

    def __init__(self, message: str, position: int | None = None) -> None:
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class SQLTranslationError(ReproError):
    """A parsed SQL statement cannot be translated to the logical algebra."""


class WorkloadError(ReproError):
    """A workload generator received inconsistent parameters."""


class MiningError(ReproError):
    """A frequent-itemset mining routine received invalid input."""
