"""Exception types shared across the package."""

from __future__ import annotations


class AttnPlanError(Exception):
    """Base class for all package-specific errors."""


class FormulaSyntaxError(AttnPlanError):
    """Raised by the formula parser; carries the character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class FormulaValidationError(AttnPlanError):
    """A programmatically built formula does not fit the signature."""


class StateValidationError(AttnPlanError):
    """A state failed validation where a valid one is required.

    ``violations`` holds the individual diagnostic strings.
    """

    def __init__(self, violations: list[str]):
        super().__init__("; ".join(violations))
        self.violations = violations


class SignatureMismatch(AttnPlanError):
    """Two objects that must share a signature do not."""


class CostLookupError(AttnPlanError, ValueError):
    """A cost table prices a question nowhere, twice or below 0.  Also a
    ValueError, which ``background_announcement`` raised for collisions."""


class NotApplicable(AttnPlanError):
    """An action's actual event is not executable at the actual world.

    ``index`` is the position within a sequence (0 for a single update).
    """

    def __init__(self, message: str, index: int = 0):
        super().__init__(message)
        self.index = index


class NameCollision(AttnPlanError, ValueError):
    """Two surviving world-event pairs of an update get the same name.

    Also a ValueError, which is what updates raised for it before.
    """


class AmbiguousActual(AttnPlanError):
    """More than one member of an action's actual family fires at the
    actual world."""


class IllFormedResult(AttnPlanError):
    """An update produced a relation that is not an equivalence.

    Only transitivity can fail (reflexivity and symmetry hold by
    construction); ``witness`` is a triple of result-world names
    (x, y, z) with x related to y and y to z but x not to z for
    ``agent``.
    """

    def __init__(self, agent: str, witness: tuple[str, str, str]):
        super().__init__(
            f"updated relation for agent {agent!r} is not transitive: "
            f"{witness[0]!r} ~ {witness[1]!r} ~ {witness[2]!r} but not "
            f"{witness[0]!r} ~ {witness[2]!r}"
        )
        self.agent = agent
        self.witness = witness


class NotNfl(AttnPlanError):
    """The no-free-lunch planner was handed an action outside the class."""

    def __init__(self, action_name: str, reason: str):
        super().__init__(f"action {action_name!r} is outside the class: {reason}")
        self.action_name = action_name
        self.reason = reason


class TaskFileError(AttnPlanError):
    """A task document failed to load; messages carry a location breadcrumb."""
