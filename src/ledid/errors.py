"""Exception hierarchy shared by all modules, and the one positive-and-finite rule.

Every error raised by this package derives from LedIdError so callers can
catch the whole family at once; the CLI maps the leaf classes onto exit
codes.
"""

import math


class LedIdError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(LedIdError, ValueError):
    """A value is outside the domain a model or operation accepts."""


def check_positive_finite(model: object, *names: str) -> None:
    """Raise ParameterError for the first field of ``model`` in ``names`` that is not positive and finite."""
    for name in names:
        value = getattr(model, name)
        if not (value > 0.0 and math.isfinite(value)):
            raise ParameterError(f"{name}: must be positive and finite, got {value}")


class GeometryError(LedIdError, ValueError):
    """Degenerate geometry, e.g. coincident emitter and receiver."""


class TagNotFoundError(LedIdError, LookupError):
    """A tag id does not name any luminaire in the scenario."""


class ScenarioParseError(LedIdError):
    """A scenario document is malformed (syntax, unknown or missing keys)."""


class ScenarioValidationError(LedIdError):
    """A scenario document parses but violates a physical invariant."""


class PlaneOutsideRoomError(ParameterError, ScenarioValidationError):
    """A receiver plane lies outside the scenario's room."""
