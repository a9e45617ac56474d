"""Exception hierarchy shared by all modules.

Every error raised by this package derives from LedIdError so callers can
catch the whole family at once; the CLI maps the leaf classes onto exit
codes.
"""


class LedIdError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(LedIdError, ValueError):
    """A value is outside the domain a model or operation accepts."""


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
