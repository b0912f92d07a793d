"""Exception taxonomy shared by all oblix modules.

Every refusal in the package raises one of the six subclasses below;
callers that do not tell them apart catch `OblixError`.
"""


class OblixError(Exception):
    """Base class for every error raised by this package."""


class ShapeError(OblixError):
    """Operand shapes are incompatible; message names both shapes."""


class RangeError(OblixError):
    """Value exceeds a representable range (e.g. binary16 overflow)."""


class ConfigError(OblixError):
    """Invalid configuration parameter or step index."""


class InputError(OblixError):
    """Invalid user-facing input (e.g. empty prompt, unusable template)."""


class ProtocolError(OblixError):
    """A frame that cannot be sent, was not received whole, or is malformed.

    ``offset`` points at the first offending byte when known.
    """

    def __init__(self, message: str, offset: int | None = None):
        super().__init__(message)
        self.offset = offset


class InternalError(OblixError):
    """Invariant violation that indicates a bug, not misuse."""
