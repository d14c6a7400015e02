"""Exception types shared across the toolkit."""


class LoccSimError(Exception):
    """Base class for all toolkit errors."""


class ConstraintViolation(LoccSimError):
    """State parameters violate a domain constraint (positivity, normalization)."""


class WrongArity(LoccSimError):
    """Operation applied to a register with the wrong number of sites or parties."""


class DegenerateState(LoccSimError):
    """A construction produced a vector of (numerically) zero norm."""


class LabelCollision(LoccSimError):
    """Two registers being combined share a site label."""


class EmptySubset(LoccSimError):
    """A party subset (or its complement) selects no sites."""


class NotAProbabilityVector(LoccSimError):
    """Spectrum has negative entries or does not sum to one."""


class RegisterMismatch(LoccSimError):
    """Two states that must live on compatible registers do not, or a site or
    party named for a state is not in its register."""


class _StepError(LoccSimError):
    """Protocol error that says where the protocol validator found it.

    Carries ``step``: the 0-based index of the failing step, or ``"target"``;
    None when a primitive operation raised it outside any protocol.
    ``reason`` is the message without that prefix.
    """

    def __init__(self, message, step=None):
        self.step = step
        self.reason = message
        if step is not None:
            where = "target" if step == "target" else f"steps[{step}]"
            message = f"{where}: {message}"
        super().__init__(message)


class SiteOwnership(_StepError):
    """A step touches a site not owned by the acting party."""


class NotUnitary(_StepError):
    """Matrix fails the unitarity check."""


class NotAnEprResource(LoccSimError):
    """Designated pair is not in the maximally entangled resource state."""


class MalformedProtocol(_StepError):
    """Protocol steps are structurally inconsistent with the register."""


class ParameterOutOfRange(LoccSimError):
    """Protocol family parameter outside its documented domain."""


class CapExceeded(LoccSimError):
    """Product-term scan reached the rank cap without a converged fit."""


class ParseError(LoccSimError):
    """Protocol text could not be tokenized/parsed.

    Carries ``line`` (1-based) and optional ``column`` for diagnostics.
    """

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f"line {line}" + (f", column {column}" if column is not None else "")
            message = f"{where}: {message}"
        super().__init__(message)


class SemanticError(LoccSimError):
    """Protocol text parsed but references unknown parties/sites or invalid values."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
