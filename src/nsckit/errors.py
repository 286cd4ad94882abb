"""Exception types shared across the toolkit."""


class ValidationError(ValueError):
    """Input data or arguments violate a documented contract."""


class ParseError(ValidationError):
    """A delimited input file could not be parsed; message names the location."""


class DegenerateDesignError(ValidationError):
    """The design is too small to fit (n <= K leaves no variance degrees of freedom)."""


class DegenerateVarianceError(ValidationError):
    """Pooled standard deviations vanish and no positive guard value is available."""


class DeepSearchError(RuntimeError):
    """The deep search exceeded its iteration cap (diagnostic, should not happen)."""
