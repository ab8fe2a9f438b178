"""Exception types shared across the package."""


class QPError(Exception):
    """Base class for every error raised by this package."""


class DimensionMismatch(QPError):
    pass


class ZeroColumnOfA(QPError):
    def __init__(self, index: int):
        super().__init__(f"column {index} of A is entirely zero")
        self.index = index


class ZeroRowOfB(QPError):
    def __init__(self, index: int):
        super().__init__(f"row {index} of B is entirely zero")
        self.index = index


class NonPositiveState(QPError):
    """A state vector had a component that is not a strictly positive finite float."""


class NumericOverflow(QPError):
    """A float evaluation left the representable strictly-positive range.

    ``time_index`` is the first time step that could not be computed (when
    raised from iteration), and ``partial`` is the array of the states
    computed before it, x(0) to x(time_index - 1), as ``iterate`` returns them.
    """

    def __init__(self, message, time_index=None, partial=None):
        super().__init__(message)
        self.time_index = time_index
        self.partial = partial


class OddDimension(QPError):
    pass


class NotSymplectic(QPError):
    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class SingularMatrix(QPError):
    pass


class DegenerateResult(QPError):
    """A construction left the strict QP form (zero column of A or zero row of B).

    The relaxed map, ``result``, lets callers continue with it deliberately;
    ``strictness_violations(result)`` names its zero columns and rows.
    """

    def __init__(self, message, result=None):
        super().__init__(message)
        self.result = result


class DocumentError(QPError):
    """A map/QMT document failed to parse or validate; the message carries the position."""
