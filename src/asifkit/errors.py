"""Exception types shared across the toolkit.

IO failures are reported with the builtin OSError family; everything
domain-specific derives from AsifKitError so callers can catch one root.
"""


class AsifKitError(Exception):
    """Root of all toolkit-specific errors."""


class InvalidState(AsifKitError):
    """State vector has the wrong dimension or non-finite entries."""


class NonFiniteCommand(InvalidState):
    """The primary controller emitted a command with a NaN or infinite entry."""


class InvalidConfig(AsifKitError):
    """Scenario or solver configuration violates an invariant."""


class InvalidDisturbance(AsifKitError):
    """Disturbance vector exceeds the model's declared bound."""


class InvalidModel(AsifKitError):
    """Controller weights or dimensions are inconsistent."""


class ParseError(AsifKitError):
    """Malformed input document. Carries the offending line/row number."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class SingularGradient(AsifKitError):
    """Barrier gradient undefined at this state (names the constraint)."""

    def __init__(self, constraint_id, message=""):
        self.constraint_id = constraint_id
        super().__init__(message or f"gradient of constraint '{constraint_id}' is singular here")


class StructurallyInfeasible(AsifKitError):
    """A constraint row has no control sensitivity (a = 0) yet demands b > 0."""

    def __init__(self, constraint_id, message=""):
        self.constraint_id = constraint_id
        super().__init__(message or f"constraint '{constraint_id}' is structurally infeasible at this state")


class SolverStall(AsifKitError):
    """Active-set iteration cap exceeded; indicates a solver bug."""


class EmptyTrace(AsifKitError):
    """Metrics requested for a trace with no recorded steps."""


class InvalidLedger(AsifKitError):
    """Evidence ledger references an unknown solution node."""
