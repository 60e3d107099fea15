"""Exception types shared across the package."""


class MtemError(Exception):
    """Base class for all mtemsim errors."""


class InputError(MtemError):
    """An argument violates a documented precondition."""


class DomainError(MtemError):
    """A mathematical operation was evaluated outside its domain."""


class BracketError(MtemError):
    """A root-finding bracket does not straddle the target value."""


class EvaluationError(MtemError):
    """A coefficient or functional evaluation produced a non-finite value."""


class EstimationError(MtemError):
    """A Monte Carlo estimate could not be formed from the surviving paths."""


class ConfigError(MtemError):
    """A run configuration key is unknown, malformed, or inconsistent."""


class DrawerError(MtemError):
    """A drawer process ended without replying, as when a signal killed it."""
