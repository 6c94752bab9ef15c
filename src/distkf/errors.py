"""Exception hierarchy.

Three branches map onto the CLI exit codes: configuration problems (2),
infeasible designs (3), and numerical failures (4).
"""


class DistkfError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class ConfigError(DistkfError):
    """Invalid or inconsistent user input (bad JSON, dimension mismatch)."""

    exit_code = 2


class DimensionMismatchError(ConfigError):
    pass


class InfeasibleDesignError(DistkfError):
    """The requested design does not exist for the given plant/graph."""

    exit_code = 3


class NotObservableError(InfeasibleDesignError):
    pass


class NotDetectableError(InfeasibleDesignError):
    pass


class BadNoiseError(InfeasibleDesignError):
    pass


class DisconnectedGraphError(InfeasibleDesignError):
    pass


class InfeasibleConditionError(InfeasibleDesignError):
    """Mahler measure of the coupled system violates the graph bound."""


class InfeasibleZetaError(InfeasibleDesignError):
    pass


class GainInfeasibleError(InfeasibleDesignError):
    pass


class NumericalError(DistkfError):
    """A numerical routine failed to meet its accuracy contract."""

    exit_code = 4


class NoConvergenceError(NumericalError):
    pass


class IllConditionedError(NumericalError):
    pass


class PoleClashError(NumericalError):
    """The poles of the local filter cannot keep their gap to the closed
    loop's spectrum and to each other."""


class UnstableAugmentedError(NumericalError):
    pass
