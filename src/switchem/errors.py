"""Exception types shared across the package."""


class ConfigError(ValueError):
    """A configuration value violates its documented constraints."""


class EvaluationError(ValueError):
    """An objective/derivative evaluation was requested on inconsistent inputs."""


class NumericalFailure(RuntimeError):
    """A recursion broke down numerically.

    ``index`` identifies the observation index (or EM iteration) at which
    the failure occurred.
    """

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index
