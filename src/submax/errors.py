"""Exception types shared across the package."""


class SubmaxError(Exception):
    """Base class for all errors raised by submax."""


class InvalidSubsetError(SubmaxError):
    """A subset refers to elements outside the ground set."""


class EstimatorError(SubmaxError):
    """Evaluation mode incompatible with the function kind or size."""


class InvalidBoxError(SubmaxError):
    """Box bounds violate u <= v."""


class ConfigError(SubmaxError):
    """Run parameters are inconsistent (bad alpha/delta/theta grid)."""


class InstanceFormatError(SubmaxError):
    """An instance or result document failed to parse or validate."""


class InvariantError(SubmaxError):
    """A solver iterate broke the l-inf envelope or left the constraint body.

    ``step`` is the step whose update produced the iterate, ``coordinate``
    the argmin of its envelope slack, and ``margin`` that slack.
    """

    def __init__(self, what: str, theta: float, step: int, coordinate: int,
                 margin: float):
        self.theta = theta
        self.step = step
        self.coordinate = coordinate
        self.margin = margin
        super().__init__(f"{what} at theta {theta:g}, step {step}, "
                         f"coordinate {coordinate} (envelope margin {margin:.3e})")
