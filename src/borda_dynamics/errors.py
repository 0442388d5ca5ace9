"""Shared exception types."""


class BudgetExceededError(RuntimeError):
    """A simulation or enumeration exceeded its configured step budget."""


class ScenarioFormatError(ValueError):
    """A scenario or suite document failed validation.

    `path` addresses the offending field, e.g. "network.edges[2].weight".
    """

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


class ScenarioBuildError(ValueError):
    """A scenario builder was given inconsistent parameters, or a verifier was
    given arguments its scenario does not meet (e.g. re-pinning a free node)."""


class ScheduleError(ValueError):
    """An update schedule addressed a pinned or unknown node."""
