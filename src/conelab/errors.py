"""Exception types shared across the package."""


class ConfigError(ValueError):
    """Invalid model or run configuration (bad law, cone, or config file)."""


class NumericsError(RuntimeError):
    """A numerical procedure failed to converge or produced inconsistent values."""


class WindowTooSmallError(NumericsError):
    """A lattice truncation window cannot meet its accuracy contract.

    Carries the window to build next in ``suggested_L``, or None when no window
    within the memory budget would do; ``_lattice.grow_window`` retries on it.
    """

    def __init__(self, message, suggested_L=None):
        super().__init__(message)
        self.suggested_L = suggested_L
