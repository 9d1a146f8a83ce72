"""Exception types shared across the package."""


class FredkernError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(FredkernError, ValueError):
    """Invalid configuration; carries the offending field path.

    The validating dataclasses raise it with a bare field name; the CLI
    prefixes the path of the config block the value came from.
    """

    def __init__(self, path, message):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}" if path else message)


class CharacteristicValueError(FredkernError):
    """lambda is (numerically) a characteristic value: the determinant is below
    the near-zero threshold and the resolvent kernel does not exist there."""

    def __init__(self, lam, det_value):
        self.lam = complex(lam)
        self.det_value = complex(det_value)
        super().__init__(
            f"lambda={self.lam} is numerically characteristic (|det|={abs(det_value):.3e})"
        )


class NeumannDivergenceError(FredkernError):
    """The Neumann series precondition |lambda|*||T|| < 1 fails."""

    def __init__(self, lam, norm):
        self.lam = complex(lam)
        self.norm = float(norm)
        super().__init__(
            f"Neumann series diverges: |lambda|*norm = {abs(self.lam) * self.norm:.6f} >= 1"
        )


class BudgetExceededError(FredkernError):
    """A grid or series evaluation would exceed its node-count ceiling, or
    I - lambda*A or a tail norm the float range."""


class PoleError(FredkernError):
    """The lambda shift map hits its pole: 1 - beta_n*lambda == 0."""
