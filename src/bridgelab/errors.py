"""Exception types shared across the package."""


class InvalidInputError(ValueError):
    """Raised when inputs violate an operation's preconditions."""


class InvalidSpecError(ValueError):
    """Raised when a spec object (design, penalty, schedule) is not realizable."""


class UnsupportedRegimeError(Exception):
    """Raised when no limit theorem covers the requested tuning regime."""


class ConfigError(Exception):
    """Raised on config-file parse or validation failure."""
