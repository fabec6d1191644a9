"""Exception types mapped to CLI exit codes (config=2, data=3, numerical=4)."""


class ConfigError(Exception):
    """Invalid or inconsistent configuration."""


class DataError(Exception):
    """Missing or malformed dataset files."""


class NumericalError(Exception):
    """Numerical failure (non-SPD covariance, collapsed likelihood, ...)."""
