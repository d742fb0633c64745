"""Exception hierarchy shared by all pipeline stages: one class per exit code."""


class EnfuseError(Exception):
    """Base class for all errors raised by this package (exit 3)."""


class IntegrityError(EnfuseError):
    """A persisted artifact failed its hash or format validation (exit 4)."""


class ConfigError(EnfuseError):
    """Run configuration is malformed or contains unknown keys (exit 2)."""
