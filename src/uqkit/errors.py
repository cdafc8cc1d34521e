"""Exception types shared across the package."""


class UqError(Exception):
    """Base class for errors raised by uqkit."""


class DataError(UqError):
    """Malformed input data: unreadable files, bad cells, schema mismatches."""


class ConfigError(UqError):
    """Invalid run configuration. Carries all field-level messages at once."""

    def __init__(self, messages):
        if isinstance(messages, str):
            messages = [messages]
        self.messages = list(messages)
        super().__init__("; ".join(self.messages))


class InvalidSplitError(UqError):
    """A requested dataset split leaves at least one partition empty."""


class DivergenceError(UqError):
    """Training produced a non-finite loss, gradient or iterate."""
