"""The toolkit's two error classes, one per exit status of the CLI. Each
message names the file, line or value at fault."""


class CapkitError(Exception):
    """Input or configuration that the toolkit rejects: exit status 2."""


class NumericFailure(CapkitError):
    """A computation on valid input that did not give a finite result: exit status 3."""
