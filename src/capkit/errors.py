"""Exception hierarchy shared across the toolkit."""


class CapkitError(Exception):
    """Base class for all toolkit errors."""


class LengthMismatch(CapkitError):
    pass


class EmptyCorpus(CapkitError):
    pass


class TooFewSamples(CapkitError):
    pass


class DimensionMismatch(CapkitError):
    pass


class InvalidConfig(CapkitError):
    pass


class BadPrefix(CapkitError):
    pass


class EmptyDataset(CapkitError):
    pass


class InvalidTemperature(CapkitError):
    pass


class DuplicateId(CapkitError):
    pass


class MissingField(CapkitError):
    pass


class UnknownField(CapkitError):
    pass


class BadMagic(CapkitError):
    pass


class BadVersion(CapkitError):
    pass


class TruncatedFile(CapkitError):
    pass


class NonFiniteValue(CapkitError):
    pass


class MalformedReport(CapkitError):
    pass


class NumericFailure(CapkitError):
    pass
