"""Exception types shared across the package."""


class BellforgeError(Exception):
    """Base class for all bellforge errors."""


class UnknownFlatMapError(BellforgeError):
    """Flat-map identifier outside the supported catalogs."""


class DimensionMismatchError(BellforgeError):
    """Operands have incompatible dimensions."""


class DomainError(BellforgeError):
    """Argument outside an operation's domain."""


class EmptyFamilyError(BellforgeError):
    """A state family was empty where at least one state is required."""
