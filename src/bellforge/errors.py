"""Exception types shared across the package, and the byte budget that
refuses an oversized input with DomainError before its array is built."""

# The largest array one call may build: 1 GiB. The largest array a README
# command, a benchmark op or a test builds is 64 MB (the draw of 1,000,000
# samples on CP^3), so the budget keeps a 16-fold margin and refuses inputs
# that would otherwise end in a numpy memory error, such as the 10^8 x 10^8
# unitary of `bell make --space cpn --n 100000000`.
MAX_ARRAY_BYTES = 1 << 30


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


def check_array_bytes(nbytes: int, what: str) -> None:
    """Refuse with DomainError, before it is built, an array of more than MAX_ARRAY_BYTES."""
    if nbytes > MAX_ARRAY_BYTES:
        raise DomainError(f"{what} would take {nbytes} bytes, more than {MAX_ARRAY_BYTES}")
