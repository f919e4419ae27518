"""Exception types shared across the package."""


class SpmulError(Exception):
    """Base class for all library errors."""


class RingMismatchError(SpmulError):
    """Operands live in different coefficient rings."""


class CharacteristicTooSmallError(SpmulError):
    """The field characteristic is too small for exponent recovery."""


class RetryBudgetError(SpmulError):
    """A randomized loop exhausted its retry budget: random_prime's
    candidate budget (a pathological RNG) or sparse_product's doubling
    loop."""


class UnsupportedRingError(SpmulError):
    """The requested operation is not available over this ring."""


class PolyFileError(SpmulError):
    """A polynomial file is malformed or non-canonical."""


class SparsityBoundError(SpmulError):
    """An interpolation residue proved its target has more terms than the
    sparsity bound lets the output hold.  floor is a proven lower bound on
    the target's sparsity."""

    def __init__(self, floor: int):
        super().__init__(f"the interpolation target has at least {floor} terms")
        self.floor = floor
