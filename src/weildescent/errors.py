"""Exception types shared across the package.

Each corresponds to a declared failure mode of some operation; anything not
listed here is a plain bug and surfaces as AssertionError."""


class WeilError(Exception):
    pass


class FieldMismatch(WeilError):
    "Operands live in different coefficient fields."


class InvalidCharacteristic(WeilError):
    "Modular characteristic divides the root-of-unity order, or p = 2."


class ZeroTwist(WeilError):
    "Character twist by zero."


class ZeroInput(WeilError):
    "Hilbert symbol of zero."


class TooLarge(WeilError):
    "Enumeration or matrix size beyond the configured bound."


class CocycleViolation(WeilError):
    "A measured metaplectic cocycle value was not +1 or -1."


class IdentityFailure(WeilError):
    "A model identity that must hold exactly failed (implementation bug signal)."


class DatumInvalid(WeilError):
    "A Galois descent datum failed semilinearity, cocycle or equivariance."


class RankDeficiency(WeilError):
    "Fixed-point space of a descent datum has the wrong dimension."


class NotFoundWithinBound(WeilError):
    "Bounded norm-equation search exhausted; explicitly not a nonexistence proof."


class NotIrreducible(WeilError):
    "Operation requires an irreducible representation."


class ConfigInvalid(WeilError):
    "CLI/run configuration rejected."
