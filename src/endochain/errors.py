"""Errors raised by the engine.

Every error carries a stable machine-readable ``code`` (used verbatim by the
CLI error objects) and an optional ``context`` dict.
"""


class EndochainError(Exception):
    code = "Error"

    def __init__(self, message="", **context):
        super().__init__(message or self.code)
        self.message = message or self.code
        self.context = context

    def as_json(self):
        return {"code": self.code, "message": self.message, "context": self.context}


class NotAUnit(EndochainError):
    code = "NotAUnit"


class NotCoprime(EndochainError):
    code = "NotCoprime"


class NoFiniteConductor(EndochainError):
    code = "NoFiniteConductor"


class NotLocal(EndochainError):
    code = "NotLocal"


class NotIdempotentFactor(EndochainError):
    code = "NotIdempotentFactor"


class AmbientMismatch(EndochainError):
    code = "AmbientMismatch"


class NotASubmodule(EndochainError):
    code = "NotASubmodule"


class NotAnOverring(EndochainError):
    code = "NotAnOverring"


class NotDvrProduct(EndochainError):
    code = "NotDvrProduct"


class NotFullRank(EndochainError):
    code = "NotFullRank"


class NotTorsionFree(EndochainError):
    code = "NotTorsionFree"


class AlreadyNormal(EndochainError):
    code = "AlreadyNormal"


class ClaimViolation(EndochainError):
    code = "ClaimViolation"


class FailedDecomposition(EndochainError):
    code = "FailedDecomposition"


class NotIndecomposable(EndochainError):
    code = "NotIndecomposable"


class DuplicateSummand(EndochainError):
    code = "DuplicateSummand"


class MissingFreeSummand(EndochainError):
    code = "MissingFreeSummand"


class CharacteristicTooSmall(EndochainError):
    code = "CharacteristicTooSmall"


class SchemaError(EndochainError):
    """Bad input file or malformed definition; CLI exit status 2."""

    code = "SchemaError"
