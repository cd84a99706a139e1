"""Exception hierarchy shared across the package."""


class PromptOptError(Exception):
    """Base class for all package errors."""


# prompt model
class MissingPlaceholder(PromptOptError):
    pass


class DuplicatePlaceholder(PromptOptError):
    pass


class NotAPermutation(PromptOptError):
    pass


class TemplateParseError(PromptOptError):
    pass


class UnknownTaskKind(PromptOptError):
    pass


# operators
class MissingContext(PromptOptError):
    pass


class IdenticalParents(PromptOptError):
    pass


class SectionSetMismatch(PromptOptError):
    pass


class EmptyDataset(PromptOptError):
    pass


class KTooLarge(PromptOptError):
    pass


class NonEditableSection(PromptOptError):
    pass


class UnknownOperator(PromptOptError):
    pass


# backend
class BackendError(PromptOptError):
    pass


class AuthError(BackendError):
    pass


class RateLimitedExhausted(BackendError):
    pass


class MalformedResponse(BackendError):
    pass


class BackendTimeout(BackendError):
    pass


class ScriptExhausted(BackendError):
    pass


# evaluation
class AlignmentError(PromptOptError):
    pass


class OutOfRange(PromptOptError):
    pass


# optimizers
class EmptyAxis(PromptOptError):
    pass


class ZeroMass(PromptOptError):
    pass


class CountTooLarge(PromptOptError):
    pass


class ZeroBaseline(PromptOptError):
    pass


class InvalidAlpha(PromptOptError):
    pass


class InvalidHyperparameter(PromptOptError):
    pass


class EmptySample(PromptOptError):
    pass


class VersionMismatch(PromptOptError):
    pass


class CorruptFile(PromptOptError):
    pass


# config / cli
class ConfigError(PromptOptError):
    pass
