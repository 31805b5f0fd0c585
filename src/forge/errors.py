"""Exception hierarchy shared across the package.

Every error raised by forge derives from :class:`ForgeError` so callers can
catch one base class. The CLI maps the three broad families to exit codes:
validation problems exit 1, provider problems exit 2, sandbox and terminal
refinement-loop problems exit 3.
"""


class ForgeError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(ForgeError):
    """Bad input: malformed envelope, file, config, or argument."""


class ProtocolError(ValidationError):
    """Envelope cannot be decoded or fails structural validation."""


class CorrelationError(ValidationError):
    """Response does not correlate to exactly one pending request."""


class ConflictError(ValidationError):
    """Write collides with something already stored under the same id."""


class LoadError(ValidationError):
    """A bundle, corpus, or config file is missing or malformed."""


class DependencyError(ValidationError):
    """An analysis stage ran before the stages it depends on."""


class EmptyQueryError(ValidationError):
    """Key-term extraction produced nothing to search with."""


class AssemblyError(ValidationError):
    """Report assembly is missing one or more required sections."""


class ProviderError(ForgeError):
    """A chat or embedding provider failed to deliver a usable reply."""


class FixtureUnderflowError(ProviderError):
    """A scripted provider ran past the end of its fixture."""


class StageError(ProviderError):
    """An agent reply failed schema validation even after a retry.

    Carries the offending raw reply so run logs can show exactly what the
    model said.
    """

    def __init__(self, stage: str, message: str, raw_reply: str = ""):
        super().__init__(f"{stage}: {message}")
        self.stage = stage
        self.raw_reply = raw_reply


class GenerationError(ProviderError):
    """Code generation produced no parseable file blocks after a retry."""


class DiscussionError(ProviderError):
    """The expert discussion lost its provider mid-flight.

    ``trace`` is the :class:`DiscussionTrace` of the rounds completed before
    the failure.
    """

    def __init__(self, message: str, trace):
        super().__init__(message)
        self.trace = trace


class SandboxError(ForgeError):
    """Sandboxed execution could not be started or controlled."""


class LoopError(SandboxError):
    """The refinement loop hit its round cap without a successful run.

    ``trace`` holds the per-revision loop records and ``rollback`` the
    revision chosen as the best milestone reached.
    """

    def __init__(self, message: str, trace, rollback):
        super().__init__(message)
        self.trace = trace
        self.rollback = rollback
