"""Exception types shared across the pipeline, and ``short_repr`` for quoting
reply content in their messages."""


def short_repr(value) -> str:
    """``repr(value)`` for an error message, cut after 80 characters."""
    text = repr(value)
    return text if len(text) <= 80 else f"{text[:80]}... ({len(text)} chars)"


class ReventError(Exception):
    """Base class for all errors raised by this package."""


class CorpusFormatError(ReventError):
    """A corpus or prediction file could not be parsed (carries the line number)."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class SpanValidationError(ReventError):
    """A span's surface string does not match the document text slice."""


class UnknownDocumentError(ReventError):
    """A prediction references a doc_id that is not in the corpus."""


class ReplyParseError(ReventError):
    """A model reply could not be parsed; the message quotes it by ``short_repr``."""


class BackendError(ReventError):
    """Transport-level failure talking to a chat backend."""


class OrchestrationError(ReventError):
    """An agent or reflection call failed after bounded retries."""


class ConfigurationError(ReventError):
    """Invalid or incomplete run configuration."""


class ContractError(ReventError):
    """An operation was invoked with a target that violates its contract."""
