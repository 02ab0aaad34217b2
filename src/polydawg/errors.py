"""Exception hierarchy shared across the middleware."""


class PolydawgError(Exception):
    """Base class for every error this package raises deliberately.
    ``span`` is the (start, end) of the offending text, or None."""

    def __init__(self, message, span=None):
        super().__init__(message)
        self.span = span


class CatalogError(PolydawgError):
    """Unknown/duplicate objects or engines."""


class SchemaError(PolydawgError):
    """A table does not conform to a schema or a model's requirements."""


class TypeMismatchError(PolydawgError):
    """Cross-tag comparison or an operation applied to the wrong value tag."""


class NativeSyntaxError(PolydawgError):
    """A native mini-language query failed to parse."""


class QuerySyntaxError(PolydawgError):
    """Polystore query syntax error, carries a source span and expectations."""

    def __init__(self, message, span, expected=()):
        super().__init__(message, span)
        self.expected = frozenset(expected)


class ValidationError(PolydawgError):
    """Semantic error in a parsed polystore query."""


class CastError(PolydawgError):
    """A model-to-model cast could not be applied."""


class PlanningError(PolydawgError):
    """No executable plan exists (e.g. an operator no engine supports)."""


class ExecutionError(PolydawgError):
    """A plan step failed while running."""

    def __init__(self, message, step=None):
        super().__init__(message)
        self.step = step


class InternalConsistencyError(PolydawgError):
    """Plans for the same query disagreed on the result."""


class MonitorError(PolydawgError):
    """Monitor database failure."""
