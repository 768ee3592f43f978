"""Exception types shared across the package."""


class StrandlabError(Exception):
    """Base class for all errors raised by strandlab."""


class InputError(StrandlabError, ValueError):
    """A caller supplied a value that violates an operation's precondition."""


class IllFormedError(InputError):
    """A value failed its well-formedness checks.  ``problems`` lists every
    failure, one line each, and the message is the first of them."""

    def __init__(self, problems):
        self.problems = tuple(problems)
        super().__init__(self.problems[0])


class SchemaError(StrandlabError, ValueError):
    """A document could not be parsed against the model-file schema."""


class BudgetExceededError(StrandlabError, RuntimeError):
    """An enumeration exceeded the global state budget (STRANDLAB_MAX_STATES)."""
