"""Error types shared across the package."""


class ContractError(ValueError):
    """A documented precondition or invariant was violated by the caller."""


class FormatError(ValueError):
    """A file (config, checkpoint, IDX) does not match its declared format."""


class BudgetError(RuntimeError):
    """An explicit compute budget was exceeded (e.g. the strategy search's
    cap on visited branches). Deliberately not a ContractError: the inputs are
    legal, they are just too big to traverse."""
