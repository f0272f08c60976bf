"""Exception types shared across the package."""


class PairpackError(Exception):
    """Base class for all package-specific errors."""


class NotAdmissible(PairpackError):
    """The measure parameters fall outside the certified admissibility range,
    so the weighted-space construction (and everything built on it) is not
    guaranteed to be valid."""


class InvalidRegime(PairpackError):
    """The requested formula does not apply to this parameter regime
    (wrong decay-rate branch), or a function that takes one measure was
    given a batch."""


class DegenerateRoots(PairpackError):
    """The two characteristic roots coincide; the generic two-root formula
    is not usable here."""


class IllConditioned(PairpackError):
    """The discretized linear system is too ill-conditioned to trust."""


class NotCancelled(PairpackError):
    """A part of a sum that must cancel exactly cannot be shown to: the
    imaginary part of a form-factor double sum, which the pair sums drop
    because it cancels for a weight with w(u) == w(-u) at every pair of the
    window.  Raised when that evenness fails, or when a sum is not finite."""


class InfeasibleWitness(PairpackError):
    """A candidate function fails a membership condition of its extremal
    problem."""


class ParseError(PairpackError):
    """A dataset file could not be parsed.  Carries the line number and the
    offending content."""

    def __init__(self, lineno: int, content: str, reason: str = ""):
        self.lineno = lineno
        self.content = content
        msg = f"line {lineno}: {content!r}"
        if reason:
            msg += f" ({reason})"
        super().__init__(msg)


class EmptyDataset(PairpackError):
    """The dataset file contained no ordinates."""


class EmptyWindow(PairpackError):
    """No ordinates fall inside the requested window."""
