"""Exception hierarchy shared by all varword modules.

Searches never loop forever and never fail silently: a bounded search
that exhausts its horizon raises NotFoundWithinHorizon, and every
malformed input gets a dedicated error class so the CLI can map it to
a stable exit code.
"""


class VarwordError(Exception):
    """Base class for all package errors."""


class CutPointMissing(VarwordError):
    """Substitution needs x_{|u|} but the finite prefix never shows it.

    ``substitute`` raises it with the word and m = |u|, and the message
    replaces them on the first ``str()``: most raises are caught unread.
    """

    def __str__(self):
        if len(self.args) == 2:
            from .words import format_word

            w, m = self.args
            self.args = (f"{format_word(w)} has no occurrence of x{m} and is not a {m}-variable word",)
        return super().__str__()


class IndexOutOfRange(VarwordError):
    """A letter index is outside the declared alphabet."""


class InvalidWord(VarwordError):
    """A word violates the variable-word invariants it was declared with."""


class NotOrdered(InvalidWord):
    """An operation requiring an ordered variable word got an unordered one."""


class CheckFailed(InvalidWord):
    """A certificate's claim does not hold for its instance."""


class NotATree(VarwordError):
    """A word set is not an instantiation tree; carries a diagnostic pair."""

    def __init__(self, message, pair=None):
        super().__init__(message)
        self.pair = pair


class LevelOutOfRange(VarwordError):
    """Requested tree level exceeds the dimension."""


class ElementNotInTree(VarwordError):
    """Inverse lookup miss in the canonical tree isomorphism."""


class HorizonExceeded(VarwordError):
    """A length parameter exceeds the family horizon."""


class NotAPartition(CheckFailed):
    """The supplied pieces do not partition the declared whole: a failed
    check of the split and brown searches and verifiers alike."""


class NoPartSelected(VarwordError):
    """No part passes the largeness test at this horizon."""


class NotFoundWithinHorizon(VarwordError):
    """Exhaustive bounded search finished with no witness."""


class NoConnector(VarwordError):
    """No nonempty connector word between consecutive tree levels."""


class TriangleFound(VarwordError):
    """A triangle was found in the coded graph; carries the witness triple."""

    def __init__(self, message, triple=None):
        super().__init__(message)
        self.triple = triple


class NotTriangleFree(VarwordError):
    """The input graph contains a triangle."""


class DomainTooLarge(VarwordError):
    """The requested profile domain explodes combinatorially."""


class InputError(VarwordError):
    """Malformed input file; cites file, line and column."""

    def __init__(self, message, filename="<input>", line=0, column=0):
        super().__init__(f"{filename}:{line}:{column}: {message}")
        self.filename = filename
        self.line = line
        self.column = column
