"""Exception hierarchy shared across the package.

Every exception carries a short stable ``code`` string; the command line
prints it on stderr so scripts can branch on failure class without
parsing prose.
"""


class MelodifyError(Exception):
    """Base class for all errors raised by this package."""

    code = "E_INTERNAL"


# Input parsing ---------------------------------------------------------------

class MalformedInput(MelodifyError):
    """Raw table or spec bytes, or a command line, that cannot be decoded
    or are inconsistent."""

    code = "E_PARSE"


class EmptyDataset(MelodifyError):
    """A table with a header but no data rows."""

    code = "E_PARSE"


class UnknownIdiom(MelodifyError):
    code = "E_PARSE"


class UnknownPalette(MelodifyError):
    code = "E_PARSE"


class MissingField(MelodifyError):
    """A required spec key is absent."""

    code = "E_PARSE"


class InvalidValue(MelodifyError):
    """A spec key or table value is present but out of range or mistyped."""

    code = "E_PARSE"


# Binding data to a spec ------------------------------------------------------

class UnknownField(MelodifyError):
    """The spec names a column the dataset does not contain."""

    code = "E_BINDING"


class KindMismatch(MelodifyError):
    """A column's kind does not satisfy the chosen idiom."""

    code = "E_BINDING"


class TooShort(MelodifyError):
    """A series with fewer points than the operation needs."""

    code = "E_BINDING"


# Proportions -----------------------------------------------------------------

class NegativeProportion(MelodifyError):
    code = "E_PROPORTION"


class AllZero(MelodifyError):
    """Proportions requested over values that sum to zero."""

    code = "E_PROPORTION"


class UnsoundedSlice(MelodifyError):
    """A positive pie slice too small to get one unit of the cycle."""

    code = "E_PROPORTION"


# Music theory misuse (internal contract violations) --------------------------

class InvalidDegree(MelodifyError):
    """Scale degree outside 1..7."""


class ChromaticMode(MelodifyError):
    """Functional-harmony operation applied to a chromatic scale."""


class OutOfMidiRange(MelodifyError):
    """A computed pitch fell outside MIDI numbers 0..127."""


# Emission --------------------------------------------------------------------

class UnexpandedLoop(MelodifyError):
    """Attempt to serialize a score whose loop marker was not expanded."""


class StructuralViolation(MelodifyError):
    """Attempt to serialize a score that fails structural validation."""


class MalformedSmf(MelodifyError):
    """Bytes that do not parse as the expected single-track MIDI layout."""
