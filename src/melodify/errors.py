"""Exception classes shared across the package: one per error code.

Every exception carries a short stable ``code`` string; the command line
prints it on stderr so scripts can branch on failure class without
parsing prose.

- ``MelodifyError`` (``E_INTERNAL``): the base, raised as itself when
  the package breaks its own contract (a bad scale degree, a pitch
  outside MIDI range, writing an invalid score, bytes that are not the
  expected MIDI layout).
- ``ParseError`` (``E_PARSE``): table, spec or command line that cannot
  be decoded, or a value out of range or mistyped.
- ``BindingError`` (``E_BINDING``): the spec's columns do not exist,
  have the wrong kind, or hold too few points for the idiom.
- ``ProportionError`` (``E_PROPORTION``): pie values that are negative,
  all zero, or too small to sound.

``clipped`` writes an integer a refusal quotes, so that one line stays
short however large the number is.
"""


class MelodifyError(Exception):
    """Base class for all errors raised by this package."""

    code = "E_INTERNAL"


class ParseError(MelodifyError):
    code = "E_PARSE"


class BindingError(MelodifyError):
    code = "E_BINDING"


class ProportionError(MelodifyError):
    code = "E_PROPORTION"


def clipped(value: int) -> str:
    """``value`` as written, or past 20 characters as its first three
    digits and power of ten, such as ``1.00e+300`` (truncated, not
    rounded). Only a short int goes through ``str``, so an int past
    Python's int-to-str digit limit is quoted too."""
    sign, magnitude = "-" * (value < 0), abs(value)
    if magnitude < 10 ** (20 - len(sign)):
        return str(value)
    # The power of ten, or one less: log10(2) times the bits below the top one.
    power = int((magnitude.bit_length() - 1) * 0.30102999566398120)
    power += 10 ** (power + 1) <= magnitude
    digits = str(magnitude // 10 ** (power - 2))
    return f"{sign}{digits[0]}.{digits[1:]}e+{power}"
