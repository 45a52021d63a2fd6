"""Exception types raised by the library, the JSON key check and the
integer rule that every parser shares, and the _make of validated
namedtuples.

Everything user-facing derives from QuandlehomError so the CLI can map
library failures to its input-error exit code in one place.
"""


class QuandlehomError(Exception):
    """Base class for all errors raised by this package."""


class QuandleAxiomError(QuandlehomError):
    """An operation table violates a quandle axiom.

    `axiom` is one of "idempotency", "right_bijectivity",
    "distributivity"; `witness` is the offending element tuple.
    """

    def __init__(self, axiom, witness, message):
        super().__init__(message)
        self.axiom = axiom
        self.witness = witness


class DegreeError(QuandlehomError):
    """Chain degree is invalid for the requested operation (including
    mixed-degree arithmetic, which is never silently coerced)."""


class DegenerateGeneratorError(QuandlehomError):
    """A chain contains a generator with two equal adjacent entries where
    only quandle-complex (non-degenerate) chains are allowed."""


class NotACycleError(QuandlehomError):
    """A chain required to be a cycle has nonzero quandle boundary."""


class QuandleMismatchError(QuandlehomError, ValueError):
    """A chain or dataset does not live over the expected quandle."""


class CocycleValidationError(QuandlehomError):
    """A constructed cocycle table failed the 3-cocycle check.

    `witness` is the violating triple or quadruple.
    """

    def __init__(self, witness, message):
        super().__init__(message)
        self.witness = witness


class UnknownIdError(QuandlehomError):
    """A subset references a triple-point id absent from the dataset."""


class ResourceLimitError(QuandlehomError, ValueError):
    """A request is over a documented size limit; it is refused before
    anything is built for it."""


class EnumerationCapError(ResourceLimitError):
    """The dataset has more triple points than the enumeration cap,
    DEFAULT_POINT_CAP."""


class SchemaError(QuandlehomError, ValueError):
    """A JSON document or a constructor argument violates the expected schema.

    `path` locates the offending field, e.g. "triple_points[0].sign", and
    `message` is the text without it.  It is also a ValueError, so public
    constructors that report a bad field with it still raise ValueError.
    """

    def __init__(self, path, message):
        super().__init__(f"{path}: {message}" if path else message)
        self.path = path
        self.message = message


class _CheckedMake:
    """First base of a namedtuple whose __new__ validates: namedtuple's _make
    skips __new__, and _replace calls _make."""

    __slots__ = ()

    @classmethod
    def _make(cls, fields):
        return cls(*fields)


def expect_keys(obj, allowed, required, path):
    """Raise SchemaError at the first unknown, then the first missing, key of
    a JSON object found at `path` ("" for the document root)."""
    for key in obj:
        if key not in allowed:
            key = key if key.isprintable() else repr(key)  # the message stays one line
            raise SchemaError(f"{path}.{key}" if path else key, "unknown field")
    for key in required:
        if key not in obj:
            raise SchemaError(f"{path}.{key}" if path else key, "missing field")


def decimal_int(text, path):
    """The int that text names when it is ASCII decimal, -?[0-9]+, else None.

    int() alone would also take "1_0", " 5 ", "+5" and non-ASCII digits.
    Decimal text over the interpreter's integer digit limit raises
    SchemaError at `path`.

    >>> decimal_int("-12", "n"), decimal_int(" 3", "n"), decimal_int("\u0663", "n")
    (-12, None, None)
    """
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):  # isdigit alone takes "\u0663", "\u00b2"
        return None
    try:
        return int(text)
    except ValueError as exc:  # over sys.get_int_max_str_digits()
        raise SchemaError(path, str(exc)) from None
