"""Exception hierarchy shared by all mveff modules."""


class MveffError(Exception):
    """Base class for all library errors."""


class InvalidInput(MveffError, ValueError):
    """An argument outside the operation's domain; also a ValueError."""


class ChainMismatch(MveffError):
    """Two truth values from different chains were combined."""


class IndexOutOfRange(MveffError):
    """A threshold index i is outside 1..n."""


class NotAnAlgebra(MveffError):
    """Operation tables of a claimed finite MV-algebra are not closed."""


class FormulaSyntaxError(MveffError):
    """Parse failure; carries the offending position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownPlayer(MveffError):
    """A coalition literal names a player outside 1..k."""


class DialectViolation(MveffError):
    """An [O] modality appeared where only the O-free language is allowed."""


class UnknownProposition(MveffError):
    """A formula mentions a proposition the valuation does not cover."""


class BudgetExceeded(MveffError):
    """A configured enumeration budget was exceeded."""


class NotPlayableInput(MveffError):
    """An operation requiring a playable effectivity function got a non-playable one."""


class NotHomogeneous(MveffError):
    """An operation requiring homogeneity got a non-homogeneous table."""


class NotTrulyPlayable(MveffError):
    """Game-form synthesis requires a truly playable table."""


class SynthesisBudgetExceeded(MveffError):
    """No realizing game form found within the strategy budget (not a refutation)."""


class NotPlayable(MveffError):
    """Filtration requires a playable model."""


class NotStandard(MveffError):
    """Enriched filtration requires a standard model."""


class BadDocument(MveffError):
    """A JSON document is not an object at the top level, is of another
    kind, lacks a required key, holds a field of the wrong type, names an
    outcome or state it does not declare, or declares one twice."""


class VerificationFailed(MveffError):
    """An independent soundness re-check of a computed result failed."""


def read_int(numeral: str, name: str) -> int:
    """The int a decimal numeral from input spells.  int() refuses one of
    more than sys.get_int_max_str_digits() digits with a plain ValueError."""
    try:
        return int(numeral)
    except ValueError:
        raise InvalidInput(f"{name} has too many digits") from None


def check_document(doc, kinds: tuple, keys: tuple = ()):
    """Raise BadDocument unless doc is a JSON object of one of the kinds,
    holding every key.  A document without a "kind" is of the first kind."""
    if not isinstance(doc, dict):
        raise BadDocument(f"a document must be a JSON object, not {type(doc).__name__}")
    kind = doc.get("kind", kinds[0]) if kinds else None
    if kinds and kind not in kinds:
        raise BadDocument(
            f"expected a {' or '.join(kinds)} document, got kind={kind!r}"
        )
    missing = [key for key in keys if key not in doc]
    if missing:
        label = f"{kind} document" if kinds else "document"
        raise BadDocument(f"{label} lacks {', '.join(map(repr, missing))}")


_JSON_NAMES = {dict: "an object", list: "a list", int: "an integer", str: "a string"}


def check_field(value, kind: type, name: str, items: type | None = None):
    """Raise BadDocument unless value is of the JSON kind and, when items is
    given, every element of it (every value, for an object) is of that kind.
    true and false are not integers here."""

    def fits(v, t):
        return isinstance(v, t) and not (t is int and isinstance(v, bool))

    if not fits(value, kind):
        raise BadDocument(f"{name} must be {_JSON_NAMES[kind]}")
    elements = value.values() if isinstance(value, dict) else value
    if items is not None and not all(fits(v, items) for v in elements):
        raise BadDocument(f"every element of {name} must be {_JSON_NAMES[items]}")


def check_distinct(names, what: str, error: type = InvalidInput):
    """Raise error unless no item of the sequence names repeats an earlier
    one."""
    if len(set(names)) < len(names):
        twice = next(item for i, item in enumerate(names) if item in names[:i])
        raise error(f"{what} declares {twice!r} twice")


def check_names(value, name: str):
    """Raise BadDocument unless value is a list of distinct strings."""
    check_field(value, list, name, str)
    check_distinct(value, name, BadDocument)
