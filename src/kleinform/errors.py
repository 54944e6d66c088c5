"""Exception types shared across the package, and the checks that refuse non-integers."""

from operator import index


class KleinformError(Exception):
    """Base class for every domain error raised by this package."""


class ValidationError(KleinformError):
    """Constructed object violates a structural invariant (bad table, bad cochain, ...)."""


class WindowError(KleinformError):
    """A lift was evaluated, or a system posed, outside its solved window."""


class CertificateError(KleinformError):
    """An internal re-verification failed.  This is a bug, not a user error."""


def exact_int(value, what):
    """value as an int, or ValidationError when it is not an integer.

    A float, or any other value that int() would truncate or parse, is
    refused rather than rounded to an index, as QZ refuses floats.
    """
    try:
        return index(value)
    except TypeError:
        raise ValidationError("%s must be an integer, not %r" % (what, value)) from None


def exact_ints(values, what):
    """values as a tuple of ints, refusing the first non-integer as exact_int does.

    The whole sequence is converted at C speed; only on failure is it
    read again, value by value, to name the first value refused.
    """
    values = tuple(values)
    try:
        return tuple(map(index, values))
    except TypeError:
        return tuple(exact_int(v, what) for v in values)
