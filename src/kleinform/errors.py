"""Exception types shared across the package, and the one check that refuses non-integers.

A value is an integer when type(value) is int.  exact_int is the gate
every integer input goes through; QZ, Cochain.__call__, the right-hand
sides of solve_sparse and FiniteGroupoidPresentation keep their own
messages or exceptions and test the same condition inline.  A bool, a
float, and any other value that int() would truncate or parse or that
merely has __index__ is refused, never converted.
"""


class KleinformError(Exception):
    """Base class for every domain error raised by this package."""


class ValidationError(KleinformError):
    """Constructed object violates a structural invariant (bad table, bad cochain, ...)."""


class WindowError(KleinformError):
    """A lift was evaluated, or a system posed, outside its solved window."""


class CertificateError(KleinformError):
    """An internal re-verification failed.  This is a bug, not a user error."""


def exact_int(value, what):
    """value itself when type(value) is int, else ValidationError naming what."""
    if type(value) is int:
        return value
    raise ValidationError("%s must be an integer, not %r" % (what, value))
