from contextlib import contextmanager
from contextvars import ContextVar


class GlueforgeError(Exception):
    """Base class for all errors raised by this package."""


class StructuralError(GlueforgeError):
    """Malformed or inconsistent input: bad endpoints, unknown labels,
    violated preconditions, invalid documents."""


class ResourceError(GlueforgeError):
    """An enumeration would exceed the cap of the enclosing ``budget``, or
    a count would have more decimal digits than ``int`` can write."""

    def __init__(self, message, size=None, cap=None):
        super().__init__(message)
        self.size = size
        self.cap = cap


DEFAULT_CAP = 1_000_000

_CAP = ContextVar("glueforge_cap", default=None)


@contextmanager
def budget(cap):
    """Charge every enumeration in the block against ``cap``; ``None`` means
    ``DEFAULT_CAP``.  Scopes nest, and on exit the outer cap is back."""
    token = _CAP.set(cap)
    try:
        yield
    finally:
        _CAP.reset(token)


def charge(what, size):
    """Raise ``ResourceError`` if ``size`` items of ``what`` exceed the cap."""
    cap = _CAP.get()
    if cap is None:
        cap = DEFAULT_CAP
    if size > cap:
        raise ResourceError(
            "%s would enumerate %d items, above the cap of %d" % (what, size, cap),
            size=size, cap=cap)
