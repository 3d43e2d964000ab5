"""Work caps and instrumentation for the decision engines.

Groebner-basis computation is doubly exponential in the worst case, and
saturation witnesses have no a-priori exponent bound, so every search in
the package runs under explicit caps and fails loudly with
ResourceExceeded instead of hanging.
"""
from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar

from .records import record, replace


@record(frozen=True)
class Limits:
    """The caps in force; `limits(...)` overrides them for a block.

    max_assignments bounds finite enumeration: the element count of a
    ring whose elements() are listed, and the |B|^generators assignments
    rings.enumerate_homs would try.  Both are checked before any element
    or assignment is built.  It also bounds the weighted term pairs of
    each product in every power, which rings._power alone forms: a
    script's ^, RingElement ** k, hom evaluation, gluing and verify.
    """

    max_pairs: int = 4000        # S-pairs reduced per basis computation,
                                 # after the pair criteria removed theirs
    max_basis: int = 256         # basis elements per computation
    max_exponent: int = 64       # witness exponents (radical, saturation, glue)
    max_assignments: int = 10**6  # elements listed / homs tried per enumeration
    check_bases: bool = False    # post-hoc Buchberger criterion on every basis


_LIMITS: ContextVar[Limits] = ContextVar("zkit_limits", default=Limits())


def current_limits() -> Limits:
    return _LIMITS.get()


def set_limits(**overrides) -> Limits:
    """Permanently override selected caps, returning the new Limits."""
    new = replace(_LIMITS.get(), **overrides)
    _LIMITS.set(new)
    return new


@contextmanager
def limits(**overrides):
    """Temporarily override selected caps within a with-block."""
    token = _LIMITS.set(replace(_LIMITS.get(), **overrides))
    try:
        yield _LIMITS.get()
    finally:
        _LIMITS.reset(token)


class GroebnerStats:
    """Counters filled in when check_bases is active (test mode)."""

    def __init__(self):
        self.bases_computed = 0
        self.bases_checked = 0

    def reset(self):
        self.bases_computed = 0
        self.bases_checked = 0


stats = GroebnerStats()
