"""Host-speed probe.

On a shared machine the CPU itself runs faster or slower for seconds to
minutes at a time; identical runs of the same script differ by 25% and
more, and the best of several rounds does not remove it, because a slow
spell can outlast a whole run.  The probe is a fixed piece of pure-Python
work owned by the benchmark, of the kinds zkit does: parsing an element
string into exact rationals, building and hashing frozen dataclasses,
and a dict-of-tuples polynomial product mod p.  The child times it
between consecutive scripts; a script's time divided by the mean of the
probes on either side of it depends much less on how fast the host
happens to be.
No zkit code runs in the probe, so a change to zkit cannot move it.
"""
from __future__ import annotations

import gc
import random
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter

from . import poly as P

REF_S = 0.010        # probe time that normalized times are scaled to
REPEATS = 3


@dataclass(frozen=True)
class _Term:
    mono: tuple
    coeff: object


_rng = random.Random(20240318)
_A = P.random_poly(_rng, 3, 4, 12)
_B = P.random_poly(_rng, 3, 4, 12)
_TEXT = " + ".join(f"{_rng.randint(1, 99)}/{_rng.randint(2, 9)}*x^"
                   f"{_rng.randint(1, 5)}*y - {_rng.randint(1, 50)}*z"
                   for _ in range(60))
_ENV = {"x": Fraction(3, 7), "y": 5, "z": Fraction(-2, 3)}


def _work():
    P.read(_TEXT, _ENV)
    terms = {_Term((i % 5, i % 3), Fraction(i, 7)) for i in range(400)}
    sum(t.coeff for t in terms if isinstance(t.mono, tuple))
    P.mul(_A, _B, 32003)


def probe() -> float:
    """Total time of REPEATS runs of the fixed work, in seconds, with the
    collector paused so zkit's heap cannot slow the probe down."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        for _ in range(REPEATS):
            _work()
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
