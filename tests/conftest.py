import sys
from pathlib import Path

import pytest

from zkit import poly

try:
    from hypothesis import settings
except ImportError:  # only the property-test modules need hypothesis
    pass
else:
    # each property test draws the same examples on every run (and, by
    # derandomize, reads and writes no example database), so a run that
    # plants a fault fails the same tests every time;
    # --hypothesis-profile=default draws at random again
    settings.register_profile("derandomized", derandomize=True)
    settings.load_profile("derandomized")

sys.path.insert(0, str(Path(__file__).parent))  # make helpers importable

from helpers import checked_buchberger  # noqa: E402


@pytest.fixture(scope="session", autouse=True)
def verified_bases():
    """Run the whole suite with the post-hoc Buchberger check of
    helpers.check_basis on every basis a Buchberger run returns.  Every
    poly.buchberger call looks _buchberger up when it runs, so names
    bound by `from zkit.poly import buchberger` are checked too."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(poly, "_buchberger", checked_buchberger(poly._buchberger))
        yield
