import sys
from pathlib import Path

import pytest

from zkit import poly

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
