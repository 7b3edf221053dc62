"""A committed digest pins the oracle counts, and the bytes, of one sweep."""

import json

import pytest

from make_digest import DIGEST, sweep_digest


@pytest.mark.slow
def test_sweep_matches_the_committed_digest(tmp_path):
    expected = json.loads(DIGEST.read_text())
    got = sweep_digest(tmp_path)
    # counts first: a count that moved is a different failure from a float
    # that moved in its last bits (see make_digest.py)
    assert got["counts"] == expected["counts"]
    assert got["bytes"] == expected["bytes"]
