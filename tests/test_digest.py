"""A committed digest pins the oracle counts, and the bytes, of one sweep."""

import json

import pytest

from make_digest import DIGEST, sweep_digest


def moved(got: dict, expected: dict) -> list[str]:
    """The sorted names whose hash differs, or that only one side has."""
    return sorted(name for name in got.keys() | expected.keys()
                  if got.get(name) != expected.get(name))


@pytest.mark.slow
def test_sweep_matches_the_committed_digest(tmp_path):
    expected = json.loads(DIGEST.read_text())
    got = sweep_digest(tmp_path)
    # counts first: a count that moved is a different failure from a float
    # that moved in its last bits (see make_digest.py); either failure names
    # the outputs that moved
    assert moved(got["counts"], expected["counts"]) == []
    assert moved(got["bytes"], expected["bytes"]) == []
