"""The output bytes of every command checked by ``output_digests.py``,
compared with the digests pinned in ``tests/data/output_digests.txt``
where the environment matches the one they were recorded in."""

import pytest

import output_digests


def test_outputs_match_the_pinned_digests(tmp_path):
    fingerprint, pinned = output_digests.read_pinned()
    here = output_digests.fingerprint()
    if here != fingerprint:
        differ = "; ".join(line for line in here if line not in fingerprint)
        pytest.skip(f"digests pinned in another environment (here {differ})")
    assert output_digests.digests(tmp_path) == pinned
