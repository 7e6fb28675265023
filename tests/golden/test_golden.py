"""The pinned campaign runs still produce their checked-in digests."""

import pytest

from tests.golden.runs import RUNS, campaign_digest, load_digests


def test_every_run_has_a_digest():
    assert set(load_digests()) == set(RUNS)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_campaign_payload_matches_golden_digest(name):
    assert campaign_digest(name) == load_digests()[name], (
        f"{name} changed behaviour; if intended, rerun "
        "tests/golden/regenerate.py --accept-behaviour-change")
