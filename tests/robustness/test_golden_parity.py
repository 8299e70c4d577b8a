"""Golden parity: solver outputs equal the pinned two-tier recordings.

The recordings in ``tests/oracles/golden_parity.json`` come from the dense
all-pairs tier these instances used to run on; the lazy row backend must
reproduce each one bit-for-bit (see :mod:`tests.oracles.golden`).  The
1k-node hierarchy entry pins the cluster-local re-optimization path
(one-pass boundary stitching, backend predecessor trees) the same way.
"""

import pytest

from tests.oracles.golden import (
    PARITY_TOPOLOGIES,
    canonical,
    deltacom_algorithm1,
    deltacom_survivability,
    hierarchy_timeline_report,
    load_golden,
    timeline_report,
)


@pytest.fixture(scope="module")
def golden():
    return load_golden()


@pytest.mark.parametrize("name", sorted(PARITY_TOPOLOGIES))
def test_timeline_report_matches_golden(golden, name):
    assert canonical(timeline_report(name)) == golden["timeline"][name]


def test_deltacom_survivability_matches_golden(golden):
    assert canonical(deltacom_survivability()) == golden["survivability"]


def test_deltacom_algorithm1_matches_golden(golden):
    assert canonical(deltacom_algorithm1()) == golden["algorithm1"]


def test_hierarchy_cluster_local_replay_matches_golden(golden):
    assert canonical(hierarchy_timeline_report()) == golden["hierarchy1k"]
