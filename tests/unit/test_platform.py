"""Unit tests for the platform model."""

import pickle

import numpy as np
import pytest

from repro.exceptions import PlatformError
from repro.platform.builders import (
    figure1_platform,
    figure2_platform,
    heterogeneous_platform,
    homogeneous_platform,
    paper_platform,
)
from repro.platform.platform import Platform
from repro.platform.processor import Processor


class TestProcessor:
    def test_execution_time(self):
        assert Processor("P1", 2.0).execution_time(10.0) == 5.0

    def test_invalid_speed(self):
        with pytest.raises(ValueError):
            Processor("P1", 0.0)

    def test_invalid_name(self):
        with pytest.raises(ValueError):
            Processor("", 1.0)


class TestPlatform:
    def test_requires_processors(self):
        with pytest.raises(PlatformError):
            Platform([])

    def test_duplicate_names_rejected(self):
        with pytest.raises(PlatformError):
            Platform([Processor("P1"), Processor("P1")])

    def test_uniform_bandwidth(self):
        p = Platform([Processor("P1"), Processor("P2")], bandwidths=4.0)
        assert p.bandwidth("P1", "P2") == 4.0
        assert p.communication_time(8.0, "P1", "P2") == 2.0

    def test_local_communication_is_free(self, homo4):
        assert homo4.communication_time(100.0, "P1", "P1") == 0.0
        assert homo4.bandwidth("P1", "P1") == float("inf")

    def test_per_link_bandwidths(self):
        p = Platform(
            [Processor("P1"), Processor("P2"), Processor("P3")],
            bandwidths={("P1", "P2"): 2.0},
            default_bandwidth=1.0,
        )
        assert p.bandwidth("P1", "P2") == 2.0
        assert p.bandwidth("P2", "P1") == 2.0  # symmetric by default
        assert p.bandwidth("P1", "P3") == 1.0

    def test_asymmetric_link(self):
        p = Platform([Processor("P1"), Processor("P2")])
        p.set_bandwidth("P1", "P2", 5.0, symmetric=False)
        assert p.bandwidth("P1", "P2") == 5.0
        assert p.bandwidth("P2", "P1") == 1.0

    def test_unknown_processor(self, homo4):
        with pytest.raises(PlatformError):
            homo4.speed("P99")
        with pytest.raises(PlatformError):
            homo4.bandwidth("P1", "P99")

    def test_speed_statistics(self):
        p = Platform([Processor("P1", 1.0), Processor("P2", 2.0)])
        assert p.min_speed == 1.0
        assert p.max_speed == 2.0
        assert p.mean_inverse_speed == pytest.approx(0.75)
        assert p.fastest_processor == "P2"

    def test_execution_time(self, homo4):
        assert homo4.execution_time(10.0, "P1") == 10.0

    def test_subset(self, homo4):
        sub = homo4.subset(["P1", "P3"])
        assert sub.num_processors == 2
        assert "P2" not in sub

    def test_contains_and_iter(self, homo4):
        assert "P1" in homo4
        assert len(list(homo4)) == 4


class TestMemoisedStatistics:
    """The link table and the aggregate statistics are memoised: every read
    must still see the current links, and the memo must never leak out."""

    @staticmethod
    def _links(p):
        names = p.processor_names
        return {(a, b): p.bandwidth(a, b) for a in names for b in names}

    def test_statistics_are_the_numpy_expressions(self):
        p = heterogeneous_platform(6, seed=4)
        names = p.processor_names
        links = np.array([p.bandwidth(a, b) for a in names for b in names if a != b])
        speeds = np.array([p.speed(n) for n in names])
        assert p.min_bandwidth == float(links.min())
        assert p.mean_inverse_bandwidth == float((1.0 / links).mean())
        assert p.min_speed == float(speeds.min())
        assert p.max_speed == float(speeds.max())
        assert p.mean_inverse_speed == float((1.0 / speeds).mean())

    def test_set_bandwidth_invalidates_earlier_reads(self):
        p = heterogeneous_platform(5, seed=3)
        before = (p.bandwidth("P1", "P2"), p.min_bandwidth, p.mean_inverse_bandwidth)
        p.set_bandwidth("P1", "P2", 0.01)
        assert p.bandwidth("P1", "P2") == p.bandwidth("P2", "P1") == 0.01
        assert p.min_bandwidth == 0.01
        assert p.mean_inverse_bandwidth > before[2]
        # a platform declared with the new links from the start agrees bit for bit
        fresh = Platform(p.processors, bandwidths=self._links(p))
        assert p.mean_inverse_bandwidth == fresh.mean_inverse_bandwidth
        assert p.min_bandwidth == fresh.min_bandwidth

    @pytest.mark.parametrize("src,dst", [("P99", "P99"), ("P1", "P99"), ("P99", "P1")])
    def test_unknown_names_raise_before_and_after_the_table_exists(self, src, dst):
        p = homogeneous_platform(3)
        with pytest.raises(PlatformError, match="P99"):
            p.bandwidth(src, dst)
        p.bandwidth("P1", "P2")  # builds the table
        with pytest.raises(PlatformError, match="P99"):
            p.bandwidth(src, dst)
        assert p.bandwidth("P2", "P2") == float("inf")

    def test_subset_keeps_per_link_bandwidths(self):
        p = heterogeneous_platform(6, seed=5)
        p.set_bandwidth("P4", "P1", 7.5, symmetric=False)
        p.min_bandwidth  # memoise on the parent first
        names = ["P4", "P1", "P6"]
        sub = p.subset(names)
        for a in names:
            for b in names:
                assert sub.bandwidth(a, b) == p.bandwidth(a, b)
        assert sub.bandwidth("P4", "P1") == 7.5

    def test_pickle_round_trip_drops_the_memo(self):
        used = heterogeneous_platform(5, seed=3)
        links = self._links(used)
        stats = (used.min_bandwidth, used.mean_inverse_bandwidth, used.mean_inverse_speed)
        data = pickle.dumps(used)
        assert len(data) == len(pickle.dumps(heterogeneous_platform(5, seed=3)))
        clone = pickle.loads(data)
        assert self._links(clone) == links
        assert (clone.min_bandwidth, clone.mean_inverse_bandwidth, clone.mean_inverse_speed) == stats
        clone.set_bandwidth("P1", "P2", 0.01)
        assert clone.min_bandwidth == 0.01
        assert used.bandwidth("P1", "P2") == links[("P1", "P2")]


class TestBuilders:
    def test_homogeneous(self):
        p = homogeneous_platform(5, speed=2.0, bandwidth=3.0)
        assert p.num_processors == 5
        assert set(p.speeds) == {2.0}
        assert p.bandwidth("P1", "P5") == 3.0

    def test_homogeneous_invalid(self):
        with pytest.raises(ValueError):
            homogeneous_platform(0)

    def test_heterogeneous_ranges(self):
        p = heterogeneous_platform(10, speed_range=(0.5, 1.0), delay_range=(0.5, 1.0), seed=1)
        assert all(0.5 <= s <= 1.0 for s in p.speeds)
        for a in p.processor_names[:3]:
            for b in p.processor_names[:3]:
                if a != b:
                    assert 1.0 <= p.bandwidth(a, b) <= 2.0  # delay in [0.5, 1]

    def test_heterogeneous_determinism(self):
        a = heterogeneous_platform(6, seed=9)
        b = heterogeneous_platform(6, seed=9)
        assert list(a.speeds) == list(b.speeds)
        assert a.bandwidth("P1", "P2") == b.bandwidth("P1", "P2")

    def test_paper_platform_defaults(self):
        p = paper_platform(seed=0)
        assert p.num_processors == 20

    def test_figure1_platform_speeds(self):
        p = figure1_platform()
        assert p.speed("P1") == 1.5
        assert p.speed("P2") == 1.0
        assert p.bandwidth("P1", "P4") == 1.0

    def test_figure2_platform_is_homogeneous(self):
        p = figure2_platform(8)
        assert p.num_processors == 8
        assert set(p.speeds) == {1.0}
