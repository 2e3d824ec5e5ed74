"""Unit tests for the named workload suite."""

import pytest

from repro.common.errors import ConfigError
from repro.workloads.characterize import profile_trace
from repro.workloads.suite import (
    SUITE,
    SUITE_ORDER,
    build_workload,
    workload_names,
)


class TestRegistry:
    def test_order_subset_of_registry(self):
        assert set(SUITE_ORDER) <= set(SUITE)

    def test_names_helper_lists_order_then_extras(self):
        from repro.workloads.suite import ALGORITHM_WORKLOADS, EXTRA_WORKLOADS

        assert workload_names() == (
            SUITE_ORDER + EXTRA_WORKLOADS + ALGORITHM_WORKLOADS
        )
        assert set(workload_names()) == set(SUITE)

    def test_every_spec_has_description(self):
        for spec in SUITE.values():
            assert spec.description

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigError):
            build_workload("nonexistent", 4, 100)


class TestGeneration:
    @pytest.mark.parametrize("name", sorted(SUITE))
    def test_every_workload_builds(self, name):
        trace = build_workload(name, 4, 200, seed=1)
        assert trace.total_ops() == 4 * 200
        assert trace.num_cores == 4

    def test_deterministic_by_seed(self):
        a = build_workload("mix", 4, 200, seed=5)
        b = build_workload("mix", 4, 200, seed=5)
        assert a.to_trace().ops == b.to_trace().ops

    def test_seed_changes_trace(self):
        a = build_workload("mix", 4, 200, seed=5)
        b = build_workload("mix", 4, 200, seed=6)
        assert a.to_trace().ops != b.to_trace().ops

    def test_scales_to_more_cores(self):
        trace = build_workload("blackscholes-like", 16, 50, seed=1)
        assert trace.num_cores == 16


class TestCharacteristics:
    """The stand-ins must exhibit the sharing class they claim (DESIGN.md)."""

    def test_blackscholes_like_mostly_private(self):
        profile = profile_trace(build_workload("blackscholes-like", 8, 500), 64)
        assert profile.private_block_fraction > 0.95

    def test_bodytrack_like_has_read_sharing(self):
        profile = profile_trace(build_workload("bodytrack-like", 8, 500), 64)
        assert profile.private_block_fraction < 0.9
        assert profile.sharing_histogram.get(8, 0) > 0

    def test_canneal_like_has_big_working_set(self):
        small = build_workload("swaptions-like", 8, 500).unique_blocks(64)
        big = build_workload("canneal-like", 8, 500).unique_blocks(64)
        assert big > 3 * small

    def test_radix_like_write_heavy(self):
        radix = build_workload("radix-like", 8, 500).write_fraction()
        blacks = build_workload("blackscholes-like", 8, 500).write_fraction()
        assert radix > blacks

    def test_mix_combines_patterns(self):
        profile = profile_trace(build_workload("mix", 8, 500), 64)
        assert 0.3 < profile.private_block_fraction < 1.0
