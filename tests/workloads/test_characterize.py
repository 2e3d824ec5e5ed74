"""Unit tests for trace characterization."""

from repro.sim.trace import PackedTrace
from repro.workloads.characterize import histogram_buckets, profile_trace


def make_trace():
    trace = PackedTrace(4)
    # Block 0: private to core 0 (two accesses, one write).
    trace.append(0, 0, True)
    trace.append(0, 32, False)
    # Block 1: shared by cores 0 and 1.
    trace.append(0, 64, False)
    trace.append(1, 64, False)
    # Block 2: shared by all four cores.
    for core in range(4):
        trace.append(core, 128, False)
    return trace


class TestProfile:
    def test_unique_and_private_counts(self):
        profile = profile_trace(make_trace(), 64)
        assert profile.unique_blocks == 3
        assert profile.private_blocks == 1
        assert profile.private_block_fraction == 1 / 3

    def test_histogram(self):
        profile = profile_trace(make_trace(), 64)
        assert profile.sharing_histogram == {1: 1, 2: 1, 4: 1}
        assert profile.degree_fraction(2) == 1 / 3
        assert profile.degree_fraction(3) == 0.0

    def test_write_fraction(self):
        profile = profile_trace(make_trace(), 64)
        assert profile.write_fraction == 1 / 8

    def test_private_access_fraction(self):
        profile = profile_trace(make_trace(), 64)
        assert profile.private_access_fraction == 2 / 8

    def test_empty_trace(self):
        profile = profile_trace(PackedTrace(2), 64)
        assert profile.unique_blocks == 0
        assert profile.private_block_fraction == 0.0
        assert profile.write_fraction == 0.0


class TestBuckets:
    def test_buckets_sum_to_one(self):
        profile = profile_trace(make_trace(), 64)
        buckets = histogram_buckets(profile, 4)
        assert abs(sum(buckets) - 1.0) < 1e-9

    def test_bucket_layout(self):
        profile = profile_trace(make_trace(), 64)
        deg1, deg2, deg34, deg58, deg9plus = histogram_buckets(profile, 4)
        assert deg1 == 1 / 3
        assert deg2 == 1 / 3
        assert deg34 == 1 / 3
        assert deg58 == 0.0

    def test_small_core_counts_keep_buckets_normalized(self):
        # With num_cores < 9 the deg>8 bucket's range (9, num_cores) is
        # empty and the deg=5-8 range may be partial; every degree that
        # actually occurs must still land in exactly one bucket.
        for cores in (2, 4, 6, 8):
            trace = PackedTrace(cores)
            for core in range(cores):
                trace.append(core, 0, False)       # degree = cores
                trace.append(core, (core + 1) << 6, False)  # degree 1
            profile = profile_trace(trace, 64)
            buckets = histogram_buckets(profile, cores)
            assert abs(sum(buckets) - 1.0) < 1e-9
            assert buckets[0] > 0.0  # the private blocks
            if cores < 9:
                assert buckets[4] == 0.0  # deg>8 impossible
