"""Trace bytes: pinned digests, the bulk draw replay, region limits.

The digests in ``tests/data/workload_digests.json`` were taken from the
scalar generators (one ``random.Random`` call per draw, tuple traces
packed afterwards).  The packed-native generators, including the bulk
MT19937 replay behind ``private_working_set``, must reproduce them byte
for byte.
"""

from __future__ import annotations

import hashlib
import json
import random
import struct
from pathlib import Path

import pytest

from repro.common import rng as rng_mod
from repro.common.errors import ConfigError
from repro.common.rng import DeterministicRng
from repro.sim.trace import PackedTrace
from repro.workloads import algorithms, patterns, suite
from repro.workloads.patterns import REGION_SPAN, private_working_set
from repro.workloads.suite import build_workload, workload_names

DIGESTS = json.loads(
    (Path(__file__).parent.parent / "data" / "workload_digests.json").read_text()
)
SIZES = [(5, 301), (16, 1000)]
SEEDS = [1, 7]


def digest(packed: PackedTrace) -> str:
    """SHA-256 over each core's op count and packed words, in core order."""
    h = hashlib.sha256()
    for stream in packed.streams:
        h.update(struct.pack("<Q", len(stream)))
        h.update(stream.tobytes())
    return h.hexdigest()


class TestPinnedDigests:
    def test_every_workload_is_pinned(self):
        expected = {
            f"{name}|{cores}x{ops}|{seed}"
            for name in workload_names()
            for cores, ops in SIZES
            for seed in SEEDS
        }
        assert set(DIGESTS) == expected

    @pytest.mark.parametrize("name", workload_names())
    def test_packed_streams_match_pinned_digest(self, name):
        for cores, ops in SIZES:
            for seed in SEEDS:
                packed = build_workload(name, cores, ops, seed=seed)
                assert digest(packed) == DIGESTS[f"{name}|{cores}x{ops}|{seed}"], (
                    name, cores, ops, seed,
                )


def scalar_private_working_set(num_cores, ops_per_core, seed, *, ws_blocks,
                               write_frac, zipf_alpha, block_bytes=64):
    """The per-op reference: one live ``random.Random`` call per draw."""
    parent = DeterministicRng(seed)
    shift = block_bytes.bit_length() - 1
    streams = []
    for core in range(num_cores):
        crng = parent.spawn(core)
        live = random.Random(crng.seed)
        cdf = rng_mod._zipf_cdf(ws_blocks, zipf_alpha) if zipf_alpha > 0 else None
        base = patterns._private_base(core)
        words = []
        for _ in range(ops_per_core):
            if cdf is None:
                block = live.randrange(ws_blocks)
            else:
                u = live.random()
                block = next(i for i, c in enumerate(cdf) if c >= u)
            is_write = live.random() < write_frac
            words.append((((base + block) << shift) << 1) | is_write)
        streams.append(words)
    return streams


class TestBulkReplay:
    @pytest.mark.parametrize("zipf_alpha", [0.0, 0.6])
    @pytest.mark.parametrize("ws_blocks", [1, 2, 3, 64, 65, 96, 320, 1024])
    @pytest.mark.parametrize("write_frac", [0, 0.25, 1])
    @pytest.mark.parametrize("ops", [0, 1, 2, 1000])
    def test_matches_live_random(self, zipf_alpha, ws_blocks, write_frac, ops):
        packed = private_working_set(
            3, ops, DeterministicRng(11), ws_blocks=ws_blocks,
            write_frac=write_frac, zipf_alpha=zipf_alpha,
        )
        expected = scalar_private_working_set(
            3, ops, 11, ws_blocks=ws_blocks, write_frac=write_frac,
            zipf_alpha=zipf_alpha,
        )
        assert [list(stream) for stream in packed.streams] == expected

    @pytest.mark.parametrize("alpha", [0.0, 0.8])
    def test_draws_match_scalar_calls(self, alpha):
        seeds = [DeterministicRng(4).spawn(core).seed for core in range(6)]
        bulk = list(rng_mod.zipf_random_pairs(seeds, 96, alpha, 500))
        for seed, (indices, uniforms) in zip(seeds, bulk):
            live = DeterministicRng(seed)
            pairs = [(live.zipf_index(96, alpha), live.random()) for _ in range(500)]
            assert list(zip(indices.tolist(), uniforms.tolist())) == pairs

    def test_short_budget_draws_more_words(self, monkeypatch):
        # A budget far below the chain's needs: every stream runs off the
        # end of its row and is redrawn (repeatedly) with a larger budget.
        seeds = [DeterministicRng(2).spawn(core).seed for core in range(5)]
        budgets = []
        real_chain = rng_mod._randrange_chain

        def spy(chunk, n, count, budget):
            budgets.append(budget)
            return real_chain(chunk, n, count, budget)

        monkeypatch.setattr(rng_mod, "_chain_budget", lambda count, accept: 8)
        monkeypatch.setattr(rng_mod, "_randrange_chain", spy)
        bulk = list(rng_mod.zipf_random_pairs(seeds, 65, 0.0, 300))
        assert budgets[0] == 8 and max(budgets) > 4 * 300  # it did redraw
        for seed, (indices, uniforms) in zip(seeds, bulk):
            live = DeterministicRng(seed)
            pairs = [(live.zipf_index(65, 0.0), live.random()) for _ in range(300)]
            assert list(zip(indices.tolist(), uniforms.tolist())) == pairs

    def test_chunking_is_invisible(self, monkeypatch):
        seeds = [DeterministicRng(9).spawn(core).seed for core in range(7)]
        whole = [i.tolist() for i, _ in rng_mod.zipf_random_pairs(seeds, 64, 0.0, 200)]
        monkeypatch.setattr(rng_mod, "_CHUNK_WORDS", 1)  # one stream per chunk
        single = [i.tolist() for i, _ in rng_mod.zipf_random_pairs(seeds, 64, 0.0, 200)]
        assert single == whole


class TestMixGeneratesOnlyKeptCores:
    def test_each_group_builds_only_its_cores(self, monkeypatch):
        requested = {}
        for name in ("private_working_set", "shared_read_only",
                     "producer_consumer", "migratory"):
            real = getattr(patterns, name)

            def spy(*args, _real=real, _name=name, **kwargs):
                requested[_name] = list(kwargs["cores"])
                return _real(*args, **kwargs)

            monkeypatch.setattr(patterns, name, spy)
        trace = suite._mix(10, 50, DeterministicRng(1))
        assert requested == {
            "private_working_set": [0, 1],
            "shared_read_only": [2, 3],
            "producer_consumer": [4, 5],
            "migratory": [6, 7, 8, 9],
        }
        assert [trace.core_ops(core) for core in range(10)] == [50] * 10

    def test_generated_subset_equals_full_generation(self):
        full = patterns.shared_read_only(8, 120, DeterministicRng(3))
        part = patterns.shared_read_only(8, 120, DeterministicRng(3), cores=range(2, 5))
        for core in range(8):
            if 2 <= core < 5:
                assert part.streams[core] == full.streams[core]
            else:
                assert len(part.streams[core]) == 0


class TestRegionLimit:
    def test_oversized_private_region_rejected(self):
        # Without the check, core 0 and core 1 shared "private" blocks.
        with pytest.raises(ConfigError, match="ws_blocks"):
            private_working_set(
                2, 4000, DeterministicRng(1), ws_blocks=REGION_SPAN, zipf_alpha=0
            )

    def test_largest_region_accepted(self):
        trace = private_working_set(
            2, 50, DeterministicRng(1), ws_blocks=REGION_SPAN // 2, zipf_alpha=0
        ).to_trace()
        blocks = [{addr >> 6 for addr, _ in trace.ops[core]} for core in range(2)]
        assert not blocks[0] & blocks[1]

    @pytest.mark.parametrize("generator, param", [
        (patterns.shared_read_only, "shared_blocks"),
        (patterns.producer_consumer, "buffer_blocks"),
        (patterns.migratory, "migratory_blocks"),
        (patterns.streaming, "stream_blocks"),
        (patterns.uniform_mix, "private_blocks"),
        (patterns.false_sharing, "hot_blocks"),
        (patterns.lock_contention, "guarded_blocks"),
        (patterns.phased, "exchange_blocks"),
        (algorithms.graph_clustering, "frontier_blocks"),
        (algorithms.tiled_matmul, "tile_blocks"),
        (algorithms.prime_sieve, "bitmap_blocks"),
        (algorithms.union_find, "node_blocks"),
    ])
    def test_every_generator_rejects_oversized_regions(self, generator, param):
        with pytest.raises(ConfigError, match=param):
            generator(2, 10, DeterministicRng(1), **{param: REGION_SPAN // 2 + 1})


class TestFromTrace:
    def test_packed_argument_returned_unchanged(self):
        packed = build_workload("mix", 4, 20)
        assert PackedTrace.from_trace(packed) is packed
