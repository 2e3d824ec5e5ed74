"""Flat cuckoo and SCD directories vs the interpreter, on the rare paths.

The goldens and the engine-differential fuzz compare whole runs; these
tests instead step the interpreter and the vector engine's flat machine
side by side, one operation at a time, on tiny directories built to force
the paths a realistic trace reaches only occasionally — and compare the
directory's own state (slot placement, line charge, occupancy) after
every operation, not only the final statistics.
"""

from __future__ import annotations

from repro.common.config import CacheConfig, DirectoryKind, NoCConfig, SystemConfig
from repro.directory.cuckoo import DEFAULT_MAX_PATH
from repro.sim.simulator import Simulator, run_trace
from repro.sim.system import build_system
from repro.sim.trace import Trace
from repro.sim.vector import VectorEngine, flat_machine


def tiny_config(kind, entries, ways=2, num_cores=4):
    return SystemConfig(
        num_cores=num_cores,
        l1=CacheConfig(sets=2, ways=2),
        llc=CacheConfig(sets=16, ways=4),
        noc=NoCConfig(mesh_width=2, mesh_height=max((num_cores + 1) // 2, 2)),
        seed=7,
    ).with_directory(kind=kind, entries_override=entries, ways=ways)


def lockstep(config, program, check):
    """Run ``program`` on both engines; ``check(system, machine)`` per op."""
    system = build_system(config)
    machine = flat_machine(config)
    for core, block, is_write in program:
        want = system.access(core, block, is_write)
        got = machine.access(core, block, 1 if is_write else 0)
        assert got == want, (core, block, is_write)
        assert machine.effective_tracking() == system.effective_tracking()
        check(system, machine)
    assert machine.flat_stats() == system.flat_stats()
    return machine.flat_stats()


def private_streams(num_cores, blocks_per_core, rounds):
    """Every core cycles over its own blocks: many private directory
    entries, and with two-line L1s every access past the first two
    misses."""
    program = []
    for r in range(rounds):
        for i in range(blocks_per_core):
            for core in range(num_cores):
                block = 1 + core * blocks_per_core + i
                program.append((core, block, (r + i) % 3 == 0))
    return program


def cuckoo_placement(system, machine):
    """Every tracked block sits in the same (way, slot) on both engines."""
    where = system.directory._where
    assert set(where) == set(machine.dmap)
    spw = machine.fdir.spw
    for addr, (way, slot, _entry) in where.items():
        assert machine.dmap[addr][5] == way * spw + slot, addr


class TestFlatCuckoo:
    def test_exhausted_chain_ends_in_invalidating_eviction(self):
        # Four slots (2 ways x 2), twelve live private blocks: once the
        # table is full no relocation chain can find a free slot, so every
        # allocation walks the whole max_path chain and evicts.
        config = tiny_config(DirectoryKind.CUCKOO, entries=4)
        stats = lockstep(
            config, private_streams(4, 3, rounds=6), cuckoo_placement
        )
        evictions = stats["system.directory.evictions_invalidate"]
        assert evictions > 0
        assert stats["system.directory.relocations"] >= DEFAULT_MAX_PATH * evictions
        assert stats["system.protocol.dir_eviction_inval_msgs"] > 0
        assert stats["system.protocol.dir_induced_invalidations"] > 0

    def test_relocation_without_eviction(self):
        # Roomy table: conflicts relocate an occupant to its other way
        # instead of evicting it.
        config = tiny_config(DirectoryKind.CUCKOO, entries=16)
        program = private_streams(4, 3, rounds=2)
        stats = lockstep(config, program, cuckoo_placement)
        assert stats["system.directory.relocations"] > 0
        assert "system.directory.evictions" not in stats

    def test_single_way_evicts_the_occupant(self):
        # d == 1: the displaced occupant's only slot holds the new entry,
        # so the chain stops after one step and evicts it, relocating
        # nothing.
        config = tiny_config(DirectoryKind.CUCKOO, entries=4, ways=1)
        stats = lockstep(
            config, private_streams(4, 3, rounds=4), cuckoo_placement
        )
        assert stats["system.directory.evictions_invalidate"] > 0
        assert "system.directory.relocations" not in stats


class TestFlatScd:
    def test_wide_sharer_set_overshoots_then_reclaims(self):
        # Six cores, leaf groups {0..3} and {4, 5}, a budget of four
        # lines.  Block 1 gathers readers on both leaf groups (3 lines),
        # which pushes the pool past its budget with no allocation in
        # sight; the next allocation reclaims exactly one LRU block.
        config = tiny_config(DirectoryKind.SCD, entries=4, num_cores=6)
        program = [(0, 2, False), (1, 3, False), (2, 4, False)]
        program += [(core, 1, False) for core in (0, 1, 2, 4)]
        program += [(3, 5, False), (5, 6, False)]
        seen = []

        def check(system, machine):
            directory = system.directory
            assert machine.fdir.lines == directory.total_lines()
            assert list(machine.dmap) == list(directory._entries)
            seen.append((machine.fdir.lines, machine.c_dir_evictions))

        stats = lockstep(config, program, check)
        assert config.directory_entries == 4
        # Lines per op: the fourth block fills the budget, the third and
        # fourth readers of block 1 overshoot it to 5 and 6 lines without
        # any eviction, and each of the last two allocations reclaims one
        # LRU block (one line each), leaving the pool still over budget.
        assert seen == [
            (1, 0), (2, 0), (3, 0), (4, 0), (4, 0),
            (5, 0), (6, 0), (6, 1), (6, 2),
        ]
        assert stats["system.directory.evictions_invalidate"] == 2

    def test_lru_order_follows_directory_hits(self):
        # Re-reading a tracked block from another core is a directory hit
        # that moves it to the MRU end, which changes the next victim.
        config = tiny_config(DirectoryKind.SCD, entries=3)
        program = [(0, 1, False), (1, 2, False), (2, 3, False)]
        program += [(3, 1, False), (3, 4, True), (0, 5, False)]

        def check(system, machine):
            assert list(machine.dmap) == list(system.directory._entries)
            assert machine.fdir.lines == system.directory.total_lines()

        lockstep(config, program, check)


def test_whole_runs_identical_on_tiny_directories():
    """The interleaved engines agree too, effective-tracking samples
    included (sampled every 16 ops)."""
    for kind, entries, ways, cores in (
        (DirectoryKind.CUCKOO, 4, 2, 4),
        (DirectoryKind.CUCKOO, 4, 1, 4),
        (DirectoryKind.SCD, 4, 2, 6),
        (DirectoryKind.IN_LLC, 4, 2, 4),
    ):
        config = tiny_config(kind, entries, ways, cores)
        trace = Trace(cores)
        for core, block, is_write in private_streams(cores, 3, rounds=5):
            trace.append(core, block * config.block_bytes, is_write)
        interp = Simulator(build_system(config), sample_interval=16).run(trace)
        vector = VectorEngine(config, sample_interval=16).run(trace)
        assert vector == interp
        assert interp.effective_tracking_samples
        assert vector.effective_tracking_samples == interp.effective_tracking_samples
        assert run_trace(config, trace, engine="vector").engine == "vector"
