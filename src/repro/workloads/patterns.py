"""Sharing-pattern trace generators.

Each function builds a :class:`~repro.sim.trace.PackedTrace` exhibiting one
of the canonical many-core sharing behaviours, appending packed words
``(addr << 1) | is_write`` straight into per-core ``array('Q')`` streams.
The paper's workload suite (PARSEC/SPLASH-2) is, from the directory's point
of view, a mixture of exactly these patterns; :mod:`repro.workloads.suite`
composes them into the named stand-ins.

Address-space layout: each core owns a **private region**; **shared
regions** sit above all private regions.  Regions are sized in blocks and
converted to byte addresses with the system block size.  A region holds at
most ``REGION_SPAN // 2`` blocks; larger sizes raise
:class:`~repro.common.errors.ConfigError` rather than overlap a neighbour.

Generation is deterministic under ``(seed, num_cores, ops_per_core)``: every
core draws from its own ``rng.spawn(core)`` stream, so a core's stream does
not depend on which other cores are generated (``cores=`` below).
"""

from __future__ import annotations

from array import array
from typing import Iterable, Optional

from ..common.addr import log2_exact, stride_hash
from ..common.errors import ConfigError
from ..common.rng import DeterministicRng, zipf_random_pairs
from ..sim.trace import PackedTrace
from .synthetic import PhasedStream, SequentialStream, ZipfStream

#: Blocks reserved per private region slot (regions are spaced this far
#: apart so different cores' private data never share a block).
REGION_SPAN = 1 << 20

#: Window for the per-region base scatter (see below); regions stay
#: disjoint as long as a region's working set is below REGION_SPAN / 2.
_SCATTER = REGION_SPAN // 2


def _block_shift(block_bytes: int) -> int:
    """Validated block-address shift for a generator's ``block_bytes``.

    ``bit_length() - 1`` on a non-power-of-two would silently truncate and
    alias distinct blocks; :func:`~repro.common.addr.log2_exact` raises
    :class:`~repro.common.errors.ConfigError` instead.
    """
    return log2_exact(block_bytes)


def _check_regions(**blocks: int) -> None:
    """Reject region sizes that would spill into the neighbouring slot.

    A region starts up to ``_SCATTER`` blocks into its ``REGION_SPAN`` slot,
    so only sizes up to ``_SCATTER`` stay inside it.
    """
    for name, size in blocks.items():
        if size > _SCATTER:
            raise ConfigError(
                f"{name}={size} exceeds the region limit of {_SCATTER} blocks"
            )


def _scatter(slot: int) -> int:
    """Deterministic per-region base offset.

    Real address spaces do not hand every core a region aligned at the same
    large power of two; aligned bases would alias all cores' offset-k blocks
    into the same cache/directory set and manufacture conflict pathologies
    the paper's workloads do not have.  A hashed offset decorrelates the
    set-index streams of different regions.
    """
    return stride_hash(slot + 1, 0xA11A) % _SCATTER


def _private_base(core: int) -> int:
    return core * REGION_SPAN + _scatter(core)


def _shared_base(num_cores: int, region: int = 0) -> int:
    slot = num_cores + region
    return slot * REGION_SPAN + _scatter(slot)


def private_working_set(
    num_cores: int,
    ops_per_core: int,
    rng: DeterministicRng,
    *,
    ws_blocks: int = 256,
    write_frac: float = 0.25,
    zipf_alpha: float = 0.6,
    block_bytes: int = 64,
    cores: Optional[Iterable[int]] = None,
) -> PackedTrace:
    """Every core loops over its own disjoint working set (no sharing).

    The directory's worst nightmare when under-provisioned: every block is
    private, every tracked entry is stash-eligible, and conventional
    evictions destroy perfectly good locality.

    Each op is one ``zipf_index(ws_blocks, zipf_alpha)`` draw for the block
    and one ``random()`` for the write coin, on the core's own stream; the
    whole stream is drawn at once by
    :func:`~repro.common.rng.zipf_random_pairs`.  ``cores`` restricts
    generation to those cores (the others stay empty).
    """
    if not 0 <= write_frac <= 1:
        raise ConfigError("write_frac must be in [0, 1]")
    if ws_blocks < 1:
        raise ConfigError("stream needs at least one block")
    if zipf_alpha < 0:
        raise ConfigError("zipf alpha must be non-negative")
    _check_regions(ws_blocks=ws_blocks)
    import numpy as np

    wshift = np.uint64(_block_shift(block_bytes) + 1)
    trace = PackedTrace(num_cores)
    cores = list(range(num_cores) if cores is None else cores)
    draws = zipf_random_pairs(
        [rng.spawn(core).seed for core in cores], ws_blocks, zipf_alpha, ops_per_core
    )
    for core, (blocks, coins) in zip(cores, draws):
        words = (blocks.astype(np.uint64) + np.uint64(_private_base(core))) << wshift
        words |= coins < write_frac
        trace.streams[core] = array("Q", words.tobytes())
    return trace


def shared_read_only(
    num_cores: int,
    ops_per_core: int,
    rng: DeterministicRng,
    *,
    shared_blocks: int = 512,
    private_blocks: int = 128,
    shared_frac: float = 0.5,
    write_frac: float = 0.1,
    zipf_alpha: float = 0.7,
    block_bytes: int = 64,
    cores: Optional[Iterable[int]] = None,
) -> PackedTrace:
    """All cores read a common table; writes only touch private data.

    Models lookup-table / read-mostly workloads: the shared blocks end up
    widely shared (not stash-eligible), the private blocks dominate entry
    count.  ``cores`` restricts generation to those cores.
    """
    _check_regions(shared_blocks=shared_blocks, private_blocks=private_blocks)
    trace = PackedTrace(num_cores)
    wshift = _block_shift(block_bytes) + 1
    shared_base = _shared_base(num_cores)
    for core in range(num_cores) if cores is None else cores:
        crng = rng.spawn(core)
        shared = ZipfStream(shared_blocks, crng, zipf_alpha)
        private = ZipfStream(private_blocks, crng.spawn(1), zipf_alpha)
        base = _private_base(core)
        emit = trace.streams[core].append
        for _ in range(ops_per_core):
            if crng.random() < shared_frac:
                emit((shared_base + shared.next()) << wshift)
            else:
                emit(
                    (base + private.next()) << wshift
                    | (crng.random() < write_frac)
                )
    return trace


def producer_consumer(
    num_cores: int,
    ops_per_core: int,
    rng: DeterministicRng,
    *,
    buffer_blocks: int = 64,
    private_blocks: int = 128,
    comm_frac: float = 0.3,
    return_frac: float = 0.5,
    block_bytes: int = 64,
    cores: Optional[Iterable[int]] = None,
) -> PackedTrace:
    """Neighbouring core pairs exchange data through per-pair buffers.

    Core ``2k`` writes buffer ``k``; core ``2k+1`` reads it (and vice versa
    on the return buffer: core ``2k+1`` writes, core ``2k`` reads).  Each
    communication op lands on the return buffer with probability
    ``return_frac``, so traffic flows both ways.  The buffer blocks migrate
    M -> S repeatedly — tracked, two-sharer entries that stashing must
    leave alone.  ``cores`` restricts generation to those cores.
    """
    if not 0 <= return_frac <= 1:
        raise ConfigError("return_frac must be in [0, 1]")
    _check_regions(buffer_blocks=buffer_blocks, private_blocks=private_blocks)
    trace = PackedTrace(num_cores)
    wshift = _block_shift(block_bytes) + 1
    for core in range(num_cores) if cores is None else cores:
        crng = rng.spawn(core)
        pair = core // 2
        is_producer = core % 2 == 0
        # Two disjoint regions per pair: forward (even core writes) and
        # return (odd core writes).
        fwd_base = _shared_base(num_cores, region=2 * pair)
        ret_base = _shared_base(num_cores, region=2 * pair + 1)
        fwd = SequentialStream(buffer_blocks)
        ret = SequentialStream(buffer_blocks)
        private = ZipfStream(private_blocks, crng, 0.6)
        base = _private_base(core)
        emit = trace.streams[core].append
        for _ in range(ops_per_core):
            if crng.random() < comm_frac:
                if crng.random() < return_frac:
                    emit((ret_base + ret.next()) << wshift | (not is_producer))
                else:
                    emit((fwd_base + fwd.next()) << wshift | is_producer)
            else:
                emit((base + private.next()) << wshift | (crng.random() < 0.2))
    return trace


def migratory(
    num_cores: int,
    ops_per_core: int,
    rng: DeterministicRng,
    *,
    migratory_blocks: int = 128,
    private_blocks: int = 128,
    migratory_frac: float = 0.3,
    burst: int = 8,
    block_bytes: int = 64,
    cores: Optional[Iterable[int]] = None,
) -> PackedTrace:
    """Migratory sharing: shared objects are read-then-written by one core
    at a time (locks, reduction variables, work-queue items).

    Each touched migratory block gets a read followed by a write, so
    ownership hops core to core — entries stay private-at-a-time, which is
    exactly the case the stash directory exploits even for "shared" data.
    ``cores`` restricts generation to those cores.
    """
    _check_regions(migratory_blocks=migratory_blocks, private_blocks=private_blocks)
    trace = PackedTrace(num_cores)
    wshift = _block_shift(block_bytes) + 1
    mig_base = _shared_base(num_cores)
    for core in range(num_cores) if cores is None else cores:
        crng = rng.spawn(core)
        mig = ZipfStream(migratory_blocks, crng, 0.5)
        private = ZipfStream(private_blocks, crng.spawn(1), 0.6)
        base = _private_base(core)
        emit = trace.streams[core].append
        ops_emitted = 0
        while ops_emitted < ops_per_core:
            if crng.random() < migratory_frac:
                word = (mig_base + mig.next()) << wshift
                # Read-modify-write bursts on the migratory object: the
                # alternation is indexed *within* the burst so every burst
                # opens with the read half of its read-then-write pairs
                # (global-parity indexing made odd-offset bursts lead with
                # a blind write).
                for pos in range(min(burst, ops_per_core - ops_emitted)):
                    emit(word | (pos % 2))
                    ops_emitted += 1
            else:
                emit((base + private.next()) << wshift | (crng.random() < 0.2))
                ops_emitted += 1
    return trace


def streaming(
    num_cores: int,
    ops_per_core: int,
    rng: DeterministicRng,
    *,
    stream_blocks: int = 4096,
    write_frac: float = 0.4,
    block_bytes: int = 64,
) -> PackedTrace:
    """Each core streams sequentially over a large private array once-ish.

    Low reuse: blocks enter the L1, age out, never return.  Directory
    entries churn but invalidating them rarely hurts (the copy was dead
    anyway) — the pattern where stashing helps least.
    """
    _check_regions(stream_blocks=stream_blocks)
    trace = PackedTrace(num_cores)
    wshift = _block_shift(block_bytes) + 1
    for core in range(num_cores):
        crng = rng.spawn(core)
        stream = SequentialStream(stream_blocks)
        base = _private_base(core)
        emit = trace.streams[core].append
        for _ in range(ops_per_core):
            emit((base + stream.next()) << wshift | (crng.random() < write_frac))
    return trace


def uniform_mix(
    num_cores: int,
    ops_per_core: int,
    rng: DeterministicRng,
    *,
    private_blocks: int = 256,
    shared_blocks: int = 256,
    shared_frac: float = 0.2,
    shared_write_frac: float = 0.3,
    private_write_frac: float = 0.25,
    block_bytes: int = 64,
) -> PackedTrace:
    """General-purpose mix: private Zipf traffic plus read-write sharing."""
    _check_regions(private_blocks=private_blocks, shared_blocks=shared_blocks)
    trace = PackedTrace(num_cores)
    wshift = _block_shift(block_bytes) + 1
    shared_base = _shared_base(num_cores)
    for core in range(num_cores):
        crng = rng.spawn(core)
        shared = ZipfStream(shared_blocks, crng, 0.8)
        private = ZipfStream(private_blocks, crng.spawn(1), 0.6)
        base = _private_base(core)
        emit = trace.streams[core].append
        for _ in range(ops_per_core):
            if crng.random() < shared_frac:
                emit(
                    (shared_base + shared.next()) << wshift
                    | (crng.random() < shared_write_frac)
                )
            else:
                emit(
                    (base + private.next()) << wshift
                    | (crng.random() < private_write_frac)
                )
    return trace


def false_sharing(
    num_cores: int,
    ops_per_core: int,
    rng: DeterministicRng,
    *,
    hot_blocks: int = 16,
    fs_frac: float = 0.3,
    private_blocks: int = 128,
    block_bytes: int = 64,
) -> PackedTrace:
    """False sharing: cores write *different words* of the same cache lines.

    Each core owns one word slot (core * 8 bytes, wrapped) inside a small
    set of hot blocks.  At block granularity the lines ping-pong in M state
    between writers even though no datum is actually shared — the classic
    pathology.  For the directory these lines are multi-sharer and never
    stash-eligible, so this pattern bounds how much of a workload stashing
    can help.
    """
    if not 0 <= fs_frac <= 1:
        raise ConfigError("fs_frac must be in [0, 1]")
    _check_regions(hot_blocks=hot_blocks, private_blocks=private_blocks)
    trace = PackedTrace(num_cores)
    shift = _block_shift(block_bytes)
    wshift = shift + 1
    hot_base = _shared_base(num_cores)
    words_per_block = max(1, block_bytes // 8)
    for core in range(num_cores):
        crng = rng.spawn(core)
        hot = ZipfStream(hot_blocks, crng, 0.5)
        private = ZipfStream(private_blocks, crng.spawn(1), 0.6)
        base = _private_base(core)
        word_offset = (core % words_per_block) * 8
        emit = trace.streams[core].append
        for _ in range(ops_per_core):
            if crng.random() < fs_frac:
                emit((((hot_base + hot.next()) << shift) + word_offset) << 1 | 1)
            else:
                emit((base + private.next()) << wshift | (crng.random() < 0.2))
    return trace


def lock_contention(
    num_cores: int,
    ops_per_core: int,
    rng: DeterministicRng,
    *,
    num_locks: int = 4,
    guarded_blocks: int = 32,
    lock_frac: float = 0.2,
    spin_reads: int = 4,
    private_blocks: int = 128,
    block_bytes: int = 64,
) -> PackedTrace:
    """Lock contention: spin-read a lock line, write to acquire, touch the
    guarded data, write to release.

    Lock lines migrate read->write between cores (heavily shared, never
    stash-eligible); the guarded data behaves migratory.  Exercises the mix
    of upgrade misses, forwards and invalidations around synchronization.
    """
    if not 0 <= lock_frac <= 1:
        raise ConfigError("lock_frac must be in [0, 1]")
    if spin_reads < 0:
        raise ConfigError("spin_reads must be non-negative")
    _check_regions(
        num_locks=num_locks,
        guarded_blocks=guarded_blocks,
        private_blocks=private_blocks,
    )
    trace = PackedTrace(num_cores)
    wshift = _block_shift(block_bytes) + 1
    lock_base = _shared_base(num_cores, region=0)
    data_base = _shared_base(num_cores, region=1)
    for core in range(num_cores):
        crng = rng.spawn(core)
        private = ZipfStream(private_blocks, crng.spawn(1), 0.6)
        base = _private_base(core)
        stream = trace.streams[core]
        emitted = 0
        while emitted < ops_per_core:
            if crng.random() < lock_frac:
                lock = crng.randint(0, num_locks - 1)
                lock_word = (lock_base + lock) << wshift
                budget = ops_per_core - emitted
                # Spin (reads), acquire (write), critical section, release.
                data = (data_base + lock * (guarded_blocks // max(1, num_locks))
                        + crng.randint(0, max(0, guarded_blocks // max(1, num_locks) - 1)))
                data_word = data << wshift
                section = [lock_word] * spin_reads + [
                    lock_word | 1, data_word, data_word | 1, lock_word | 1,
                ]
                section = section[:budget]
                stream.extend(section)
                emitted += len(section)
            else:
                stream.append((base + private.next()) << wshift | (crng.random() < 0.2))
                emitted += 1
    return trace


def phased(
    num_cores: int,
    ops_per_core: int,
    rng: DeterministicRng,
    *,
    compute_blocks: int = 192,
    exchange_blocks: int = 64,
    compute_len: int = 64,
    exchange_len: int = 16,
    block_bytes: int = 64,
) -> PackedTrace:
    """Bulk-synchronous phase behaviour: compute on private data, then
    exchange through a shared region, repeat.

    Built on :class:`~repro.workloads.synthetic.PhasedStream`.  During
    compute phases the directory sees pure private traffic (stash heaven);
    each exchange phase makes a burst of blocks briefly shared, churning
    entries between private and shared states — the phase boundaries are
    where eviction policy choices matter most.
    """
    if compute_len < 1 or exchange_len < 1:
        raise ConfigError("phase lengths must be >= 1")
    _check_regions(compute_blocks=compute_blocks, exchange_blocks=exchange_blocks)
    trace = PackedTrace(num_cores)
    wshift = _block_shift(block_bytes) + 1
    shared_base = _shared_base(num_cores)
    for core in range(num_cores):
        crng = rng.spawn(core)
        compute = ZipfStream(compute_blocks, crng, 0.6)
        exchange = SequentialStream(exchange_blocks)
        stream = PhasedStream(compute, exchange, compute_len, exchange_len)
        base = _private_base(core)
        # Exchange: half the cores write their slice, half read.
        exchange_write = core % 2 == 0
        emit = trace.streams[core].append
        for _ in range(ops_per_core):
            in_compute = stream.in_primary()
            block = stream.next()
            if in_compute:
                emit((base + block) << wshift | (crng.random() < 0.3))
            else:
                emit((shared_base + block) << wshift | exchange_write)
    return trace
