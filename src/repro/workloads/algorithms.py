"""Algorithm-derived trace generators.

Where :mod:`repro.workloads.patterns` provides canonical sharing *shapes*,
these generators model the memory behaviour of four concrete parallel
algorithms (ROADMAP item 3): louvain-style graph clustering, tiled dense
matrix multiply, a segmented prime sieve, and union-find image
segmentation.  Each emits the directory-relevant footprint of the real
algorithm — region roles, read/write mix, migration and phase structure —
while staying deterministic under ``(seed, num_cores, ops_per_core)`` like
every other generator.

Address-space layout reuses the pattern conventions: per-core private
regions from :func:`~repro.workloads.patterns._private_base`, shared
regions from :func:`~repro.workloads.patterns._shared_base`, block
addresses via the validated ``block_bytes`` shift, packed words
``(addr << 1) | is_write`` appended straight into per-core streams.
"""

from __future__ import annotations

from ..common.addr import stride_hash
from ..common.errors import ConfigError
from ..common.rng import DeterministicRng
from ..sim.trace import PackedTrace
from .patterns import _block_shift, _check_regions, _private_base, _shared_base
from .synthetic import SequentialStream, ZipfStream


def _check_frac(name: str, value: float) -> None:
    if not 0 <= value <= 1:
        raise ConfigError(f"{name} must be in [0, 1]")


def graph_clustering(
    num_cores: int,
    ops_per_core: int,
    rng: DeterministicRng,
    *,
    frontier_blocks: int = 512,
    label_blocks: int = 192,
    private_blocks: int = 128,
    frontier_frac: float = 0.45,
    label_frac: float = 0.2,
    block_bytes: int = 64,
) -> PackedTrace:
    """Louvain-style graph clustering (modularity optimization).

    Three region roles:

    * **frontier** — the adjacency/frontier structure every worker scans
      while evaluating candidate moves.  Read-mostly and widely shared
      (never stash-eligible, zero invalidation traffic).
    * **community labels** — the per-community label/weight words a move
      commits to.  Each touch is a read-modify-write pair, so label blocks
      migrate core to core exactly like lock-free reduction variables.
    * **private accumulators** — each worker's own delta-modularity
      scratch, written about half the time.

    The blend of a large read-shared region with a migratory hot set is
    what distinguishes clustering from the pure patterns.
    """
    _check_frac("frontier_frac", frontier_frac)
    _check_frac("label_frac", label_frac)
    if frontier_frac + label_frac > 1:
        raise ConfigError("frontier_frac + label_frac must be <= 1")
    _check_regions(
        frontier_blocks=frontier_blocks,
        label_blocks=label_blocks,
        private_blocks=private_blocks,
    )
    trace = PackedTrace(num_cores)
    wshift = _block_shift(block_bytes) + 1
    frontier_base = _shared_base(num_cores, region=0)
    label_base = _shared_base(num_cores, region=1)
    for core in range(num_cores):
        crng = rng.spawn(core)
        frontier = ZipfStream(frontier_blocks, crng, 0.7)
        labels = ZipfStream(label_blocks, crng.spawn(1), 0.6)
        private = ZipfStream(private_blocks, crng.spawn(2), 0.6)
        base = _private_base(core)
        emit = trace.streams[core].append
        emitted = 0
        while emitted < ops_per_core:
            draw = crng.random()
            if draw < frontier_frac:
                # Neighbour-list scan: pure reads of the shared graph.
                emit((frontier_base + frontier.next()) << wshift)
                emitted += 1
            elif draw < frontier_frac + label_frac:
                # Commit a move: read the community label, write it back.
                word = (label_base + labels.next()) << wshift
                emit(word)
                emitted += 1
                if emitted < ops_per_core:
                    emit(word | 1)
                    emitted += 1
            else:
                emit((base + private.next()) << wshift | (crng.random() < 0.5))
                emitted += 1
    return trace


def tiled_matmul(
    num_cores: int,
    ops_per_core: int,
    rng: DeterministicRng,
    *,
    tile_blocks: int = 32,
    panel_blocks: int = 256,
    phase_len: int = 48,
    panel_frac: float = 0.35,
    block_bytes: int = 64,
) -> PackedTrace:
    """Tiled dense matrix multiply with a systolic tile rotation.

    Each phase, core ``k`` produces its output tile (sequential writes to
    its own shared tile region) while consuming the tile core ``k-1``
    produced last phase (sequential reads) and streaming a read-shared
    input panel.  A phase barrier — one shared line every core
    read-modify-writes at the boundary — separates phases, so tile regions
    flip producer/consumer roles in lockstep: classic neighbour handoff
    with bulk-synchronous structure.
    """
    _check_frac("panel_frac", panel_frac)
    if phase_len < 2:
        raise ConfigError("phase_len must be >= 2")
    _check_regions(tile_blocks=tile_blocks, panel_blocks=panel_blocks)
    trace = PackedTrace(num_cores)
    wshift = _block_shift(block_bytes) + 1
    panel_base = _shared_base(num_cores, region=0)
    barrier_word = _shared_base(num_cores, region=1) << wshift
    # One tile region per core, after the panel/barrier regions.
    tile_base = [
        _shared_base(num_cores, region=2 + core) for core in range(num_cores)
    ]
    for core in range(num_cores):
        crng = rng.spawn(core)
        panel = ZipfStream(panel_blocks, crng, 0.5)
        produce = SequentialStream(tile_blocks)
        consume = SequentialStream(tile_blocks)
        own = tile_base[core]
        neighbour = tile_base[(core - 1) % num_cores]
        emit = trace.streams[core].append
        emitted = 0
        while emitted < ops_per_core:
            budget = min(phase_len, ops_per_core - emitted)
            # Compute phase: interleave panel reads, consume reads of the
            # neighbour's last tile, produce writes of our own tile.
            for pos in range(budget - 2 if budget > 2 else budget):
                draw = crng.random()
                if draw < panel_frac:
                    emit((panel_base + panel.next()) << wshift)
                elif draw < panel_frac + (1 - panel_frac) / 2:
                    emit((neighbour + consume.next()) << wshift)
                else:
                    emit((own + produce.next()) << wshift | 1)
                emitted += 1
            # Barrier: read the counter, then write the arrival.
            if budget > 2:
                emit(barrier_word)
                emit(barrier_word | 1)
                emitted += 2
    return trace


def prime_sieve(
    num_cores: int,
    ops_per_core: int,
    rng: DeterministicRng,
    *,
    bitmap_blocks: int = 2048,
    base_prime_blocks: int = 32,
    read_frac: float = 0.15,
    block_bytes: int = 64,
) -> PackedTrace:
    """Segmented sieve of Eratosthenes over a shared bitmap.

    Core ``k`` crosses off multiples of the ``k``-th odd prime: strided
    writes that sweep the shared composite bitmap.  Between write bursts
    every core re-reads the (read-only) base-prime table.  The bitmap is
    write-dominated and striped across cores — high write fraction with
    wide, low-reuse sharing, the opposite corner of the design space from
    read-mostly frontiers.
    """
    _check_frac("read_frac", read_frac)
    if bitmap_blocks < 2:
        raise ConfigError("bitmap_blocks must be >= 2")
    _check_regions(bitmap_blocks=bitmap_blocks, base_prime_blocks=base_prime_blocks)
    trace = PackedTrace(num_cores)
    wshift = _block_shift(block_bytes) + 1
    bitmap_base = _shared_base(num_cores, region=0)
    table_base = _shared_base(num_cores, region=1)
    primes = _odd_primes(num_cores)
    for core in range(num_cores):
        crng = rng.spawn(core)
        table = SequentialStream(base_prime_blocks)
        stride = primes[core]
        # Start each core's sweep at its prime (the first composite it
        # owns), like the real segmented sieve.
        pos = stride % bitmap_blocks
        emit = trace.streams[core].append
        for _ in range(ops_per_core):
            if crng.random() < read_frac:
                emit((table_base + table.next()) << wshift)
            else:
                emit((bitmap_base + pos) << wshift | 1)
                pos = (pos + stride) % bitmap_blocks
    return trace


def union_find(
    num_cores: int,
    ops_per_core: int,
    rng: DeterministicRng,
    *,
    node_blocks: int = 1024,
    root_blocks: int = 24,
    max_depth: int = 6,
    compress_frac: float = 0.4,
    private_frac: float = 0.3,
    block_bytes: int = 64,
) -> PackedTrace:
    """Union-find image segmentation with path compression.

    Each find operation walks a parent-pointer chain through the shared
    node array (dependent reads — pointer chasing), lands on a root drawn
    from a small hot set, and unions into it with a read-modify-write.
    With probability ``compress_frac`` the walk is compressed: every
    visited node is rewritten to point at the root.  Roots are migratory
    (each union moves ownership); interior nodes are read-shared until a
    compression rewrites them; per-core pixel scratch stays private.
    """
    _check_frac("compress_frac", compress_frac)
    _check_frac("private_frac", private_frac)
    if max_depth < 1:
        raise ConfigError("max_depth must be >= 1")
    if node_blocks < max_depth:
        raise ConfigError("node_blocks must be >= max_depth")
    _check_regions(node_blocks=node_blocks, root_blocks=root_blocks)
    trace = PackedTrace(num_cores)
    wshift = _block_shift(block_bytes) + 1
    node_base = _shared_base(num_cores, region=0)
    root_base = _shared_base(num_cores, region=1)
    for core in range(num_cores):
        crng = rng.spawn(core)
        leaves = ZipfStream(node_blocks, crng, 0.4)
        roots = ZipfStream(root_blocks, crng.spawn(1), 0.7)
        private = ZipfStream(128, crng.spawn(2), 0.6)
        base = _private_base(core)
        emit = trace.streams[core].append
        emitted = 0
        while emitted < ops_per_core:
            if crng.random() < private_frac:
                emit((base + private.next()) << wshift | (crng.random() < 0.3))
                emitted += 1
                continue
            # Find: chase parent pointers from a leaf.  The chain is a
            # deterministic function of the node (hash step), so distinct
            # cores racing on the same component walk the same blocks.
            depth = crng.randint(1, max_depth)
            node = leaves.next()
            path = []
            budget = ops_per_core - emitted
            for _ in range(min(depth, budget)):
                path.append(node)
                emit((node_base + node) << wshift)
                emitted += 1
                node = stride_hash(node, 0x5EED) % node_blocks
            # Union at the root: read it, write the merged rank/parent.
            root_word = (root_base + roots.next()) << wshift
            for is_write in (0, 1):
                if emitted >= ops_per_core:
                    break
                emit(root_word | is_write)
                emitted += 1
            # Path compression: rewrite the walked nodes to the root.
            if crng.random() < compress_frac:
                for node in path:
                    if emitted >= ops_per_core:
                        break
                    emit((node_base + node) << wshift | 1)
                    emitted += 1
    return trace


def _odd_primes(count: int) -> list:
    """The first ``count`` odd primes (sieve strides, one per core)."""
    primes = []
    candidate = 3
    while len(primes) < count:
        if all(candidate % p for p in primes):
            primes.append(candidate)
        candidate += 2
    return primes
