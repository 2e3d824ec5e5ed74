"""Native flat-machine kernel: the vector engine's flat machine in C.

``repro/sim/native.c`` is a port of :class:`repro.sim.vector._FlatMachine`
plus the :class:`~repro.sim.vector.VectorEngine` interleave loop, for the
organizations every headline figure evaluates (sparse, stash, ideal /
in_llc, cuckoo and SCD) under MESI and MOESI, with full-bit-vector sharer
sets of any width.  Its results are bit-identical to the interpreter's:
per-core cycles, the flattened statistics tree and the effective-tracking
samples.  Protocol errors raise the same :class:`ProtocolError`.

The kernel is compiled with the host's C compiler (``$CC``, else ``cc`` or
``gcc``) the first time a native run is requested — never at import — and
loaded with :mod:`ctypes`.  The shared object is cached by content under
``$XDG_CACHE_HOME/repro/native/`` (default ``~/.cache``), named by the
SHA-256 of the source, the compiler flags, the compiler's version and the
platform, and written under a temporary name then renamed, so concurrent
processes never load a half-written file.  The cache holds code only,
never results.

:func:`native_supports` names why a configuration or host cannot run
natively (no compiler, a failed build, a sharer format other than the
full bit vector, or any :func:`~repro.sim.vector.vector_supports` reason);
:func:`repro.sim.simulator.run_trace` then runs the vector engine instead,
and ``result.engine`` records which engine ran.
"""

from __future__ import annotations

import hashlib
import os
import platform
import random
import shutil
import subprocess
import sys
import tempfile
from importlib import resources
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..coherence.tables import L1Tables, l1_tables, noc_tables
from ..common.addr import log2_exact
from ..common.config import (
    DirectoryKind,
    SharerFormat,
    StashEligibility,
    SystemConfig,
)
from ..common.errors import ProtocolError, TraceError
from ..common.mesi import CoherenceProtocol
from ..common.rng import DeterministicRng
from ..directory.cuckoo import DEFAULT_MAX_PATH
from ..directory.hierarchical import DEFAULT_LEAF_SIZE, DEFAULT_POINTERS
from ..noc.traffic import MessageClass, flits_of
from .results import SimulationResult
from .trace import PackedTrace
from .vector import (
    _DIRECTORY_RNG_STREAM,
    FLAT_COUNTERS,
    fold_flat_stats,
    vector_supports,
)

#: The kernel source, shipped as package data next to this module.
SOURCE = "native.c"

#: Compiler flags (part of the cache key).  No ``-march=native``: a cached
#: object must run on any host of the same platform.
CFLAGS = ("-O2", "-std=c99", "-shared", "-fPIC")

#: Operations between effective-tracking samples (the other engines'
#: default).
SAMPLE_INTERVAL = 4096

#: Directory organization codes of ``native.c`` (``DK_*``).
_DIR_KIND = {
    DirectoryKind.IDEAL: 0,
    DirectoryKind.IN_LLC: 0,
    DirectoryKind.SPARSE: 1,
    DirectoryKind.STASH: 1,
    DirectoryKind.CUCKOO: 2,
    DirectoryKind.SCD: 3,
}

_FLITS = [flits_of(m) for m in MessageClass]
_N_CLASSES = len(_FLITS)

# Return codes of repro_native_run.
_RC_PROTOCOL = 1
_RC_NOMEM = 2

#: The loaded kernel (``"lib"``) or why it could not be had (``"reason"``),
#: resolved once per process.
_KERNEL: Dict[str, object] = {}


def find_compiler() -> Optional[str]:
    """Path of the C compiler to build with: ``$CC``, else ``cc``/``gcc``."""
    for name in (os.environ.get("CC"), "cc", "gcc"):
        if name:
            path = shutil.which(name)
            if path:
                return path
    return None


def kernel_source() -> bytes:
    """The kernel's C source, read as package data."""
    return resources.files("repro.sim").joinpath(SOURCE).read_bytes()


def cache_dir() -> Path:
    """Where built kernels are kept (``$XDG_CACHE_HOME`` or ``~/.cache``)."""
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return Path(base) / "repro" / "native"


def kernel_digest(compiler: str) -> str:
    """SHA-256 naming the object ``compiler`` builds from the source."""
    version = subprocess.run(
        [compiler, "--version"], capture_output=True, text=True, timeout=60
    ).stdout.strip()
    digest = hashlib.sha256(kernel_source())
    for part in (*CFLAGS, version, sys.platform, platform.machine()):
        digest.update(b"\0" + part.encode())
    return digest.hexdigest()


def _writable_dir(path: Path) -> Optional[Path]:
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError:
        return None
    return path if os.access(path, os.W_OK) else None


def _build(compiler: str, digest: str, target: Path) -> Optional[str]:
    """Compile the kernel to ``target``; ``None`` or why the build failed."""
    tmp = target.with_name(f"{target.name}.{os.getpid()}.tmp")
    command = [
        compiler,
        *CFLAGS,
        f'-DREPRO_NATIVE_HASH="{digest}"',
        "-x",
        "c",
        "-",
        "-o",
        str(tmp),
    ]
    try:
        proc = subprocess.run(
            command, input=kernel_source(), capture_output=True, timeout=300
        )
    except (OSError, subprocess.SubprocessError) as exc:
        return f"native kernel build failed: {exc}"
    if proc.returncode != 0:
        tail = proc.stderr.decode(errors="replace").strip().splitlines()[-3:]
        tmp.unlink(missing_ok=True)
        return f"native kernel build failed: {' / '.join(tail) or proc.returncode}"
    os.replace(tmp, target)
    return None


def _load(path: Path, digest: str):
    import ctypes

    lib = ctypes.CDLL(str(path))
    lib.repro_native_hash.restype = ctypes.c_char_p
    lib.repro_native_hash.argtypes = []
    if lib.repro_native_hash().decode() != digest:
        return None
    lib.repro_native_run.restype = ctypes.c_int
    lib.repro_native_run.argtypes = [ctypes.c_void_p]
    lib.repro_mt_getrandbits.restype = ctypes.c_int
    lib.repro_mt_getrandbits.argtypes = [
        ctypes.c_void_p,
        ctypes.c_int,
        ctypes.c_int64,
        ctypes.c_void_p,
    ]
    return lib


def _resolve_kernel() -> Tuple[object, Optional[str]]:
    compiler = find_compiler()
    if compiler is None:
        return None, "no C compiler found (set $CC or install cc/gcc)"
    try:
        digest = kernel_digest(compiler)
    except (OSError, subprocess.SubprocessError) as exc:
        return None, f"C compiler {compiler} is unusable: {exc}"
    folder = _writable_dir(cache_dir()) or _writable_dir(
        Path(tempfile.gettempdir()) / f"repro-native-{os.getuid()}"
    )
    if folder is None:
        return None, "no writable directory for the native kernel cache"
    target = folder / f"{digest}.so"
    for _ in range(2):
        if not target.exists():
            failure = _build(compiler, digest, target)
            if failure is not None:
                return None, failure
        try:
            lib = _load(target, digest)
        except OSError as exc:
            lib = None
            failure = f"native kernel failed to load: {exc}"
        else:
            failure = f"cached native kernel {target} does not match its name"
        if lib is not None:
            return lib, None
        target.unlink(missing_ok=True)  # damaged cache entry: rebuild once
    return None, failure


def load_kernel():
    """The loaded kernel library, building it on first use; ``None`` if
    this host cannot have one (see :func:`kernel_unavailable`)."""
    if not _KERNEL:
        lib, reason = _resolve_kernel()
        _KERNEL["lib"] = lib
        _KERNEL["reason"] = reason
    return _KERNEL["lib"]


def kernel_unavailable() -> Optional[str]:
    """``None`` when the kernel is loaded (building it if needed), else why
    this host cannot run it."""
    load_kernel()
    return _KERNEL["reason"]


def config_unsupported(config: SystemConfig) -> Optional[str]:
    """Why the kernel's flat model does not cover ``config``, or ``None``.

    Checks the configuration only; :func:`native_supports` adds the host.
    """
    reason = vector_supports(config)
    if reason is not None:
        return reason
    kind = config.directory.kind
    fmt = config.directory.sharer_format
    if kind is not DirectoryKind.SCD and fmt is not SharerFormat.FULL_BIT_VECTOR:
        return f"the native kernel models full bit vectors, not {fmt.value!r} sharers"
    return None


def native_supports(config: SystemConfig) -> Optional[str]:
    """``None`` when the native kernel runs ``config`` exactly, else why not.

    Like :func:`~repro.sim.vector.vector_supports` this refuses rather than
    approximates.  A configuration outside the flat model, or a host whose
    kernel cannot be built or loaded, is a reason; the first call on a
    supported configuration builds (or loads the cached) kernel.
    """
    return config_unsupported(config) or kernel_unavailable()


def mt_getrandbits(state: Tuple[int, ...], k: int, count: int) -> List[int]:
    """``count`` draws of ``getrandbits(k)`` by the kernel's MT19937, from a
    :meth:`random.Random.getstate` word tuple (624 words plus the index)."""
    lib = load_kernel()
    if lib is None:
        raise TraceError(f"native kernel unavailable: {kernel_unavailable()}")
    if len(state) != 625:
        raise TraceError(f"a getstate() word tuple has 625 words, not {len(state)}")
    words = np.asarray(state, dtype=np.uint32)
    out = np.zeros(count, dtype=np.uint32)
    if lib.repro_mt_getrandbits(words.ctypes.data, k, count, out.ctypes.data):
        raise TraceError(f"getrandbits({k}) needs 1 <= k <= 32 and a valid state")
    return out.tolist()


_NOC_CACHE: Dict[object, Tuple[np.ndarray, np.ndarray, int]] = {}


def _noc_arrays(config: SystemConfig) -> Tuple[np.ndarray, np.ndarray, int]:
    """The mesh hop/latency tables as flat int64 arrays, plus the row size
    (built once per mesh: a 1024-core table has a million entries)."""
    got = _NOC_CACHE.get(config.noc)
    if got is None:
        hops, lats = noc_tables(config)
        got = _NOC_CACHE[config.noc] = (hops.reshape(-1), lats.reshape(-1), len(hops))
    return got


_CONFIG_TYPE = None


def _config_type():
    """The ctypes mirror of ``repro_config`` in ``native.c``."""
    global _CONFIG_TYPE
    if _CONFIG_TYPE is None:
        import ctypes

        i64 = ctypes.c_int64
        ptr = ctypes.c_void_p
        fields = [
            (name, i64)
            for name in (
                "num_cores moesi t_l1 t_dir t_llc t_mem fixed l1_sets l1_ways"
                " llc_sets llc_ways dir_kind dir_entries dir_ways stash_capable"
                " excl_only clean_notice scd_pointers scd_leaf_size"
                " cuckoo_max_path packshift sample_interval trace_cores"
                " noc_stride"
            ).split()
        ]
        fields += [(name, ptr) for name in ("hops", "lats", "flits", "action", "grant")]
        fields += [("action_len", i64)]
        fields += [(name, ptr) for name in ("mt_state", "streams", "lengths")]
        fields += [
            (name, ptr)
            for name in (
                "counters noc l1_fills l1_removals clocks samples".split()
            )
        ]
        fields += [(name, i64) for name in ("samples_cap", "samples_len", "writes")]
        fields += [("error", ptr), ("error_len", i64)]
        _CONFIG_TYPE = type("_Config", (ctypes.Structure,), {"_fields_": fields})
    return _CONFIG_TYPE


class NativeEngine:
    """Runs one PackedTrace on the native kernel.

    ``tables`` injects alternative transition tables (the fuzz differ's
    fault hook).  Construction raises :class:`TraceError` with the reason
    when :func:`native_supports` refuses the configuration.
    """

    def __init__(self, config: SystemConfig, tables: Optional[L1Tables] = None) -> None:
        reason = native_supports(config)
        if reason is not None:
            raise TraceError(f"native engine cannot run this config: {reason}")
        self.config = config
        self.tables = tables if tables is not None else l1_tables(config.protocol)

    def run(self, trace) -> SimulationResult:
        """Execute the whole trace; bit-identical to the interpreter."""
        import ctypes

        config = self.config
        if not isinstance(trace, PackedTrace):
            trace = PackedTrace.from_trace(trace)
        if trace.num_cores > config.num_cores:
            raise TraceError(
                f"trace has {trace.num_cores} cores, system only {config.num_cores}"
            )
        n = config.num_cores
        ncores = trace.num_cores
        timing = config.timing
        dcfg = config.directory
        kind = dcfg.kind
        hops, lats, stride = _noc_arrays(config)
        flits = np.asarray(_FLITS, dtype=np.int64)
        action = np.asarray(self.tables.flat_action(), dtype=np.int64)
        grant = np.asarray(
            [int(v) for v in self.tables.grant_state], dtype=np.int64
        )
        mt_state = np.zeros(625, dtype=np.uint32)
        if kind is DirectoryKind.CUCKOO:
            seed = DeterministicRng(config.seed).spawn(_DIRECTORY_RNG_STREAM).seed
            mt_state[:] = random.Random(seed).getstate()[1]
        for core, stream in enumerate(trace.streams):
            view = memoryview(stream)
            if view.itemsize != 8 or not view.c_contiguous:
                raise TraceError(
                    f"core {core}: packed stream must be contiguous 64-bit words"
                )
        streams = [np.frombuffer(s, dtype=np.uint64) for s in trace.streams]
        lengths = np.asarray([len(s) for s in streams], dtype=np.int64)
        addrs = np.asarray([s.ctypes.data for s in streams], dtype=np.uint64)
        total_ops = int(lengths.sum())
        counters = np.zeros(len(FLAT_COUNTERS), dtype=np.int64)
        noc = np.zeros(3 * _N_CLASSES, dtype=np.int64)
        l1_fills = np.zeros(n, dtype=np.int64)
        l1_removals = np.zeros(n, dtype=np.int64)
        clocks = np.zeros(ncores, dtype=np.int64)
        samples = np.zeros(total_ops // SAMPLE_INTERVAL + 1, dtype=np.int64)
        error = ctypes.create_string_buffer(512)
        cfg = _config_type()(
            num_cores=n,
            moesi=int(config.protocol is CoherenceProtocol.MOESI),
            t_l1=timing.l1_hit,
            t_dir=timing.directory_access,
            t_llc=timing.llc_access,
            t_mem=timing.memory_latency,
            fixed=int(timing.core_fixed_cpi),
            l1_sets=config.l1.sets,
            l1_ways=config.l1.ways,
            llc_sets=config.llc.sets,
            llc_ways=config.llc.ways,
            dir_kind=_DIR_KIND[kind],
            dir_entries=config.directory_entries,
            dir_ways=dcfg.ways,
            stash_capable=int(kind is DirectoryKind.STASH),
            excl_only=int(
                dcfg.stash_eligibility is StashEligibility.EXCLUSIVE_ONLY
            ),
            clean_notice=int(bool(dcfg.clean_eviction_notification)),
            scd_pointers=DEFAULT_POINTERS,
            scd_leaf_size=DEFAULT_LEAF_SIZE,
            cuckoo_max_path=DEFAULT_MAX_PATH,
            packshift=log2_exact(config.block_bytes) + 1,
            sample_interval=SAMPLE_INTERVAL,
            trace_cores=ncores,
            noc_stride=stride,
            hops=hops.ctypes.data,
            lats=lats.ctypes.data,
            flits=flits.ctypes.data,
            action=action.ctypes.data,
            grant=grant.ctypes.data,
            action_len=len(action),
            mt_state=mt_state.ctypes.data,
            streams=addrs.ctypes.data,
            lengths=lengths.ctypes.data,
            counters=counters.ctypes.data,
            noc=noc.ctypes.data,
            l1_fills=l1_fills.ctypes.data,
            l1_removals=l1_removals.ctypes.data,
            clocks=clocks.ctypes.data,
            samples=samples.ctypes.data,
            samples_cap=len(samples),
            error=ctypes.addressof(error),
            error_len=len(error),
        )
        rc = load_kernel().repro_native_run(ctypes.byref(cfg))
        if rc:
            message = error.value.decode(errors="replace")
            if rc == _RC_PROTOCOL:
                raise ProtocolError(message)
            if rc == _RC_NOMEM:
                raise MemoryError(message)
            raise TraceError(message)
        clock_list = clocks.tolist()
        fixed = int(timing.core_fixed_cpi)
        noc_list = noc.tolist()
        stats = fold_flat_stats(
            total_ops,
            cfg.writes,
            sum(clock_list) - fixed * total_ops,
            counters.tolist(),
            l1_fills.tolist(),
            l1_removals.tolist(),
            noc_list[:_N_CLASSES],
            noc_list[_N_CLASSES : 2 * _N_CLASSES],
            noc_list[2 * _N_CLASSES :],
        )
        return SimulationResult(
            config=config,
            cycles_per_core=clock_list,
            stats=stats,
            effective_tracking_samples=samples[: cfg.samples_len].tolist(),
            engine="native",
        )
