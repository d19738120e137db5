"""Numerical primitives shared by all suites.

Everything here is a pure function over numpy arrays (or ProfileSets,
which are thin wrappers around them): exact nearest-neighbour scans,
the one-tailed KS statistic, RBF MMD, KL divergence, per-profile
autocorrelation, peak masking, per-slot statistics and 2-d PCA.

The three pairwise-distance consumers (the exact nearest-neighbour scan,
the median-heuristic bandwidth and the RBF MMD kernel sums) read squared
distances in blocks of rows. A block is at most ``_BLOCK_ROWS`` rows of
the wider operand and at most ``_BLOCK_ENTRIES`` values, so their memory
does not grow with the product of the row counts. The median bandwidth
stays exact. A seeded sample of M uniform random pairs i != j proposes
a window of values around the median (Floyd and Rivest, CACM 1975); its
quantiles 0.5 +- 3 / sqrt(M) are six of its rank errors (0.5 / sqrt(M),
whatever the rows' structure) from the median, fewer once the sample
reaches 3M pairs and the window's buffer binds. One sweep over all pairs
counts the values below the window and keeps those inside it, and the
exact count decides whether the middle rank(s) lie inside. If they do
not, two-pass bucket selection finds them.

The median's sweeps and the three kernel sums run on ``_WORKERS``
threads, two when the process may run on two CPUs: the calling thread
and one helper take alternate blocks of one fixed block schedule (numpy
releases the interpreter lock in the matrix products and large ufunc
loops). One and two workers give the same bits: the schedule, and so
every matrix product, does not depend on the worker count; counts are
integer sums; the median's window is sorted before use; and the kernel
sums combine their per-block sums with the exactly rounded
``math.fsum`` (Shewchuk, DCG 1997). Each worker computes its blocks in
one block buffer, so two workers hold about the memory that one worker's
two buffers held. The nearest-neighbour scan stays on the calling
thread.

``run_together`` is the one place synthmeter starts a thread: the sweeps'
helpers and the fidelity suite's mixture fit run through it. Each helper
runs in a copy of the caller's ``contextvars`` context, so on NumPy 2,
where ``np.errstate`` is a context variable, the caller's floating-point
error settings hold on the helpers too, and one and two workers raise
alike.

The last bits of a matrix product also depend on the BLAS thread count.
``one_blas_thread`` holds NumPy's bundled OpenBLAS to one thread for the
span of a call; synthmeter's entry points (``report.run_full_evaluation``,
``demo.build_demo_workspace`` and ``cli.main``) run under it.
"""

from __future__ import annotations

import contextvars
import ctypes
import functools
import math
import os
import threading
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .errors import (
    DegenerateInput,
    HorizonMismatch,
    InsufficientSamples,
    LagTooLarge,
    RankDeficient,
    ZeroMass,
)
from .profiles import ProfileSet

#: sentinel bandwidth: use the median pairwise distance of the pooled sample
MEDIAN_HEURISTIC = "median"
KS_MIN_SAMPLE = 5  # fewest samples per side the one-tailed KS test accepts

# a block of squared distances is at most 50 rows (400 kB per 1,000
# columns) and at most 2M float64 (16 MB). Larger blocks run no faster;
# blocks of fewer rows need more matrix products, and each one re-packs the
# whole right operand (fixed 2^18-entry blocks, 6 rows at 20k rows per
# side, made the bandwidth there 16-29 % slower). Every sweep, on any
# number of workers, cuts its blocks by these caps: the last bits of a few
# distances depend on the block shape that BLAS sees (half-height blocks
# of 25 rows changed 3,561 of the 12.5M pair distances of 5,000 rows), so
# the blocks must not follow the worker count. Each worker computes a block
# in one buffer, so two workers hold two such buffers (8 MB at 10,000
# columns)
_BLOCK_ROWS = 50
_BLOCK_ENTRIES = 2_000_000

# the norm sums |a_i|^2 + |b_j|^2 are added to a block this many rows at a
# time, from a buffer a tenth the size of a 50-row block; one row at a time
# made the median and MMD sweeps slower
_SUM_ROWS = 5

# two workers when the process may run on two CPUs (platforms without an
# affinity mask get one)
_WORKERS = 2 if hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) >= 2 else 1


def _openblas_threads():
    """The thread-count getter and setter of the OpenBLAS bundled with
    NumPy's wheel (``numpy.libs/libscipy_openblas*``), or None for any
    other BLAS build."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas*")):
        try:
            lib = ctypes.CDLL(str(path))  # the copy NumPy loaded, not a second one
        except OSError:
            continue
        for suffix in ("64_", ""):  # the 64-bit-integer and the 32-bit builds
            get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
            set_ = getattr(lib, f"scipy_openblas_set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.restype, set_.argtypes = ctypes.c_int, [ctypes.c_int]
                return get, set_
    return None


_BLAS_THREADS = _openblas_threads()


def one_blas_thread(fn):
    """Run ``fn`` with BLAS held to one thread, and give the caller back its
    own thread count when ``fn`` returns or raises (nested calls included).

    The last bits of a matrix product depend on the BLAS thread count, and
    the kernel sums and the fidelity fit already use both cores. With no
    known OpenBLAS, ``fn`` is returned unchanged.
    """
    if _BLAS_THREADS is None:
        return fn
    get, set_ = _BLAS_THREADS

    @functools.wraps(fn)
    def pinned(*args, **kwargs):
        before = get()
        set_(1)
        try:
            return fn(*args, **kwargs)
        finally:
            set_(before)

    return pinned


# a clamped squared distance is a float64 >= +0, so its bit pattern read as
# int64 sorts like the value; dropping the low 44 bits keeps the exponent and
# 8 mantissa bits, i.e. 256 order-preserving buckets per binade
_BUCKET_SHIFT = 44
_N_BUCKETS = 1 << (63 - _BUCKET_SHIFT)

# the median's window spans the quantiles 0.5 +- h of a sample of 2^18 to 3M
# pairs (4,096 at a time), h <= 3 % and six rank errors unless its buffer (1.2
# times the values it should catch, at most 3M values or 24 MB) binds first
_SAMPLE_PAIRS = 1 << 18
_MAX_SAMPLE_PAIRS = 3_000_000
_SAMPLE_CHUNK = 4096
_MAX_WINDOW_RANK = 0.03
_WINDOW_SLACK = 1.2
_WINDOW_CAPACITY = 3_000_000


def _as_matrix(data) -> np.ndarray:
    if isinstance(data, ProfileSet):
        return data.values
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[:, None]
    return arr


class _Distances:
    """Clamped squared Euclidean distances of the rows of ``a`` against the
    rows of ``b``, or of the pairs (i, j > i) of ``a`` when ``b`` is None,
    one block of rows of ``a`` at a time.

    Every value is max(|a_i|^2 + |b_j|^2 - 2 a_i.b_j, 0), evaluated in the
    same order as the dense matrix expression. ``schedule`` lists the blocks
    as runs [start, stop) of rows, in order: each at most ``_BLOCK_ROWS`` rows
    and at most ``_BLOCK_ENTRIES`` values (one row at least), where for pairs
    only the columns from a run's first row onward are computed. The row
    norms are made once, so blocks made on different threads share them;
    each block is written into buffers its caller owns.
    """

    def __init__(self, a: np.ndarray, b: np.ndarray | None):
        self.a = a
        self.a_sq = np.einsum("ij,ij->i", a, a)
        self.pairs = b is None
        if self.pairs:
            b, self.b_sq = a, self.a_sq
        else:
            self.b_sq = np.einsum("ij,ij->i", b, b)
        self.b = b
        self.schedule, start = [], 0
        while start < len(a):
            cols = len(b) - (start if self.pairs else 0)
            stop = start + min(len(a) - start, max(1, min(_BLOCK_ROWS, _BLOCK_ENTRIES // cols)))
            self.schedule.append((start, stop))
            start = stop
        self.size = min(len(a) * len(b), max(min(_BLOCK_ROWS * len(b), _BLOCK_ENTRIES), len(b)))

    def buffers(self) -> tuple[np.ndarray, np.ndarray]:
        """A buffer that any block of the schedule fits, and one for up to
        ``_SUM_ROWS`` rows of norm sums."""
        return np.empty(self.size), np.empty(min(self.size, _SUM_ROWS * len(self.b)))

    def block(self, start: int, stop: int, buffers: tuple) -> np.ndarray:
        """The distances of rows [start, stop) of ``a``, written into
        ``buffers``: the 2-d block against every row of ``b``, or for pairs
        the 1-d array of (i, j > i) for those rows i. The block is valid
        until the buffers are reused, and its consumer may overwrite it."""
        d2_buffer, sum_buffer = buffers
        first_col = start if self.pairs else 0
        rows, cols = stop - start, len(self.b) - first_col
        d2 = d2_buffer[: rows * cols].reshape(rows, cols)
        np.matmul(self.a[start:stop], self.b[first_col:].T, out=d2)
        d2 *= -2.0
        # the norm sums are rounded first, as in the dense expression; adding
        # the product to them or them to the product rounds alike
        step = len(sum_buffer) // cols
        for lo in range(0, rows, step):
            hi = min(rows, lo + step)
            sums = sum_buffer[: (hi - lo) * cols].reshape(hi - lo, cols)
            np.add(self.a_sq[start + lo : start + hi, None], self.b_sq[None, first_col:], out=sums)
            d2[lo:hi] += sums
        np.maximum(d2, 0.0, out=d2)
        if not self.pairs:
            return d2
        # pack each row's j > i tail to the front of the buffer; a tail only
        # moves towards the front, never over a row still to be read, and
        # numpy copies overlapping 1-d runs of one buffer correctly
        end = 0
        for k, row in enumerate(d2):
            tail = row[k + 1 :]
            d2_buffer[end : end + len(tail)] = tail
            end += len(tail)
        return d2_buffer[:end]


def run_together(calls: list) -> list:
    """Call each of ``calls`` (functions of no argument) at once; return
    their results in call order.

    ``calls[0]`` runs on the calling thread, each other call on a daemon
    helper thread started before it, in a copy of the caller's context (so
    the caller's ``np.errstate`` holds there too). Every helper is joined,
    however the calls end; then the first exception in call order is
    raised, on the calling thread.
    """
    results, errors = [None] * len(calls), [None] * len(calls)

    def run(i: int) -> None:
        try:
            results[i] = calls[i]()
        except BaseException as exc:  # raised again below, on the calling thread
            errors[i] = exc

    helpers = [
        threading.Thread(target=contextvars.copy_context().run, args=(run, i), daemon=True)
        for i in range(1, len(calls))
    ]
    for helper in helpers:
        helper.start()
    run(0)
    for helper in helpers:
        helper.join()
    for error in errors:
        if error is not None:
            raise error
    return results


def _sweep(consume, a: np.ndarray, b: np.ndarray | None = None) -> None:
    """Call ``consume`` on every block of squared distances, on ``_WORKERS`` threads.

    The blocks are those of ``_Distances(a, b).schedule``, whatever the
    worker count. Worker w (the calling thread is worker 0, the others are
    ``run_together``'s helpers) takes blocks w, w + _WORKERS, ... into its
    own buffers; a schedule of fewer blocks starts fewer workers. The norms
    and every buffer are made here, on the calling thread, before any helper
    starts. ``consume`` may overwrite the block, runs on every worker at
    once, and must give the same result in any block order. The first
    exception raised in any worker stops every worker at its next block;
    once all have stopped, the first in worker order is raised here.
    """
    distances = _Distances(a, b)
    # no worker without a block
    workers = max(1, min(_WORKERS, len(distances.schedule)))
    buffers = [distances.buffers() for _ in range(workers)]
    stop = threading.Event()

    def work(worker: int) -> None:
        try:
            for start, end in distances.schedule[worker::workers]:
                if stop.is_set():
                    return
                consume(distances.block(start, end, buffers[worker]))
        except BaseException:
            stop.set()
            raise

    run_together([functools.partial(work, w) for w in range(workers)])


@dataclass
class NearestNeighborResult:
    """Per-query-row minimum Euclidean distance into the reference set."""

    nn_distance: np.ndarray
    nn_index: np.ndarray


def nearest_neighbor_distances(query, reference) -> NearestNeighborResult:
    """Exact nearest-neighbour Euclidean distances, query rows vs reference rows.

    Matches a row-by-row brute-force scan bit for bit: a fast inner-product
    pass shortlists candidates per row, then distances are recomputed with
    the plain difference formula and the first index attaining the minimum
    wins, exactly as in the naive scan.
    """
    q = _as_matrix(query)
    r = _as_matrix(reference)
    if q.size == 0 or r.size == 0:
        raise DegenerateInput("empty input set")
    if q.shape[1] != r.shape[1]:
        raise HorizonMismatch(f"dimension mismatch: {q.shape[1]} vs {r.shape[1]}")

    # the per-row loop holds the interpreter lock, so the scan walks the
    # blocks on the calling thread, every block in one set of buffers
    distances = _Distances(q, r)
    buffers = distances.buffers()
    out_d = np.empty(len(q))
    out_i = np.empty(len(q), dtype=np.int64)
    # margin bounds the rounding gap between the inner-product expansion and
    # the exact difference formula, so no true minimum escapes the shortlist
    margin = 1e-8 * (distances.a_sq + distances.b_sq.max() + 1.0)
    for start, stop in distances.schedule:
        d2 = distances.block(start, stop, buffers)
        limit = d2.min(axis=1) + margin[start:stop]
        for k in range(len(d2)):
            cand = np.flatnonzero(d2[k] <= limit[k])
            exact = ((q[start + k] - r[cand]) ** 2).sum(axis=1)
            j = int(exact.argmin())
            out_i[start + k] = cand[j]
            out_d[start + k] = np.sqrt(exact[j])
    return NearestNeighborResult(nn_distance=out_d, nn_index=out_i)


@dataclass
class KsResult:
    statistic: float
    p_value: float
    m: int
    n: int

    def as_dict(self) -> dict:
        return asdict(self)


def ks_one_tailed(distances_to_train, distances_to_holdout) -> KsResult:
    """One-sided two-sample KS: D+ of (train-distance CDF - holdout-distance CDF).

    A large statistic (small p) means synthetic rows sit closer to the
    training set than to the holdout set, i.e. memorisation evidence.
    Both CDFs reach 1 at the largest pooled value, so D+ >= 0 and the
    one-sided asymptotic p-value exp(-2 d^2 m n / (m + n)) lies in [0, 1].
    """
    a = np.asarray(distances_to_train, dtype=np.float64).ravel()
    b = np.asarray(distances_to_holdout, dtype=np.float64).ravel()
    m, n = len(a), len(b)
    if min(m, n) < KS_MIN_SAMPLE:
        raise InsufficientSamples(f"need at least {KS_MIN_SAMPLE} samples per side, got {m} and {n}")
    a_sorted = np.sort(a)
    b_sorted = np.sort(b)
    pooled = np.concatenate([a_sorted, b_sorted])
    cdf_a = np.searchsorted(a_sorted, pooled, side="right") / m
    cdf_b = np.searchsorted(b_sorted, pooled, side="right") / n
    statistic = float(np.max(cdf_a - cdf_b))
    p = float(np.exp(-2.0 * statistic * statistic * m * n / (m + n)))
    return KsResult(statistic=statistic, p_value=p, m=m, n=n)


@dataclass
class MmdResult:
    mmd2: float
    bandwidth: float


def median_heuristic_bandwidth(x, y) -> float:
    """Exact median of the pairwise Euclidean distances over the pooled rows,
    as the expansion |a|^2 + |b|^2 - 2 a.b computes them; 1.0 if it is zero.
    That expansion leaves rounding residue on some equal pairs, so identical
    rows give a tiny positive median, not 1.0 (about 8.4e-08 for 500 rows of
    0.3 in 48 columns per side).

    Selects the value ``np.median`` returns over the distances of all pairs
    i < j, without holding them. A seeded random sample of pairs proposes a
    window around the median that keeps no zero; one sweep over the blocked
    squared distances of all pairs counts those below it and keeps those
    inside. When the exact count puts the middle rank(s) inside, or among
    the zeros below it, the median is read off the sorted kept values (a
    zero median reads 1.0). Otherwise (a misplaced or overfull window)
    pass 1 counts every value per order-preserving bucket, and the zeros,
    and pass 2 (unless both middle ranks are zeros) keeps the nonzero values
    of the bucket(s) holding them. The result never depends on the sample.
    Memory is bounded by the block size plus the sample, the window buffer
    or those kept values (on ties at a nonzero median, a share of the pairs).
    """
    pooled = np.vstack([_as_matrix(x), _as_matrix(y)])
    n_pairs = len(pooled) * (len(pooled) - 1) // 2
    if n_pairs == 0:
        return 1.0
    lo_rank, hi_rank = (n_pairs - 1) // 2, n_pairs // 2
    window = _sample_window(pooled, n_pairs)
    kept = _keep_window(pooled, *window)
    # below a window that starts at bit 0 or 1 lie only zeros
    if kept is None or not ((window[0] <= 1 or kept[0] <= lo_rank) and hi_rank < kept[0] + len(kept[1])):
        window = _bucket_window(pooled, lo_rank, hi_rank)
        if window is None:  # both middle values are zero
            return 1.0
        kept = _keep_window(pooled, *window)
    below, middle = kept
    if hi_rank < below:  # zeros below the window hold both middle ranks
        return 1.0
    middle.sort()
    # the median of the one or two middle values, computed as np.median does;
    # a lower one below the window is a zero the window left out
    values = middle[max(lo_rank - below, 0) : hi_rank - below + 1]
    median = float(np.median(np.sqrt(np.r_[0.0, values] if lo_rank < below else values)))
    return median if median > 0.0 else 1.0


def _window_plan(n_pairs: int) -> tuple[int, float, int]:
    """The pairs M to sample, the window's half-width h in rank quantiles and the
    values it may keep; (n_pairs, 0.5, n_pairs), every value, where M reaches n_pairs."""
    h_cap = min(_MAX_WINDOW_RANK, _WINDOW_CAPACITY / (2.0 * _WINDOW_SLACK * n_pairs))
    m = min(_MAX_SAMPLE_PAIRS, max(_SAMPLE_PAIRS, math.ceil((3.0 / h_cap) ** 2)))
    if m >= n_pairs:
        return n_pairs, 0.5, n_pairs
    h = min(h_cap, 3.0 / math.sqrt(m))
    return m, h, min(_WINDOW_CAPACITY, math.ceil(2.0 * _WINDOW_SLACK * h * n_pairs))


def _sample_distances(pooled: np.ndarray, m: int) -> np.ndarray:
    """Squared distances of ``m`` seeded uniform random pairs of rows i, j = (i + U[1, n - 1]) mod n."""
    n, rng = len(pooled), np.random.default_rng(0)
    values = np.empty(m)
    for start in range(0, m, _SAMPLE_CHUNK):
        size = min(_SAMPLE_CHUNK, m - start)
        i = rng.integers(0, n, size=size, dtype=np.int32)
        j = (i + rng.integers(1, n, size=size, dtype=np.int32)) % n
        diff = pooled[i]
        diff -= pooled[j]
        np.einsum("ij,ij->i", diff, diff, out=values[start : start + size])
    return values


def _sample_window(pooled: np.ndarray, n_pairs: int) -> tuple[int, int, int]:
    """Squared-distance bits [lo, hi) likely to hold the middle rank(s), and
    the number of values the window may keep."""
    m, h, capacity = _window_plan(n_pairs)
    if m == n_pairs:
        return 0, 1 << 63, capacity  # every clamped squared distance has bits in [0, 2^63)
    bits = _sample_distances(pooled, m).view(np.int64)
    lo, hi = int((0.5 - h) * (m - 1)), math.ceil((0.5 + h) * (m - 1))
    bits.partition([lo, hi])
    start = max(int(bits[lo]), 1)  # zeros are counted below the window, not kept
    return start, max(int(bits[hi]), start), capacity


def _bucket_window(pooled: np.ndarray, lo_rank: int, hi_rank: int) -> tuple[int, int, int] | None:
    """The bits [lo, hi) of the bucket(s) holding ranks lo_rank and hi_rank,
    less the zeros, and the exact number of values in them (one sweep); None
    when both ranks fall among the zeros, which count in a bucket of their own."""
    counts = np.zeros(_N_BUCKETS + 1, dtype=np.int64)
    lock = threading.Lock()

    def count(d2: np.ndarray) -> None:
        bits = d2.view(np.int64)
        nonzero = bits != 0
        np.right_shift(bits, _BUCKET_SHIFT, out=bits)
        block = np.bincount(np.add(bits, nonzero, out=bits), minlength=_N_BUCKETS + 1)
        with lock:
            np.add(counts, block, out=counts)

    _sweep(count, pooled)
    lo_bucket, hi_bucket = np.searchsorted(np.cumsum(counts), [lo_rank, hi_rank], side="right")
    if hi_bucket == 0:
        return None
    first = max(int(lo_bucket), 1)
    kept = int(counts[first : hi_bucket + 1].sum())
    return max((first - 1) << _BUCKET_SHIFT, 1), int(hi_bucket) << _BUCKET_SHIFT, kept


class _WindowFull(Exception):
    """More values lie in a median window than its buffer holds."""


def _keep_window(
    pooled: np.ndarray, lo: int, hi: int, capacity: int
) -> tuple[int, np.ndarray] | None:
    """One sweep: the number of pair squared distances whose bits are below
    ``lo``, and the values whose bits lie in [lo, hi), unsorted. None when
    more than ``capacity`` values lie in the window.

    The workers share one buffer and reserve each block's slots in it under
    a lock, so the values land in no fixed order; the first reservation
    that would overflow the buffer stops every worker.
    """
    kept = np.empty(capacity, dtype=np.int64)
    lock = threading.Lock()
    below = end = 0

    def keep(d2: np.ndarray) -> None:
        nonlocal below, end
        # shifted by lo, bits below the window turn negative and bits inside
        # it, read as unsigned, fall under the window's width
        bits = np.subtract(d2.view(np.int64), lo, out=d2.view(np.int64))
        n_below = np.count_nonzero(bits < 0)
        inside = bits.view(np.uint64) < hi - lo
        count = np.count_nonzero(inside)
        with lock:
            first = end
            if first + count > capacity:
                raise _WindowFull
            below, end = below + n_below, first + count
        np.compress(inside, bits, out=kept[first : first + count])

    try:
        _sweep(keep, pooled)
    except _WindowFull:
        return None
    kept = kept[:end]
    kept += lo
    return below, kept.view(np.float64)


def _kernel_sum(scale: float, a: np.ndarray, b: np.ndarray | None = None) -> float:
    """Sum of exp(d2 / scale) over the squared distances of ``a`` against
    ``b``, or of the pairs (i, j > i) of ``a``.

    The blocks are those of the serial schedule, so each per-block sum is
    the serial one bit for bit, and ``math.fsum`` is exactly rounded, so the
    total does not depend on the order in which the workers add them.
    """
    totals = []

    def add(d2: np.ndarray) -> None:
        d2 /= scale
        totals.append(float(np.exp(d2, out=d2).sum()))

    _sweep(add, a, b)
    return math.fsum(totals)


def usable_bandwidth(sigma: float) -> bool:
    """Whether ``sigma`` is an RBF bandwidth ``mmd2_rbf`` can use: positive, with a finite
    nonzero 2 sigma^2 (about 1.2e-162 to 9.4e153). A 2 sigma^2 that overflows or underflows
    would make every kernel value 1, or NaN where two rows coincide."""
    try:
        scale = 2.0 * sigma * sigma
    except OverflowError:  # an integer beyond the float range
        return False
    return sigma > 0 and 0 < scale < math.inf  # NaN fails every comparison


def mmd2_rbf(x, y, bandwidth: float | str = MEDIAN_HEURISTIC) -> MmdResult:
    """Squared MMD between two row sets under an RBF kernel.

    k(a, b) = exp(-||a - b||^2 / (2 sigma^2)). The estimate is the full
    mean of each within-set kernel matrix minus twice the mean cross
    kernel, so identical inputs cancel up to rounding, and rounding is the
    only source of negative values. The statistic is symmetric in x and y. Kernel values
    are summed block by block and each within-set sum is twice its upper
    triangle plus the unit diagonal, so memory is bounded by the block
    size, not by the product of the row counts.
    """
    a = _as_matrix(x)
    b = _as_matrix(y)
    if len(a) < 2 or len(b) < 2:
        raise DegenerateInput(f"need at least 2 rows per set, got {len(a)} and {len(b)}")
    if a.shape[1] != b.shape[1]:
        raise HorizonMismatch(f"dimension mismatch: {a.shape[1]} vs {b.shape[1]}")
    sigma = median_heuristic_bandwidth(a, b) if bandwidth == MEDIAN_HEURISTIC else float(bandwidth)
    if not usable_bandwidth(sigma):
        raise DegenerateInput(f"bandwidth must be positive with a finite nonzero 2 sigma^2, got {sigma!r}")
    scale = -2.0 * sigma * sigma
    k_xx = (2.0 * _kernel_sum(scale, a) + len(a)) / (len(a) * len(a))
    k_yy = (2.0 * _kernel_sum(scale, b) + len(b)) / (len(b) * len(b))
    k_xy = _kernel_sum(scale, a, b) / (len(a) * len(b))
    return MmdResult(mmd2=k_xx + k_yy - 2.0 * k_xy, bandwidth=sigma)


def kl_divergence(p, q, smoothing: float = 0.0) -> float:
    """KL(p || q) over discrete distributions with optional additive smoothing.

    Smoothing alpha is added to both vectors before renormalising;
    0 * ln(0/q) counts as 0. With no smoothing, q_i = 0 < p_i raises
    ZeroMass.
    """
    p_arr = np.asarray(p, dtype=np.float64).ravel()
    q_arr = np.asarray(q, dtype=np.float64).ravel()
    if p_arr.shape != q_arr.shape:
        raise ValueError("p and q must have the same length")
    if smoothing < 0:
        raise ValueError("smoothing must be non-negative")
    if np.any(p_arr < 0) or np.any(q_arr < 0):
        raise ValueError("probabilities must be non-negative")
    p_s = p_arr + smoothing
    q_s = q_arr + smoothing
    p_total, q_total = p_s.sum(), q_s.sum()
    # NaN fails both comparisons, so a NaN entry is caught here too
    if not (0.0 < p_total < math.inf and 0.0 < q_total < math.inf):
        raise ValueError("inputs do not normalise to probability vectors")
    p_s = p_s / p_total
    q_s = q_s / q_total
    support = p_s > 0
    if np.any(support & (q_s == 0)):
        raise ZeroMass("q has zero mass on the support of p and smoothing is 0")
    return float(np.sum(p_s[support] * np.log(p_s[support] / q_s[support])))


@dataclass
class AcfResult:
    """Per-profile autocorrelations, rows aligned with ``kept_indices``."""

    coefficients: np.ndarray
    kept_indices: np.ndarray
    excluded_zero_variance: int


def acf(profiles, max_lag: int) -> AcfResult:
    """Autocorrelation rho(k) for k = 1..max_lag per profile.

    rho(k) = sum_{t<=L-k} (x_t - xbar)(x_{t+k} - xbar) / sum_t (x_t - xbar)^2,
    the standard estimator normalised by the full-series variance sum.
    Zero-variance profiles are excluded and counted.
    """
    x = _as_matrix(profiles)
    n, length = x.shape
    if not (1 <= max_lag < length):
        raise LagTooLarge(f"max_lag must be in [1, {length - 1}], got {max_lag}")
    centered = x - x.mean(axis=1, keepdims=True)
    denom = (centered * centered).sum(axis=1)
    kept = np.flatnonzero(denom > 0)
    c = centered[kept]
    coeffs = np.empty((len(kept), max_lag))
    for k in range(1, max_lag + 1):
        coeffs[:, k - 1] = (c[:, :-k] * c[:, k:]).sum(axis=1) / denom[kept]
    return AcfResult(
        coefficients=coeffs,
        kept_indices=kept,
        excluded_zero_variance=int(n - len(kept)),
    )


def peak_mask(profiles, n: int) -> np.ndarray:
    """Keep the n largest values of each profile in place, zero the rest.

    Ties at the cutoff go to the earliest slot. Kept values are copied
    bit for bit and never move. n >= the profile length returns the
    profiles unchanged.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    x = _as_matrix(profiles)
    # stable order: value descending, then slot index ascending
    keep = np.argsort(-x, axis=1, kind="stable")[:, :n]
    out = np.zeros_like(x)
    np.put_along_axis(out, keep, np.take_along_axis(x, keep, axis=1), axis=1)
    return out


def per_slot_statistics(profiles, quantiles: list[float]) -> np.ndarray:
    """Per-half-hour mean plus requested quantiles.

    Returns a (1 + len(quantiles)) x L matrix: row 0 is the mean, row
    1 + i the i-th quantile (linear interpolation between order
    statistics).
    """
    x = _as_matrix(profiles)
    if x.shape[0] == 0:
        raise DegenerateInput("empty profile set")
    for q in quantiles:
        if not (0.0 < q < 1.0):
            raise ValueError(f"quantiles must be in (0, 1), got {q}")
    rows = [x.mean(axis=0)]
    for q in quantiles:
        rows.append(np.quantile(x, q, axis=0, method="linear"))
    return np.stack(rows)


@dataclass
class PcaProjection:
    components: np.ndarray  # (2, L)
    projections: list[np.ndarray]  # one (n_i, 2) table per input set


def pca_project(fit_on, project: list) -> PcaProjection:
    """Fit a 2-d PCA on one set, project any number of sets with it.

    Components are the top eigenvectors of the covariance of the
    mean-centred fit set. Sign convention: the largest-magnitude loading
    of each component is positive, so output is deterministic.
    """
    x = _as_matrix(fit_on)
    if len(x) < 3:
        raise DegenerateInput(f"need at least 3 rows to fit, got {len(x)}")
    mean = x.mean(axis=0)
    centered = x - mean
    cov = centered.T @ centered / (len(x) - 1)
    eigenvalues, eigenvectors = np.linalg.eigh(cov)
    order = np.argsort(eigenvalues)[::-1]
    eigenvalues = eigenvalues[order]
    eigenvectors = eigenvectors[:, order]
    positive = eigenvalues > max(eigenvalues[0], 0.0) * 1e-12
    if positive[:2].sum() < 2:
        raise RankDeficient("covariance has fewer than 2 positive eigenvalues")
    components = eigenvectors[:, :2].T
    for i in range(2):
        pivot = np.argmax(np.abs(components[i]))
        if components[i, pivot] < 0:
            components[i] = -components[i]
    projections = [(_as_matrix(s) - mean) @ components.T for s in project]
    return PcaProjection(components=components, projections=projections)
