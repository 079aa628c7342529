"""Compiled per-``T`` error model for fast word-level memory simulation.

Running the analog P&V loop for every memory access of a sorting algorithm
would make large experiments intractable.  Instead, for a given cell
configuration we run the analog model once in a Monte-Carlo characterization
pass and *compile* it into:

* a per-level write-error probability and conditional error-target
  distribution (the 4x4 level-transition matrix),
* the expected number of P&V iterations per level (write-latency model),
* 256-entry per-byte lookup tables so that corrupting or costing a 32-bit
  word needs only four table lookups in the common case.

The compiled model is exact in distribution with respect to the analog model
it was fitted from (up to Monte-Carlo estimation error on the transition
probabilities) and is the engine behind :class:`repro.memory.approx_array.ApproxArray`.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .config import CELLS_PER_WORD, MLCParams, PRECISE_T
from .mlc import pv_write, drift_read

#: Number of Monte-Carlo writes per level used to fit the compiled model.
DEFAULT_FIT_SAMPLES = 100_000

#: Number of Monte-Carlo fits executed by this process (cache-miss counter;
#: tests assert warm-cache paths leave it untouched).
FIT_CALLS = 0

#: Environment variable overriding the on-disk characterization cache
#: location.  Set it to ``off``/``none``/``0``/empty to disable the disk
#: layer entirely.
CACHE_DIR_ENV = "REPRO_MODEL_CACHE_DIR"

#: Version tag of the on-disk cache format; bump to invalidate old entries.
CACHE_VERSION = 1

#: Blocks of at most this many words take the plain-Python sampler path of
#: :class:`WordErrorModel`: below it numpy's fixed per-call overhead, not
#: the per-word work, is the cost of a block write.  Set at the measured
#: crossover on a 2-CPU x86-64 host (DESIGN.md section 8).
SMALL_BLOCK_WORDS = 32


def pairwise_sum(values: "list[float]") -> float:
    """Sum ``values`` in the exact order of numpy's float64 ``add.reduce``.

    numpy sums a contiguous float64 run of fewer than 8 terms sequentially
    from ``0.0`` and a run of 8 to 128 terms with 8 interleaved
    accumulators, folded pairwise, then adds the ragged tail in order.
    Reproducing that order keeps the small-block path's ``units`` and
    expected-error figures bit-identical to ``ndarray.sum()``; the builtin
    ``sum`` does not (it compensates on Python 3.12+).  Valid for at most
    128 terms — the small-block path stays far below that.
    """
    n = len(values)
    if n < 8:
        total = 0.0
        for value in values:
            total += value
        return total
    r0, r1, r2, r3, r4, r5, r6, r7 = values[:8]
    i = 8
    stop = n - n % 8
    while i < stop:
        r0 += values[i]
        r1 += values[i + 1]
        r2 += values[i + 2]
        r3 += values[i + 3]
        r4 += values[i + 4]
        r5 += values[i + 5]
        r6 += values[i + 6]
        r7 += values[i + 7]
        i += 8
    total = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
    while i < n:
        total += values[i]
        i += 1
    return total


def block_sum(values: "np.ndarray | list[float]") -> float:
    """``values.sum()`` for a block figure from :class:`WordErrorModel`.

    Small blocks come back from the sampler as plain lists; both forms sum
    in numpy's order, so the result does not depend on the path.
    """
    if type(values) is list:
        return pairwise_sum(values)
    return float(values.sum())


def block_sums(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """:func:`block_sum` of every block of a concatenation, vectorized.

    Block ``k`` is ``values[offsets[k]:offsets[k + 1]]``; blocks must be
    non-empty.  A block of more than :data:`SMALL_BLOCK_WORDS` words is
    summed by ``ndarray.sum`` on its own, as the vectorized sampler path
    does.  Smaller ones are summed together in :func:`pairwise_sum`'s
    order: each is laid out in a zero-padded column of 32 accumulator
    slots (its whole groups of eight) and 7 tail slots (the rest), so
    every term meets the same partial sums it would in its own sum, and
    the padding adds only ``0.0``.  ``np.add.accumulate`` adds strictly
    in sequence along its axis.
    """
    sizes = np.diff(offsets)
    sums = np.empty(sizes.size)
    small = sizes <= SMALL_BLOCK_WORDS
    for index in np.flatnonzero(~small).tolist():
        sums[index] = values[offsets[index] : offsets[index + 1]].sum()
    rows = np.flatnonzero(small)
    if not rows.size:
        return sums
    lengths = sizes[rows]
    row = np.repeat(np.arange(rows.size), lengths)
    first = np.repeat(offsets[rows], lengths)
    within = np.arange(row.size) - np.repeat(
        np.cumsum(lengths) - lengths, lengths
    )
    body = np.repeat(lengths & ~7, lengths)
    # One row per slot, one column per block.  Slot ``fold`` receives the
    # folded accumulators and the tail follows it.
    fold = SMALL_BLOCK_WORDS
    padded = np.zeros((fold + 8, rows.size))
    padded[np.where(within < body, within, within - body + fold + 1), row] = (
        values[first + within]
    )
    # The eight accumulators sum their slot of each group of eight ...
    acc = padded[:8].copy()
    for group in range(8, fold, 8):
        acc += padded[group : group + 8]
    # ... and fold pairwise; then the tail is added one term at a time.
    pairs = acc[0::2] + acc[1::2]
    padded[fold] = (pairs[0] + pairs[1]) + (pairs[2] + pairs[3])
    sums[rows] = np.add.accumulate(padded[fold:], axis=0)[-1]
    return sums


@dataclass(frozen=True)
class CellCharacteristics:
    """Raw per-level statistics measured from the analog model.

    Attributes
    ----------
    transition:
        ``transition[i, j]`` is the probability that a cell written to level
        ``i`` is later read as level ``j``.
    mean_iterations:
        ``mean_iterations[i]`` is the expected number of P&V iterations when
        programming level ``i``.
    """

    transition: np.ndarray
    mean_iterations: np.ndarray

    @property
    def error_rate_by_level(self) -> np.ndarray:
        """Probability that a write of level ``i`` is misread as any other."""
        return 1.0 - np.diag(self.transition)

    @property
    def avg_error_rate(self) -> float:
        """Cell error probability for a uniformly random level."""
        return float(np.mean(self.error_rate_by_level))

    @property
    def avg_iterations(self) -> float:
        """Average #P for a uniformly random level."""
        return float(np.mean(self.mean_iterations))


def characterize_cells(
    params: MLCParams,
    samples_per_level: int = DEFAULT_FIT_SAMPLES,
    seed: int = 0,
) -> CellCharacteristics:
    """Monte-Carlo fit of the level-transition matrix and #P per level."""
    global FIT_CALLS
    FIT_CALLS += 1
    n = params.levels
    rng = np.random.default_rng(seed)
    transition = np.zeros((n, n), dtype=np.float64)
    mean_iters = np.zeros(n, dtype=np.float64)
    for level in range(n):
        targets = np.full(samples_per_level, level, dtype=np.int64)
        analog, iters = pv_write(targets, params, rng)
        observed = drift_read(analog, params, rng)
        counts = np.bincount(observed, minlength=n)
        transition[level] = counts / samples_per_level
        mean_iters[level] = iters.mean()
    return CellCharacteristics(transition=transition, mean_iterations=mean_iters)


# --------------------------------------------------------------------------- #
# Persistent characterization cache
#
# A Monte-Carlo fit is hundreds of thousands of analog writes; its output is
# twenty floats.  The disk layer persists those floats as a tiny ``.npz`` per
# configuration under ``~/.cache/repro-approx-sort/`` (override with
# ``REPRO_MODEL_CACHE_DIR``), so ``T``-sweeps and cross-process experiment
# runs pay for each fit once per machine rather than once per process.  The
# directory is safe to delete at any time; entries are re-fitted on demand.
# --------------------------------------------------------------------------- #


def model_cache_dir() -> "Path | None":
    """Resolve the disk-cache directory, or ``None`` when disabled."""
    override = os.environ.get(CACHE_DIR_ENV)
    if override is not None:
        if override.strip().lower() in ("", "0", "off", "none"):
            return None
        return Path(override)
    return Path.home() / ".cache" / "repro-approx-sort"


def _cache_path(
    params: MLCParams, samples_per_level: int, seed: int, encoding: str
) -> "Path | None":
    """Cache file for one fit key, hashed over the full parameter set."""
    directory = model_cache_dir()
    if directory is None:
        return None
    payload = json.dumps(
        {
            "version": CACHE_VERSION,
            "params": asdict(params),
            "samples_per_level": samples_per_level,
            "seed": seed,
            "encoding": encoding,
        },
        sort_keys=True,
    )
    digest = hashlib.sha256(payload.encode()).hexdigest()[:24]
    return directory / f"cells-v{CACHE_VERSION}-{digest}.npz"


def _load_characteristics(path: Path, levels: int) -> "CellCharacteristics | None":
    """Read one cached fit; ``None`` on any missing/corrupt/mismatched file."""
    try:
        with np.load(path) as data:
            transition = np.asarray(data["transition"], dtype=np.float64)
            mean_iterations = np.asarray(data["mean_iterations"], dtype=np.float64)
    except (OSError, KeyError, ValueError):
        return None
    if transition.shape != (levels, levels) or mean_iterations.shape != (levels,):
        return None
    return CellCharacteristics(
        transition=transition, mean_iterations=mean_iterations
    )


def _store_characteristics(path: Path, characteristics: CellCharacteristics) -> None:
    """Atomically persist one fit (best-effort: cache failures never raise)."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            dir=path.parent, prefix=path.stem, suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                np.savez(
                    handle,
                    transition=characteristics.transition,
                    mean_iterations=characteristics.mean_iterations,
                )
            os.replace(tmp_name, path)
        except BaseException:
            os.unlink(tmp_name)
            raise
    except OSError:
        pass


def characterize_cells_cached(
    params: MLCParams,
    samples_per_level: int = DEFAULT_FIT_SAMPLES,
    seed: int = 0,
    encoding: str = "binary",
) -> CellCharacteristics:
    """Disk-cached :func:`characterize_cells`.

    The fit itself does not depend on ``encoding`` (it measures analog level
    transitions), but the key includes it so every compiled-model identity
    maps to exactly one cache entry.
    """
    path = _cache_path(params, samples_per_level, seed, encoding)
    if path is not None:
        cached = _load_characteristics(path, params.levels)
        if cached is not None:
            return cached
    characteristics = characterize_cells(params, samples_per_level, seed)
    if path is not None:
        _store_characteristics(path, characteristics)
    return characteristics


def clear_disk_cache() -> int:
    """Delete every cached fit of the current :data:`CACHE_VERSION`.

    Returns the number of entries removed; a disabled or absent cache
    directory counts as empty.
    """
    directory = model_cache_dir()
    if directory is None or not directory.is_dir():
        return 0
    removed = 0
    for path in directory.glob(f"cells-v{CACHE_VERSION}-*.npz"):
        try:
            path.unlink()
            removed += 1
        except OSError:
            pass
    return removed


class WordErrorModel:
    """Fast sampler of write corruption and write cost for 32-bit words.

    A word is sixteen concatenated 2-bit cells (paper Section 3.2); cell
    ``k`` stores bits ``2k`` and ``2k + 1`` of the integer.  Errors are
    sampled cell-independently from the fitted transition matrix; the cost of
    a word write is the *average* #P over its sixteen cells, matching the
    paper's ``p(t)`` accounting (Section 2.2).

    Parameters
    ----------
    params:
        The cell configuration this model compiles.
    samples_per_level:
        Monte-Carlo sample count for the fit.
    seed:
        Seed of the fit (independent from run-time sampling randomness).
    encoding:
        Mapping between a cell's 2 data bits and its analog level:
        ``"binary"`` (level = bit value, the paper's implicit choice) or
        ``"gray"`` (adjacent levels differ in one bit, standard MLC
        practice — a one-level drift error then flips a single data bit).
    """

    #: level -> stored bit pattern, per encoding.
    ENCODINGS = {
        "binary": (0, 1, 2, 3),
        "gray": (0b00, 0b01, 0b11, 0b10),
    }

    def __init__(
        self,
        params: MLCParams,
        samples_per_level: int = DEFAULT_FIT_SAMPLES,
        seed: int = 0,
        encoding: str = "binary",
        characteristics: "CellCharacteristics | None" = None,
    ) -> None:
        n = params.levels
        if n != 4:
            raise ValueError(
                "WordErrorModel compiles 2-bit (4-level) cells; "
                f"got {n} levels"
            )
        if encoding not in self.ENCODINGS:
            raise ValueError(
                f"encoding must be one of {sorted(self.ENCODINGS)},"
                f" got {encoding!r}"
            )
        self.params = params
        # ``characteristics`` lets the cache layer inject a previously fitted
        # (possibly disk-loaded) measurement instead of re-running the
        # Monte-Carlo pass; compiling the lookup tables below is cheap.
        self.characteristics = (
            characteristics
            if characteristics is not None
            else characterize_cells(params, samples_per_level, seed)
        )
        self.encoding = encoding
        level_to_bits = self.ENCODINGS[encoding]
        bits_to_level = [0] * 4
        for level, bits in enumerate(level_to_bits):
            bits_to_level[bits] = level
        self._level_to_bits = list(level_to_bits)
        self._bits_to_level = bits_to_level
        self._level_to_bits_np = np.array(level_to_bits, dtype=np.uint32)
        self._bits_to_level_np = np.array(bits_to_level, dtype=np.int64)

        trans = self.characteristics.transition
        self._p_err = self.characteristics.error_rate_by_level.copy()
        # Conditional CDF over target levels given an error, one row per level.
        cond = trans.copy()
        np.fill_diagonal(cond, 0.0)
        row_sums = cond.sum(axis=1, keepdims=True)
        safe = np.where(row_sums > 0, row_sums, 1.0)
        self._cond_cdf = np.cumsum(cond / safe, axis=1)
        self._mean_iters = self.characteristics.mean_iterations.copy()

        # Per-byte tables: a byte holds four 2-bit cells (bit patterns,
        # mapped through the encoding to levels).
        byte_levels = np.empty((256, 4), dtype=np.int64)
        for b in range(256):
            byte_levels[b] = [
                bits_to_level[(b >> (2 * k)) & 3] for k in range(4)
            ]
        self._byte_levels = byte_levels
        p_ok = 1.0 - self._p_err
        self._byte_p_ok = np.prod(p_ok[byte_levels], axis=1)
        self._byte_iters = np.sum(self._mean_iters[byte_levels], axis=1)
        # Plain-Python copies for the scalar hot path (avoids numpy scalar
        # boxing overhead on every element access).
        self._byte_p_ok_list = self._byte_p_ok.tolist()
        self._byte_iters_list = self._byte_iters.tolist()
        self._p_err_list = self._p_err.tolist()
        self._cond_cdf_list = [row.tolist() for row in self._cond_cdf]
        # Per-halfword (16-bit) tables halve the lookup count of the block
        # paths; 2 x 64 KiB entries of float64 is well worth the two table
        # reads saved per word.
        half = np.arange(65536)
        self._half_p_ok = self._byte_p_ok[half & 0xFF] * self._byte_p_ok[half >> 8]
        self._half_iters = self._byte_iters[half & 0xFF] + self._byte_iters[half >> 8]
        # Plain-list copies of the halfword tables for the small-block
        # path, built on first use and never pickled (see __getstate__).
        self._half_lists: "tuple[list[float], list[float]] | None" = None

    def __getstate__(self) -> dict:
        # The list tables are derived from the half tables and would add
        # over 1 MB to every pickled shard payload; workers rebuild them
        # on first use.
        state = self.__dict__.copy()
        state["_half_lists"] = None
        return state

    def _small_tables(self) -> "tuple[list[float], list[float]]":
        """``(half_iters, half_p_ok)`` as lists, for the small-block path."""
        tables = self._half_lists
        if tables is None:
            tables = self._half_lists = (
                self._half_iters.tolist(), self._half_p_ok.tolist()
            )
        return tables

    # ------------------------------------------------------------------ #
    # Aggregate statistics
    # ------------------------------------------------------------------ #

    @property
    def cell_error_rate(self) -> float:
        """Per-cell error probability for a uniformly random level."""
        return self.characteristics.avg_error_rate

    @property
    def word_error_rate(self) -> float:
        """Probability that at least one cell of a random word is misread."""
        p_ok = 1.0 - self._p_err
        return float(1.0 - np.mean(p_ok) ** CELLS_PER_WORD)

    @property
    def avg_word_iterations(self) -> float:
        """Expected per-cell #P of a random word write (= avg cell #P)."""
        return self.characteristics.avg_iterations

    def p_ratio(self, precise_model: "WordErrorModel" | None = None) -> float:
        """The paper's ``p(t)``: avg #P at this T over avg #P at T=0.025.

        The paper approximates the denominator by 3; we use the measured
        value of the precise configuration when one is supplied and fall back
        to the paper's constant otherwise.
        """
        if precise_model is not None:
            return self.avg_word_iterations / precise_model.avg_word_iterations
        return self.avg_word_iterations / 3.0

    # ------------------------------------------------------------------ #
    # Scalar hot path
    # ------------------------------------------------------------------ #

    def word_no_error_probability(self, value: int) -> float:
        """Probability that writing ``value`` stores it without corruption."""
        t = self._byte_p_ok_list
        return (
            t[value & 0xFF]
            * t[(value >> 8) & 0xFF]
            * t[(value >> 16) & 0xFF]
            * t[(value >> 24) & 0xFF]
        )

    def word_write_cost(self, value: int) -> float:
        """Expected #P (averaged over the word's cells) of writing ``value``."""
        t = self._byte_iters_list
        total = (
            t[value & 0xFF]
            + t[(value >> 8) & 0xFF]
            + t[(value >> 16) & 0xFF]
            + t[(value >> 24) & 0xFF]
        )
        return total / CELLS_PER_WORD

    def corrupt_word(self, value: int, rng: np.random.Generator) -> int:
        """Sample the digital value observed after writing ``value``.

        The common (no-error) case costs one uniform draw and four table
        lookups; the rare error case samples each cell exactly, conditioned
        on at least one error having occurred (first-error-index method, so
        the conditional distribution is exact rather than rejection-based).
        """
        return self.corrupt_word_given_u(value, rng.random(), rng)

    def corrupt_word_given_u(
        self, value: int, u: float, rng: np.random.Generator
    ) -> int:
        """:meth:`corrupt_word` with the fast-path uniform ``u`` supplied.

        Lets callers draw their fast-path variates in amortized batches (see
        :class:`~repro.memory.approx_array.ApproxArray`); ``rng`` only feeds
        the rare slow path.
        """
        p_ok = self.word_no_error_probability(value)
        if u < p_ok:
            return value
        return self._corrupt_word_slow(value, (u - p_ok) / (1.0 - p_ok), rng)

    def _corrupt_word_slow(
        self, value: int, u_first: float, rng: np.random.Generator
    ) -> int:
        """Exact per-cell sampling given that at least one cell erred.

        ``u_first`` is a uniform variate (recycled from the fast-path draw)
        used to pick the index of the first erring cell from its exact
        conditional distribution; later cells err independently as usual.
        """
        p_err = self._p_err_list
        b2l = self._bits_to_level
        levels = [
            b2l[(value >> (2 * k)) & 3] for k in range(CELLS_PER_WORD)
        ]
        qs = [p_err[lv] for lv in levels]

        # P(first error at cell i | >= 1 error) ~ prod_{j<i}(1-q_j) * q_i
        p_any = 1.0 - self.word_no_error_probability(value)
        target = u_first * p_any
        acc = 0.0
        prefix_ok = 1.0
        first = CELLS_PER_WORD - 1
        for i, q in enumerate(qs):
            acc += prefix_ok * q
            if target < acc:
                first = i
                break
            prefix_ok *= 1.0 - q

        out = value
        for i in range(first, CELLS_PER_WORD):
            if i == first:
                erred = True
            else:
                erred = rng.random() < qs[i]
            if erred:
                new_level = self._sample_error_target(levels[i], rng)
                new_bits = self._level_to_bits[new_level]
                out = (out & ~(0b11 << (2 * i))) | (new_bits << (2 * i))
        return out

    def _sample_error_target(self, level: int, rng: np.random.Generator) -> int:
        """Sample the misread level, given a cell at ``level`` erred."""
        cdf = self._cond_cdf_list[level]
        u = rng.random()
        for j, c in enumerate(cdf):
            if u < c:
                return j
        return self.params.levels - 1

    # ------------------------------------------------------------------ #
    # Vectorized block path
    # ------------------------------------------------------------------ #

    #: Fraction of erring words above which the per-cell dense path beats
    #: per-word scalar resampling.
    _DENSE_ERROR_CUTOFF = 0.04

    def block_no_error_probability(self, values: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`word_no_error_probability`."""
        vals = np.asarray(values, dtype=np.uint32)
        t = self._half_p_ok
        return t[vals & np.uint32(0xFFFF)] * t[vals >> np.uint32(16)]

    def block_cost_and_no_error(
        self, values: np.ndarray
    ) -> "tuple[np.ndarray | list[float], np.ndarray | list[float]]":
        """``(block_write_cost, block_no_error_probability)`` in one sweep.

        The block write path needs both; sharing the halfword index
        computation across the four 1-D table gathers (2-D row gathers
        measure slower) shaves the common prefix.  Blocks of at most
        :data:`SMALL_BLOCK_WORDS` words are costed in plain Python and come
        back as lists of the same float64 values; sum them with
        :func:`block_sum` and hand ``p_ok`` on to :meth:`corrupt_block`.
        """
        vals = np.asarray(values, dtype=np.uint32)
        if vals.size <= SMALL_BLOCK_WORDS:
            iters, p_ok = self._small_tables()
            costs = []
            oks = []
            for value in vals.tolist():
                lo = value & 0xFFFF
                hi = value >> 16
                costs.append((iters[lo] + iters[hi]) / CELLS_PER_WORD)
                oks.append(p_ok[lo] * p_ok[hi])
            return costs, oks
        lo = vals & np.uint32(0xFFFF)
        hi = vals >> np.uint32(16)
        cost = (self._half_iters[lo] + self._half_iters[hi]) / CELLS_PER_WORD
        return cost, self._half_p_ok[lo] * self._half_p_ok[hi]

    def corrupt_block(
        self,
        values: np.ndarray,
        rng: np.random.Generator,
        p_ok: "np.ndarray | None" = None,
    ) -> np.ndarray:
        """Vectorized :meth:`corrupt_word` over an array of 32-bit values.

        ``p_ok`` lets the caller pass precomputed per-word no-error
        probabilities (e.g. from :meth:`block_cost_and_no_error`).

        Two regimes, both exact in distribution:

        * **sparse** (the common case) — one uniform per word decides
          no-error via the byte tables; only the few erring words take the
          exact per-cell slow path.
        * **dense** — when the expected error fraction exceeds
          :data:`_DENSE_ERROR_CUTOFF`, resample every cell column
          vectorized (the pre-optimization behaviour).

        Blocks of at most :data:`SMALL_BLOCK_WORDS` words run both regimes
        in plain Python (:meth:`_corrupt_small_block`), bit-identically.
        When the sparse regime finds no erring word the input array itself
        is returned, not a copy, so ``result is values`` tells a caller that
        nothing was corrupted.
        """
        vals = np.asarray(values, dtype=np.uint32)
        if vals.size == 0:
            return vals.copy()
        if vals.size <= SMALL_BLOCK_WORDS:
            return self._corrupt_small_block(vals, rng, p_ok)
        if p_ok is None:
            p_ok = self.block_no_error_probability(vals)
        expected_errors = vals.size - float(p_ok.sum())
        if expected_errors > vals.size * self._DENSE_ERROR_CUTOFF:
            return self._corrupt_block_dense(vals, rng)
        u = rng.random(vals.shape)
        err_idx = np.nonzero(u >= p_ok)[0]
        if err_idx.size == 0:
            return vals
        out = vals.copy()
        if err_idx.size <= 4:
            # Batch overhead beats the scalar loop only past a few words.
            for i in err_idx:
                i = int(i)
                out[i] = self._corrupt_word_slow(
                    int(vals[i]),
                    (float(u[i]) - float(p_ok[i])) / (1.0 - float(p_ok[i])),
                    rng,
                )
            return out
        u_resid = (u[err_idx] - p_ok[err_idx]) / (1.0 - p_ok[err_idx])
        out[err_idx] = self._corrupt_words_batch(vals[err_idx], u_resid, rng)
        return out

    def _corrupt_small_block(
        self,
        vals: np.ndarray,
        rng: np.random.Generator,
        p_ok: "np.ndarray | list[float] | None",
    ) -> np.ndarray:
        """:meth:`corrupt_block` for at most :data:`SMALL_BLOCK_WORDS` words.

        Same draws in the same order as the vectorized path — one
        ``rng.random(m)`` slice, then the slow-path draws of each erring
        word — and the same float64 arithmetic, with the expected-error sum
        taken in numpy's order (:func:`pairwise_sum`), so the stored words
        are bit-identical; only the per-call numpy overhead is gone.
        """
        m = vals.size
        if p_ok is None:
            p_ok = self.block_cost_and_no_error(vals)[1]
        elif type(p_ok) is not list:
            p_ok = p_ok.tolist()
        if m - pairwise_sum(p_ok) > m * self._DENSE_ERROR_CUTOFF:
            return self._corrupt_small_block_dense(vals, rng)
        u = rng.random(m).tolist()
        err = [i for i in range(m) if u[i] >= p_ok[i]]
        if not err:
            return vals
        out = vals.copy()
        resid = [(u[i] - p_ok[i]) / (1.0 - p_ok[i]) for i in err]
        if len(err) <= 4:
            words = vals.tolist()
            for i, u_first in zip(err, resid):
                out[i] = self._corrupt_word_slow(words[i], u_first, rng)
            return out
        out[err] = self._corrupt_words_batch(vals[err], np.array(resid), rng)
        return out

    def _corrupt_small_block_dense(
        self, vals: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """:meth:`_corrupt_block_dense` in plain Python, for small blocks.

        Per cell column: one ``rng.random(m)`` error draw, then one
        ``rng.random(e)`` target draw when ``e > 0`` cells erred — the
        vectorized column loop's draws, compared the same way.
        """
        m = vals.size
        words = vals.tolist()
        out = list(words)
        p_err = self._p_err_list
        bits_to_level = self._bits_to_level
        level_to_bits = self._level_to_bits
        cond_cdf = self._cond_cdf_list
        top = self.params.levels - 1
        for shift in range(0, 2 * CELLS_PER_WORD, 2):
            levels = [bits_to_level[(w >> shift) & 3] for w in words]
            u = rng.random(m).tolist()
            err = [i for i in range(m) if u[i] < p_err[levels[i]]]
            if not err:
                continue
            keep = ~(0b11 << shift)
            for i, target in zip(err, rng.random(len(err)).tolist()):
                new_level = 0
                for c in cond_cdf[levels[i]]:
                    new_level += target >= c
                new_bits = level_to_bits[min(new_level, top)]
                out[i] = (out[i] & keep) | (new_bits << shift)
        return np.array(out, dtype=np.uint32)

    def _corrupt_words_batch(
        self, words: np.ndarray, u_first: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Vectorized :meth:`_corrupt_word_slow` over erring words.

        Same exact conditional distribution — the recycled residual uniform
        picks each word's first erring cell from its prefix-product CDF,
        later cells err independently, erring cells resample their level
        from the conditional transition CDF — with all draws batched.
        """
        e = words.size
        shifts = (np.arange(CELLS_PER_WORD, dtype=np.uint32) * np.uint32(2))
        bits = (words[:, None] >> shifts[None, :]) & np.uint32(3)
        levels = self._bits_to_level_np[bits]
        q = self._p_err[levels]

        # P(first error at cell i) = prod_{j<i}(1 - q_j) * q_i.
        prefix_ok = np.cumprod(1.0 - q, axis=1)
        pmf = np.empty_like(q)
        pmf[:, 0] = q[:, 0]
        pmf[:, 1:] = prefix_ok[:, :-1] * q[:, 1:]
        cdf = np.cumsum(pmf, axis=1)
        target = (u_first * cdf[:, -1])[:, None]
        first = np.minimum(
            (target >= cdf).sum(axis=1), CELLS_PER_WORD - 1
        )

        cols = np.arange(CELLS_PER_WORD)
        err_mask = (cols[None, :] == first[:, None]) | (
            (cols[None, :] > first[:, None])
            & (rng.random((e, CELLS_PER_WORD)) < q)
        )
        new_levels = (
            rng.random((e, CELLS_PER_WORD))[:, :, None]
            >= self._cond_cdf[levels]
        ).sum(axis=2)
        new_levels = np.minimum(new_levels, self.params.levels - 1)
        new_bits = self._level_to_bits_np[new_levels]

        stored = np.where(err_mask, new_bits, bits).astype(np.uint64)
        return (
            (stored << shifts[None, :].astype(np.uint64)).sum(axis=1)
        ).astype(np.uint32)

    def _corrupt_block_dense(
        self, vals: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Per-cell-column vectorized corruption (high-error-rate regime)."""
        out = vals.copy()
        for k in range(CELLS_PER_WORD):
            bits = (vals >> np.uint32(2 * k)) & np.uint32(3)
            levels = self._bits_to_level_np[bits]
            q = self._p_err[levels]
            err_mask = rng.random(vals.shape) < q
            if not err_mask.any():
                continue
            err_levels = levels[err_mask]
            u = rng.random(err_levels.shape)
            cdf = self._cond_cdf[err_levels]
            new_levels = (u[:, None] >= cdf).sum(axis=1)
            new_levels = np.minimum(new_levels, self.params.levels - 1)
            new_bits = self._level_to_bits_np[new_levels]
            cleared = out[err_mask] & ~np.uint32(0b11 << (2 * k))
            out[err_mask] = cleared | (new_bits << np.uint32(2 * k))
        return out

    def block_write_cost(self, values: np.ndarray) -> np.ndarray:
        """Vectorized expected per-word write cost (#P per cell, averaged)."""
        vals = np.asarray(values, dtype=np.uint32)
        it = self._half_iters
        total = it[vals & np.uint32(0xFFFF)] + it[vals >> np.uint32(16)]
        return total / CELLS_PER_WORD


class _ModelCache:
    """Process-wide cache of compiled :class:`WordErrorModel` instances.

    Compiling a model runs a Monte-Carlo fit (hundreds of thousands of analog
    writes), so experiments sweeping ``T`` share compiled models through this
    cache, keyed by the full parameter set and fit size.  Misses consult the
    persistent disk layer (:func:`characterize_cells_cached`) before
    re-running the fit, so warm-cache lookups — including in freshly forked
    worker processes — do no Monte-Carlo sampling at all.
    """

    def __init__(self) -> None:
        self._models: dict[tuple, WordErrorModel] = {}

    def get(
        self,
        params: MLCParams,
        samples_per_level: int = DEFAULT_FIT_SAMPLES,
        seed: int = 0,
        encoding: str = "binary",
    ) -> WordErrorModel:
        key = (params, samples_per_level, seed, encoding)
        model = self._models.get(key)
        if model is None:
            characteristics = characterize_cells_cached(
                params, samples_per_level, seed, encoding
            )
            model = WordErrorModel(
                params, samples_per_level, seed, encoding,
                characteristics=characteristics,
            )
            self._models[key] = model
        return model

    def clear(self) -> None:
        """Drop the in-memory models (the disk layer is left intact)."""
        self._models.clear()


#: Shared cache used by the experiment harness.
MODEL_CACHE = _ModelCache()


def get_model(
    params: MLCParams,
    samples_per_level: int = DEFAULT_FIT_SAMPLES,
    seed: int = 0,
    encoding: str = "binary",
) -> WordErrorModel:
    """Fetch (or compile and cache) the error model for ``params``."""
    return MODEL_CACHE.get(params, samples_per_level, seed, encoding)


def precise_reference_model(
    params: MLCParams,
    samples_per_level: int = DEFAULT_FIT_SAMPLES,
    seed: int = 0,
) -> WordErrorModel:
    """The T=0.025 model matching ``params`` in every other respect."""
    return get_model(params.with_t(PRECISE_T), samples_per_level, seed)
