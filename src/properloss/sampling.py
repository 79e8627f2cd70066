"""Seedable sampling and Monte Carlo loss estimation.

Sample sources
--------------
Three kinds of black box can be scored:

* :class:`InternalSource` -- a known distribution, sampled by inverse-CDF
  over the ordered domain (deterministic given a generator state),
* :class:`FileSource` -- a UTF-8 file with one token per line, opened when
  the source is built,
* :class:`SubprocessSource` -- a child process speaking a line protocol,
  started when the source is built: the harness writes a decimal count
  followed by a newline, the child replies with exactly that many token
  lines; ``0`` asks the child to exit cleanly (exit code 0).  An estimate
  sends it with its last request, in the same write, so the child exits
  while that batch is scored; ``close`` sends it when no such request was
  made.  ``close`` discards whatever the child writes after the last read
  and waits for its exit, not for the end of its output.

Each source implements ``draw_batch(sizes, rng, last=False)``:
:class:`CountRows` whose row i holds the next ``sizes[i]`` draws, built from
the drawn domain indices and the row sizes, so that no (R, d) count matrix
is allocated unless a scorer asks for one; a subprocess gets one count per
batch.  A loss's batch evaluator scores the rows as dense count columns
while d is small against the draws per row, and over each row's observed
coordinates otherwise (:func:`~properloss.domain.scored_dense`).
Tokens are UTF-8 text, and every emitted token must map to a domain label;
an unknown token or an undecodable byte is a hard error that names the file
or the generator command.  File and subprocess sources are sequential
streams: they must not be read from two replicates concurrently, and a draw
after ``close`` is an error rather than a restart of the stream.

Randomness
----------
All randomness derives from a user seed through named substreams
(:func:`stream_rng`), one per role (model draws, target draws, size draws,
block partitions).  Sizes come as one vector per side; within a stream, draws
are consumed in replicate-major order, so for fixed-size schemes replicate
``i`` owns draws ``[i*n, (i+1)*n)`` of its stream and is a pure function of
``(seed, i)``.  Identical (sources, seed, replicates) yield a bit-identical report.
"""

from __future__ import annotations

import itertools
import math
import os
import selectors
import shlex
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .compiler import CompiledLoss, KnownTargetLoss
from .domain import (
    CountRows,
    Distribution,
    Domain,
    FixedSize,
    Histogram,
    Poisson,
    SamplingScheme,
    poisson_cdf,
    scored_dense,
)
from .errors import (
    SampleTooSmallError,
    SourceExhaustedError,
    SubprocessFailureError,
    TokenUnknownError,
)

#: 97.5% standard-normal quantile: half-width of the nominal 95% interval.
Z95 = 1.959963984540054

#: Bytes that one chunk of replicates may hold while it is drawn and scored, both sides together.
CHUNK_BYTES = 16 * 2**20

#: Bytes a scorer holds per draw while it scores rows over their observed coordinates, the draw included.
SPARSE_DRAW_BYTES = 256

#: Largest domain an internal source draws from by counting CDF steps, one vectorized comparison per outcome,
#: rather than by binary search.  Both give the same indices; at 40,000 draws the count, kept in bytes, took
#: 0.03 ms at d=2 and 0.17 ms at d=16 where the search took 0.38 and 1.27 ms (int64 counts took 0.04 and 0.5 ms).
#: Counted in bytes, which hold counts up to 255, it was still the faster at d=128 (1.35 against 2.75 ms).
STEPPED_CDF_DIM = 16

#: Seconds a generator may take to exit after the ``0`` request before it is killed.
CLOSE_TIMEOUT_S = 10.0

#: Characters of a failed generator's stderr quoted in the error, from its end.
STDERR_TAIL_CHARS = 2000

STREAM_MODEL = 0
STREAM_TARGET = 1
STREAM_MODEL_SIZES = 2
STREAM_TARGET_SIZES = 3
STREAM_PARTITION = 4


def stream_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Independent generator for (seed, stream); the documented split scheme."""
    return np.random.default_rng(np.random.SeedSequence(entropy=int(seed), spawn_key=(int(stream),)))


class SampleSource:
    """Anything that can produce histograms of i.i.d. draws over a domain."""

    domain: Domain

    def draw_batch(self, sizes: Sequence[int], rng: Optional[np.random.Generator] = None, *,
                   last: bool = False) -> CountRows:
        """``len(sizes)`` count rows over the domain, in index form; row i holds the next ``sizes[i]`` draws.

        A batch evaluator scores them as dense count columns or over each row's
        observed coordinates, whichever :func:`~properloss.domain.scored_dense`
        picks for the domain size and the draws per row.  ``last`` says that
        the caller draws nothing more, so a source may let go of its stream
        while the rows are scored: :class:`SubprocessSource` tells its child
        to exit with the request, after which a draw is an error, as after
        :meth:`close`.  The other sources ignore it."""
        raise NotImplementedError

    def draw(self, n: int, rng: Optional[np.random.Generator] = None) -> Histogram:
        """Histogram of the next n draws."""
        return Histogram(self.draw_batch([n], rng).dense()[0])

    def close(self) -> None:
        """Release the stream behind the source, if it holds one."""

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def _read_indices(lines, total: int, domain: Domain, source: str) -> np.ndarray:
    """Domain indices of the next ``total`` lines; fewer if the lines end first.

    An unknown token raises :class:`TokenUnknownError` naming ``source``.
    """
    tokens = map(str.strip, itertools.islice(lines, total))
    try:
        return np.fromiter(map(domain._index.__getitem__, tokens), dtype=np.int64)
    except KeyError as exc:
        raise TokenUnknownError(f"{source}: token {exc.args[0]!r} is not a label of this domain") from None


def _not_utf8(exc: UnicodeDecodeError) -> str:
    return f"byte 0x{exc.object[exc.start]:02x} is not UTF-8 ({exc.reason})"


class InternalSource(SampleSource):
    """A known distribution used as a sample source (for simulation and tests)."""

    def __init__(self, dist: Distribution, domain: Optional[Domain] = None):
        if domain is not None and domain.size != dist.dim:
            raise ValueError(f"domain size {domain.size} != distribution dimension {dist.dim}")
        self.dist = dist
        self.domain = domain if domain is not None else Domain.of_size(dist.dim)
        self._cum = np.cumsum(np.asarray(dist.as_floats()))

    def draw_batch(self, sizes: Sequence[int], rng: Optional[np.random.Generator] = None, *,
                   last: bool = False) -> CountRows:
        if rng is None:
            raise ValueError("an internal source needs a random generator")
        u = rng.random(int(np.sum(sizes)))
        if self.dist.dim <= STEPPED_CDF_DIM:  # count the CDF steps at or below each draw
            idx = np.zeros(len(u), dtype=np.uint8)
            for step in self._cum[:-1]:
                idx += u >= step
        else:
            idx = np.searchsorted(self._cum, u, side="right")
            np.minimum(idx, self.dist.dim - 1, out=idx)  # guard the cumsum-rounding edge
        return CountRows.from_draws(idx, sizes, self.dist.dim)


class FileSource(SampleSource):
    """One token per line; tokens are consumed sequentially across draws."""

    def __init__(self, path: str, domain: Domain):
        self.path = path
        self.domain = domain
        self._handle = open(path, "r", encoding="utf-8")

    def draw_batch(self, sizes: Sequence[int], rng: Optional[np.random.Generator] = None, *,
                   last: bool = False) -> CountRows:
        if self._handle.closed:
            raise ValueError(f"sample file {self.path!r} is closed: its stream cannot be drawn from again")
        total = int(np.sum(sizes))
        try:
            idx = _read_indices(self._handle, total, self.domain, f"sample file {self.path!r}")
        except UnicodeDecodeError as exc:
            message = f"sample file {self.path!r} holds a token that is not text: {_not_utf8(exc)}"
            raise TokenUnknownError(message) from None
        if len(idx) < total:
            raise SourceExhaustedError(f"{self.path} ran out of tokens")
        return CountRows.from_draws(idx, sizes, self.domain.size)

    def close(self) -> None:
        self._handle.close()


class SubprocessSource(SampleSource):
    """A child process generator speaking the count-request line protocol.

    The child starts when the source is built, so it boots while the caller
    does other work.  Its stderr goes to a temporary file, not a pipe, so a
    chatty child cannot block on it.  Every failure after the start quotes
    the end of it, and a clean close copies it to our stderr.
    """

    def __init__(self, command: str | Sequence[str], domain: Domain):
        self.command = shlex.split(command) if isinstance(command, str) else list(command)
        self.domain = domain
        self._stderr = tempfile.TemporaryFile()
        try:
            self._proc = subprocess.Popen(
                self.command,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=self._stderr,
                encoding="utf-8",
                bufsize=1,
            )
        except OSError as exc:
            self._stderr.close()
            raise SubprocessFailureError(f"could not start {self.command!r}: {exc}") from exc

    def _child_stderr(self) -> str:
        self._stderr.seek(0)
        return self._stderr.read().decode("utf-8", errors="replace")

    def _failure(self, message: str) -> SubprocessFailureError:
        """``message`` followed by the last :data:`STDERR_TAIL_CHARS` characters of the child's stderr, if any."""
        text = self._child_stderr().strip()
        if len(text) > STDERR_TAIL_CHARS:
            text = "..." + text[-STDERR_TAIL_CHARS:]
        return SubprocessFailureError(f"{message}; its stderr: {text}" if text else message)

    def draw_batch(self, sizes: Sequence[int], rng: Optional[np.random.Generator] = None, *,
                   last: bool = False) -> CountRows:
        """One count request for the whole batch; none when it asks for no draws (``0`` would end the child).

        With ``last`` the request is followed by the ``0``, in the same write, and the child's input is closed:
        the child exits while the caller scores the batch, and :meth:`close` only waits for it.  A last batch of
        no draws sends nothing, and leaves the ``0`` to :meth:`close`."""
        proc = self._proc
        if proc.stdin.closed:
            raise ValueError(f"generator {self.command!r} is closed: its stream cannot be drawn from again")
        total = int(np.sum(sizes))
        if total == 0:
            return CountRows.from_draws(np.zeros(0, dtype=np.int64), sizes, self.domain.size)
        try:
            if last:
                with proc.stdin:  # closed even when the write fails
                    proc.stdin.write(f"{total}\n0\n")
            else:
                proc.stdin.write(f"{total}\n")
                proc.stdin.flush()
        except (BrokenPipeError, OSError) as exc:
            raise self._failure(f"generator {self.command!r} closed its input") from exc
        try:
            idx = _read_indices(proc.stdout, total, self.domain, f"generator {self.command!r}")
        except UnicodeDecodeError as exc:
            message = f"generator {self.command!r} wrote a token that is not text: {_not_utf8(exc)}"
            raise self._failure(message) from None
        if len(idx) < total:
            raise self._failure(f"generator {self.command!r} ended after {len(idx)} of {total} requested tokens")
        return CountRows.from_draws(idx, sizes, self.domain.size)

    def _wait(self) -> Optional[int]:
        """The child's exit code, or ``None`` if it is still running after :data:`CLOSE_TIMEOUT_S`.

        Where pidfds exist (Linux) the wait wakes on the child's pidfd, and
        whatever the child writes meanwhile is read and discarded, so a child
        blocked on a full stdout pipe can still reach its exit.  A helper that
        inherited the pipe cannot hold the wait up: the wait ends at the
        child's exit, not at end of file.  Elsewhere it is ``Popen.wait``.
        """
        proc = self._proc
        try:
            pidfd = os.pidfd_open(proc.pid)
        except (AttributeError, OSError):  # no pidfds on this platform or kernel
            try:
                return proc.wait(timeout=CLOSE_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                return None
        out = proc.stdout.fileno()
        try:
            with selectors.DefaultSelector() as selector:
                selector.register(pidfd, selectors.EVENT_READ)
                selector.register(out, selectors.EVENT_READ)
                deadline = time.monotonic() + CLOSE_TIMEOUT_S
                while (left := deadline - time.monotonic()) > 0:
                    for key, _ in selector.select(left):
                        if key.fd == pidfd:
                            return proc.wait()
                        if not os.read(out, 65536):  # end of file: only the exit is left to wait for
                            selector.unregister(out)
                return None
        finally:
            os.close(pidfd)

    def close(self) -> None:
        """Send the zero sentinel, unless the last request carried it, and require a clean exit; a second call
        does nothing."""
        proc = self._proc
        if proc.stdout.closed:
            return
        try:
            try:
                if not proc.stdin.closed:
                    with proc.stdin:  # closed even when the write fails
                        proc.stdin.write("0\n")
            except OSError:  # the child has closed its input
                pass
            code = self._wait()
            if code is None:
                proc.kill()
                proc.wait()
                raise self._failure(
                    f"generator {self.command!r} did not exit within {CLOSE_TIMEOUT_S} s of the 0 request; killed it"
                )
            if code != 0:
                raise self._failure(f"generator exited with code {code}")
            sys.stderr.write(self._child_stderr())
        finally:
            proc.stdout.close()
            self._stderr.close()


def _poisson_size(u, rate: float):
    """Smallest j with CDF(j) > u for each uniform u, or the walk's limit; an int for a scalar u."""
    cdf, top = [], np.max(u)
    for _, cum in poisson_cdf(rate):  # the walk stops once it passes the largest u
        cdf.append(cum)
        if top < cum:
            break
    if not np.ndim(u):
        return len(cdf) - 1
    return np.minimum(np.searchsorted(cdf, u, side="right"), len(cdf) - 1)


def _size_vector(scheme: Optional[SamplingScheme], rows: int, size_rng: np.random.Generator) -> Optional[np.ndarray]:
    """Sample sizes of ``rows`` replicates of one side, in replicate order; ``None`` for an absent side."""
    if scheme is None:
        return None
    if isinstance(scheme, FixedSize):
        return np.full(rows, scheme.n, dtype=np.int64)
    if isinstance(scheme, Poisson):
        return _poisson_size(size_rng.random(rows), scheme.rate)
    raise ValueError(f"unsupported sampling scheme {scheme!r}")


def draw_fixed(src: SampleSource, n: int, seed: int) -> Histogram:
    """Histogram of exactly n draws; deterministic given the seed."""
    if n < 1:
        raise ValueError("need n >= 1")
    return src.draw(n, stream_rng(seed, STREAM_MODEL))


@dataclass(frozen=True)
class EstimateReport:
    """Monte Carlo estimate with a nominal 95% normal interval."""

    mean: float
    std_error: float
    ci_low: float
    ci_high: float
    replicates: int
    seed: int

    def __post_init__(self):
        for name in ("mean", "std_error"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"the estimate's {name} is {value!r}: the loss values exceed float range")
        if not self.ci_low <= self.mean <= self.ci_high:
            raise ValueError("confidence interval must contain the mean")
        if self.std_error < 0:
            raise ValueError("standard error must be non-negative")


def estimate_loss(
    model: Optional[SampleSource],
    target: SampleSource,
    loss: CompiledLoss,
    replicates: int,
    seed: int,
) -> EstimateReport:
    """Mean of independent loss evaluations over fresh sample pairs.

    Every source and scheme takes one path: each side draws one size vector
    (fixed, or Poisson from its size stream), then per chunk of replicates
    its :class:`CountRows`, which the loss's float ``batch_evaluator`` scores.
    A chunk holds at most :data:`CHUNK_BYTES`, counted by the draws: a draw
    costs :data:`SPARSE_DRAW_BYTES` where rows are scored over their observed
    coordinates, and 8 bytes plus each side's dense count row where they are
    scored as dense columns (:func:`~properloss.domain.scored_dense`).
    Chunking changes no draw, so the report is deterministic given (sources,
    seed, replicates).  Each source's last chunk is drawn with ``last=True``
    (a source on both sides, at its model draw), so a generator source exits
    while that chunk is scored and serves no later draw.
    """
    if replicates < 2:
        raise ValueError("need at least 2 replicates for a standard error")
    model_rng, target_rng = stream_rng(seed, STREAM_MODEL), stream_rng(seed, STREAM_TARGET)
    sizes_p = _size_vector(loss.scheme_p, replicates, stream_rng(seed, STREAM_MODEL_SIZES))
    sizes_q = _size_vector(loss.scheme_q, replicates, stream_rng(seed, STREAM_TARGET_SIZES))
    sides = [sizes for sizes in (sizes_p, sizes_q) if sizes is not None]
    d, draws = target.domain.size, sum(float(sizes.mean()) for sizes in sides)  # per replicate
    if scored_dense(d, 1, draws):
        row_bytes = 8 * (draws + len(sides) * d)
    else:
        row_bytes = SPARSE_DRAW_BYTES * draws
    chunk = max(1, int(CHUNK_BYTES // max(row_bytes, 1)))
    values = np.empty(replicates)
    for start in range(0, replicates, chunk):
        rows, last = slice(start, start + chunk), start + chunk >= replicates
        # the target first: a token file is read while a generator child boots
        hq = target.draw_batch(sizes_q[rows], target_rng, last=last and target is not model)
        hp = None if sizes_p is None else model.draw_batch(sizes_p[rows], model_rng, last=last)
        values[rows] = loss.batch_evaluator(hp, hq)

    with np.errstate(over="ignore", invalid="ignore"):  # EstimateReport names a non-finite result
        mean = float(np.mean(values))
        std_error = float(np.std(values, ddof=1)) / math.sqrt(replicates)
    return EstimateReport(
        mean=mean,
        std_error=std_error,
        ci_low=mean - Z95 * std_error,
        ci_high=mean + Z95 * std_error,
        replicates=replicates,
        seed=seed,
    )


def _partition_histograms(sample: Histogram, block_size: int, blocks: int, rng: np.random.Generator) -> list[Histogram]:
    draws = np.repeat(np.arange(sample.dim), sample.counts)
    order = rng.permutation(draws)
    kept = order[: blocks * block_size].reshape(blocks, block_size)
    return [
        Histogram(tuple(int(c) for c in np.bincount(row, minlength=sample.dim)))
        for row in kept
    ]


def block_average(
    sample: Histogram,
    block_size: int,
    loss,
    *,
    q: Optional[Distribution] = None,
    target_sample: Optional[Histogram] = None,
    seed: int = 0,
) -> float:
    """Average a minimally-sized loss over a seeded random partition of a big sample.

    The sample's underlying draws (reconstructed from the histogram, which is
    lossless up to exchangeability) are shuffled and split into
    ``total // block_size`` blocks; leftovers are discarded.  Each block is
    itself an i.i.d. sample, so the average has the same expectation as a
    single evaluation with lower variance.  The random partition only guards
    against ordering artifacts in file-backed sources; the i.i.d. assumption
    stays with the source.
    """
    if isinstance(loss, KnownTargetLoss):
        if q is None:
            raise ValueError("a known-target loss needs q=")
        if block_size != loss.scheme.n:
            raise ValueError(f"block size {block_size} != the loss's sample size {loss.scheme.n}")
        blocks = sample.total // block_size
        if blocks < 1:
            raise SampleTooSmallError(f"sample of {sample.total} cannot fill one block of {block_size}")
        parts = _partition_histograms(sample, block_size, blocks, stream_rng(seed, STREAM_PARTITION))
        return float(np.mean([float(loss.evaluator(h, q)) for h in parts]))

    if isinstance(loss, CompiledLoss):
        if not (isinstance(loss.scheme_p, FixedSize) and isinstance(loss.scheme_q, FixedSize)):
            raise ValueError("block averaging is only defined for fixed-size schemes")
        if target_sample is None:
            raise ValueError("a two-sample loss needs target_sample=")
        n, m = loss.scheme_p.n, loss.scheme_q.n
        if block_size != n:
            raise ValueError(f"block size {block_size} != the loss's model sample size {n}")
        blocks = min(sample.total // n, target_sample.total // m)
        if blocks < 1:
            raise SampleTooSmallError("not enough draws on one side to fill a block")
        parts_p = _partition_histograms(sample, n, blocks, stream_rng(seed, STREAM_PARTITION))
        parts_q = _partition_histograms(target_sample, m, blocks, stream_rng(seed, STREAM_TARGET))
        return float(np.mean([float(loss.evaluator(h, g)) for h, g in zip(parts_p, parts_q)]))

    raise ValueError(f"unsupported loss type {type(loss).__name__}")
