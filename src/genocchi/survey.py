"""Survey orchestration: classify every prime up to x, compare experimental
irregularity ratios per progression against the conjectured and lower-bound
ratios, and emit the result tables as text, CSV, or JSON.

`run_survey` takes one or more configs with the same x, threads, cache_dir and
quiet, and runs them as one pass: one sieve, one B-stage (so one read of
birregular.csv, and one write if any prime was missing), one orders stage for
all the distinct ell, then each ell's flags. `run_table` runs each reference
table as one such call, one config per base.

Two counting conventions, and how they map to the published Tables 1-3:

- Numerator: count_irregular counts the primes p <= x that the rules of
  `classify.irregular_flags` flag, applied to the whole sieve in one call.
  2 and 3 are never irregular.
  p = ell > 3 is G-irregular, since ell divides every G_n; its H flags reduce
  to its B flag.
  Published Table 1 leaves p = ell out, so for ell = 5 .. 19 its value is
  (count_irregular - 1) / pi(x); for ell = 2, 3 the counts agree as they
  stand, and so do the Table 2 counts for the B-regular bases 2, 3, 5.
- Denominator: count_primes, and with it the experimental column, counts all
  primes <= x in the progression (the class size), 2 and ell included. On
  the full prime set that is pi(x), the denominator of Tables 1 and 2.
  Table 3 instead divides by pi(x) / phi(d) (4796 at x = 10^5 for d = 3, 4),
  so its values are count_irregular / (pi(x) / phi(d)).

At x = 10^5 these mappings reproduce every published experimental value of
Tables 1 and 2 and the ell = 3 rows of Table 3 as exact prime counts, except
that the published (3, 2) value is one prime above the count; criterion 4 of
tests/test_acceptance.py checks all of them.

The B-stage (`_ensure_b_pairs`) computes every prime missing from the cache on
worker processes it forks itself. The largest-first list of missing primes is
cut into about BATCHES_PER_WORKER batches per worker, each of about equal
p*log2(p) work. A worker reads batch numbers from one pipe and writes each
batch's pickled (pairs, failure) to another, and the parent hands the next
batch to whichever worker finishes first. A failing prime costs its batch
nothing. The first error, a worker's death or an interrupt stops the hand-out;
the running batches finish, every finished batch is saved and every worker is
reaped. There is no process pool: its imports and threads cost the parent of a
cold survey at x = 5000 about four times the CPU. Each worker's glibc
malloc keeps the memory the kernel frees for the next prime (`_b_worker_init`):
above p ~ 2^14 the kernel's arrays pass glibc's default 128 KiB mmap threshold,
and each would otherwise be mapped and unmapped again for every prime, about
1,000 page faults per prime near p = 40,000. The caller's process keeps its
own malloc settings.

The orders stage (`_ensure_orders`) runs in the parent, once for all the
distinct ell of a survey, on (n, 4) int64 tables of rows (p, ord, ord_sq,
jacobi) from the files to the flags: `ClassificationCache.load_order_table`
reads each orders_<ell>.csv sorted by p, and `np.searchsorted` aligns the
survey's odd primes with it. Every row served from any of the files is then
checked against its own ord in one numpy pass, before any write; a bad row
names its base's file, and no file is written. The rows missing from all the
files come from one `classify.prime_orders` call, with one base per prime, so
one factor sieve serves every base. Last, `save_order_table` writes each file
that gained rows once, its rows above x included. A warm survey computes no
order at all.
"""

from __future__ import annotations

import _signal
import collections
import contextlib
import ctypes
import json
import math
import os
import pickle
import select
import sys
import time
import traceback
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import BinaryIO

import numpy as np

from .classify import _order_rows, b_irregular_pairs, irregular_flags, prime_orders
from .density import ratios
from .kernels import MAX_KERNEL_PRIME
from .modarith import sieve_primes

__all__ = [
    "SurveyError",
    "SurveyConfig",
    "SurveyRow",
    "ClassificationCache",
    "resolve_cache_dir",
    "run_survey",
    "run_table",
    "emit_table",
    "TABLE_PRESETS",
]

CACHE_ENV = "GENOCCHI_CACHE_DIR"
#: unexpanded: resolve_cache_dir expands it, and so needs a home, only when it is used
DEFAULT_CACHE_DIR = Path("~/.cache/genocchi")
#: first line of every cache file; see ClassificationCache for when to bump it.
#: It names the residues the rows hold: both limb rules of `kernels`, on balanced
#: operands, give the residues of the two-limb kernel that first wrote them, so it
#: keeps that kernel's name.
CACHE_HEADER = "# genocchi cache v2 (kernel: chirp, two 9-bit limbs)"

#: B-stage tasks per worker process: enough to even out the load, few enough that
#: pickling and scheduling stay small next to the kernel
BATCHES_PER_WORKER = 16

#: glibc's mallopt parameters, from <malloc.h>
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


class SurveyError(RuntimeError):
    pass


@dataclass(frozen=True)
class SurveyConfig:
    """One survey request; constructing it checks its own rules and no others:
    100 <= x <= MAX_KERNEL_PRIME, threads >= 0, at least one variant and one
    progression, and 1 <= a <= d. Density decides which (variant, ell, d, a)
    rows exist, and run_survey asks it before any prime is sieved.
    """

    ell: int
    x: int
    progressions: tuple[tuple[int, int], ...] = ((1, 1),)
    variants: tuple[str, ...] = ("G",)
    threads: int = 0  # B-stage worker processes; 0 means every CPU this process may use
    cache_dir: Path | str | None = None
    quiet: bool = False

    def __post_init__(self):
        if self.x < 100:
            raise ValueError(f"x must be >= 100, got {self.x}")
        if self.x > MAX_KERNEL_PRIME:
            raise ValueError(f"x must be <= {MAX_KERNEL_PRIME} (the kernel bound), got {self.x}")
        if self.threads < 0:
            raise ValueError(f"threads must be >= 0 (0 means every CPU), got {self.threads}")
        if not self.variants or not self.progressions:
            raise ValueError("variants and progressions must be non-empty")
        for d, a in self.progressions:
            if not 1 <= a <= d:
                raise ValueError(f"progression ({d}, {a}) must have 1 <= a <= d")


@dataclass(frozen=True)
class SurveyRow:
    ell: int
    d: int
    a: int
    x: int
    count_irregular: int
    count_primes: int
    experimental: float  # count_irregular / count_primes, rounded to 6 decimals
    conjectured: float
    lower_bound: float
    variant: str = "G"


def resolve_cache_dir(configured: Path | str | None) -> Path:
    """A given directory wins, then GENOCCHI_CACHE_DIR, then DEFAULT_CACHE_DIR; an
    empty string counts as not given. A `~` that no home directory can expand
    raises SurveyError."""
    chosen = configured or os.environ.get(CACHE_ENV) or DEFAULT_CACHE_DIR
    try:
        return Path(chosen).expanduser()
    except RuntimeError as exc:  # no HOME and no passwd entry for this user
        raise SurveyError(
            f"cannot expand the cache directory {chosen} ({exc}); "
            f"give one with --cache-dir or {CACHE_ENV}"
        ) from exc


class ClassificationCache:
    """File-backed cache: one CSV per concern under the cache directory.

    Every file is the line CACHE_HEADER, then one row per line, which the
    writers sort by p:

        birregular.csv      p,0,                   a B-regular prime p >= 5
                            p,1,i;j;...            a B-irregular one and its indices
        orders_<ell>.csv    p,ord,ord_sq,jacobi    an odd prime p

    Each field is a decimal integer. Every line ends in "\\n" as written, and
    "\\r\\n" reads the same. Any other row is malformed: a last line without its
    end (the file was cut short), a blank line, another number of fields, a flag
    other than 0 with no indices or 1 with some, an empty index such as 32;;36,
    or a second row for the same p.

    No G or H flag is stored: each survey derives them from the orders and the
    B rows, so the two files never drift apart.

    A file whose first line is not CACHE_HEADER (another schema or kernel) reads
    as absent: its primes are recomputed and the file rewritten. A malformed row
    under the current header raises SurveyError, and so does an order row a
    survey reads that contradicts its own ord: `_ensure_orders` checks, in one
    array pass over the rows of all the survey's bases and before any orders file
    is written, that ord >= 0 divides p - 1, that ord_sq and jacobi are the values
    `classify.prime_orders` derives from ord, and that the row is zeros exactly
    at p = ell. Bump the version in CACHE_HEADER whenever the row layout or the
    stored values could change.
    Each reader and each writer handles its whole file in one pass, and no
    parsed file outlives the call. The orders file is read and written as one
    (n, 4) int64 array (`load_order_table`, `save_order_table`); `load_orders`
    and `save_classifications` are dict views over those two. All writes come
    from the parent process, never from a B-stage worker, and replace files
    atomically.
    """

    def __init__(self, root: Path):
        self.root = Path(root)

    def _b_path(self) -> Path:
        return self.root / "birregular.csv"

    def _orders_path(self, ell: int) -> Path:
        return self.root / f"orders_{ell}.csv"

    def load_b_pairs(self) -> dict[int, tuple[int, ...]]:
        path = self._b_path()
        body = _read_body(path)
        if not body:
            return {}
        # one split of the whole body: joined by ",\n,", each row is its three cells
        # and then a lone "\n" cell, so a row with any other field count moves a
        # "\n" off the fourth places
        cells = ",\n,".join(body).split(",")
        p, flags, idx = cells[0::4], cells[1::4], cells[2::4]
        try:
            if len(cells) != 4 * len(body) - 1 or cells[3::4].count("\n") != len(body) - 1:
                raise ValueError("a row does not have 3 fields")
            if flags != ["1" if i else "0" for i in idx]:
                raise ValueError("flag does not match index list")
            pairs = {int(q): tuple(map(int, i.split(";"))) if i else () for q, i in zip(p, idx)}
            if len(pairs) < len(body):
                counts = collections.Counter(map(int, p))
                raise ValueError(f"p={min(q for q, n in counts.items() if n > 1)} "
                                 "has more than one row")
        except ValueError as exc:
            raise _corrupt(path, exc) from exc
        return pairs

    def save_b_pairs(self, pairs: dict[int, tuple[int, ...]]) -> None:
        _write_body(self._b_path(), "".join([
            f"{p},1,{';'.join(map(str, idx))}\n" if idx else f"{p},0,\n"
            for p, idx in sorted(pairs.items())
        ]))

    def load_order_table(self, ell: int) -> np.ndarray:
        """orders_<ell>.csv as one (n, 4) int64 array of rows (p, ord, ord_sq,
        jacobi), sorted by p; (0, 4) when the file is absent or foreign."""
        path = self._orders_path(ell)
        body = _read_body(path)
        if not body:
            return np.empty((0, 4), np.int64)
        try:
            if "" in body:  # loadtxt would skip it
                raise ValueError("blank line")
            table = np.loadtxt(body, np.int64, delimiter=",", comments=None, ndmin=2)
            if table.shape[1] != 4:  # every row has the same count, or loadtxt raised
                raise ValueError(f"rows have {table.shape[1]} fields, not 4")
            step = np.diff(table[:, 0])
            if (step < 0).any():  # the writer sorts; a file edited by hand may not be
                table = table[np.argsort(table[:, 0], kind="stable")]
                step = np.diff(table[:, 0])
            if not step.all():
                raise ValueError(f"p={table[1:, 0][step == 0][0]} has more than one row")
        except ValueError as exc:
            raise _corrupt(path, exc) from exc
        return table

    def save_order_table(self, ell: int, table: np.ndarray) -> None:
        """Write the (n, 4) int64 rows (p, ord, ord_sq, jacobi), one per p, as
        orders_<ell>.csv, sorted by p."""
        table = table[np.argsort(table[:, 0], kind="stable")]
        # one format call over the whole table: a vectorised numpy formatter
        # measured 3-4 times slower
        _write_body(self._orders_path(ell),
                    ("{},{},{},{}\n" * len(table)).format(*table.ravel().tolist()))

    def load_orders(self, ell: int) -> dict[int, tuple[int, int, int]]:
        """`load_order_table` as {p: (ord, ord_sq, jacobi)}."""
        p, *columns = self.load_order_table(ell).T.tolist()
        return dict(zip(p, zip(*columns)))

    def save_classifications(self, ell: int, orders: dict[int, tuple[int, int, int]]) -> None:
        """`save_order_table` from {p: (ord, ord_sq, jacobi)}."""
        table = np.array([(p, *row) for p, row in orders.items()], np.int64)
        self.save_order_table(ell, table.reshape(-1, 4))


def _read_body(path: Path) -> list[str]:
    """The lines of one cache file after CACHE_HEADER; [] if it is absent or foreign.
    A body whose last line has no end is a file cut short, and raises SurveyError."""
    try:
        text = path.read_text(errors="replace")
    except FileNotFoundError:
        return []
    lines = text.splitlines()
    if not lines or lines[0] != CACHE_HEADER:
        return []
    if len(lines) > 1 and not text.endswith("\n"):
        raise _corrupt(path, "the last line has no end")
    return lines[1:]


def _corrupt(path: Path, why) -> SurveyError:
    return SurveyError(f"cache file {path} is corrupt ({why}); delete it and re-run")


def _write_body(path: Path, body: str) -> None:
    """Replace path by CACHE_HEADER and the body at once; an interruption keeps the old file."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(f"{CACHE_HEADER}\n{body}")
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _progress(msg: str, quiet: bool) -> None:
    if not quiet:
        print(msg, file=sys.stderr, flush=True)


def _worker_count(threads: int) -> int:
    """B-stage processes for `threads`: 0 means every CPU this process may use, and never more."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:  # macOS: fork but no affinity mask
        cpus = os.cpu_count() or 1
    return min(threads or cpus, cpus)


def _batches(todo: list[int], count: int) -> list[list[int]]:
    """Cut `todo` into at most `count` consecutive runs of about equal p*log2(p) work."""
    work = np.cumsum([p * math.log2(p) for p in todo])
    edges = np.searchsorted(work, work[-1] * np.arange(1, count) / count)
    return [chunk.tolist() for chunk in np.split(np.array(todo), edges) if chunk.size]


def _b_batch(
    primes: list[int],
) -> tuple[dict[int, tuple[int, ...]], tuple[Exception, str] | None]:
    """Worker task: the pairs of every prime in the batch that finished, and the
    first error with its formatted traceback (pickling drops the traceback)."""
    pairs: dict[int, tuple[int, ...]] = {}
    failure = None
    for p in primes:
        try:
            pairs[p] = b_irregular_pairs(p)
        except Exception as exc:  # the rest of the batch still runs
            if failure is None:
                failure = (exc, traceback.format_exc())
    return pairs, failure


def _b_worker_init() -> None:
    """Start a B-stage worker. It ignores SIGINT, which reaches the parent alone.
    Its glibc malloc serves blocks up to 32 MiB from the heap and keeps up to
    256 MiB of freed heap, so the kernel's arrays (over the default 128 KiB mmap
    threshold above p ~ 2^14) are reused, not mapped and unmapped for every
    prime. Without mallopt, or where it refuses the mmap threshold, glibc's
    defaults stay, which costs time but no results. It uses the built-in
    `_signal`: on Python 3.11, importing `signal` costs a forked worker about
    390 page faults and 2-3 ms, `_signal` 33 faults and 0.1 ms."""
    _signal.signal(_signal.SIGINT, _signal.SIG_IGN)
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    # 1 on success, 0 for a refused value: a heap that keeps freed memory helps
    # only while the kernel's arrays come from the heap
    if mallopt(_M_MMAP_THRESHOLD, 32 << 20) == 1:
        mallopt(_M_TRIM_THRESHOLD, 256 << 20)


@dataclass
class _BWorker:
    """The parent's end of one forked B-stage worker; a field is None once done with."""

    pid: int | None
    tasks: int | None  # batch numbers go out here, one a line
    results: BinaryIO  # and pickled (pairs, failure) come back here
    batch: int | None = None  # the batch it is running

    def hand_out(self, queue) -> None:
        """Send the next batch, or stop the worker when none is left."""
        self.batch = next(queue, None)
        if self.batch is None:
            self.stop()
        else:
            os.write(self.tasks, b"%d\n" % self.batch)

    def stop(self) -> None:  # at EOF the worker exits, once its batch is sent
        if self.tasks is not None:
            os.close(self.tasks)
            self.tasks = None

    def receive(self, batches: list[list[int]]):
        """The running batch's (pairs, failure); SurveyError if the worker died first."""
        try:
            return pickle.load(self.results)
        except (EOFError, pickle.UnpicklingError):  # its pipe ended first
            pid, batch, self.pid = self.pid, batches[self.batch], None
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            how = f"exit status {code}" if code >= 0 else f"signal {-code}"
            raise SurveyError(f"B-stage worker {pid} died ({how}) in its batch of the primes "
                              f"{batch[-1]}..{batch[0]}") from None
        finally:
            self.batch = None


def _b_worker(tasks: int, results: int, batches: list[list[int]]) -> None:
    """A forked worker's loop: each batch number read from `tasks` sends its batch's
    pickled `_b_batch` to `results`, until EOF."""
    with open(tasks, "rb") as inbox, open(results, "wb") as outbox:
        for line in inbox:
            outbox.write(pickle.dumps(_b_batch(batches[int(line)])))
            outbox.flush()


def _fork_b_worker(batches: list[list[int]], inherited: list[int]) -> _BWorker:
    """Fork a B-stage worker. It closes `inherited`, the parent's ends of the
    earlier workers' pipes: a worker whose batch pipe stays open in another
    never sees EOF."""
    tasks, task_end = os.pipe()
    result_end, results = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        for fd in (tasks, task_end, result_end, results):
            os.close(fd)
        raise
    if pid == 0:  # the worker leaves through os._exit alone, never into the caller
        status = 1
        try:
            for fd in (*inherited, task_end, result_end):
                os.close(fd)
            _b_worker_init()
            _b_worker(tasks, results, batches)
            status = 0
        except BaseException:
            traceback.print_exc()
            sys.stderr.flush()
        finally:
            os._exit(status)
    os.close(tasks)
    os.close(results)
    return _BWorker(pid, task_end, open(result_end, "rb"))


def _ensure_b_pairs(
    primes: np.ndarray, cache: ClassificationCache, threads: int, quiet: bool
) -> dict[int, tuple[int, ...]]:
    known = cache.load_b_pairs()
    todo = [p for p in primes.tolist() if p >= 5 and p not in known]
    if not todo:  # no fork: a warm survey never pays for one
        return known
    todo.sort(reverse=True)  # largest first: the costliest primes start early
    workers = _worker_count(threads)
    batches = _batches(todo, BATCHES_PER_WORKER * workers)
    queue = iter(range(len(batches)))
    pool: dict[BinaryIO, _BWorker] = {}  # by result pipe
    start = time.time()
    try:
        # fork: workers inherit the loaded modules and the batches; spawn and
        # forkserver re-import numpy and genocchi in each worker, and at x = 5000
        # that start-up eats the gain. A worker takes no lock a caller's thread
        # could hold at the fork (the kernel uses none). Workers ignore SIGINT: a
        # Ctrl-C reaches the parent alone, which lets the running batches finish
        # and saves them.
        for _ in range(min(workers, len(batches))):
            worker = _fork_b_worker(
                batches, [fd for w in pool.values() for fd in (w.tasks, w.results.fileno())])
            pool[worker.results] = worker
            worker.hand_out(queue)
        done = finished = 0  # the ETA holds because every batch carries the same work
        while running := [r for r, w in pool.items() if w.batch is not None]:
            for reader in select.select(running, [], [])[0]:
                pairs, failure = pool[reader].receive(batches)
                known.update(pairs)
                if failure is not None:  # the kernel's own exception, after the finally below
                    error, trace = failure
                    raise error from SurveyError(f"raised in a B-stage worker:\n{trace}")
                pool[reader].hand_out(queue)
                done += len(pairs)
                finished += 1
                elapsed = time.time() - start
                eta = elapsed / finished * (len(batches) - finished)
                _progress(f"b-irregularity: {done}/{len(todo)} primes, {elapsed:.1f}s, "
                          f"ETA {eta:.1f}s", quiet)
    finally:  # an error or interrupt sends no more batches; running ones finish and count
        for worker in pool.values():
            worker.stop()
        for worker in pool.values():
            if worker.batch is not None:
                with contextlib.suppress(SurveyError):  # the first error is the one raised
                    known.update(worker.receive(batches)[0])
            worker.results.close()
            if worker.pid is not None:
                os.waitpid(worker.pid, 0)
        cache.save_b_pairs(known)
    _progress(f"b-irregularity: {len(todo)} primes in {time.time() - start:.1f}s", quiet)
    return known


def _ensure_orders(
    ells: list[int], primes: np.ndarray, cache: ClassificationCache
) -> dict[int, np.ndarray]:
    """For each distinct ell, one (ord, ord_sq, jacobi) row per prime, aligned with
    `primes`; 2 gets zeros. Every base's orders_<ell>.csv is read, every row
    served from a file is checked in one array pass, the rows missing from any
    file come from one `prime_orders` call, and only then is each file that
    gained rows written, its rows above x included."""
    odd = primes[1:]  # 2 is never classified
    tables, found, rows = [], [], {}
    for ell in ells:
        table = cache.load_order_table(ell)
        at = np.searchsorted(table[:, 0], odd)
        hit = at < len(table)
        hit[hit] = table[at[hit], 0] == odd[hit]
        rows[ell] = np.zeros((len(primes), 3), np.int64)
        rows[ell][1:][hit] = table[at[hit], 1:]
        tables.append(table)
        found.append(hit)
    # every row served from any file, against its own ord, in one pass before any write
    base = np.repeat(ells, [np.count_nonzero(hit) for hit in found])
    p = np.concatenate([odd[hit] for hit in found])
    loaded = np.concatenate([rows[ell][1:][hit] for ell, hit in zip(ells, found)])
    o = loaded[:, 0]
    derived = _order_rows(p, o) != loaded  # its first column is o itself
    bad = derived[:, 1] | derived[:, 2] | (o < 0) | ((o == 0) != (p == base))
    bad |= (p - 1) % np.maximum(o, 1) != 0
    if bad.any():
        first = np.flatnonzero(bad)[0]
        why = f"the order row of p={p[first]} contradicts its ord"
        raise _corrupt(cache._orders_path(int(base[first])), why)
    missing = [odd[~hit] for hit in found]
    counts = [m.size for m in missing]
    if sum(counts):  # one array pass for every missing row of every base; none when warm
        computed = prime_orders(np.repeat(ells, counts), np.concatenate(missing))
        parts = np.split(computed, np.cumsum(counts)[:-1])
        for ell, table, hit, new_p, new in zip(ells, tables, found, missing, parts):
            if new_p.size:
                rows[ell][1:][~hit] = new
                cache.save_order_table(ell, np.concatenate([table, np.column_stack([new_p, new])]))
    return rows


#: the SurveyConfig fields that the configs of one run_survey call must share
_SHARED_FIELDS = ("x", "threads", "cache_dir", "quiet")


def run_survey(*configs: SurveyConfig) -> list[SurveyRow]:
    """Classify all primes <= x and build one row per (progression, variant) of
    each config, in config order.

    All configs must have the same x, threads, cache_dir and quiet, so that
    they share one pass: run_survey(a, b) returns run_survey(a) + run_survey(b)
    and leaves the same cache files, but sieves once, reads and writes
    birregular.csv once and computes the missing orders of every ell in one
    pass. Stages, cheapest first: every row's theoretical columns (one
    `density.ratios` per row), the sieve, the check that every progression
    holds a prime, the B-stage, the orders of every distinct ell at once, then
    each ell's flags, and the counts.
    """
    if not configs:
        raise ValueError("run_survey needs at least one SurveyConfig")
    first = configs[0]
    for i, config in enumerate(configs[1:], 1):
        for name in _SHARED_FIELDS:
            if getattr(config, name) != getattr(first, name):
                raise ValueError(
                    f"the configs of one survey must share {', '.join(_SHARED_FIELDS)}: "
                    f"config {i} has {name}={getattr(config, name)!r}, "
                    f"config 0 {getattr(first, name)!r}")
    theory = [  # one delta per row; density raises here for a row with no closed form
        {(d, a, v): ratios(v, config.ell, d, a)
         for d, a in config.progressions for v in config.variants}
        for config in configs
    ]
    primes = sieve_primes(first.x)
    classes = {(d, a): primes % d == a % d for config in configs for d, a in config.progressions}
    empty = [f"{a} mod {d}" for (d, a), in_class in classes.items() if not in_class.any()]
    if empty:  # before the B-stage: a row with no prime has no ratio
        raise ValueError(f"no prime <= {first.x} is {', '.join(empty)}")
    cache = ClassificationCache(resolve_cache_dir(first.cache_dir))
    b_pairs = _ensure_b_pairs(primes, cache, first.threads, first.quiet)
    # both sides are unique, and saying so skips np.unique, whose first call
    # imports numpy.ma (about 10 ms)
    b = np.isin(primes, [p for p, idx in b_pairs.items() if idx], assume_unique=True)

    flags: dict[int, dict[str, np.ndarray]] = {}  # by ell, in config order
    for ell, orders in _ensure_orders(list(dict.fromkeys(c.ell for c in configs)),
                                      primes, cache).items():
        g, _, hminus, hplus = irregular_flags(ell, primes, orders, b)
        flags[ell] = {"G": g, "Hminus": hminus, "Hplus": hplus}
    rows: list[SurveyRow] = []
    for config, row_theory in zip(configs, theory):
        for d, a in config.progressions:
            in_class = classes[d, a]
            denominator = int(np.count_nonzero(in_class))
            for variant in config.variants:
                count = int(np.count_nonzero(flags[config.ell][variant] & in_class))
                conjectured, lower_bound = row_theory[d, a, variant]
                rows.append(SurveyRow(
                    ell=config.ell, d=d, a=a, x=config.x, count_irregular=count,
                    count_primes=denominator, experimental=round(count / denominator, 6),
                    conjectured=round(conjectured, 9), lower_bound=round(lower_bound, 9),
                    variant=variant,
                ))
    return rows


#: the CSV columns in order, each a SurveyRow field and its format spec
_CSV_COLUMNS = {
    "ell": "", "d": "", "a": "", "x": "", "count_irregular": "", "count_primes": "",
    "experimental": ".6f", "conjectured": ".9f", "lower_bound": ".9f", "variant": "",
}

#: the key columns of each one-line-per-row text layout, field -> width;
#: the experimental and theoretical columns follow them (hpm pairs rows instead)
_TEXT_KEYS = {
    "g1": {"ell": 4},
    "g3": {"ell": 4, "d": 3, "a": 3},
    "survey": {"ell": 4, "d": 3, "a": 3, "variant": 7},
}


def _format_csv(rows: list[SurveyRow], deterministic: bool) -> str:
    lines = [] if deterministic else [f"# generated {time.strftime('%Y-%m-%dT%H:%M:%S%z')}"]
    lines.append(",".join(_CSV_COLUMNS))
    for r in rows:
        lines.append(",".join(format(getattr(r, f), spec) for f, spec in _CSV_COLUMNS.items()))
    return "\n".join(lines) + "\n"


def _format_text(which: str, rows: list[SurveyRow]) -> str:
    if which in TABLE_PRESETS:  # a table layout hides columns, so it names only its own rows
        ells = {r.ell for r in rows}
        table = [(ell, d, a, v) for ell, progressions, variants in TABLE_PRESETS[which]
                 if ell in ells for d, a in progressions for v in variants]
        if [(r.ell, r.d, r.a, r.variant) for r in rows] != table:
            raise ValueError(f"the {which} layout prints only the rows of run_table({which!r}, "
                             "...), in order; the survey layout prints any rows")
    if which == "hpm":  # by the rule above: an Hplus row, then its Hminus row, per ell
        out = [f"{'ell':>4}  {'H+ exp':>10} {'H+ theo':>10}  {'H- exp':>10} {'H- theo':>10}"]
        for plus, minus in zip(rows[::2], rows[1::2]):
            out.append(f"{plus.ell:>4}  {plus.experimental:>10.6f} {plus.conjectured:>10.6f}  "
                       f"{minus.experimental:>10.6f} {minus.conjectured:>10.6f}")
    else:
        keys = _TEXT_KEYS[which]
        out = [" ".join(f"{f:>{w}}" for f, w in keys.items())
               + f"  {'experimental':>12} {'theoretical':>12}"]
        for r in rows:
            out.append(
                " ".join(f"{getattr(r, f):>{w}}" for f, w in keys.items())
                + f"  {r.experimental:>12.6f} {r.conjectured:>12.6f}"
            )
    return "\n".join(out) + "\n"


def emit_table(
    which: str, rows: list[SurveyRow], fmt: str = "text", deterministic: bool = False
) -> str:
    """Render survey rows in the requested format; `which` picks the text layout.

    `which` is a TABLE_PRESETS name or "survey", whatever the format. A table's text layout
    takes exactly what run_table(which, ...) returns for the ells among the rows, in its
    order, and raises ValueError on other rows; the survey layout, CSV and JSON print any rows.
    """
    if which not in TABLE_PRESETS and which != "survey":
        raise ValueError(
            f"unknown layout {which!r}; expected 'survey' or one of {sorted(TABLE_PRESETS)}"
        )
    if fmt == "csv":
        return _format_csv(rows, deterministic)
    if fmt == "json":
        return json.dumps([asdict(r) for r in rows], indent=2) + "\n"
    if fmt == "text":
        return _format_text(which, rows)
    raise ValueError(f"unknown format {fmt!r}")


#: ready-made (ell, progressions, variants) sets for the reference tables
TABLE_PRESETS: dict[str, list[tuple[int, tuple[tuple[int, int], ...], tuple[str, ...]]]] = {
    "g1": [(ell, ((1, 1),), ("G",)) for ell in (2, 3, 5, 7, 11, 13, 17, 19)],
    "hpm": [(ell, ((1, 1),), ("Hplus", "Hminus")) for ell in (2, 3, 5, 7, 11, 13, 17, 19)],
    "g3": [
        (3, ((3, 1), (3, 2), (4, 1), (4, 3)), ("G",)),
        (5, ((3, 1), (3, 2), (4, 1), (4, 3)), ("G",)),
        (7, ((3, 1), (3, 2), (4, 1), (4, 3)), ("G",)),
        (
            11,
            tuple((7, a) for a in range(1, 7))
            + tuple((15, a) for a in (1, 2, 4, 7, 8, 11, 13, 14)),
            ("G",),
        ),
    ],
}


def run_table(
    which: str,
    x: int,
    *,
    threads: int = 0,
    cache_dir=None,
    quiet: bool = False,
    deterministic: bool = False,
) -> list[SurveyRow]:
    """Run the surveys backing one of the reference tables, as one run_survey
    call over one config per base: one sieve, one read of birregular.csv and
    one B-stage for the whole table.

    `deterministic` is accepted and ignored, since rows carry no timestamp;
    emit_table's argument of that name decides the CSV header. The scripts
    in perfbench/ still pass it.
    """
    if which not in TABLE_PRESETS:
        raise ValueError(f"unknown table {which!r}; expected one of {sorted(TABLE_PRESETS)}")
    return run_survey(*(
        SurveyConfig(ell=ell, x=x, progressions=progressions, variants=variants,
                     threads=threads, cache_dir=cache_dir, quiet=quiet)
        for ell, progressions, variants in TABLE_PRESETS[which]
    ))
