"""Survey orchestration: classify every prime up to x, compare experimental
irregularity ratios per progression against the conjectured and lower-bound
ratios, and emit the result tables as text, CSV, or JSON.

Two counting conventions, and how they map to the published Tables 1-3:

- Numerator: count_irregular counts the odd primes p <= x that the rules of
  `classify.classify_from_orders` flag. 2 and 3 are never irregular.
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
"""

from __future__ import annotations

import json
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from .classify import PrimeClassification, b_irregular_pairs, classify_from_orders, classify_prime
from .density import conjectured_ratio, lower_bound_ratio
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
DEFAULT_CACHE_DIR = Path.home() / ".cache" / "genocchi"
#: first line of every cache file; see ClassificationCache for when to bump it
CACHE_HEADER = "# genocchi cache v2 (kernel: chirp, two 9-bit limbs)"

CSV_HEADER = (
    "ell,d,a,x,count_irregular,count_primes,experimental,conjectured,lower_bound,variant"
)

_FLAG_FIELD = {
    "G": "g_irregular",
    "Hminus": "h_minus_irregular",
    "Hplus": "h_plus_irregular",
}


class SurveyError(RuntimeError):
    pass


@dataclass(frozen=True)
class SurveyConfig:
    """One survey request, checked whole before any prime is computed.

    It owns its own rules (100 <= x <= MAX_KERNEL_PRIME, at least one variant and
    one progression, 1 <= a <= d); density decides which (variant, ell, d, a) rows exist.
    """

    ell: int
    x: int
    progressions: tuple[tuple[int, int], ...] = ((1, 1),)
    variants: tuple[str, ...] = ("G",)
    threads: int = 0  # 0 means use all available cores
    cache_dir: Path | str | None = None
    quiet: bool = False

    def __post_init__(self):
        if self.x < 100:
            raise ValueError(f"x must be >= 100, got {self.x}")
        if self.x > MAX_KERNEL_PRIME:
            raise ValueError(f"x must be <= {MAX_KERNEL_PRIME} (the kernel bound), got {self.x}")
        if not self.variants or not self.progressions:
            raise ValueError("variants and progressions must be non-empty")
        for d, a in self.progressions:
            if not 1 <= a <= d:
                raise ValueError(f"progression ({d}, {a}) must have 1 <= a <= d")
            for variant in self.variants:
                conjectured_ratio(variant, self.ell, d, a)


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
    """An explicit directory wins; GENOCCHI_CACHE_DIR applies only when none is given."""
    if configured is not None:
        return Path(configured).expanduser()
    env = os.environ.get(CACHE_ENV)
    if env:
        return Path(env).expanduser()
    return DEFAULT_CACHE_DIR


class ClassificationCache:
    """File-backed cache: one CSV per concern under the cache directory.

    Every file is the line CACHE_HEADER, then one row per prime: birregular.csv
    holds `p,b_irregular,indices` (indices ';'-joined) for primes p >= 5, and
    orders_<ell>.csv holds `p,ord,ord_sq,jacobi` for odd primes. Flags are
    rebuilt from the stored orders on load, so the two files never drift apart.

    A file whose first line is not CACHE_HEADER (another schema or kernel) reads
    as absent: its primes are recomputed and the file rewritten. A malformed row
    under the current header raises SurveyError. Bump the version in
    CACHE_HEADER whenever the row layout or the stored values could change.
    All writes come from the survey main thread and replace files atomically.
    """

    def __init__(self, root: Path):
        self.root = Path(root)

    def _b_path(self) -> Path:
        return self.root / "birregular.csv"

    def _orders_path(self, ell: int) -> Path:
        return self.root / f"orders_{ell}.csv"

    def load_b_pairs(self) -> dict[int, tuple[int, ...]]:
        return _read_rows(self._b_path(), _parse_b_row)

    def save_b_pairs(self, pairs: dict[int, tuple[int, ...]]) -> None:
        _write_rows(
            self._b_path(),
            ((p, int(bool(idx)), ";".join(map(str, idx))) for p, idx in sorted(pairs.items())),
        )

    def load_orders(self, ell: int) -> dict[int, tuple[int, int, int]]:
        return _read_rows(self._orders_path(ell), _parse_orders_row)

    def save_classifications(self, ell: int, recs: dict[int, PrimeClassification]) -> None:
        _write_rows(
            self._orders_path(ell),
            ((p, r.ord_ell, r.ord_ell_sq, r.jacobi_ell_p) for p, r in sorted(recs.items())),
        )


def _parse_b_row(fields: list[str]) -> tuple[int, tuple[int, ...]]:
    p, flag, idx = fields
    indices = tuple(int(t) for t in idx.split(";") if t)
    if bool(int(flag)) != bool(indices):
        raise ValueError("flag does not match index list")
    return int(p), indices


def _parse_orders_row(fields: list[str]) -> tuple[int, tuple[int, int, int]]:
    p, ord_ell, ord_ell_sq, jacobi = map(int, fields)
    return p, (ord_ell, ord_ell_sq, jacobi)


def _read_rows(path: Path, parse_row: Callable[[list[str]], tuple]) -> dict:
    """The rows of one cache file keyed by prime; {} if it is absent or foreign."""
    try:
        lines = path.read_text(errors="replace").splitlines()
    except FileNotFoundError:
        return {}
    if not lines or lines[0] != CACHE_HEADER:
        return {}
    try:
        return dict(parse_row(line.split(",")) for line in lines[1:])
    except ValueError as exc:
        raise SurveyError(f"cache file {path} is corrupt ({exc}); delete it and re-run") from exc


def _write_rows(path: Path, rows: Iterable[tuple]) -> None:
    """Replace path by CACHE_HEADER and the rows at once; an interruption keeps the old file."""
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [CACHE_HEADER, *(",".join(map(str, row)) for row in rows)]
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text("\n".join(lines) + "\n")
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _progress(msg: str, quiet: bool) -> None:
    if not quiet:
        print(msg, file=sys.stderr, flush=True)


def _ensure_b_pairs(
    primes: np.ndarray, cache: ClassificationCache, threads: int, quiet: bool
) -> dict[int, tuple[int, ...]]:
    known = cache.load_b_pairs()
    todo = [int(p) for p in primes if p >= 5 and int(p) not in known]
    if not todo:
        return known
    todo.sort(reverse=True)  # largest first: the costliest primes start early
    start = time.time()
    workers = threads if threads > 0 else (os.cpu_count() or 1)

    pool = ThreadPoolExecutor(max_workers=workers)
    futures = {pool.submit(b_irregular_pairs, p): p for p in todo}
    try:  # in submission order: waking on every completion made cold surveys ~5% slower
        for done, future in enumerate(futures, 1):
            future.result()  # a failing prime raises here
            if done % 500 == 0:
                elapsed = time.time() - start
                _progress(f"b-irregularity: {done}/{len(todo)} primes ({elapsed:.1f}s)", quiet)
    finally:  # a failing prime must not cost any prime that finished, before or after it
        pool.shutdown(cancel_futures=True)
        for future, p in futures.items():
            if not future.cancelled() and future.exception() is None:
                known[p] = tuple(pair.index for pair in future.result())
        cache.save_b_pairs(known)
    _progress(f"b-irregularity: {len(todo)} primes in {time.time() - start:.1f}s", quiet)
    return known


def _ensure_classifications(
    ell: int,
    primes: np.ndarray,
    b_pairs: dict[int, tuple[int, ...]],
    cache: ClassificationCache,
) -> dict[int, PrimeClassification]:
    """Every odd prime's classification, keyed in the order of `primes`."""
    stored = cache.load_orders(ell)
    recs: dict[int, PrimeClassification] = {}
    for p in primes[1:].tolist():  # 2 is never classified
        b = bool(b_pairs.get(p))
        orders = stored.get(p)
        if orders is None:
            recs[p] = classify_prime(ell, p, b)
        else:
            recs[p] = classify_from_orders(ell, p, orders, b)
    if recs.keys() - stored.keys():
        cache.save_classifications(ell, recs)
    return recs


def run_survey(config: SurveyConfig) -> list[SurveyRow]:
    """Classify all primes <= x and build one row per (progression, variant)."""
    primes = sieve_primes(config.x)
    cache = ClassificationCache(resolve_cache_dir(config.cache_dir))
    b_pairs = _ensure_b_pairs(primes, cache, config.threads, config.quiet)
    recs = _ensure_classifications(config.ell, primes, b_pairs, cache)

    # one flag per prime and variant, aligned with primes; 2 is never flagged
    flags = {
        v: np.array([False] + [getattr(r, _FLAG_FIELD[v]) for r in recs.values()])
        for v in config.variants
    }

    rows: list[SurveyRow] = []
    for d, a in config.progressions:
        in_class = primes % d == a % d
        denominator = int(np.count_nonzero(in_class))
        for variant in config.variants:
            count = int(np.count_nonzero(flags[variant] & in_class))
            rows.append(
                SurveyRow(
                    ell=config.ell,
                    d=d,
                    a=a,
                    x=config.x,
                    count_irregular=count,
                    count_primes=denominator,
                    experimental=round(count / denominator, 6),
                    conjectured=round(conjectured_ratio(variant, config.ell, d, a), 9),
                    lower_bound=round(lower_bound_ratio(variant, config.ell, d, a), 9),
                    variant=variant,
                )
            )
    return rows


def _format_csv(rows: list[SurveyRow], deterministic: bool) -> str:
    lines = []
    if not deterministic:
        lines.append(f"# generated {time.strftime('%Y-%m-%dT%H:%M:%S%z')}")
    lines.append(CSV_HEADER)
    for r in rows:
        lines.append(
            f"{r.ell},{r.d},{r.a},{r.x},{r.count_irregular},{r.count_primes},"
            f"{r.experimental:.6f},{r.conjectured:.9f},{r.lower_bound:.9f},{r.variant}"
        )
    return "\n".join(lines) + "\n"


def _format_json(rows: list[SurveyRow]) -> str:
    return json.dumps([asdict(r) for r in rows], indent=2) + "\n"


def _format_text(which: str, rows: list[SurveyRow]) -> str:
    out = []
    if which == "hpm":
        out.append(f"{'ell':>4}  {'H+ exp':>10} {'H+ theo':>10}  {'H- exp':>10} {'H- theo':>10}")
        by_ell: dict[int, dict[str, SurveyRow]] = {}
        for r in rows:
            by_ell.setdefault(r.ell, {})[r.variant] = r
        for ell in sorted(by_ell):
            plus, minus = by_ell[ell]["Hplus"], by_ell[ell]["Hminus"]
            out.append(
                f"{ell:>4}  "
                f"{plus.experimental:>10.6f} {plus.conjectured:>10.6f}  "
                f"{minus.experimental:>10.6f} {minus.conjectured:>10.6f}"
            )
    elif which == "g3":
        out.append(f"{'ell':>4} {'d':>3} {'a':>3}  {'experimental':>12} {'theoretical':>12}")
        for r in rows:
            out.append(
                f"{r.ell:>4} {r.d:>3} {r.a:>3}  {r.experimental:>12.6f} {r.conjectured:>12.6f}"
            )
    else:
        out.append(f"{'ell':>4}  {'experimental':>12} {'theoretical':>12}")
        for r in rows:
            out.append(f"{r.ell:>4}  {r.experimental:>12.6f} {r.conjectured:>12.6f}")
    return "\n".join(out) + "\n"


def emit_table(
    which: str, rows: list[SurveyRow], fmt: str = "text", deterministic: bool = False
) -> str:
    """Render survey rows in the requested format; `which` picks the text layout."""
    if fmt == "csv":
        return _format_csv(rows, deterministic)
    if fmt == "json":
        return _format_json(rows)
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
    """Run the surveys backing one of the reference tables.

    `deterministic` is accepted and ignored, since rows carry no timestamp;
    emit_table's argument of that name decides the CSV header. The scripts
    in perfbench/ still pass it.
    """
    if which not in TABLE_PRESETS:
        raise ValueError(f"unknown table {which!r}; expected one of {sorted(TABLE_PRESETS)}")
    rows: list[SurveyRow] = []
    for ell, progressions, variants in TABLE_PRESETS[which]:
        cfg = SurveyConfig(
            ell=ell,
            x=x,
            progressions=progressions,
            variants=variants,
            threads=threads,
            cache_dir=cache_dir,
            quiet=quiet,
        )
        rows.extend(run_survey(cfg))
    return rows
