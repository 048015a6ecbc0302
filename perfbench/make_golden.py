#!/usr/bin/env python3
"""Record the golden outputs that the benchmark's checks compare against.

    python3 perfbench/make_golden.py

Runs the program in-process at both benchmark sizes and writes
perfbench/golden.json: survey rows per Table-1 base, the B-irregular pairs
and a digest of the stored orders per base, the rows and CSV text of the
g1/hpm/g3 tables, and the `classify` output line for every prime of the
large_prime pool. Re-run it only when the program's outputs are meant to
change, and say so in the change that does it.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import shutil
import sys
import tempfile
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
os.environ.pop("GENOCCHI_CACHE_DIR", None)

from op import TABLES, VARIANTS, orders_digest  # noqa: E402
from run import SIZES, TABLE1_BASES, nproc  # noqa: E402
from spans import small_primes  # noqa: E402


def classify_line(p: int) -> tuple[int, str]:
    from genocchi import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.cli_main(["classify", "--ell", "2", "--p", str(p)])
    if rc != 0:
        raise RuntimeError(f"classify failed for p={p}")
    return p, buf.getvalue().strip()


def large_pool(size: dict) -> list[int]:
    """`pool` primes spread evenly over each stratum of the large_prime range."""
    lo, hi = size["large"]
    k, m = size["strata"], size["pool"]
    primes = set(small_primes(hi))
    pool = []
    for s in range(k):
        s_lo, s_hi = lo + s * (hi - lo) // k, lo + (s + 1) * (hi - lo) // k
        for i in range(m):
            n = s_lo + (2 * i + 1) * (s_hi - s_lo) // (2 * m)
            while n not in primes:
                n += 1
            if n >= s_hi or (n - lo) * k // (hi - lo) != s:
                raise RuntimeError(f"no pool prime in stratum {s}")
            pool.append(n)
    return sorted(set(pool))


def golden_for(size: dict, workdir: Path) -> dict:
    from genocchi import survey

    x = size["x"]
    cold = workdir / "cold"
    rows, orders = {}, {}
    for ell in TABLE1_BASES:
        cfg = survey.SurveyConfig(
            ell=ell, x=x, variants=VARIANTS, threads=nproc(), cache_dir=cold, quiet=True
        )
        rows[str(ell)] = [dataclasses.asdict(r) for r in survey.run_survey(cfg)]
    cache = survey.ClassificationCache(cold)
    for ell in TABLE1_BASES:
        orders[str(ell)] = orders_digest(cache.load_orders(ell))
    b_pairs = {str(p): list(idx) for p, idx in sorted(cache.load_b_pairs().items()) if idx}

    warm = workdir / "warm"
    shutil.copytree(cold, warm, ignore=shutil.ignore_patterns("orders_*"))
    tables, csv = {}, {}
    for which in TABLES:
        got = survey.run_table(which, x, threads=nproc(), cache_dir=warm, quiet=True, deterministic=True)
        tables[which] = [dataclasses.asdict(r) for r in got]
        csv[which] = survey.emit_table(which, got, "csv", deterministic=True)
    warm_cache = survey.ClassificationCache(warm)
    for ell in TABLE1_BASES:
        if orders_digest(warm_cache.load_orders(ell)) != orders[str(ell)]:
            raise RuntimeError(f"warm and cold orders differ for ell={ell}")

    with ProcessPoolExecutor(max_workers=nproc(), mp_context=get_context("spawn")) as pool:
        large = dict(pool.map(classify_line, large_pool(size)))
    return {
        "x": x,
        "rows": rows,
        "orders": orders,
        "b_pairs": b_pairs,
        "tables": tables,
        "csv": csv,
        "large": {str(p): line for p, line in sorted(large.items())},
    }


def main() -> None:
    golden = {}
    for name, size in SIZES.items():
        with tempfile.TemporaryDirectory(dir=HERE) as tmp:
            golden[name] = golden_for(size, Path(tmp))
        print(f"{name}: {len(golden[name]['large'])} large_prime pool primes", file=sys.stderr)
    (HERE / "golden.json").write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
