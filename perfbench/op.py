"""One benchmark op in a fresh interpreter.

`run.py` starts this script once per op with a JSON spec as its only
argument. It imports genocchi, prepares the op's inputs, times one call,
checks every output and writes a JSON result to `spec["result"]`. A fresh
process per op keeps classify.py's in-process caches from serving a later op.

The task `prepare` runs once per benchmark invocation, untimed: it records
versions, computes the exact Bernoulli anchor and, for warm_tables, has the
program build the B-irregularity cache that each op starts from.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import re
import resource
import shutil
import sys
import time
from pathlib import Path

from spans import Tracer, small_primes

VARIANTS = ("G", "Hminus", "Hplus")
TABLES = ("g1", "hpm", "g3")
EXACT_ANCHOR_LIMIT = 300
TOL = 5e-6
# A cold op must load nothing and a warm op everything: anything else means
# the cache leaked in from outside the op.
EXPECTED_HIT_RATIO = {"cold_survey": 0.0, "warm_tables": 1.0}

# Theoretical columns of the published Tables 1-3.
TABLE_1 = {
    2: 0.659776, 3: 0.637095, 5: 0.653807, 7: 0.657010,
    11: 0.658736, 13: 0.659045, 17: 0.659358, 19: 0.659444,
}
TABLE_2_PLUS = {
    2: 0.596279, 3: 0.571007, 5: 0.559070, 7: 0.571007,
    11: 0.571007, 13: 0.569544, 17: 0.570170, 19: 0.571007,
}
TABLE_2_MINUS = {
    2: 0.603072, 3: 0.591731, 5: 0.600088, 7: 0.601689,
    11: 0.602552, 13: 0.602706, 17: 0.602863, 19: 0.602906,
}
TABLE_3 = {
    (3, 3, 1): 0.818547, (3, 3, 2): 0.455642, (3, 4, 1): 0.727821, (3, 4, 3): 0.546368,
    (5, 3, 1): 0.723046, (5, 3, 2): 0.584569, (5, 4, 1): 0.761246, (5, 4, 3): 0.546368,
    (7, 3, 1): 0.725608, (7, 3, 2): 0.588412, (7, 4, 1): 0.767652, (7, 4, 3): 0.546368,
    (11, 7, 1): 0.700353, (11, 7, 2): 0.650412, (11, 7, 3): 0.650412, (11, 7, 4): 0.650412,
    (11, 7, 5): 0.650412, (11, 7, 6): 0.650412,
    (11, 15, 1): 0.770096, (11, 15, 2): 0.568929, (11, 15, 4): 0.712620,
    (11, 15, 7): 0.712620, (11, 15, 8): 0.568929, (11, 15, 11): 0.655144,
    (11, 15, 13): 0.712620, (11, 15, 14): 0.568929,
}


def orders_digest(orders: dict[int, tuple[int, int, int]]) -> str:
    text = "\n".join(f"{p},{o},{o2},{j}" for p, (o, o2, j) in sorted(orders.items()))
    return hashlib.sha256(text.encode()).hexdigest()


def row_dicts(rows) -> list[dict]:
    return [dataclasses.asdict(r) for r in rows]


# ------------------------------------------------------------------ set-up


def setup_cold_survey(spec):
    from genocchi import survey

    cfg = survey.SurveyConfig(
        ell=spec["ell"],
        x=spec["x"],
        variants=VARIANTS,
        threads=spec["threads"],
        cache_dir=spec["cache_dir"],
        quiet=True,
    )
    return lambda: survey.run_survey(cfg)


def setup_warm_tables(spec):
    from genocchi import survey

    shutil.copytree(spec["b_cache"], spec["cache_dir"])

    def op():
        out = {}
        for which in TABLES:
            rows = survey.run_table(
                which,
                spec["x"],
                threads=spec["threads"],
                cache_dir=spec["cache_dir"],
                quiet=True,
                deterministic=True,
            )
            out[which] = (rows, survey.emit_table(which, rows, "csv", deterministic=True))
        return out

    return op


def setup_large_prime(spec):
    from genocchi import cli

    argv = ["classify", "--ell", "2", "--p", str(spec["p"])]

    def op():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.cli_main(argv)
        return rc, buf.getvalue()

    return op


# ------------------------------------------------------------------ checks


def check_rows(rows: list[dict], want: list[dict], pi_x: int) -> list[str]:
    errors = []
    if rows != want:
        errors.append(f"rows differ from golden: {rows} != {want}")
    for r in rows:
        ell, d, a, variant = r["ell"], r["d"], r["a"], r["variant"]
        if (d, a) == (1, 1) and r["count_primes"] != pi_x:
            errors.append(f"count_primes {r['count_primes']} != pi(x) = {pi_x}")
        if variant == "Hplus":
            theory = TABLE_2_PLUS[ell]
        elif variant == "Hminus":
            theory = TABLE_2_MINUS[ell]
        elif (d, a) == (1, 1):
            theory = TABLE_1[ell]
        else:
            theory = TABLE_3[(ell, d, a)]
        if abs(r["conjectured"] - theory) >= TOL:
            errors.append(f"conjectured {r['conjectured']} for {ell},{d},{a},{variant} != {theory}")
    return errors


def check_cache(spec, ells) -> list[str]:
    """B flags and orders the op left in its cache against golden and exact values."""
    from genocchi import survey

    cache = survey.ClassificationCache(Path(spec["cache_dir"]))
    errors = []
    loaded = cache.load_b_pairs()
    primes = [p for p in small_primes(spec["x"]) if p >= 5]
    if sorted(loaded) != primes:
        errors.append("B cache does not hold exactly the primes 5 <= p <= x")
    irregular = {str(p): list(idx) for p, idx in loaded.items() if idx}
    if irregular != spec["golden_b"]:
        errors.append("B-irregular pairs differ from golden")
    for p, idx in spec["exact_b"].items():
        if list(loaded.get(int(p), ())) != idx:
            errors.append(f"B flags of p={p} differ from exact Bernoulli numerators")
    for ell in ells:
        if orders_digest(cache.load_orders(ell)) != spec["golden_orders"][str(ell)]:
            errors.append(f"orders for ell={ell} differ from golden")
    return errors


def _order(g: int, p: int) -> int:
    t = p - 1
    n, q = p - 1, 2
    while q * q <= n:
        if n % q == 0:
            while n % q == 0:
                n //= q
            while t % q == 0 and pow(g, t // q, p) == 1:
                t //= q
        q += 1
    if n > 1 and t % n == 0 and pow(g, t // n, p) == 1:
        t //= n
    return t


def check_large_prime(spec, out) -> list[str]:
    rc, text = out
    line = text.strip()
    if rc != 0:
        return [f"cli exited with {rc}"]
    errors = []
    if line != spec["golden_line"]:
        errors.append(f"output {line!r} != golden {spec['golden_line']!r}")
    fields = dict(re.findall(r"(\S+?)=(-?\d+)", line))
    p = spec["p"]
    want = {"ord": _order(2, p), "ord_sq": _order(4, p), "jacobi": 1 if pow(2, (p - 1) // 2, p) == 1 else -1}
    for key, value in want.items():
        if fields.get(key) != str(value):
            errors.append(f"{key}={fields.get(key)} but the anchor gives {value}")
    return errors


def check(spec, out) -> list[str]:
    workload = spec["workload"]
    pi_x = len(small_primes(spec["x"]))
    if workload == "cold_survey":
        errors = check_rows(row_dicts(out), spec["golden_rows"], pi_x)
        return errors + check_cache(spec, [spec["ell"]])
    if workload == "warm_tables":
        errors = []
        for which, (rows, text) in out.items():
            errors += check_rows(row_dicts(rows), spec["golden_rows"][which], pi_x)
            if text != spec["golden_csv"][which]:
                errors.append(f"emitted {which} CSV differs from golden")
        return errors + check_cache(spec, [int(e) for e in spec["golden_orders"]])
    return check_large_prime(spec, out)


# ------------------------------------------------------------------ tasks


def prepare(spec) -> dict:
    import numpy

    from genocchi import exactseq, kernels, survey

    exact = {}
    for p in small_primes(min(EXACT_ANCHOR_LIMIT, spec["x"])):
        if p >= 5:
            exact[str(p)] = [
                n for n in range(2, p - 2, 2) if exactseq.bernoulli(n).numerator % p == 0
            ]
    build = spec.get("build")
    if build and not Path(build).exists():
        tmp = Path(build + ".tmp")
        shutil.rmtree(tmp, ignore_errors=True)
        survey.run_survey(
            survey.SurveyConfig(ell=2, x=spec["x"], threads=spec["threads"], cache_dir=tmp, quiet=True)
        )
        for f in tmp.glob("orders_*"):
            f.unlink()
        tmp.rename(build)
    backend = getattr(kernels, "active_backend", None)
    return {
        "exact_b": exact,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "kernel_backend": backend() if backend else "absent",
    }


SETUP = {
    "cold_survey": setup_cold_survey,
    "warm_tables": setup_warm_tables,
    "large_prime": setup_large_prime,
}


def main() -> None:
    spec = json.loads(sys.argv[1])
    t0 = time.perf_counter()
    import genocchi  # noqa: F401

    result = {"import_s": time.perf_counter() - t0}
    if spec["workload"] == "prepare":
        result.update(prepare(spec))
    else:
        tracer = Tracer() if spec["trace"] else None
        if tracer:
            tracer.install()
        op = SETUP[spec["workload"]](spec)
        result["t_first"] = time.monotonic()
        if not spec.get("probe"):
            r0 = resource.getrusage(resource.RUSAGE_SELF)
            c0 = time.perf_counter()
            out = op()
            result["op_s"] = time.perf_counter() - c0
            r1 = resource.getrusage(resource.RUSAGE_SELF)
            result["cpu_s"] = (r1.ru_utime - r0.ru_utime) + (r1.ru_stime - r0.ru_stime)
            if tracer:
                tracer.uninstall()
                result["layers"] = tracer.metrics()
                result["absent"] = sorted(tracer.absent)
                if spec.get("spans_out"):
                    tracer.dump(spec["spans_out"], spec["op_id"])
            result["errors"] = check(spec, out)
            want_hit = EXPECTED_HIT_RATIO.get(spec["workload"])
            got_hit = result.get("layers", {}).get("survey.cache.b_hit_ratio")
            if got_hit is not None and want_hit is not None and got_hit != want_hit:
                result["errors"].append(f"b_hit_ratio {got_hit} != {want_hit}: cache not isolated")
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    tmp = spec["result"] + ".tmp"
    with open(tmp, "w") as f:
        json.dump(result, f)
    os.replace(tmp, spec["result"])


if __name__ == "__main__":
    main()
