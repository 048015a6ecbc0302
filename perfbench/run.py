#!/usr/bin/env python3
"""Survey benchmark for genocchi.

    python3 perfbench/run.py --workload cold_survey --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --smoke

Runs ops of one workload for up to --seconds seconds (an op that would end
later is not started; the first op always runs). Each op runs in a fresh child
interpreter (op.py), one at a time, with a fresh cache directory and without
GENOCCHI_CACHE_DIR in its environment; every output is checked. --trace 0
prints the end-to-end metrics; --trace 1 alternates untraced and traced ops
on the same inputs and prints the per-layer metrics, including the tracing
overhead. The last stdout line is one JSON object with the keys correct,
attempted, failed and metrics.

--smoke runs every workload once at tiny sizes with tracing on and checks
that every metric named in BENCHMARK.json appears with its unit.

Exit codes: 0 success, 1 an op failed its checks (or a smoke check failed),
2 the genocchi sources are missing. See README.md for the metric map.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
SRC = REPO / "src"
WORK = HERE / ".work"

WORKLOADS = ("cold_survey", "warm_tables", "large_prime")
TABLE1_BASES = (2, 3, 5, 7, 11, 13, 17, 19)
# large_prime draws one prime per stratum of its range from the golden pool
# and runs them centre-out, so the median op sits near the middle of the
# range however many ops fit in a run.
SIZES = {
    "full": {"x": 5000, "large": (20000, 40000), "strata": 41, "pool": 3},
    "smoke": {"x": 400, "large": (200, 300), "strata": 3, "pool": 2},
}
END_TO_END = {"op_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
PER_LAYER = {
    "kernels.power_sums.calls": "count",
    "kernels.power_sums.busy_s": "s",
    "kernels.naive_pairs": "count",
    "kernels.naive_pairs_per_s": "1/s",
    "classify.b_irregular_pairs.calls": "count",
    "classify.b_irregular_pairs.busy_s": "s",
    "classify.b_irregular_primes": "count",
    "survey.b_stage.wall_s": "s",
    "survey.b_stage.parallelism": "ratio",
    "classify.classify_prime.calls": "count",
    "classify.classify_prime.busy_s": "s",
    "modarith.mult_order.calls": "count",
    "modarith.mult_order.busy_s": "s",
    "survey.cache.load_b_pairs.calls": "count",
    "survey.cache.load_b_pairs.busy_s": "s",
    "survey.cache.load_orders.busy_s": "s",
    "survey.cache.save_b_pairs.busy_s": "s",
    "survey.cache.save_classifications.busy_s": "s",
    "survey.cache.bytes_read": "B",
    "survey.cache.bytes_written": "B",
    "survey.cache.b_hit_ratio": "ratio",
    "survey.run_survey.calls": "count",
    "survey.run_survey.self_s": "s",
    "survey.emit_table.busy_s": "s",
    "density.ratio.calls": "count",
    "density.ratio.busy_s": "s",
    "modarith.sieve_primes.busy_s": "s",
    "proc.import_s": "s",
    "trace.overhead_s": "s",
}
MIN_SETUPS = 5
MAX_OPS = 100_000
OP_TIMEOUT_S = 150


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("GENOCCHI_CACHE_DIR", None)  # it would override each op's fresh cache_dir
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "genocchi").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> str:
    git = REPO / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[len("ref: ") :]
        if (git / name).exists():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_child(spec: dict, opdir: Path) -> tuple[dict | None, str, float]:
    """Run op.py on spec in opdir; return (result, error, spawn time)."""
    opdir.mkdir(parents=True)
    spec = dict(spec, result=str(opdir / "result.json"), cache_dir=str(opdir / "cache"))
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "op.py"), json.dumps(spec)],
            env=child_env(),
            cwd=REPO,
            capture_output=True,
            text=True,
            timeout=OP_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return None, f"op timed out after {OP_TIMEOUT_S}s", t_spawn
    finally:
        result_path = Path(spec["result"])
        result = json.loads(result_path.read_text()) if result_path.exists() else None
        shutil.rmtree(opdir, ignore_errors=True)
    if proc.returncode != 0 or result is None:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no result"]
        return None, f"op exited with {proc.returncode}: {tail[0]}", t_spawn
    return result, "", t_spawn


def op_inputs(workload: str, seed: int, size: dict, golden: dict) -> list[dict]:
    rng = random.Random(seed)
    if workload == "cold_survey":
        return [{"ell": rng.choice(TABLE1_BASES)} for _ in range(MAX_OPS)]
    if workload == "warm_tables":
        return [{}] * MAX_OPS
    lo, hi = size["large"]
    k = size["strata"]
    strata: list[list[int]] = [[] for _ in range(k)]
    for p in sorted(int(p) for p in golden["large"]):
        strata[(p - lo) * k // (hi - lo)].append(p)
    picks = [rng.choice(s) for s in strata]
    c = k // 2
    order = [c] + [i for d in range(1, c + 1) for i in (c - d, c + d) if 0 <= i < k]
    return [{"p": picks[i]} for i in itertools.islice(itertools.cycle(order), MAX_OPS)]


def op_spec(workload: str, inp: dict, size: dict, golden: dict, prep: dict, build: Path) -> dict:
    spec = {"workload": workload, "x": size["x"], "threads": nproc(), **inp}
    if workload == "large_prime":
        spec["golden_line"] = golden["large"][str(inp["p"])]
        return spec
    spec["golden_b"] = golden["b_pairs"]
    spec["exact_b"] = prep["exact_b"]
    if workload == "cold_survey":
        ell = str(inp["ell"])
        spec["golden_rows"] = golden["rows"][ell]
        spec["golden_orders"] = {ell: golden["orders"][ell]}
    else:
        spec["b_cache"] = str(build)
        spec["golden_rows"] = golden["tables"]
        spec["golden_csv"] = golden["csv"]
        spec["golden_orders"] = golden["orders"]
    return spec


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def run_workload(workload: str, seed: int, seconds: float, trace: bool, size_name: str) -> dict:
    """Run ops for up to `seconds`; with trace, in untraced/traced pairs."""
    size = SIZES[size_name]
    golden = json.loads((HERE / "golden.json").read_text())[size_name]
    build = WORK / "build" / f"b-{source_digest()}-x{size['x']}"
    rundir = WORK / f"run-{os.getpid()}"
    shutil.rmtree(rundir, ignore_errors=True)
    try:
        prep_spec = {"workload": "prepare", "x": size["x"], "threads": nproc()}
        if workload == "warm_tables":
            prep_spec["build"] = str(build)
            build.parent.mkdir(parents=True, exist_ok=True)
        prep, err, _ = run_child(prep_spec, rundir / "prepare")
        if prep is None:
            raise SystemExit(f"prepare failed: {err}")

        inputs = op_inputs(workload, seed, size, golden)
        ops: list[dict] = []
        walls: list[float] = []
        start = time.monotonic()
        for k in range(MAX_OPS):
            traced = trace and k % 2 == 1
            inp = inputs[k // 2 if trace else k]
            spec = op_spec(workload, inp, size, golden, prep, build)
            spec.update(trace=traced, op_id=k)
            if traced and k == 1:
                (WORK / "spans").mkdir(parents=True, exist_ok=True)
                spec["spans_out"] = str(WORK / "spans" / f"{workload}.json")
            result, err, t_spawn = run_child(spec, rundir / f"op{k}")
            op = {"traced": traced, "errors": [err] if err else []}
            if result is not None:
                op.update(result, setup_s=result["t_first"] - t_spawn)
            ops.append(op)
            status = "ok" if not op["errors"] else "FAILED: " + "; ".join(op["errors"])[:300]
            log(f"[{workload}] op {k}{' traced' if traced else ''} {inp} "
                f"op_s={op.get('op_s', float('nan')):.4f} {status}")
            walls.append(time.monotonic() - t_spawn)
            if trace and k % 2 == 0:
                continue  # finish the untraced/traced pair
            # start no op that would end past --seconds; the first always runs
            step = statistics.median(walls) * (2 if trace else 1)
            if time.monotonic() - start + step > seconds:
                break

        setups = [op["setup_s"] for op in ops if not op["traced"] and "setup_s" in op]
        while not trace and len(setups) < MIN_SETUPS:
            spec = op_spec(workload, inputs[len(ops)], size, golden, prep, build)
            spec.update(trace=False, probe=True)
            result, err, t_spawn = run_child(spec, rundir / f"probe{len(setups)}")
            if result is None:
                raise SystemExit(f"set-up probe failed: {err}")
            setups.append(result["t_first"] - t_spawn)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    env = {
        "workload": workload,
        "seed": seed,
        "size": size_name,
        "nproc": nproc(),
        "os_cpu_count": os.cpu_count(),
        "python": prep["python"],
        "numpy": prep["numpy"],
        "kernel_backend": prep["kernel_backend"],
        "threads": nproc(),
        "commit": git_commit(),
    }
    return {"ops": ops, "setups": setups, "env": env}


def _median(values: list) -> float | int | None:
    if not values:
        return None
    m = statistics.median(values)
    return int(m) if all(isinstance(v, int) for v in values) and m == int(m) else m


def end_to_end(run: dict) -> dict:
    plain = [op for op in run["ops"] if not op["traced"] and "op_s" in op]
    return {
        "op_s": _median([op["op_s"] for op in plain]),
        "cpu_s": _median([op["cpu_s"] for op in plain]),
        "setup_s": _median(run["setups"]),
        "peak_rss_mb": _median([op["peak_rss_mb"] for op in plain]),
    }


def per_layer(run: dict) -> dict:
    traced = [op for op in run["ops"] if op["traced"] and "layers" in op]
    plain = [op for op in run["ops"] if not op["traced"] and "op_s" in op]
    out: dict[str, float | None] = {}
    for name in PER_LAYER:
        values = [op["layers"].get(name) for op in traced]
        out[name] = None if not values or None in values else _median(values)
    out["proc.import_s"] = _median([op["import_s"] for op in traced])
    if traced and plain:
        out["trace.overhead_s"] = _median([op["op_s"] for op in traced]) - _median(
            [op["op_s"] for op in plain]
        )
    absent = sorted({name for op in traced for name in op.get("absent", [])})
    if absent:
        log(f"absent wrap points (reported as null): {', '.join(absent)}")
    return out


def with_units(values: dict, units: dict) -> dict:
    return {name: {"value": values.get(name), "unit": unit} for name, unit in units.items()}


def smoke() -> int:
    bench = json.loads((REPO / "BENCHMARK.json").read_text())
    problems = []
    for workload in WORKLOADS:
        run = run_workload(workload, seed=0, seconds=0, trace=True, size_name="smoke")
        failed = [op for op in run["ops"] if op["errors"]]
        if failed:
            problems.append(f"{workload}: {len(failed)} op(s) failed their checks")
        got = {**with_units(end_to_end(run), END_TO_END), **with_units(per_layer(run), PER_LAYER)}
        for metric in bench["end_to_end"] + bench["per_layer"]:
            have = got.get(metric["name"])
            if have is None:
                problems.append(f"{workload}: metric {metric['name']} missing")
            elif have["unit"] != metric["unit"]:
                problems.append(f"{workload}: {metric['name']} unit {have['unit']} != {metric['unit']}")
            elif not isinstance(have["value"], (int, float)):
                problems.append(f"{workload}: {metric['name']} has no value")
        print(f"{workload}: {json.dumps(got)}")
    for p in problems:
        print(f"SMOKE FAIL {p}")
    print("smoke ok" if not problems else f"smoke failed: {len(problems)} problem(s)")
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not (SRC / "genocchi" / "__init__.py").exists():
        log(f"genocchi sources not found under {SRC}; run from a full checkout")
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required unless --smoke is given")

    run = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), "full")
    if args.trace:
        metrics = with_units(per_layer(run), PER_LAYER)
    else:
        metrics = with_units(end_to_end(run), END_TO_END)
    attempted = len(run["ops"])
    failed = sum(1 for op in run["ops"] if op["errors"])
    print("env " + json.dumps(run["env"]))
    for name, m in metrics.items():
        print(f"{name} {m['value']} {m['unit']}")
    print(f"error_rate {failed / attempted} ({failed} failed of {attempted} ops)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
