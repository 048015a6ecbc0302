"""Span recorder for traced benchmark ops.

`Tracer.install` wraps public functions of each genocchi module from the
outside, so the program itself carries no tracing code. Every call records a
span (id, name, start, end, parent, extra) in memory; `Tracer.metrics` folds
the spans of one op into the per-layer metrics and `Tracer.dump` writes them
out. A wrap point that no longer exists is reported as absent (None), never
as zero.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict


def _pairs_hook(args, result):
    p = int(args[0])
    return {"pairs": (p // 2) * ((p - 3) // 2)}


def _irregular_hook(args, result):
    return {"irregular": int(bool(result))}


def _keys_hook(args, result):
    return {"keys": sorted(int(p) for p in result)}


def _x_hook(args, result):
    return {"x": int(args[0].x)}


#: (span name, module, attribute path, result hook, count file I/O)
WRAP_POINTS = (
    ("kernels.power_sums", "genocchi.kernels", "power_sums", _pairs_hook, False),
    ("classify.b_irregular_pairs", "genocchi.classify", "b_irregular_pairs", _irregular_hook, False),
    ("classify.classify_prime", "genocchi.classify", "classify_prime", None, False),
    ("modarith.mult_order", "genocchi.modarith", "mult_order", None, False),
    ("modarith.sieve_primes", "genocchi.modarith", "sieve_primes", None, False),
    ("survey.run_survey", "genocchi.survey", "run_survey", _x_hook, False),
    ("survey.emit_table", "genocchi.survey", "emit_table", None, False),
    ("survey.cache.load_b_pairs", "genocchi.survey", "ClassificationCache.load_b_pairs", _keys_hook, True),
    ("survey.cache.load_orders", "genocchi.survey", "ClassificationCache.load_orders", None, True),
    ("survey.cache.save_b_pairs", "genocchi.survey", "ClassificationCache.save_b_pairs", None, True),
    ("survey.cache.save_classifications", "genocchi.survey", "ClassificationCache.save_classifications", None, True),
    ("density.ratio", "genocchi.density", "conjectured_ratio", None, False),
    ("density.ratio", "genocchi.density", "lower_bound_ratio", None, False),
)

CACHE_SPANS = tuple(name for name, *_ in WRAP_POINTS if name.startswith("survey.cache."))


def _proc_io() -> tuple[int, int, int] | None:
    """(rchar, wchar, bytes this read itself added to rchar), or None off Linux."""
    try:
        with open("/proc/self/io", "rb") as f:
            raw = f.read()
    except OSError:
        return None
    fields = dict(line.split(b": ") for line in raw.splitlines())
    return int(fields[b"rchar"]), int(fields[b"wchar"]), len(raw)


def _union(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    end = float("-inf")
    for a, b in sorted(intervals):
        if b <= max(a, end):
            continue
        total += b - max(a, end)
        end = b
    return total


def small_primes(limit: int) -> list[int]:
    """Primes <= limit by a plain sieve, independent of genocchi.modarith."""
    mask = bytearray([1]) * (limit + 1)
    mask[:2] = b"\x00\x00"
    for p in range(2, int(limit**0.5) + 1):
        if mask[p]:
            mask[p * p :: p] = bytearray(len(range(p * p, limit + 1, p)))
    return [p for p in range(limit + 1) if mask[p]]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int | None, dict]] = []
        self.absent: set[str] = set()
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack = self._stack()
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: list[int]) -> int | None:
        if stack:
            return stack[-1]
        # a pool worker's first span belongs to whatever the main thread is inside
        try:
            return self._main_stack[-1]
        except IndexError:
            return None

    def _wrap(self, name, fn, hook, count_io):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = tracer._parent(stack)
            sid = next(tracer._ids)
            stack.append(sid)
            io0 = _proc_io() if count_io else None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
            extra = hook(args, result) if hook else {}
            if io0 is not None:
                io1 = _proc_io()
                extra["read"] = io1[0] - io0[0] - io0[2]
                extra["written"] = io1[1] - io0[1]
            tracer.spans.append((sid, name, t0, t1, parent, extra))
            return result

        return traced

    def install(self) -> None:
        installed: set[str] = set()
        for name, module, attr, hook, count_io in WRAP_POINTS:
            try:
                owner = importlib.import_module(module)
            except ImportError:
                continue
            *path, last = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, last, None)
            if original is None:
                continue
            wrapped = self._wrap(name, original, hook, count_io)
            if path:
                self._patch(owner, last, original, wrapped)
            else:
                # `from .x import f` copies the binding: rebind it everywhere
                for mod in list(sys.modules.values()):
                    if getattr(mod, "__name__", "").split(".")[0] != "genocchi":
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, original, wrapped)
            installed.add(name)
        self.absent = {name for name, *_ in WRAP_POINTS} - installed

    def _patch(self, owner, key, original, wrapped) -> None:
        setattr(owner, key, wrapped)
        self._patched.append((owner, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    def dump(self, path: str, op_id: int) -> None:
        rows = [
            {"id": sid, "name": name, "start": t0, "end": t1, "parent": parent, "op": op_id}
            for sid, name, t0, t1, parent, _ in sorted(self.spans)
        ]
        with open(path, "w") as f:
            json.dump(rows, f)

    def metrics(self) -> dict[str, float | int | None]:
        """Per-layer metrics of one op; None where a wrap point is absent."""
        spans = {s[0]: s for s in self.spans}
        by_name: dict[str, list] = defaultdict(list)
        children: dict[int, list] = defaultdict(list)
        for s in self.spans:
            by_name[s[1]].append(s)
            if s[4] is not None:
                children[s[4]].append(s)

        def present(*names):
            return not any(n in self.absent for n in names)

        def calls(name):
            return len(by_name[name]) if present(name) else None

        def busy(name):
            return sum(s[3] - s[2] for s in by_name[name]) if present(name) else None

        def total(name, key):
            return sum(s[5].get(key, 0) for s in by_name[name]) if present(name) else None

        def in_survey(s) -> bool:
            parent = s[4]
            while parent is not None:
                if spans[parent][1] == "survey.run_survey":
                    return True
                parent = spans[parent][4]
            return False

        m: dict[str, float | int | None] = {}
        m["kernels.power_sums.calls"] = calls("kernels.power_sums")
        m["kernels.power_sums.busy_s"] = busy("kernels.power_sums")
        m["kernels.naive_pairs"] = total("kernels.power_sums", "pairs")
        if present("kernels.power_sums"):
            kb = m["kernels.power_sums.busy_s"]
            m["kernels.naive_pairs_per_s"] = m["kernels.naive_pairs"] / kb if kb else 0.0
        else:
            m["kernels.naive_pairs_per_s"] = None

        m["classify.b_irregular_pairs.calls"] = calls("classify.b_irregular_pairs")
        m["classify.b_irregular_pairs.busy_s"] = busy("classify.b_irregular_pairs")
        m["classify.b_irregular_primes"] = total("classify.b_irregular_pairs", "irregular")

        if present("classify.b_irregular_pairs", "kernels.power_sums", "survey.run_survey"):
            stage = [s for s in by_name["classify.b_irregular_pairs"] if in_survey(s)]
            wall = _union([(s[2], s[3]) for s in stage])
            kernel = sum(s[3] - s[2] for s in by_name["kernels.power_sums"] if in_survey(s))
            m["survey.b_stage.wall_s"] = wall
            m["survey.b_stage.parallelism"] = kernel / wall if wall else 0.0
        else:
            m["survey.b_stage.wall_s"] = m["survey.b_stage.parallelism"] = None

        for name in ("classify.classify_prime", "modarith.mult_order"):
            m[f"{name}.calls"] = calls(name)
            m[f"{name}.busy_s"] = busy(name)

        m["survey.cache.load_b_pairs.calls"] = calls("survey.cache.load_b_pairs")
        for name in CACHE_SPANS:
            m[f"{name}.busy_s"] = busy(name)
        if present(*CACHE_SPANS) and _proc_io() is not None:
            m["survey.cache.bytes_read"] = sum(total(n, "read") for n in CACHE_SPANS)
            m["survey.cache.bytes_written"] = sum(total(n, "written") for n in CACHE_SPANS)
        else:
            m["survey.cache.bytes_read"] = m["survey.cache.bytes_written"] = None

        if present("survey.run_survey", "survey.cache.load_b_pairs"):
            loaded = needed = 0
            for s in by_name["survey.run_survey"]:
                x = s[5]["x"]
                needed += len(small_primes(x)) - 2  # primes >= 5
                for c in children[s[0]]:
                    if c[1] == "survey.cache.load_b_pairs":
                        loaded += sum(1 for p in c[5]["keys"] if 5 <= p <= x)
            m["survey.cache.b_hit_ratio"] = loaded / needed if needed else 0.0
        else:
            m["survey.cache.b_hit_ratio"] = None

        m["survey.run_survey.calls"] = calls("survey.run_survey")
        if present("survey.run_survey"):
            m["survey.run_survey.self_s"] = sum(
                (s[3] - s[2])
                - _union([(max(c[2], s[2]), min(c[3], s[3])) for c in children[s[0]]])
                for s in by_name["survey.run_survey"]
            )
        else:
            m["survey.run_survey.self_s"] = None

        m["survey.emit_table.busy_s"] = busy("survey.emit_table")
        m["density.ratio.calls"] = calls("density.ratio")
        m["density.ratio.busy_s"] = busy("density.ratio")
        m["modarith.sieve_primes.busy_s"] = busy("modarith.sieve_primes")
        return m
