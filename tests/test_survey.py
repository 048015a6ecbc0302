import collections
import ctypes
import dataclasses
import inspect
import json
import math
import os
import platform
import re
import resource
import shlex
import signal
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

import numpy as np
import pytest

from genocchi import classify as classify_mod
from genocchi import density as density_mod
from genocchi import survey as survey_mod
from genocchi.classify import b_irregular_pairs, classify_prime
from genocchi.cli import cli_main
from genocchi.kernels import MAX_KERNEL_PRIME, active_backend
from genocchi.modarith import sieve_primes
from genocchi.survey import (
    CACHE_HEADER,
    TABLE_PRESETS,
    ClassificationCache,
    SurveyConfig,
    SurveyError,
    SurveyRow,
    emit_table,
    resolve_cache_dir,
    run_survey,
    run_table,
)

from oracles import exact_irregular_flags, parse_rows_csv


def small_config(tmp_cache, **kw):
    defaults = dict(ell=3, x=2000, variants=("G", "Hminus"), cache_dir=tmp_cache, quiet=True)
    defaults.update(kw)
    return SurveyConfig(**defaults)


def _counted(calls, name, fn):
    def wrapper(*args):
        calls[name] += 1
        return fn(*args)
    return wrapper


# ---------------------------------------------------------------- config validation


#: (request, density's message): the constructor accepts each, and run_survey rejects it
#: before any prime is sieved. The densities assume a prime base, and H- in progressions
#: an odd one.
DENSITY_REJECTS = [
    ({"ell": 1}, "ell must be a prime, got 1"),
    ({"ell": 9}, "ell must be a prime, got 9"),
    ({"variants": ("Q",)}, "kind must be one of ('G', 'Hminus', 'Hplus'), got 'Q'"),
    ({"progressions": ((4, 2),)}, "a=2 and d=4 must be coprime"),
    ({"variants": ("Hplus",), "progressions": ((4, 1),)},
     "Hplus requires d = a = 1 (general progressions unsupported)"),
    ({"ell": 2, "variants": ("Hminus",), "progressions": ((4, 1),)},
     "closed form in a progression only covers odd prime bases"),
]


def test_config_validation(tmp_cache, monkeypatch):
    # the constructor checks its own rules and calls no density function:
    # `_canonical` is the first step of every density entry point
    monkeypatch.setattr(density_mod, "_canonical", _no_recompute)
    monkeypatch.setattr(survey_mod, "ratios", _no_recompute)
    with pytest.raises(ValueError, match="x must be >= 100"):
        SurveyConfig(ell=3, x=50)
    with pytest.raises(ValueError, match="non-empty"):
        SurveyConfig(ell=3, x=1000, variants=())
    with pytest.raises(ValueError, match="non-empty"):
        SurveyConfig(ell=9, x=1000, progressions=())
    for d, a in ((4, 0), (4, 5)):
        message = f"progression ({d}, {a}) must have 1 <= a <= d"
        with pytest.raises(ValueError, match=re.escape(message)):
            SurveyConfig(ell=3, x=1000, progressions=((d, a),))
    # a request that breaks both a config rule and a density rule gets the config's error
    with pytest.raises(ValueError, match="1 <= a <= d"):
        SurveyConfig(ell=9, x=1000, variants=("Q",), progressions=((4, 2), (5, 7)))
    # beyond the kernel bound: rejected before any prime is computed
    with pytest.raises(ValueError, match="kernel"):
        SurveyConfig(ell=3, x=MAX_KERNEL_PRIME + 1)
    SurveyConfig(ell=3, x=MAX_KERNEL_PRIME)
    for request, _ in DENSITY_REJECTS:
        SurveyConfig(**{"ell": 3, "x": 1000, **request})
    # the library entry points check their names before any sieve or cache work
    monkeypatch.setattr(survey_mod, "sieve_primes", _no_recompute)
    with pytest.raises(ValueError, match="unknown table"):
        run_table("g4", 1000, cache_dir=tmp_cache)
    assert not tmp_cache.exists()
    with pytest.raises(ValueError, match="unknown format"):
        emit_table("g1", [], "xml")


@pytest.mark.parametrize(
    "overrides, message", DENSITY_REJECTS,
    ids=["ell1", "ell9", "variantQ", "a2d4", "hplus-d4", "ell2-hminus-d4"],
)
def test_density_rules_fail_before_the_sieve(tmp_cache, monkeypatch, overrides, message):
    cfg = small_config(tmp_cache, **{"x": 1000, "variants": ("G",), **overrides})
    monkeypatch.setattr(survey_mod, "sieve_primes", _no_recompute)
    with pytest.raises(ValueError) as raised:
        run_survey(cfg)
    assert str(raised.value) == message
    # so does a bad last config after a good one
    with pytest.raises(ValueError) as raised:
        run_survey(small_config(tmp_cache, x=1000), cfg)
    assert str(raised.value) == message
    assert not tmp_cache.exists()


def test_each_row_evaluates_its_density_once(tmp_cache, monkeypatch):
    # one `ratios` call per row gives both theory columns from one `_delta_for_kind`
    # call: 50 for the 50 rows of g1, hpm and g3, whatever x is
    calls = collections.Counter()
    monkeypatch.setattr(density_mod, "_delta_for_kind",
                        _counted(calls, "delta", density_mod._delta_for_kind))
    monkeypatch.setattr(survey_mod, "ratios", _counted(calls, "ratios", survey_mod.ratios))
    cfg = small_config(tmp_cache, x=300, progressions=((1, 1), (4, 1), (4, 3)))
    assert not calls
    rows = run_survey(cfg)
    assert len(rows) == 6
    assert calls == {"ratios": 6, "delta": 6}
    calls.clear()
    rows = [row for which in ("g1", "hpm", "g3")
            for row in run_table(which, 200, cache_dir=tmp_cache, quiet=True)]
    assert len(rows) == 50
    assert calls == {"ratios": 50, "delta": 50}


@pytest.mark.parametrize(
    "options, message",
    [
        pytest.param(["--ell", "9"], "ell must be a prime, got 9", id="options0"),
        pytest.param(["--ell", "2", "--variant", "hminus", "--progression", "4,1"],
                     "closed form in a progression only covers odd prime bases", id="options1"),
    ],
)
def test_bad_survey_fails_before_any_prime(tmp_cache, monkeypatch, capsys, options, message):
    monkeypatch.setattr(survey_mod, "sieve_primes", _no_recompute)
    monkeypatch.setattr(survey_mod, "b_irregular_pairs", _no_recompute)
    argv = ["survey", "--x", "100000", "--cache-dir", str(tmp_cache), "--quiet", *options]
    assert cli_main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"
    assert not tmp_cache.exists()


def test_empty_progression_fails_before_the_b_stage(tmp_cache, monkeypatch, capsys):
    # neither stage may start: no kernel call and no order pass
    monkeypatch.setattr(survey_mod, "b_irregular_pairs", _no_recompute)
    monkeypatch.setattr(survey_mod, "prime_orders", _no_recompute)
    cfg = small_config(tmp_cache, x=100, progressions=((1000, 1), (4, 1), (1000, 9)))
    with pytest.raises(ValueError, match=r"^no prime <= 100 is 1 mod 1000, 9 mod 1000$"):
        run_survey(cfg)
    # over several configs: each empty class once, in the order the configs first name it
    configs = [
        small_config(tmp_cache, x=100),
        small_config(tmp_cache, x=100, ell=5, variants=("G",), progressions=((1000, 9), (4, 1))),
        cfg,
    ]
    with pytest.raises(ValueError, match=r"^no prime <= 100 is 9 mod 1000, 1 mod 1000$"):
        run_survey(*configs)
    assert not tmp_cache.exists()
    argv = ["survey", "--ell", "3", "--x", "100", "--progression", "1000,1",
            "--cache-dir", str(tmp_cache), "--quiet"]
    assert cli_main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: no prime <= 100 is 1 mod 1000\n"
    assert not tmp_cache.exists()


# ---------------------------------------------------------------- several configs, one pass


def test_survey_of_several_configs_is_the_sum_of_their_surveys(tmp_path, monkeypatch):
    def configs(root):  # two bases, one of them twice
        return [
            small_config(root, progressions=((1, 1), (4, 1))),
            small_config(root, ell=5, variants=("Hplus",)),
            small_config(root, variants=("G",), progressions=((3, 2), (1, 1))),
        ]

    joint, parts = tmp_path / "joint", tmp_path / "parts"
    for warm in (False, True):
        with monkeypatch.context() as m:
            if warm:
                m.setattr(survey_mod, "b_irregular_pairs", _no_recompute)
                m.setattr(survey_mod, "prime_orders", _no_recompute)
            rows = run_survey(*configs(joint))
            assert rows == [row for cfg in configs(parts) for row in run_survey(cfg)], warm
        assert [(r.ell, r.d, r.a, r.variant) for r in rows] == [
            (3, 1, 1, "G"), (3, 1, 1, "Hminus"), (3, 4, 1, "G"), (3, 4, 1, "Hminus"),
            (5, 1, 1, "Hplus"), (3, 3, 2, "G"), (3, 1, 1, "G"),
        ]
        names = sorted(path.name for path in joint.iterdir())
        assert names == ["birregular.csv", "orders_3.csv", "orders_5.csv"]
        assert sorted(path.name for path in parts.iterdir()) == names
        for name in names:
            assert (joint / name).read_bytes() == (parts / name).read_bytes(), (warm, name)


@pytest.mark.parametrize(
    "field, value", [("x", 3000), ("threads", 1), ("cache_dir", "elsewhere"), ("quiet", False)]
)
def test_configs_of_one_survey_share_x_threads_cache_and_quiet(tmp_cache, monkeypatch,
                                                               field, value):
    monkeypatch.setattr(survey_mod, "sieve_primes", _no_recompute)
    configs = [small_config(tmp_cache), small_config(tmp_cache, ell=5),
               small_config(tmp_cache, ell=7, **{field: value})]
    message = ("the configs of one survey must share x, threads, cache_dir, quiet: "
               f"config 2 has {field}={value!r}, config 0 {getattr(configs[0], field)!r}")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run_survey(*configs)
    with pytest.raises(ValueError, match="at least one SurveyConfig"):
        run_survey()
    assert not tmp_cache.exists()


def test_a_table_is_one_pass(tmp_cache, monkeypatch):
    # one sieve, one read of birregular.csv, one round of forks and one orders
    # pass for all the bases of a cold table; a warm one computes no order
    calls = collections.Counter()
    monkeypatch.setattr(survey_mod, "prime_orders",
                        _counted(calls, "orders", survey_mod.prime_orders))
    monkeypatch.setattr(survey_mod, "sieve_primes",
                        _counted(calls, "sieve", survey_mod.sieve_primes))
    monkeypatch.setattr(ClassificationCache, "load_b_pairs",
                        _counted(calls, "load", ClassificationCache.load_b_pairs))
    monkeypatch.setattr(survey_mod, "_fork_b_worker",
                        _counted(calls, "fork", survey_mod._fork_b_worker))
    cold = run_table("g1", 1000, threads=2, cache_dir=tmp_cache, quiet=True)
    assert calls == {"sieve": 1, "load": 1, "fork": survey_mod._worker_count(2), "orders": 1}
    _assert_no_child_left()
    monkeypatch.setattr(survey_mod, "b_irregular_pairs", _no_recompute)
    monkeypatch.setattr(survey_mod, "prime_orders", _no_recompute)
    for which in ("g1", "hpm", "g3"):
        calls.clear()
        rows = run_table(which, 1000, threads=2, cache_dir=tmp_cache, quiet=True)
        assert calls == {"sieve": 1, "load": 1}, which
        if which == "g1":
            assert rows == cold


# ---------------------------------------------------------------- counting


def test_survey_counts_and_convention(tmp_cache):
    progressions = ((1, 1), (3, 2), (4, 3))
    rows = run_survey(small_config(tmp_cache, x=1000, variants=("G",), progressions=progressions))
    row = rows[0]
    primes = [int(p) for p in sieve_primes(1000)]
    assert row.count_primes == len(primes) == 168  # denominator includes 2 and ell
    flagged = []
    for p in primes:
        if p == 2:
            continue
        if classify_prime(3, p).g_irregular:
            flagged.append(p)
    assert row.count_irregular == len(flagged)
    assert row.experimental == round(len(flagged) / 168, 6)
    assert 0.0 <= row.experimental <= 1.0
    # the per-prime loop is the reference for the mask counts in every class
    for r, (d, a) in zip(rows, progressions):
        assert (r.d, r.a) == (d, a)
        assert r.count_irregular == sum(1 for p in flagged if p % d == a % d)
        assert r.count_primes == sum(1 for p in primes if p % d == a % d)


def test_progression_counts_partition_total(tmp_cache):
    cfg = small_config(
        tmp_cache, x=3000, variants=("G",), progressions=((1, 1), (3, 1), (3, 2), (4, 1), (4, 3))
    )
    rows = {(r.d, r.a): r for r in run_survey(cfg)}
    total = rows[(1, 1)]
    # 3 is G-regular, so the mod-3 classes carry every irregular prime
    assert rows[(3, 1)].count_irregular + rows[(3, 2)].count_irregular == total.count_irregular
    # 2 is never counted irregular either
    assert rows[(4, 1)].count_irregular + rows[(4, 3)].count_irregular == total.count_irregular
    assert rows[(3, 1)].count_primes + rows[(3, 2)].count_primes == total.count_primes - 1
    assert rows[(4, 1)].count_primes + rows[(4, 3)].count_primes == total.count_primes - 1


def test_monotonicity_in_x(tmp_cache):
    small = run_survey(small_config(tmp_cache, x=1500, variants=("G", "Hminus", "Hplus")))
    big = run_survey(small_config(tmp_cache, x=2500, variants=("G", "Hminus", "Hplus")))
    for s, b in zip(small, big):
        assert s.variant == b.variant
        assert b.count_irregular >= s.count_irregular
        assert b.count_primes >= s.count_primes


def test_survey_flags_match_exact_divisibility(tmp_cache, bernoulli_800):
    # cross-module: survey flags vs exact-rational scans, all p <= 1000; ell = 5
    # puts p = ell > 3 on the survey path, where p | ell * (1 - ell**n) * B_n for all n
    for ell in (3, 5):
        cfg = small_config(tmp_cache, ell=ell, x=1000, variants=("G", "Hminus", "Hplus"))
        counts = {r.variant: r.count_irregular for r in run_survey(cfg)}
        flags = [exact_irregular_flags(ell, int(p)) for p in sieve_primes(1000)[1:]]
        scans = dict(zip(("G", "Hminus", "Hplus"), map(sum, zip(*flags))))
        assert counts == scans, ell


# ---------------------------------------------------------------- cache behavior


def test_cache_warm_equals_cold(tmp_cache, monkeypatch):
    # ell = 5 puts p = ell > 3 on the warm path, where its orders are stored as 0
    for ell in (2, 3, 5):
        root = tmp_cache / f"ell{ell}"
        cfg = small_config(root, ell=ell, variants=("G", "Hminus", "Hplus"))
        cold = run_survey(cfg)
        cache = ClassificationCache(root)
        assert cache._b_path().exists()
        assert cache._orders_path(ell).exists()
        # prime_orders is the survey's one call for every order it computes, so
        # a warm survey that computed any order would fail here
        with monkeypatch.context() as m:
            m.setattr(survey_mod, "prime_orders", _no_recompute)
            m.setattr(survey_mod, "b_irregular_pairs", _no_recompute)
            warm = run_survey(cfg)
        assert cold == warm, ell


def _no_recompute(*args):
    raise AssertionError("computed what the cache or the config should have settled")


def test_cache_write_is_atomic(tmp_cache, monkeypatch):
    cfg = small_config(tmp_cache, x=500)
    run_survey(cfg)
    cache = ClassificationCache(resolve_cache_dir(tmp_cache))
    before = {path.name: path.read_bytes() for path in tmp_cache.iterdir()}

    def interrupted(src, dst):
        raise OSError("interrupted")

    monkeypatch.setattr(os, "replace", interrupted)
    with pytest.raises(OSError):
        cache.save_b_pairs({5: (), 37: (32,)})
    with pytest.raises(OSError):
        cache.save_classifications(3, {})
    # the old files are untouched and no temp file is left behind
    assert {path.name: path.read_bytes() for path in tmp_cache.iterdir()} == before
    assert cache.load_b_pairs() and cache.load_orders(3)


def test_cache_header_names_the_kernel():
    # caches written under this header must keep loading: change it only with the rows
    assert CACHE_HEADER == "# genocchi cache v2 (kernel: chirp, two 9-bit limbs)"
    assert active_backend() == (
        "chirp, balanced, one limb below 2^15, x in two 9-bit limbs from 2^15"
    )


@pytest.mark.parametrize("row", ["37,0,32", "37,1,", "37,2,32", "37,0", "37,1,32;;36"])
def test_cache_corruption_reported(tmp_cache, row):
    cfg = small_config(tmp_cache, x=500)
    run_survey(cfg)
    path = ClassificationCache(resolve_cache_dir(tmp_cache))._b_path()
    # under the current header a bad row is damage, not a foreign file: a flag
    # that disagrees with the index list, a missing field or an empty index
    path.write_text(f"{CACHE_HEADER}\n5,0,\n{row}\n")
    with pytest.raises(SurveyError, match=f"{re.escape(str(path))}.*delete"):
        run_survey(cfg)


@pytest.mark.parametrize(
    "row",
    [
        "7,6,1,-1",    # ord_sq is not ord / gcd(ord, 2)
        "13,12,5,7",   # nor is it here, and jacobi is not +-1
        "7,6,3,1",     # jacobi says ord | (p-1)/2, and 6 does not divide 3
        "7,4,2,-1",    # ord does not divide p - 1; the other columns follow from it
        "7,-6,-3,-1",  # a negative ord, with the columns that follow from it
        "7,0,0,0",     # zeros at a p other than ell
        "3,2,1,-1",    # p = ell, whose row is zeros; the other columns follow from ord
    ],
)
def test_cache_order_row_that_contradicts_its_ord_is_reported(tmp_cache, row):
    run_survey(small_config(tmp_cache, x=500))
    path = ClassificationCache(tmp_cache)._orders_path(3)
    p = row.split(",")[0]
    text = re.sub(f"(?m)^{p},.*$", row, path.read_text())
    path.write_text(text)
    # warm, and with primes missing: either way the file is named and left as it was
    for x in (500, 600):
        match = f"{re.escape(str(path))}.*p={p} contradicts its ord.*delete"
        with pytest.raises(SurveyError, match=match):
            run_survey(small_config(tmp_cache, x=x))
        assert path.read_text() == text


def test_bad_order_row_of_the_last_base_writes_no_file(tmp_cache):
    # every row from every orders file is checked before any of them is written: a
    # bad row in the last base's file names that file, and the other bases' files,
    # whose primes above 500 are missing too, stay as they were
    run_table("g1", 500, cache_dir=tmp_cache, quiet=True)
    path = ClassificationCache(tmp_cache)._orders_path(19)
    text = path.read_text()
    path.write_text(text.replace("\n13,12,6,-1\n", "\n13,12,6,1\n"))  # jacobi is wrong
    assert path.read_text() != text
    def orders_files():
        return {p.name: (p.read_bytes(), p.stat().st_mtime_ns)
                for p in tmp_cache.glob("orders_*.csv")}

    before = orders_files()
    assert len(before) == 8
    match = f"{re.escape(str(path))}.*p=13 contradicts its ord.*delete"
    with pytest.raises(SurveyError, match=match):
        run_table("g1", 600, cache_dir=tmp_cache, quiet=True)
    assert orders_files() == before


def _row(old, new):
    """An edit that replaces the lines `old` by the lines `new`."""
    return lambda text: text.replace(f"\n{old}\n", f"\n{new}\n")


def _body(rows):
    """An edit that leaves CACHE_HEADER and the lines `rows`."""
    return lambda text: f"{CACHE_HEADER}\n{rows}\n"


def _unended(rows):
    """An edit that leaves CACHE_HEADER and the lines `rows`, the last without its end."""
    return lambda text: f"{CACHE_HEADER}\n{rows}"


def _cut_last_row(text):
    """The file cut off inside its last row: that row loses its last field and newline."""
    return text.rstrip("\n").rsplit(",", 1)[0]


#: (file, edit of its text after a cold survey at ell = 3, x = 500): each leaves a
#: row the reader must reject. Some pass a reader that checks less: 5 + 1 fields
#: are two rows of 3 to a split that ignores the line breaks, one row of 7 keeps
#: every flag in place, loadtxt alone takes one wrong field count on every row, and
#: a row cut inside its index list, or a repeated p, reads as a valid row by itself.
MALFORMED_ROWS = [
    pytest.param("orders_3.csv", _row("7,6,3,-1", "7,6,3"), id="orders-3-fields"),
    pytest.param("orders_3.csv", _body("3,0,0\n5,4,2"), id="orders-every-row-3-fields"),
    pytest.param("orders_3.csv", _row("7,6,3,-1", "7,6,3,-1,0"), id="orders-5-fields"),
    pytest.param("orders_3.csv", _row("7,6,3,-1", "7,6,3,x"), id="orders-non-integer"),
    pytest.param("orders_3.csv", _row("7,6,3,-1", "7,6,3,-1\n"), id="orders-blank-line"),
    pytest.param("orders_3.csv", _cut_last_row, id="orders-last-row-cut"),
    pytest.param("orders_3.csv", _unended("3,0,0,0\n5,4,2,-1"), id="orders-last-line-unended"),
    pytest.param("orders_3.csv", _row("7,6,3,-1", "7,6,3,-1\n7,3,3,1"), id="orders-repeated-p"),
    pytest.param("birregular.csv", _row("5,0,\n7,0,", "5,0,,9\n7,0"), id="b-4-then-2-fields"),
    pytest.param("birregular.csv", _row("5,0,\n7,0,", "5,0,,7,1\n32"), id="b-5-then-1-fields"),
    pytest.param("birregular.csv", _body("5,0,,9,7,0,"), id="b-one-row-of-7-fields"),
    pytest.param("birregular.csv", _row("5,0,", "5.0,0,"), id="b-non-integer-p"),
    pytest.param("birregular.csv", _row("5,0,", "5,0,\n"), id="b-blank-line"),
    pytest.param("birregular.csv", _unended("5,0,\n37,1,3"), id="b-last-index-list-cut"),
    pytest.param("birregular.csv", _row("37,1,32", "37,1,32\n37,0,"), id="b-repeated-p"),
]


@pytest.mark.parametrize("name, edit", MALFORMED_ROWS)
def test_cache_malformed_rows_are_reported(tmp_cache, name, edit):
    run_survey(small_config(tmp_cache, x=500))
    path = tmp_cache / name
    text = edit(path.read_text())
    assert text != path.read_text()
    path.write_text(text)
    with pytest.raises(SurveyError, match=f"{re.escape(str(path))} is corrupt.*delete"):
        run_survey(small_config(tmp_cache, x=500))
    assert path.read_text() == text


def test_crlf_line_endings_read_as_valid(tmp_cache, monkeypatch):
    cfg = small_config(tmp_cache, x=500)
    cold = run_survey(cfg)
    cache = ClassificationCache(tmp_cache)
    b_pairs, orders = cache.load_b_pairs(), cache.load_orders(3)
    for path in tmp_cache.iterdir():
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    assert cache.load_b_pairs() == b_pairs and cache.load_orders(3) == orders
    monkeypatch.setattr(survey_mod, "prime_orders", _no_recompute)
    monkeypatch.setattr(survey_mod, "b_irregular_pairs", _no_recompute)
    assert run_survey(cfg) == cold


def test_orders_file_with_gaps_and_primes_above_x(tmp_path):
    # the cold file for x = 1000; the survey at x = 500 finds its rows out of order,
    # some primes <= 500 missing and every prime above 500 present
    cold_dir, cache_dir = tmp_path / "cold", tmp_path / "cache"
    run_survey(small_config(cold_dir, x=1000))
    cold = (cold_dir / "orders_3.csv").read_bytes()
    header, *lines = cold.splitlines(keepends=True)
    kept = [line for line in lines if (p := int(line.split(b",")[0])) > 500 or p % 4 == 1]
    assert 0 < len(kept) < len(lines)
    cache_dir.mkdir()
    (cache_dir / "orders_3.csv").write_bytes(header + b"".join(kept[::-1]))
    primes = sieve_primes(500)
    rows = survey_mod._ensure_orders([3, 5], primes, ClassificationCache(cache_dir))
    assert list(rows) == [3, 5]
    for ell in (3, 5):
        assert (rows[ell][0] == 0).all()
        assert (rows[ell][1:] == classify_mod.prime_orders(ell, primes[1:])).all(), ell
    assert (cache_dir / "orders_3.csv").read_bytes() == cold
    # orders_5.csv was absent, so all its rows were computed, in the same pass
    run_survey(small_config(cold_dir, ell=5, x=500))
    assert (cache_dir / "orders_5.csv").read_bytes() == (cold_dir / "orders_5.csv").read_bytes()


def test_warm_survey_writes_nothing(tmp_cache, monkeypatch):
    run_table("g1", 500, cache_dir=tmp_cache, quiet=True)

    def files():
        return {p.name: (p.read_bytes(), p.stat().st_mtime_ns, p.stat().st_ino)
                for p in tmp_cache.iterdir()}

    before = files()
    assert len(before) == 9  # birregular.csv and one orders file per base
    monkeypatch.setattr(ClassificationCache, "save_b_pairs", _no_recompute)
    monkeypatch.setattr(ClassificationCache, "save_order_table", _no_recompute)
    for which in TABLE_PRESETS:
        run_table(which, 500, cache_dir=tmp_cache, quiet=True)
    assert files() == before


def test_cache_writer_layout(tmp_cache):
    cache = ClassificationCache(tmp_cache)
    b_pairs = {59: (44,), 5: (), 157: (62, 110), 37: (32,)}
    orders = {7: (6, 3, -1), 3: (0, 0, 0), 5: (4, 2, -1)}
    cache.save_b_pairs(b_pairs)
    cache.save_classifications(3, orders)
    cache.save_classifications(5, {})
    # rows sorted by prime, every line ending in "\n"
    assert cache._b_path().read_text() == (
        f"{CACHE_HEADER}\n5,0,\n37,1,32\n59,1,44\n157,1,62;110\n"
    )
    assert cache._orders_path(3).read_text() == f"{CACHE_HEADER}\n3,0,0,0\n5,4,2,-1\n7,6,3,-1\n"
    assert cache._orders_path(5).read_text() == f"{CACHE_HEADER}\n"
    assert cache.load_b_pairs() == b_pairs
    assert cache.load_orders(3) == orders and cache.load_orders(5) == {}
    loaded = cache.load_orders(3)
    assert {type(v) for p, row in loaded.items() for v in (p, *row)} == {int}
    cache.save_b_pairs({})
    assert cache._b_path().read_text() == f"{CACHE_HEADER}\n"
    assert cache.load_b_pairs() == {}


def test_readme_states_the_row_grammar_of_the_docstring():
    # one statement of the row grammar: README's table and rules are the docstring's
    doc = inspect.cleandoc(ClassificationCache.__doc__)
    readme = README.read_text()
    table = next(block for block in re.findall(r"^```\n(.*?)^```$", readme, re.M | re.S)
                 if block.startswith("birregular.csv"))
    assert textwrap.indent(table, "    ") in doc

    def words(text):
        return " ".join(text.replace("`", "").replace('"', "").split())

    rules = next(par for par in doc.split("\n\n") if par.startswith("Each field"))
    assert words(rules) in words(readme)


def test_foreign_cache_is_recomputed(tmp_path, monkeypatch):
    """Files without CACHE_HEADER, here in the v1 layout, are recomputed and rewritten."""
    cold_dir, old_dir = tmp_path / "cold", tmp_path / "old"
    cfg = SurveyConfig(ell=3, x=1000, variants=("G", "Hminus", "Hplus"), quiet=True)
    cold = run_survey(dataclasses.replace(cfg, cache_dir=cold_dir))
    cold_cache, old_cache = ClassificationCache(cold_dir), ClassificationCache(old_dir)
    b_pairs, orders = cold_cache.load_b_pairs(), cold_cache.load_orders(3)

    # the v1 layout: a column-name line, and orders rows carrying four flag columns
    old_dir.mkdir()
    old_cache._b_path().write_text(
        "p,b_irregular,indices\n"
        + "".join(f"{p},{int(bool(i))},{';'.join(map(str, i))}\n" for p, i in b_pairs.items())
    )
    old_cache._orders_path(3).write_text(
        "p,ord,ord_sq,jacobi,g,h,hminus,hplus\n"
        + "".join(f"{p},{o},{o2},{j},0,0,0,0\n" for p, (o, o2, j) in orders.items())
    )
    assert old_cache.load_b_pairs() == {} and old_cache.load_orders(3) == {}

    # the B-stage runs in forked workers, so they log each prime to a file, not a list
    log = tmp_path / "computed.log"
    real = survey_mod.b_irregular_pairs

    def logged(p):
        with open(log, "a") as f:
            f.write(f"{p}\n")
        return real(p)

    monkeypatch.setattr(survey_mod, "b_irregular_pairs", logged)
    assert run_survey(dataclasses.replace(cfg, cache_dir=old_dir)) == cold
    assert sorted(map(int, log.read_text().split())) == sorted(b_pairs)
    for name in ("birregular.csv", "orders_3.csv"):
        assert (old_dir / name).read_text() == (cold_dir / name).read_text()
        assert (old_dir / name).read_text().startswith(CACHE_HEADER + "\n")


@pytest.mark.parametrize(
    "text",
    [
        b"",
        b"\n5,0,\n",
        b"# genocchi cache v1\n5,0,\n",
        CACHE_HEADER.encode() + b" \n5,0,\n",
        b"\xff\xfe5",  # not even text
    ],
)
def test_any_other_first_line_reads_as_absent(tmp_cache, text):
    # one header rule for both readers; the rows under it are never parsed
    cache = ClassificationCache(tmp_cache)
    tmp_cache.mkdir()
    cache._b_path().write_bytes(text)
    cache._orders_path(3).write_bytes(text)
    assert cache.load_b_pairs() == {} and cache.load_orders(3) == {}
    run_survey(small_config(tmp_cache, x=500))
    for path in (cache._b_path(), cache._orders_path(3)):
        assert path.read_text().startswith(CACHE_HEADER + "\n")
    assert len(cache.load_b_pairs()) == 93  # primes 5 <= p <= 500
    assert len(cache.load_orders(3)) == 94  # odd primes p <= 500


def test_b_stage_failure_keeps_finished_primes(tmp_cache, monkeypatch):
    real = survey_mod.b_irregular_pairs

    def failing_at_5(p):
        if p == 5:  # computed last: the B-stage runs largest first
            raise ArithmeticError("kernel failure")
        return real(p)

    monkeypatch.setattr(survey_mod, "b_irregular_pairs", failing_at_5)
    with pytest.raises(ArithmeticError):
        run_survey(small_config(tmp_cache, x=500))
    saved = ClassificationCache(tmp_cache).load_b_pairs()
    assert sorted(saved) == [int(p) for p in sieve_primes(500) if p > 5]
    assert saved[37] == (32,)


@pytest.mark.parametrize("threads", [1, 2])
def test_b_stage_failure_costs_only_the_failing_prime(tmp_cache, monkeypatch, threads):
    real = survey_mod.b_irregular_pairs

    def failing_at_101(p):
        if p == 101:
            raise ArithmeticError("kernel failure")
        return real(p)

    monkeypatch.setattr(survey_mod, "b_irregular_pairs", failing_at_101)
    with pytest.raises(ArithmeticError, match="kernel failure") as info:
        run_survey(small_config(tmp_cache, x=500, threads=threads))
    assert "in failing_at_101" in str(info.value.__cause__)  # the worker's traceback
    _assert_no_child_left()
    saved = ClassificationCache(tmp_cache).load_b_pairs()
    # the rest of 101's batch, and every batch before and after it, is kept
    assert sorted(saved) == [int(p) for p in sieve_primes(500) if p >= 5 and p != 101]
    assert saved[37] == (32,)


def _assert_no_child_left():
    # every forked worker was reaped: none is left running or as a zombie
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("threads", [1, 2])
def test_b_stage_worker_death_is_a_survey_error(tmp_cache, monkeypatch, threads):
    real = survey_mod.b_irregular_pairs

    def dying_at_101(p):
        if p == 101:
            os._exit(3)  # the worker dies mid-batch, before it sends any result
        return real(p)

    monkeypatch.setattr(survey_mod, "b_irregular_pairs", dying_at_101)
    todo = [int(p) for p in sieve_primes(500)[::-1] if p >= 5]
    workers = survey_mod._worker_count(threads)
    batches = survey_mod._batches(todo, survey_mod.BATCHES_PER_WORKER * workers)
    dead = next(i for i, batch in enumerate(batches) if 101 in batch)
    message = (rf"B-stage worker \d+ died \(exit status 3\) in its batch of the primes "
               rf"{batches[dead][-1]}\.\.{batches[dead][0]}$")
    with pytest.raises(SurveyError, match=message):
        run_survey(small_config(tmp_cache, x=500, threads=threads))
    _assert_no_child_left()
    saved = ClassificationCache(tmp_cache).load_b_pairs()
    kept = [i for i, batch in enumerate(batches) if batch[0] in saved]
    # whole batches: every batch handed out before the death finished and was
    # saved, the dead worker's alone is lost, and none was handed out after it
    assert sorted(saved) == sorted(p for i in kept for p in batches[i])
    assert dead > 0 and sorted(kept + [dead]) == list(range(len(kept) + 1))
    assert max(kept + [dead]) < dead + workers
    assert all(saved[p] == b_irregular_pairs(p) for p in sorted(saved)[:5])


def test_interrupt_keeps_finished_batches(tmp_cache):
    # Ctrl-C signals the whole process group: the survey and its forked workers
    script = (
        "import sys; from genocchi.survey import SurveyConfig, run_survey; "
        "run_survey(SurveyConfig(ell=2, x=20000, cache_dir=sys.argv[1], threads=2))"
    )
    src = str(Path(survey_mod.__file__).parent.parent)
    proc = subprocess.Popen(
        [sys.executable, "-c", script, str(tmp_cache)],
        env={**os.environ, "PYTHONPATH": src},
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    first = proc.stderr.readline()  # "b-irregularity: <done>/<todo> primes, ..."
    os.killpg(proc.pid, signal.SIGINT)
    _, err = proc.communicate(timeout=60)
    assert proc.returncode != 0
    done = int(first.split()[1].split("/")[0])
    # one traceback, the parent's: the workers ignore SIGINT and finish their batches
    assert err.count("Traceback") == 1 and "KeyboardInterrupt" in err
    saved = ClassificationCache(tmp_cache).load_b_pairs()
    assert done <= len(saved) < 2260  # pi(20000) = 2262, less 2 and 3
    # batches start largest first and none that started is lost: no gaps
    largest = [int(p) for p in sieve_primes(20000)[::-1]][: len(saved)]
    assert sorted(saved) == sorted(largest)
    assert all(saved[p] == b_irregular_pairs(p) for p in largest[-20:])


def test_b_stage_worker_ignores_sigint_without_importing_signal(tmp_cache):
    # a fresh interpreter: pytest itself has imported `signal`. The forked worker
    # reports its own state as the "pairs" of p = 5.
    script = textwrap.dedent("""
        import _signal, sys
        import numpy as np
        from genocchi import survey

        def state(p):
            ignored = _signal.getsignal(_signal.SIGINT) == _signal.SIG_IGN
            return int(ignored), int("signal" in sys.modules)

        survey.b_irregular_pairs = state
        cache = survey.ClassificationCache(sys.argv[1])
        pairs = survey._ensure_b_pairs(np.array([5]), cache, 1, True)
        print(pairs[5], _signal.getsignal(_signal.SIGINT) is _signal.default_int_handler,
              "signal" in sys.modules)
    """)
    done = subprocess.run(
        [sys.executable, "-c", script, str(tmp_cache)], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(Path(survey_mod.__file__).parent.parent)},
        timeout=120,
    )
    assert (done.returncode, done.stderr) == (0, "")
    # the worker ignores SIGINT and never loaded `signal`; the parent keeps its handler
    assert done.stdout == "(1, 0) True False\n"


def _faults_of_second_call(p):
    b_irregular_pairs(p)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    b_irregular_pairs(p)
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before


@pytest.mark.skipif(
    sys.platform != "linux" or platform.libc_ver()[0] != "glibc"
    or not hasattr(ctypes.CDLL(None), "mallopt"),
    reason="needs glibc's mallopt",
)
def test_b_stage_workers_reuse_freed_memory(tmp_cache, monkeypatch):
    # near p = 40000 the kernel's arrays are over glibc's default mmap threshold:
    # without the worker setting each call maps them afresh, about 1000 page faults.
    # The forked worker measures its own faults and sends them back as the "pairs".
    monkeypatch.setattr(survey_mod, "b_irregular_pairs", lambda p: (_faults_of_second_call(p),))
    pairs = survey_mod._ensure_b_pairs(np.array([39989]), ClassificationCache(tmp_cache), 1, True)
    assert pairs[39989][0] < 100
    _assert_no_child_left()


def test_cache_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("GENOCCHI_CACHE_DIR", str(tmp_path / "env_cache"))
    # an explicit directory wins; the variable applies only when none is given
    assert resolve_cache_dir(tmp_path / "other") == tmp_path / "other"
    assert resolve_cache_dir(None) == tmp_path / "env_cache"
    assert resolve_cache_dir("") == tmp_path / "env_cache"  # an empty --cache-dir is not "."
    run_survey(SurveyConfig(ell=3, x=500, cache_dir=tmp_path / "other", quiet=True))
    assert (tmp_path / "other" / "birregular.csv").exists()
    assert not (tmp_path / "env_cache").exists()
    run_survey(SurveyConfig(ell=3, x=500, quiet=True))
    assert (tmp_path / "env_cache" / "birregular.csv").exists()
    monkeypatch.delenv("GENOCCHI_CACHE_DIR")
    assert resolve_cache_dir(None) == survey_mod.DEFAULT_CACHE_DIR
    assert resolve_cache_dir("") == survey_mod.DEFAULT_CACHE_DIR


def test_commands_run_without_a_home_directory(tmp_path):
    # HOME unset and no passwd entry: `~` cannot expand. Only a survey that needs the
    # default cache directory may fail, and then with one error line naming both fixes.
    script = (
        "import pwd, sys\n"
        "def no_entry(uid): raise KeyError(uid)\n"
        "pwd.getpwuid = no_entry\n"
        "from genocchi.cli import cli_main\n"
        "sys.exit(cli_main(sys.argv[1:]))\n"
    )
    env = {k: v for k, v in os.environ.items() if k not in ("HOME", survey_mod.CACHE_ENV)}
    env["PYTHONPATH"] = str(Path(survey_mod.__file__).parent.parent)

    def run(*argv):
        done = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True,
                              text=True, env=env, timeout=120)
        return done.returncode, done.stdout, done.stderr

    assert run("bernoulli", "--n", "12") == (0, "-691/2730\n", "")
    survey = ["survey", "--ell", "3", "--x", "500", "--quiet"]
    code, out, err = run(*survey, "--cache-dir", str(tmp_path / "cache"))
    assert (code, err) == (0, "") and "experimental" in out
    assert (tmp_path / "cache" / "birregular.csv").exists()
    code, out, err = run(*survey)
    assert (code, out) == (1, "")
    assert err.startswith("error: cannot expand the cache directory ~/.cache/genocchi")
    assert err.count("\n") == 1 and "--cache-dir" in err and survey_mod.CACHE_ENV in err


# ---------------------------------------------------------------- emission


def test_csv_determinism(tmp_cache):
    rows = run_survey(small_config(tmp_cache))
    a = emit_table("survey", rows, "csv", deterministic=True)
    b = emit_table("survey", rows, "csv", deterministic=True)
    assert a == b
    assert parse_rows_csv(a) == rows
    with_stamp = emit_table("survey", rows, "csv", deterministic=False)
    assert with_stamp.startswith("# generated ")
    assert parse_rows_csv(with_stamp) == rows


def test_json_emission(tmp_cache):
    rows = run_survey(small_config(tmp_cache))
    data = json.loads(emit_table("survey", rows, "json"))
    assert [SurveyRow(**d) for d in data] == rows


def test_text_emission(tmp_cache):
    rows = run_survey(small_config(tmp_cache, variants=("Hplus", "Hminus")))
    text = emit_table("hpm", rows, "text")
    assert "H+ exp" in text and "3" in text


def test_emit_table_rejects_an_unknown_layout(tmp_cache):
    rows = run_survey(small_config(tmp_cache, x=500, variants=("G",)))
    for fmt in ("text", "csv", "json"):
        with pytest.raises(ValueError, match="unknown layout 'bogus'"):
            emit_table("bogus", rows, fmt)


# (progressions, variants) of the ell = 3 surveys whose rows are emitted together
_HMINUS_ONLY = [(((1, 1),), ("Hminus",))]
_HPLUS_THEN_HMINUS_MOD_4 = [(((1, 1),), ("Hplus",)), (((4, 1), (4, 3)), ("Hminus",))]


@pytest.mark.parametrize(
    "which, surveys",
    [
        ("hpm", _HMINUS_ONLY),
        ("hpm", _HPLUS_THEN_HMINUS_MOD_4),
        ("g1", _HPLUS_THEN_HMINUS_MOD_4),
        ("g3", _HPLUS_THEN_HMINUS_MOD_4),
    ],
    ids=["hpm-hminus-only", "hpm-mixed", "g1-mixed", "g3-mixed"],
)
def test_table_layout_rejects_rows_it_cannot_name(tmp_cache, which, surveys):
    # a table's text layout hides some of d, a and variant; the survey layout names them all
    rows = [
        row
        for progressions, variants in surveys
        for row in run_survey(small_config(tmp_cache, x=500, progressions=progressions,
                                           variants=variants))
    ]
    assert emit_table("survey", rows, "text").count("\n") == len(rows) + 1
    with pytest.raises(ValueError, match=f"the {which} layout prints only the rows of run_table"):
        emit_table(which, rows, "text")


def test_survey_text_names_each_row(tmp_cache, capsys):
    # two classes times two variants: without d, a and variant the rows look alike
    argv = [
        "survey", "--ell", "3", "--x", "1000", "--progression", "4,1", "--progression", "4,3",
        "--variant", "g", "--variant", "hminus", "--cache-dir", str(tmp_cache), "--quiet",
    ]
    assert cli_main([*argv, "--format", "csv"]) == 0
    rows = parse_rows_csv(capsys.readouterr().out)
    assert cli_main(argv) == 0
    header, *lines = capsys.readouterr().out.splitlines()
    assert header.split() == ["ell", "d", "a", "variant", "experimental", "theoretical"]
    assert [line.split() for line in lines] == [
        [str(r.ell), str(r.d), str(r.a), r.variant, f"{r.experimental:.6f}", f"{r.conjectured:.6f}"]
        for r in rows
    ]
    assert len(set(lines)) == 4


README = Path(__file__).parent.parent / "README.md"

# g3 and hpm text and a survey CSV at x = 1000, recorded from the hand-written
# f-strings that _TEXT_KEYS and _CSV_COLUMNS replaced; compared byte for byte
# (the hpm text in test_cli_table_small)
G3_TEXT_1000 = """\
 ell   d   a  experimental  theoretical
   3   3   1      0.775000     0.818547
   3   3   2      0.448276     0.455642
   3   4   1      0.737500     0.727821
   3   4   3      0.482759     0.546369
   5   3   1      0.700000     0.723046
   5   3   2      0.609195     0.584569
   5   4   1      0.800000     0.761247
   5   4   3      0.517241     0.546369
   7   3   1      0.637500     0.725608
   7   3   2      0.609195     0.588413
   7   4   1      0.737500     0.767652
   7   4   3      0.517241     0.546369
  11   7   1      0.678571     0.700354
  11   7   2      0.481481     0.650413
  11   7   3      0.566667     0.650413
  11   7   4      0.615385     0.650413
  11   7   5      0.827586     0.650413
  11   7   6      0.481481     0.650413
  11  15   1      0.666667     0.770096
  11  15   2      0.608696     0.568930
  11  15   4      0.555556     0.712620
  11  15   7      0.666667     0.712620
  11  15   8      0.523810     0.568930
  11  15  11      0.681818     0.655144
  11  15  13      0.600000     0.712620
  11  15  14      0.550000     0.568930
"""
HPM_TEXT_1000 = """\
 ell      H+ exp    H+ theo      H- exp    H- theo
   2    0.559524   0.596280    0.565476   0.603073
   3    0.535714   0.571007    0.559524   0.591732
   5    0.565476   0.559070    0.577381   0.600088
   7    0.559524   0.571007    0.565476   0.601690
  11    0.547619   0.571007    0.541667   0.602552
  13    0.535714   0.569544    0.547619   0.602707
  17    0.553571   0.570170    0.535714   0.602863
  19    0.505952   0.571007    0.547619   0.602906
"""
SURVEY_CSV_1000 = """\
ell,d,a,x,count_irregular,count_primes,experimental,conjectured,lower_bound,variant
3,4,1,1000,59,80,0.737500,0.727821200,0.551253024,G
3,4,1,1000,52,80,0.650000,0.637094934,0.401670698,Hminus
3,4,3,1000,42,87,0.482759,0.546368667,0.252088373,G
3,4,3,1000,42,87,0.482759,0.546368667,0.252088373,Hminus
"""


def _readme_examples() -> list[tuple[list[str], str]]:
    """(argv, shown output) for every `$ genocchi ...` line in a README code block."""
    examples = []
    for block in re.findall(r"^```\n(.*?)^```$", README.read_text(), re.M | re.S):
        for chunk in re.split(r"^(?=\$ )", block, flags=re.M):
            if chunk.startswith("$ genocchi "):
                command, _, shown = chunk.partition("\n")
                examples.append((shlex.split(command)[2:], shown))
    return examples


def test_readme_examples_print_what_the_readme_shows(tmp_path, monkeypatch, capsys):
    # one cache for all: the two x = 10^4 examples share a B-stage
    monkeypatch.setenv(survey_mod.CACHE_ENV, str(tmp_path / "cache"))
    examples = _readme_examples()
    assert len(examples) >= 10
    for argv, shown in examples:
        code = cli_main(argv)
        out, err = capsys.readouterr()
        assert out + err == shown, argv
        assert code == (1 if shown.startswith("error: ") else 0), argv


def test_table_layouts_byte_for_byte(tmp_cache, capsys):
    # every name emit_table accepts has a text layout: the paired hpm or a key table
    assert survey_mod._TEXT_KEYS.keys() | {"hpm"} == TABLE_PRESETS.keys() | {"survey"}
    survey = ["survey", "--ell", "3", "--x", "1000", "--progression", "4,1", "--progression", "4,3",
              "--variant", "g", "--variant", "hminus", "--format", "csv", "--deterministic"]
    for argv, want in ((["table", "--which", "g3", "--x", "1000"], G3_TEXT_1000),
                       (survey, SURVEY_CSV_1000)):
        assert cli_main([*argv, "--cache-dir", str(tmp_cache), "--quiet"]) == 0
        assert capsys.readouterr().out == want, argv


# ---------------------------------------------------------------- CLI


def test_cli_classify_checks_ell_before_the_kernel(capsys, monkeypatch):
    monkeypatch.setattr(classify_mod, "b_irregular_pairs", _no_recompute)
    assert cli_main(["classify", "--ell", "9", "--p", "249989"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "must be prime" in captured.err
    with pytest.raises(ValueError, match="must be prime"):
        classify_prime(9, 249989)


def test_cli_classify_rejects_a_composite_p(capsys):
    assert cli_main(["classify", "--ell", "2", "--p", "9"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: p must be an odd prime, got 9\n"


def test_cli_unusable_cache_dir_is_one_error_line(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("a regular file\n")
    argv = ["survey", "--ell", "3", "--x", "1000", "--cache-dir", str(blocker), "--quiet"]
    assert cli_main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "Traceback" not in captured.err
    assert blocker.read_text() == "a regular file\n"


def test_survey_reports_progress_unless_quiet(tmp_cache, capsys):
    run_survey(small_config(tmp_cache, x=600, variants=("G",), quiet=False))
    lines = capsys.readouterr().err.splitlines()
    assert "b-irregularity: 107 primes in" in lines[-1]  # pi(600) = 109, less 2 and 3
    # one line per finished batch, the last one with every prime and nothing left
    assert len(lines) - 1 >= 2 and all("ETA" in line for line in lines[:-1])
    assert lines[-2].startswith("b-irregularity: 107/107 primes,") and lines[-2].endswith("ETA 0.0s")


def test_negative_threads_rejected_before_any_prime(tmp_cache, monkeypatch):
    monkeypatch.setattr(survey_mod, "b_irregular_pairs", _no_recompute)
    with pytest.raises(ValueError, match="threads"):
        run_survey(small_config(tmp_cache, x=500, threads=-1))
    assert cli_main(["survey", "--ell", "3", "--x", "500", "--threads", "-1", "--quiet"]) == 1


def test_worker_count_is_capped_at_the_usable_cpus():
    cpus = len(os.sched_getaffinity(0))
    assert survey_mod._worker_count(0) == cpus
    assert survey_mod._worker_count(5000) == cpus
    assert survey_mod._worker_count(1) == 1


def test_pool_is_capped_at_the_batches(tmp_cache, monkeypatch):
    workers = []

    def thread_worker(batches, inherited):
        """Stands in for _fork_b_worker: the worker's loop on a thread of this
        process, over the same two pipes, with no process to reap."""
        assert len(inherited) == 2 * len(workers)  # both ends of every earlier worker
        tasks, task_end = os.pipe()
        result_end, results = os.pipe()
        workers.append(threading.Thread(target=survey_mod._b_worker,
                                        args=(tasks, results, batches)))
        workers[-1].start()
        return survey_mod._BWorker(None, task_end, open(result_end, "rb"))

    monkeypatch.setattr(survey_mod, "_fork_b_worker", thread_worker)
    monkeypatch.setattr(survey_mod.os, "sched_getaffinity", lambda pid: set(range(64)))
    cold = run_survey(small_config(tmp_cache, x=100, threads=5000))
    # 64 CPUs would ask for 1024 batches, but 23 primes make at most 23 of them
    assert len(workers) == 23
    assert run_survey(small_config(tmp_cache, x=100, threads=5000)) == cold
    assert len(workers) == 23  # warm: no worker at all
    for worker in workers:  # each one left its loop when its batch pipe closed
        worker.join(timeout=10)
        assert not worker.is_alive()


def test_batches_carry_equal_work():
    todo = [int(p) for p in sieve_primes(5000) if p >= 5][::-1]
    batches = survey_mod._batches(todo, 32)
    assert len(batches) == 32 and sum(batches, []) == todo
    # each batch is within one prime's work of an equal share
    work = [sum(p * math.log2(p) for p in batch) for batch in batches]
    share, largest = sum(work) / 32, todo[0] * math.log2(todo[0])
    assert all(abs(w - share) <= largest for w in work)
    assert survey_mod._batches([7, 5], 32) == [[7], [5]]


def test_worker_pool_matches_serial(tmp_path):
    serial = run_survey(
        SurveyConfig(ell=3, x=1500, threads=1, cache_dir=tmp_path / "one", quiet=True)
    )
    pooled = run_survey(
        SurveyConfig(ell=3, x=1500, threads=4, cache_dir=tmp_path / "four", quiet=True)
    )
    assert serial == pooled
    _assert_no_child_left()


def test_cli_table_small(tmp_cache, capsys):
    code = cli_main(
        [
            "table", "--which", "hpm", "--x", "1000",
            "--cache-dir", str(tmp_cache), "--quiet",
        ]
    )
    assert code == 0
    assert capsys.readouterr().out == HPM_TEXT_1000  # header + one row per base


def test_cli_usage_error_exit_2():
    for argv in (
        ["survey", "--bogus"],
        ["survey", "--ell", "3", "--x", "1000", "--progression", "4:1"],  # D,A is the one form
    ):
        with pytest.raises(SystemExit) as info:
            cli_main(argv)
        assert info.value.code == 2, argv


def test_cli_computation_error_exit_1(capsys):
    for argv in (
        ["density", "--kind", "g", "--ell", "3", "--d", "4", "--a", "2"],
        ["density", "--kind", "g-conj", "--ell", "4"],
        ["density", "--kind", "rho", "--ell", "3", "--d", "4", "--a", "2"],
        ["density", "--kind", "rho", "--ell", "3", "--d", "4", "--a", "1"],
    ):
        assert cli_main(argv) == 1, argv
        captured = capsys.readouterr()
        assert captured.out == "" and "error:" in captured.err, argv


def test_cli_help_exits_zero():
    with pytest.raises(SystemExit) as info:
        cli_main(["--help"])
    assert info.value.code == 0


def test_readme_names_every_cli_option(capsys):
    # every --option in each subcommand's --help output appears in README.md
    def help_text(*argv: str) -> str:
        with pytest.raises(SystemExit) as info:
            cli_main([*argv, "--help"])
        assert info.value.code == 0, argv
        return capsys.readouterr().out

    commands = re.search(r"\{([a-z,]+)\}", help_text()).group(1).split(",")
    assert {"survey", "table", "classify"} <= set(commands)
    readme = README.read_text()
    missing = [
        (command, option)
        for command in commands
        for option in sorted(set(re.findall(r"--[a-z][a-z-]*", help_text(command))))
        if not re.search(rf"{option}(?![a-z-])", readme)
    ]
    assert not missing
