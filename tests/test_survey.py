import dataclasses
import json
import math
import os
import threading

import pytest

from genocchi import classify as classify_mod
from genocchi import survey as survey_mod
from genocchi.classify import b_irregular_pairs, classify_prime
from genocchi.cli import cli_main
from genocchi.exactseq import bernoulli
from genocchi.kernels import MAX_KERNEL_PRIME
from genocchi.modarith import sieve_primes
from genocchi.survey import (
    CACHE_HEADER,
    ClassificationCache,
    SurveyConfig,
    SurveyError,
    SurveyRow,
    emit_table,
    resolve_cache_dir,
    run_survey,
    run_table,
)

from oracles import parse_rows_csv


def small_config(tmp_cache, **kw):
    defaults = dict(ell=3, x=2000, variants=("G", "Hminus"), cache_dir=tmp_cache, quiet=True)
    defaults.update(kw)
    return SurveyConfig(**defaults)


# ---------------------------------------------------------------- config validation


def test_config_validation(tmp_cache, monkeypatch):
    with pytest.raises(ValueError):
        SurveyConfig(ell=3, x=50)
    with pytest.raises(ValueError):
        SurveyConfig(ell=3, x=1000, variants=())
    # no rows at all: nothing would check the base before the B-stage
    with pytest.raises(ValueError):
        SurveyConfig(ell=9, x=1000, progressions=())
    with pytest.raises(ValueError):
        SurveyConfig(ell=3, x=1000, variants=("Q",))
    with pytest.raises(ValueError):
        SurveyConfig(ell=3, x=1000, progressions=((4, 2),))
    with pytest.raises(ValueError):
        SurveyConfig(ell=3, x=1000, variants=("Hplus",), progressions=((4, 1),))
    # the densities assume a prime base, and H- in progressions an odd one
    for ell in (1, 9):
        with pytest.raises(ValueError, match="prime"):
            SurveyConfig(ell=ell, x=1000)
    with pytest.raises(ValueError, match="odd"):
        SurveyConfig(ell=2, x=1000, variants=("Hminus",), progressions=((4, 1),))
    # beyond the kernel bound: rejected before any prime is computed
    with pytest.raises(ValueError, match="kernel"):
        SurveyConfig(ell=3, x=MAX_KERNEL_PRIME + 1)
    SurveyConfig(ell=3, x=MAX_KERNEL_PRIME)
    # the library entry points check their names before any sieve or cache work
    monkeypatch.setattr(survey_mod, "sieve_primes", _no_recompute)
    with pytest.raises(ValueError, match="unknown table"):
        run_table("g4", 1000, cache_dir=tmp_cache)
    assert not tmp_cache.exists()
    with pytest.raises(ValueError, match="unknown format"):
        emit_table("g1", [], "xml")


@pytest.mark.parametrize(
    "options",
    [["--ell", "9"], ["--ell", "2", "--variant", "hminus", "--progression", "4,1"]],
)
def test_bad_survey_fails_before_any_prime(tmp_cache, monkeypatch, options):
    monkeypatch.setattr(survey_mod, "sieve_primes", _no_recompute)
    monkeypatch.setattr(survey_mod, "b_irregular_pairs", _no_recompute)
    argv = ["survey", "--x", "100000", "--cache-dir", str(tmp_cache), "--quiet", *options]
    assert cli_main(argv) == 1
    assert not tmp_cache.exists()


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
        b = bool(b_irregular_pairs(p)) if p >= 5 else False
        if classify_prime(3, p, b).g_irregular:
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
    # cross-module: survey flags vs exact-rational scans, all p <= 1000
    rows = run_survey(small_config(tmp_cache, x=1000, variants=("G", "Hminus", "Hplus")))
    counts = {r.variant: r.count_irregular for r in rows}
    scans = {"G": 0, "Hminus": 0, "Hplus": 0}
    for p in (int(q) for q in sieve_primes(1000)[1:]):
        g = hm = hp = False
        if p != 3:
            for n2 in range(2, p - 2, 2):
                bdiv = bernoulli(n2).numerator % p == 0
                g = g or bdiv or pow(3, n2, p) == 1
                hm = hm or bdiv or pow(3, n2 // 2, p) == 1
                hp = hp or bdiv or pow(3, n2 // 2, p) == p - 1
        scans["G"] += g
        scans["Hminus"] += hm
        scans["Hplus"] += hp
    assert counts == scans


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
        with monkeypatch.context() as m:
            m.setattr(survey_mod, "classify_prime", _no_recompute)
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


def test_cache_corruption_reported(tmp_cache):
    cfg = small_config(tmp_cache, x=500)
    run_survey(cfg)
    path = ClassificationCache(resolve_cache_dir(tmp_cache))._b_path()
    # under the current header a bad row is damage, not a foreign file
    path.write_text(f"{CACHE_HEADER}\n37,0,32\n")
    with pytest.raises(SurveyError, match="delete"):
        run_survey(cfg)


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

    computed = []
    real = survey_mod.b_irregular_pairs
    monkeypatch.setattr(survey_mod, "b_irregular_pairs", lambda p: computed.append(p) or real(p))
    assert run_survey(dataclasses.replace(cfg, cache_dir=old_dir)) == cold
    assert sorted(computed) == sorted(b_pairs)
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
    cache = ClassificationCache(tmp_cache)
    tmp_cache.mkdir()
    cache._b_path().write_bytes(text)
    assert cache.load_b_pairs() == {}
    run_survey(small_config(tmp_cache, x=500))
    assert cache._b_path().read_text().startswith(CACHE_HEADER + "\n")
    assert len(cache.load_b_pairs()) == 93  # primes 5 <= p <= 500


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


def test_b_stage_failure_keeps_primes_finished_after_it(tmp_cache, monkeypatch):
    real = survey_mod.b_irregular_pairs
    finished_97 = threading.Event()

    def failing_at_101(p):
        if p == 101:  # 97 is submitted next, so the other thread takes it
            finished_97.wait(timeout=60)
            raise ArithmeticError("kernel failure")
        pairs = real(p)
        if p == 97:
            finished_97.set()
        return pairs

    monkeypatch.setattr(survey_mod, "b_irregular_pairs", failing_at_101)
    with pytest.raises(ArithmeticError):
        run_survey(small_config(tmp_cache, x=500, threads=2))
    assert finished_97.is_set()
    saved = ClassificationCache(tmp_cache).load_b_pairs()
    assert 101 not in saved and 97 in saved
    # every prime submitted before 101 had started, so it finished and was saved
    assert {int(p) for p in sieve_primes(500) if p > 101} <= saved.keys()


def test_cache_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("GENOCCHI_CACHE_DIR", str(tmp_path / "env_cache"))
    # an explicit directory wins; the variable applies only when none is given
    assert resolve_cache_dir(tmp_path / "other") == tmp_path / "other"
    assert resolve_cache_dir(None) == tmp_path / "env_cache"
    run_survey(SurveyConfig(ell=3, x=500, cache_dir=tmp_path / "other", quiet=True))
    assert (tmp_path / "other" / "birregular.csv").exists()
    assert not (tmp_path / "env_cache").exists()
    run_survey(SurveyConfig(ell=3, x=500, quiet=True))
    assert (tmp_path / "env_cache" / "birregular.csv").exists()
    monkeypatch.delenv("GENOCCHI_CACHE_DIR")
    assert resolve_cache_dir(None) == survey_mod.DEFAULT_CACHE_DIR


# ---------------------------------------------------------------- emission


def test_csv_roundtrip(tmp_cache):
    rows = run_survey(small_config(tmp_cache))
    text = emit_table("survey", rows, "csv", deterministic=True)
    assert parse_rows_csv(text) == rows


def test_csv_determinism(tmp_cache):
    rows = run_survey(small_config(tmp_cache))
    a = emit_table("survey", rows, "csv", deterministic=True)
    b = emit_table("survey", rows, "csv", deterministic=True)
    assert a == b
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


# ---------------------------------------------------------------- CLI


def test_cli_survey_csv(tmp_cache, capsys):
    code = cli_main(
        [
            "survey", "--ell", "3", "--x", "2000", "--variant", "g",
            "--format", "csv", "--cache-dir", str(tmp_cache),
            "--quiet", "--deterministic",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    rows = parse_rows_csv(out)
    assert len(rows) == 1 and rows[0].ell == 3 and rows[0].x == 2000


def test_cli_density_example(capsys):
    assert cli_main(["density", "--kind", "g", "--ell", "3", "--d", "4", "--a", "1"]) == 0
    out = capsys.readouterr().out.strip()
    assert out.startswith("6/5 * A = 0.448746")


def test_cli_density_ratio(capsys):
    assert cli_main(["density", "--kind", "g-conj", "--ell", "2"]) == 0
    out = capsys.readouterr().out.strip()
    assert out.startswith("0.659776")


def test_cli_classify(capsys):
    assert cli_main(["classify", "--ell", "2", "--p", "37"]) == 0
    out = capsys.readouterr().out
    assert "p=37" in out and "B=1" in out and "G=1" in out


def test_cli_classify_checks_ell_before_the_kernel(capsys, monkeypatch):
    monkeypatch.setattr(classify_mod, "b_irregular_pairs", _no_recompute)
    assert cli_main(["classify", "--ell", "9", "--p", "249989"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "must be prime" in captured.err


def test_survey_reports_progress_unless_quiet(tmp_cache, capsys):
    run_survey(small_config(tmp_cache, x=600, variants=("G",), quiet=False))
    assert "b-irregularity: 107 primes in" in capsys.readouterr().err  # pi(600) = 109, less 2 and 3


def test_cli_wieferich(capsys):
    assert cli_main(["wieferich", "--ell", "2", "--limit", "10000"]) == 0
    assert capsys.readouterr().out.strip() == "1093 3511"


def test_cli_bernoulli_genocchi(capsys):
    assert cli_main(["bernoulli", "--n", "12"]) == 0
    assert capsys.readouterr().out.strip() == "-691/2730"
    assert cli_main(["genocchi", "--ell", "3", "--n", "2"]) == 0
    assert capsys.readouterr().out.strip() == "-4"


def test_thread_pool_matches_serial(tmp_path):
    serial = run_survey(
        SurveyConfig(ell=3, x=1500, threads=1, cache_dir=tmp_path / "one", quiet=True)
    )
    pooled = run_survey(
        SurveyConfig(ell=3, x=1500, threads=4, cache_dir=tmp_path / "four", quiet=True)
    )
    assert serial == pooled


def test_cli_table_small(tmp_cache, capsys):
    code = cli_main(
        [
            "table", "--which", "hpm", "--x", "1000",
            "--cache-dir", str(tmp_cache), "--quiet",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "H+ exp" in out
    assert len(out.strip().splitlines()) == 9  # header + one row per base


def test_cli_usage_error_exit_2():
    with pytest.raises(SystemExit) as info:
        cli_main(["survey", "--bogus"])
    assert info.value.code == 2


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
