import argparse
import gc
import json
import os
import re
import time
from fractions import Fraction

import pytest

from radioleader import cli
from radioleader.channel import CdModel
from radioleader.cli import (
    AGG_HEADER,
    ATTEMPT_HEADER,
    CHECK_HEADER,
    CSV_HEADER,
    PROGRAMS,
    _mean,
    _parse_density,
    build_parser,
    generate_subsets,
    main,
)
from radioleader.dense import choose_dense_b
from radioleader.partitions import generate_family, save_family
from radioleader.protocols_core import ceil_log2


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def body_rows(out):
    lines = out.strip().splitlines()
    assert lines[0] == CSV_HEADER
    agg_at = lines.index(AGG_HEADER)
    return lines[1:agg_at], lines[agg_at + 1:]


def test_pairing_all_subsets(capsys):
    code, out, _ = run_cli(capsys, "--protocol", "pairing", "--N", "8",
                           "--subsets", "all")
    assert code == 0
    rows, aggs = body_rows(out)
    assert len(rows) == 2**8 - 1
    for row in rows:
        cols = row.split(",")
        assert cols[0] == "pairing"
        assert cols[1] == "no_cd"
        assert cols[8] == "true"  # strict
    agg = aggs[0].split(",")
    assert agg[3] == "255"
    assert agg[8] == "true"


def test_byte_identical_reruns(tmp_path, capsys):
    argv = ["--protocol", "halving", "--N", "32", "--k", "2",
            "--n", "5", "--trials", "6", "--seed", "11"]
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert main(argv + ["--out", str(out_a)]) == 0
    assert main(argv + ["--out", str(out_b)]) == 0
    capsys.readouterr()
    assert out_a.read_bytes() == out_b.read_bytes()
    agg_a = tmp_path / "a.csv.agg.csv"
    agg_b = tmp_path / "b.csv.agg.csv"
    assert agg_a.read_bytes() == agg_b.read_bytes()
    assert agg_a.read_text().splitlines()[0] == AGG_HEADER


def test_bad_arguments_exit_2(tmp_path, capsys):
    code, _, err = run_cli(capsys, "--protocol", "pairing", "--N", "0")
    assert code == 2 and err == "error: --N must be at least 1\n"
    code, _, err = run_cli(capsys, "--protocol", "tradeoff", "--N", "16",
                           "--k", "4", "--epsilon", "1.5")
    assert code == 2 and err.startswith("error: ")
    code, _, err = run_cli(capsys, "--protocol", "tradeoff", "--N", "16",
                           "--n", "2", "--k", "4", "--epsilon", "1.5")
    assert code == 2
    assert err == "error: epsilon must lie strictly between 0 and 1\n"
    code, _, err = run_cli(capsys, "--protocol", "pairing", "--N", "21",
                           "--subsets", "all")
    assert code == 2 and "error:" in err
    # random subsets without a size, or with one outside 1..N
    assert run_cli(capsys, "--protocol", "pairing", "--N", "8")[0] == 2
    for n in ("0", "9"):
        code, _, err = run_cli(capsys, "--protocol", "pairing", "--N", "8",
                               "--n", n)
        assert code == 2 and err == "error: need 1 <= n <= N\n"
    code, _, err = run_cli(capsys, "--protocol", "pairing", "--N", "8",
                           "--ids", ",")
    assert code == 2 and err == "error: empty id list\n"
    # an output that cannot be written is refused like any other invocation,
    # leaving exit 1 to --assert-success
    blocker = tmp_path / "file"
    blocker.write_text("")
    unwritable = str(blocker / "out")
    for option in ("--out", "--json-out", "--emit-transcripts"):
        code, _, err = run_cli(capsys, "--protocol", "pairing", "--N", "4",
                               "--ids", "1,2", option, unwritable)
        assert code == 2 and err.startswith("error: ") and err.count("\n") == 1


def test_a_refused_invocation_writes_nothing(tmp_path, capsys, monkeypatch):
    # the JSON path lies under a regular file, so the invocation is refused:
    # no table, transcript or directory may be written, no existing output
    # truncated, and no table printed
    blocker = tmp_path / "file"
    blocker.write_text("")
    bad = blocker / "x.json"
    agg = tmp_path / "runs.csv.agg.csv"
    agg.write_text("old\n")
    argv = ["--protocol", "pairing", "--N", "4", "--ids", "1,2",
            "--json-out", str(bad)]
    for extra in (["--out", str(tmp_path / "runs.csv"),
                   "--emit-transcripts", str(tmp_path / "t" / "runs")], []):
        code, out, err = run_cli(capsys, *argv, *extra)
        assert (code, out) == (2, "")
        assert err == f"error: [Errno 20] Not a directory: '{bad}'\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "file", "runs.csv.agg.csv"]
        assert agg.read_text() == "old\n"
    # a directory in place of a table is refused before any run
    def run_one(*args):
        raise AssertionError("a run started")

    monkeypatch.setattr(cli, "_run_one", run_one)
    code, out, err = run_cli(capsys, "--protocol", "pairing", "--N", "4",
                             "--ids", "1,2", "--out", str(tmp_path / "runs.csv"),
                             "--json-out", str(tmp_path))
    assert (code, out) == (2, "")
    assert err == (f"error: {tmp_path} must be new or a plain file with one "
                   f"link that this user owns and may replace\n")
    assert agg.read_text() == "old\n"
    assert not (tmp_path / "runs.csv").exists()


def test_outputs_keep_their_links_and_modes(tmp_path, capsys):
    # a symlink and a dangling symlink are followed, and a plain file is
    # replaced but keeps its mode, so every output ends with the bytes of a
    # plain run in the same place; a hard-linked file is refused, since
    # replacing it would part it from its twin
    argv = ["--protocol", "pairing", "--N", "4", "--ids", "1,2"]
    plain = tmp_path / "plain"
    plain.mkdir()
    assert main(argv + ["--out", str(plain / "runs.csv"),
                        "--json-out", str(plain / "runs.json")]) == 0
    real = tmp_path / "real.csv"
    real.write_text("old\n")
    link = tmp_path / "runs.csv"
    link.symlink_to(real)
    agg = tmp_path / "runs.csv.agg.csv"
    agg.write_text("old\n")
    agg.chmod(0o640)
    twin = tmp_path / "twin.json"
    twin.write_text("old\n")
    (tmp_path / "runs.json").hardlink_to(twin)
    dangling = tmp_path / "dangling.json"
    dangling.symlink_to(tmp_path / "made.json")
    shared = tmp_path / "runs.json"
    code, out, err = run_cli(capsys, *argv, "--out", str(link),
                             "--json-out", str(shared))
    assert (code, out) == (2, "")
    assert err == (f"error: {shared} must be new or a plain file with one "
                   f"link that this user owns and may replace\n")
    assert twin.read_text() == "old\n"
    code, out, err = run_cli(capsys, *argv, "--out", str(link),
                             "--json-out", str(dangling))
    assert (code, out, err) == (0, "", "")
    assert link.is_symlink() and dangling.is_symlink()
    assert real.read_bytes() == (plain / "runs.csv").read_bytes()
    assert agg.read_bytes() == (plain / "runs.csv.agg.csv").read_bytes()
    assert agg.stat().st_mode & 0o777 == 0o640
    expected = (plain / "runs.json").read_bytes()
    assert (tmp_path / "made.json").read_bytes() == expected
    # a refused invocation truncates no link's target, and creates none
    bad = real / "x.json"
    real.write_text("old\n")
    gone = tmp_path / "gone.csv"
    gone.symlink_to(tmp_path / "made.csv")
    for out_path in (link, gone):
        code, out, err = run_cli(capsys, *argv, "--out", str(out_path),
                                 "--json-out", str(bad))
        assert (code, out) == (2, "")
        assert err == f"error: [Errno 20] Not a directory: '{bad}'\n"
    assert real.read_text() == "old\n"
    assert not (tmp_path / "made.csv").exists()


def test_random_subsets_need_a_trial(tmp_path, capsys):
    # refused with the other --n checks, not by max() over no sets
    for trials in ("0", "-3"):
        out = tmp_path / f"trials{trials}.csv"
        code, stdout, err = run_cli(capsys, "--protocol", "pairing", "--N", "8",
                                    "--n", "2", "--trials", trials, "--out", str(out))
        assert code == 2 and stdout == ""
        assert err == "error: --subsets random needs --trials >= 1\n"
        assert not out.exists()


def test_seed_selects_the_subsets(capsys):
    argv = ["--protocol", "binary_search", "--N", "64", "--n", "6",
            "--trials", "4"]
    _, out_seed1, _ = run_cli(capsys, *argv, "--seed", "1")
    _, out_seed2, _ = run_cli(capsys, *argv, "--seed", "2")
    assert out_seed1 != out_seed2


def test_default_model_is_the_weakest_declared_model():
    def default(name):
        return cli._model_for(build_parser().parse_args(
            ["--protocol", name, "--N", "8"])).value

    assert {name: default(name) for name in PROGRAMS} == {
        "pairing": "no_cd",
        "binary_search": "receiver_cd",
        "halving": "strong_cd",
        "tradeoff": "sender_cd",
        "dense_simple": "no_cd",
        "dense_improved": "no_cd",
        "exponential": "no_cd",
    }


def test_subset_draws_are_pinned():
    # literals recorded before density and random sets shared one sampler
    def draws(*argv):
        return generate_subsets(build_parser().parse_args(
            ["--protocol", "pairing", "--N", "32", *argv]))

    density = ("--subsets", "density", "--density", "1/4,1/8,1/32")
    assert draws(*density, "--seed", "1") == [
        [3, 4, 9, 19, 25, 26, 28, 32], [25, 29, 31, 32], [14]]
    assert draws(*density, "--seed", "2") == [
        [3, 4, 6, 12, 22, 24, 27, 31], [3, 14, 17, 20], [11]]
    random_sets = ("--n", "4", "--trials", "3")
    assert draws(*random_sets, "--seed", "1") == [
        [5, 8, 9, 17], [25, 29, 31, 32], [2, 7, 14, 32]]
    assert draws(*random_sets, "--seed", "2") == [
        [4, 6, 11, 24], [3, 14, 17, 20], [11, 24, 26, 28]]


def test_inadmissible_model_exits_2(tmp_path, capsys):
    inadmissible = {(name, m.value) for name, cls in PROGRAMS.items()
                    for m in CdModel if m not in cls.models}
    assert inadmissible == {
        ("binary_search", "sender_cd"), ("binary_search", "no_cd"),
        ("halving", "sender_cd"), ("halving", "receiver_cd"),
        ("halving", "no_cd"),
        ("tradeoff", "receiver_cd"), ("tradeoff", "no_cd"),
    }
    code, out, err = run_cli(capsys, "--protocol", "binary_search",
                             "--N", "16", "--ids", "9,10", "--model", "no_cd")
    assert code == 2 and out == ""
    assert "error:" in err and "not no_cd" in err
    # --model takes exactly the four model names, no alias or other spelling
    for alias in ("strong", "Sender-CD", "nocd"):
        with pytest.raises(SystemExit) as exc:
            main(["--protocol", "pairing", "--N", "4", "--ids", "1,2",
                  "--model", alias, "--out", str(tmp_path / "runs.csv")])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "invalid choice" in captured.err
        assert list(tmp_path.iterdir()) == []


def test_explicit_ids(capsys):
    code, out, _ = run_cli(capsys, "--protocol", "binary_search",
                           "--N", "16", "--ids", "9,10")
    assert code == 0
    rows, _ = body_rows(out)
    assert len(rows) == 1
    cols = rows[0].split(",")
    assert cols[3] == "2"
    assert cols[6] == str(ceil_log2(16) + 1)
    assert cols[8] == "true"
    # a token longer than int()'s 4,300 digits, zero-padded or not, or
    # holding anything but ASCII digits (a sign, an underscore, an Arabic-Indic
    # three), gets the range refusal like any other id outside 1..N, before
    # any run
    for protocol, ids in (("binary_search", "1,17"),
                          ("binary_search", "1," + "9" * 5000),
                          ("binary_search", "-" + "9" * 5000 + ",2"),
                          ("binary_search", "0" * 5000 + "9,10"),
                          ("dense_simple", "8" * 5000 + "," + "9" * 5000),
                          ("binary_search", "1,+3"),
                          ("binary_search", "1_0,3"),
                          ("binary_search", "1,\u0663")):
        code, out, err = run_cli(capsys, "--protocol", protocol,
                                 "--N", "16", f"--ids={ids}")
        assert (code, out, err) == (2, "", "error: device ids must lie in 1..16\n")
    code, out, _ = run_cli(capsys, "--protocol", "binary_search", "--N", "16",
                           "--ids", "0" * 4299 + "9,10")
    assert code == 0 and body_rows(out)[0] == rows


def test_subsets_file(tmp_path, capsys):
    listing = tmp_path / "subsets.txt"
    listing.write_text("# comment\n1 2 3\n9,10\n")
    code, out, _ = run_cli(capsys, "--protocol", "halving", "--N", "16",
                           "--k", "2", "--subsets", "file",
                           "--subsets-file", str(listing))
    assert code == 0
    rows, _ = body_rows(out)
    assert len(rows) == 2
    assert sorted(r.split(",")[3] for r in rows) == ["2", "3"]
    listing.write_text("# comment\n\n# another\n")
    code, out, err = run_cli(capsys, "--protocol", "halving", "--N", "16",
                             "--subsets", "file", "--subsets-file", str(listing))
    assert (code, out) == (2, "") and err == f"error: no subsets in {listing}\n"
    for bad in ("3 " + "9" * 5000, "3 1_0"):
        listing.write_text("1 2\n" + bad + "\n")
        code, out, err = run_cli(capsys, "--protocol", "halving", "--N", "16",
                                 "--k", "2", "--subsets", "file",
                                 "--subsets-file", str(listing))
        assert (code, out, err) == (2, "", "error: device ids must lie in 1..16\n")


def test_density_grid(capsys):
    N = 256
    code, out, _ = run_cli(capsys, "--protocol", "dense_improved",
                           "--N", str(N), "--subsets", "density",
                           "--density", "1,1/2,1/4,2^-3")
    assert code == 0
    rows, _ = body_rows(out)
    assert len(rows) == 4
    seen = {}
    for row in rows:
        cols = row.split(",")
        n, b = int(cols[3]), int(cols[4])
        assert b == choose_dense_b(N, n)
        assert cols[8] == "true"
        seen[n] = int(cols[7])
    assert sorted(seen) == [32, 64, 128, 256]
    for n, energy in seen.items():
        b = choose_dense_b(N, n)
        assert energy <= 2 * ceil_log2(max(b, 2)) + 9
    # a density that divides by zero is refused like one that does not
    # parse, lies outside (0, 1] or is missing from the list
    for density in ("abc", "1/0", "0^-1", "0", "3/2", "2^1", "", " , "):
        code, out, err = run_cli(capsys, "--protocol", "dense_improved",
                                 "--N", str(N), "--subsets", "density",
                                 "--density", density)
        assert code == 2 and out == "" and err.startswith("error: ")
    # so is a piece with more digits than int() reads, in the CLI's words
    for density in ("9" * 5000 + "^-1", "0." + "0" * 5000 + "1",
                    "1/" + "9" * 5000):
        code, out, err = run_cli(capsys, "--protocol", "dense_improved",
                                 "--N", str(N), "--subsets", "density",
                                 f"--density={density}")
        assert code == 2 and out == "" and err.startswith("error: density ")
        assert "set_int_max_str_digits" not in err


def test_huge_density_exponents_stay_cheap_and_exact():
    def sizes(N, density):
        args = build_parser().parse_args(
            ["--protocol", "pairing", "--N", str(N), "--subsets", "density",
             f"--density={density}"])
        try:
            return [len(s) for s in generate_subsets(args)]
        except ValueError:
            return "refused"

    start = time.perf_counter()
    assert sizes(8, "10^-20000000") == [1]
    assert time.perf_counter() - start < 2  # the exact power takes tens of seconds
    # an exponent of a 4,300-character piece is read and clamped at once
    start = time.perf_counter()
    assert sizes(2**16, "2^-" + "9" * 4297) == [1]
    assert sizes(8, "1^" + "9" * 4298) == [8]
    assert sizes(8, "7^" + "9" * 4298) == "refused"
    assert time.perf_counter() - start < 2
    # only p, p/q, a decimal or b^e in digits, of at most 4,300 characters:
    # no sign, negative base, exponent notation, underscore or inner space,
    # refused with the CLI's message before int() or Fraction() reads it
    for density in ("-2^-99999998", "-1^-99999", "+1/2", "-1/2", "2^+0",
                    "1e-40000000", "2.5e-1", "1E-2", "125e-3", "1_0/20",
                    "1 / 2", "2 ^-3", "2^" + "9" * 5000, "2^-" + "9" * 5000,
                    "1e-" + "9" * 5000, "2^-" + "0" * 5000 + "3",
                    "9" * 5000 + "^-1", "0." + "0" * 5000 + "1",
                    "1/" + "9" * 5000, "0" * 5000 + "1e-3"):
        with pytest.raises(ValueError, match=re.escape(
                f"density {density} is not p, p/q, a decimal or b^e in "
                f"digits, within 4300 characters")):
            _parse_density(density, 8)
    for density in ("0.5", ".25", "1.", "0.250", "1/2", "04/16"):
        assert _parse_density(density, 8) == [Fraction(density)], density

    # every size and refusal matches the exact value
    def exact(N, value):
        try:
            c = value()
        except ZeroDivisionError:
            return "refused"
        return [max(1, round(c * N))] if 0 < c <= 1 else "refused"

    for N in (1, 2, 3, 7, 8, 100, 1000):
        for base in range(11):
            for expo in range(-50, 51):
                assert sizes(N, f"{base}^{expo}") == exact(
                    N, lambda: Fraction(base) ** expo), (N, base, expo)
        for p in range(13):
            for q in range(13):
                assert sizes(N, f"{p}/{q}") == exact(
                    N, lambda: Fraction(p, q)), (N, p, q)
        for k in range(0, 1001, 7):
            for decimal in (f"0.{k:03d}", f".{k}", f"{k}.", f"{k / 1000}"):
                assert sizes(N, decimal) == exact(
                    N, lambda: Fraction(decimal)), (N, decimal)
    # a negative base is refused, even where its power lies in (0, 1]
    for base in range(-10, 0):
        for expo in range(-50, 51):
            assert sizes(8, f"{base}^{expo}") == "refused", (base, expo)


def test_tradeoff_with_family_file(tmp_path, capsys):
    path = tmp_path / "fam.txt"
    save_family(generate_family(16, 4, 0.5, n_max=2), path)
    code, out, _ = run_cli(capsys, "--protocol", "tradeoff", "--N", "16",
                           "--k", "4", "--epsilon", "0.5",
                           "--family", str(path), "--ids", "3,11")
    assert code == 0
    rows, _ = body_rows(out)
    cols = rows[0].split(",")
    assert (cols[4], cols[5]) == ("4", "32")  # part count, pass count
    assert cols[8] == "true"

    # a family drawn for different parameters is refused
    wrong = tmp_path / "wrong.txt"
    save_family(generate_family(16, 8, 0.5, n_max=2), wrong)
    code, _, err = run_cli(capsys, "--protocol", "tradeoff", "--N", "16",
                           "--k", "4", "--epsilon", "0.5",
                           "--family", str(wrong), "--ids", "3,11")
    assert code == 2 and "error:" in err


def test_an_empty_family_file_is_refused(tmp_path, capsys):
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    code, out, err = run_cli(capsys, "--protocol", "tradeoff", "--N", "4",
                             "--n", "2", "--k", "2", "--epsilon", "0.5",
                             "--family", str(empty), "--ids", "1,3")
    assert (code, out) == (2, "")
    assert err == "error: a family file starts with a header of 8 fields\n"


@pytest.mark.parametrize("option, argv", [
    ("--family", ("--protocol", "tradeoff", "--N", "16", "--n", "2", "--k",
                  "4", "--epsilon", "0.5", "--ids", "3,11")),
    ("--subsets-file", ("--protocol", "pairing", "--N", "4", "--subsets",
                        "file")),
])
def test_an_empty_input_path_is_refused_before_any_run(option, argv, tmp_path,
                                                       capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a family was chosen or a run started")

    monkeypatch.setattr(cli, "choose_params", refuse)
    monkeypatch.setattr(cli, "_run_one", refuse)
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, *argv, option, "", "--out", "runs.csv")
    assert (code, out) == (2, "")
    assert err == f"error: {option} must name a path, not ''\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("epsilon", ["0.99", "0.999999"])
def test_an_epsilon_that_needs_too_many_parts_is_refused_at_once(epsilon,
                                                                 capsys):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "--protocol", "tradeoff", "--N", "16",
                             "--n", "2", "--k", "4", "--epsilon", epsilon,
                             "--ids", "3,11")
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err == f"error: epsilon={epsilon} needs more than 2^62 parts for n=2\n"


# Exponential search is left out: its lone survivor re-runs a full-width
# census of 2 log(space) + O(1) slots in every attempt, Θ(log² N) in all
# (ROADMAP item 2), which is too slow to simulate at N = 2^1100.
@pytest.mark.parametrize("argv", [
    ("--protocol", "pairing"),
    ("--protocol", "binary_search"),
    ("--protocol", "halving"),
    ("--protocol", "dense_simple", "--b", "2"),
    ("--protocol", "dense_improved"),
])
def test_a_huge_id_space_runs_with_exact_means(argv, capsys):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv, "--N", str(2**1100), "--ids", "1,2")
    assert time.perf_counter() - start < 10
    assert (code, err) == (0, "")
    _, aggs = body_rows(out)
    agg = dict(zip(AGG_HEADER.split(","), aggs[0].split(",")))
    assert agg["rounds_mean"] == agg["rounds_max"] + ".0000"
    assert agg["energy_mean"] == agg["energy_max"] + ".0000"


def test_mean_is_exact_and_rounds_half_to_even():
    assert _mean(1152921504606847038, 1) == "1152921504606847038.0000"
    assert _mean(2**1100 + 1, 2) == f"{2**1099}.5000"
    assert _mean(1, 3) == "0.3333"
    assert _mean(2, 3) == "0.6667"
    # exact ties at the fifth decimal, which a float quotient misses
    assert (_mean(1, 160), _mean(3, 160)) == ("0.0062", "0.0188")


def test_an_id_space_that_needs_too_many_parts_is_refused_at_once(tmp_path,
                                                                  capsys):
    # ceil(log log 2^1100) = 11, and b^11 >= 2^1100 needs b = 2^100 > 2^62
    start = time.perf_counter()
    out_path = tmp_path / "runs.csv"
    code, out, err = run_cli(capsys, "--protocol", "tradeoff",
                             "--N", str(2**1100), "--n", "2", "--k", "11",
                             "--epsilon", "0.5", "--ids", "1,2",
                             "--out", str(out_path))
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err == "error: k=11 needs more than 2^62 parts for N of 1101 bits\n"
    assert list(tmp_path.iterdir()) == []


def test_a_family_over_the_label_budget_is_refused_at_once(capsys):
    # K * N = 1.28e15 labels: refused before any draw, not by numpy
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "--protocol", "tradeoff",
                             "--N", "10000000000000", "--n", "2", "--k", "8",
                             "--epsilon", "0.5", "--ids", "1,2")
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err.startswith("error: a seeded family for N=10000000000000, b=43 ")
    assert "ROADMAP item 11" in err and err.count("\n") == 1


def test_tradeoff_needs_k_and_epsilon(capsys):
    code, _, err = run_cli(capsys, "--protocol", "tradeoff", "--N", "16",
                           "--ids", "3,11")
    assert code == 2 and "error:" in err


def test_emit_transcripts(tmp_path, capsys):
    outdir = tmp_path / "transcripts"
    code, out, _ = run_cli(capsys, "--protocol", "pairing", "--N", "4",
                           "--subsets", "all",
                           "--emit-transcripts", str(outdir))
    assert code == 0
    rows, _ = body_rows(out)
    files = sorted(outdir.iterdir())
    assert len(files) == len(rows) == 15
    assert files[0].name == "pairing_no_cd_N4_run00000.txt"
    text = files[0].read_text()
    assert text and all(len(line.split("\t")) == 5
                        for line in text.strip().splitlines())


def test_json_out(tmp_path, capsys):
    path = tmp_path / "runs.json"
    code, _, _ = run_cli(capsys, "--protocol", "pairing", "--N", "4",
                         "--subsets", "all", "--json-out", str(path))
    assert code == 0
    payload = json.loads(path.read_text())
    assert set(payload) == {"runs", "aggregates"}
    assert len(payload["runs"]) == 15
    assert set(payload["runs"][0]) == set(CSV_HEADER.split(","))


def test_checks_mode(capsys):
    code, out, _ = run_cli(capsys, "--protocol", "pairing", "--N", "16",
                           "--checks")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == CHECK_HEADER
    rows = [line.split(",") for line in lines[1:]]
    assert all(r[5] == "ok" for r in rows)
    kinds = {r[0] for r in rows}
    assert kinds == {"uniqueness", "counting", "matching",
                     "potential_active_slots"}


def test_checks_need_no_protocol(capsys):
    # the battery is fixed, so --protocol changes nothing and may be left out
    code, out, _ = run_cli(capsys, "--N", "16", "--checks")
    assert code == 0
    for proto in ("pairing", "dense_simple"):
        assert run_cli(capsys, "--protocol", proto, "--N", "16", "--checks") \
            == (0, out, "")
    try:
        main(["--N", "16"])
    except SystemExit as exc:
        assert exc.code == 2
    else:
        raise AssertionError("a run without --protocol was accepted")
    assert "--protocol is required unless --checks is given" in capsys.readouterr().err


def test_checks_refuse_n_above_2_to_the_14_before_any_replay(capsys, monkeypatch):
    # the battery holds N canonical sequences of about N slots each
    class Replayed(Exception):
        pass

    def replay(*args):
        raise Replayed

    monkeypatch.setattr(cli, "canonical_sequences", replay)
    code, out, err = run_cli(capsys, "--protocol", "pairing", "--N",
                             str((1 << 14) + 1), "--checks")
    assert code == 2 and out == ""
    assert "error: --checks refuses N > 2^14" in err
    try:
        run_cli(capsys, "--protocol", "pairing", "--N", str(1 << 14), "--checks")
    except Replayed:
        pass
    else:
        raise AssertionError("N = 2^14 did not reach the replays")


def test_checks_refuse_run_options_before_any_replay(tmp_path, capsys,
                                                     monkeypatch):
    class Replayed(Exception):
        pass

    def replay(*args):
        raise Replayed

    monkeypatch.setattr(cli, "canonical_sequences", replay)
    directory = tmp_path / "transcripts"
    for flag, *value in (("--model", "no_cd"), ("--assert-success",),
                         ("--emit-transcripts", str(directory))):
        code, out, err = run_cli(capsys, "--N", "16", "--checks", flag, *value)
        assert (code, out) == (2, ""), flag
        assert err.startswith(f"error: {flag} is "), flag
        assert "--checks reads only --N and --k" in err
    assert not directory.exists()

    # the options the benchmark sweep passes along stay accepted
    try:
        run_cli(capsys, "--protocol", "pairing", "--N", "16", "--checks",
                "--seed", "3", "--out", str(tmp_path / "checks.csv"),
                "--json-out", str(tmp_path / "checks.json"))
    except Replayed:
        pass
    else:
        raise AssertionError("--checks with accepted options did not replay")


def test_checks_json(tmp_path, capsys):
    path = tmp_path / "checks.json"
    code, _, _ = run_cli(capsys, "--protocol", "pairing", "--N", "8",
                         "--checks", "--json-out", str(path))
    assert code == 0
    payload = json.loads(path.read_text())
    assert isinstance(payload, list)
    assert all(row["result"] == "ok" for row in payload)


def test_attempt_rows_for_exponential(tmp_path, capsys):
    out_path = tmp_path / "runs.csv"
    code, _, _ = run_cli(capsys, "--protocol", "exponential", "--N", "16",
                         "--ids", "2,9,10,15", "--out", str(out_path))
    assert code == 0
    attempts = (tmp_path / "runs.csv.attempts.csv").read_text().splitlines()
    assert attempts[0] == ATTEMPT_HEADER
    assert len(attempts) > 1
    first = attempts[1].split(",")
    assert first[0] == "0" and first[1] == "1"

    # without --out the attempt table lands on stdout after the aggregates
    code, out, _ = run_cli(capsys, "--protocol", "exponential", "--N", "16",
                           "--ids", "2,9,10,15")
    assert code == 0
    assert ATTEMPT_HEADER in out


def test_b_is_refused_outside_the_dense_walks(capsys, monkeypatch):
    def run_one(*args):
        raise AssertionError("a run started")

    monkeypatch.setattr(cli, "_run_one", run_one)
    for proto in set(PROGRAMS) - set(cli.DENSE_WALKS):
        code, out, err = run_cli(capsys, "--protocol", proto, "--N", "8",
                                 "--n", "2", "--b", "5", "--trials", "1",
                                 "--k", "4", "--epsilon", "0.5")
        assert code == 2 and out == "", proto
        assert "error: --b is the block width of the dense walks" in err


def test_out_must_be_a_regular_file_or_a_new_path(tmp_path, capsys,
                                                   monkeypatch):
    # the other tables are named by appending to --out, so a device behind
    # it would get a new regular file next to it
    def run_one(*args):
        raise AssertionError("a run started")

    monkeypatch.setattr(cli, "_run_one", run_one)
    null = tmp_path / "null.csv"
    null.symlink_to("/dev/null")
    for out_path in (null, tmp_path):
        code, out, err = run_cli(capsys, "--protocol", "pairing", "--N", "4",
                                 "--ids", "1,2", "--out", str(out_path))
        assert (code, out) == (2, "")
        assert err == (f"error: {out_path} must be new or a plain file with "
                       f"one link that this user owns and may replace\n")
    assert [p.name for p in tmp_path.iterdir()] == ["null.csv"]


@pytest.mark.parametrize("option", ["--out", "--json-out",
                                    "--emit-transcripts"])
def test_an_empty_output_path_is_refused_before_any_run(option, tmp_path,
                                                        capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "pairing_election",
                        lambda *a, **kw: calls.append(a))
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, "--protocol", "pairing", "--N", "4",
                             "--ids", "1,2", option, "")
    assert (code, out) == (2, "")
    assert err == f"error: {option} must name a path, not ''\n"
    assert calls == []
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("json_out", ["x.csv", "x.csv.agg.csv"])
def test_two_outputs_that_name_one_file_are_refused_before_any_run(
        json_out, tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "pairing_election",
                        lambda *a, **kw: calls.append(a))
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, "--protocol", "pairing", "--N", "4",
                             "--ids", "1,2", "--out", "x.csv",
                             "--json-out", json_out)
    assert (code, out) == (2, "")
    assert err == f"error: {json_out} and another output name one file\n"
    assert calls == []
    assert list(tmp_path.iterdir()) == []


def test_a_transcript_that_names_another_output_is_refused(tmp_path, capsys):
    # the transcript names are known only after the runs, so _write_all
    # compares the targets of every file it writes
    out = tmp_path / "t" / "pairing_no_cd_N4_run00000.txt"
    code, stdout, err = run_cli(capsys, "--protocol", "pairing", "--N", "4",
                                "--ids", "1,2", "--out", str(out),
                                "--emit-transcripts", str(tmp_path / "t"))
    assert (code, stdout) == (2, "")
    assert err == f"error: {out} and another output name one file\n"
    assert list(tmp_path.iterdir()) == []


def test_a_transcript_directory_that_is_a_file_is_refused_before_any_run(
        tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "pairing_election",
                        lambda *a, **kw: calls.append(a))
    afile = tmp_path / "afile"
    afile.write_text("old\n")
    code, out, err = run_cli(capsys, "--protocol", "pairing", "--N", "6",
                             "--subsets", "all", "--emit-transcripts",
                             str(afile), "--out", str(tmp_path / "runs.csv"))
    assert (code, out) == (2, "")
    assert err == f"error: [Errno 17] File exists: '{afile}'\n"
    assert calls == []
    assert list(tmp_path.iterdir()) == [afile]
    assert afile.read_text() == "old\n"


def test_out_may_link_only_within_its_directory(tmp_path, capsys,
                                                monkeypatch):
    # the other tables are named by appending to the link's own path, so a
    # link to a file in another directory would get them beside the link
    def run_one(*args):
        raise AssertionError("a run started")

    monkeypatch.setattr(cli, "_run_one", run_one)
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    real = tmp_path / "b" / "real.csv"
    real.write_text("old\n")
    link = tmp_path / "a" / "runs.csv"
    link.symlink_to(os.path.join("..", "b", "real.csv"))
    before = sorted(tmp_path.rglob("*"))
    code, out, err = run_cli(capsys, "--protocol", "pairing", "--N", "4",
                             "--ids", "1,2", "--out", str(link))
    assert (code, out) == (2, "")
    assert err == ("error: --out names the other tables next to it, so it "
                   "may link only within its directory, not "
                   f"{link} -> {os.path.realpath(real)}\n")
    assert sorted(tmp_path.rglob("*")) == before
    assert real.read_text() == "old\n"


# every option of the parser that OPTIONS leaves out
ALWAYS_READ = {"N", "seed", "out", "json_out", "protocol", "checks"}


def test_every_option_is_in_the_table_or_always_read():
    actions = build_parser()._actions
    declared = {action.dest for action in actions} - {"help"}
    tabled = {option.replace("-", "_") for option in cli.OPTIONS}
    assert declared == tabled | ALWAYS_READ
    assert not tabled & ALWAYS_READ
    # a tabled option is declared by its row alone: the parser's entry has
    # the row's keywords, and its --help the row's description followed by
    # every reader and needer
    by_flag = {action.option_strings[-1]: action for action in actions}
    for option, (what, readers, needers, keywords) in cli.OPTIONS.items():
        action = by_flag[f"--{option}"]
        row = argparse.ArgumentParser().add_argument(f"--{option}", **keywords)
        for attr in ("type", "choices", "metavar", "nargs", "const", "default"):
            assert getattr(action, attr) == getattr(row, attr), (option, attr)
        assert type(action) is type(row), option
        assert action.help.startswith(what), option
        named = action.help[len(what):].replace(",", " ").replace(";", " ")
        assert set(readers) | set(needers) <= set(named.split()), option


COUNTED = (
    "pairing_election", "binary_search_election", "halving_tradeoff_election",
    "partition_tradeoff_election", "dense_simple_election",
    "dense_improved_election", "exponential_search_election", "choose_params",
    "load_family", "canonical_sequences", "potential_active_slots",
)


def test_unread_options_are_refused_before_any_run(capsys, monkeypatch):
    class Reached(Exception):
        pass

    calls = []

    def count(*args, **kwargs):
        calls.append(args)
        raise Reached

    for name in COUNTED:
        monkeypatch.setattr(cli, name, count)
    base = ("--N", "8", "--n", "2", "--trials", "1")
    values = {"k": "3", "epsilon": "0.5", "family": "/nonexistent/family"}
    refused = [(proto, "k") for proto in ("pairing", "binary_search",
                                          "dense_simple", "dense_improved",
                                          "exponential")]
    refused += [(proto, option) for proto in set(PROGRAMS) - {"tradeoff"}
                for option in ("epsilon", "family")]
    for proto, option in refused:
        code, out, err = run_cli(capsys, "--protocol", proto, *base,
                                 f"--{option}", values[option])
        assert (code, out) == (2, ""), (proto, option)
        assert err.startswith(f"error: --{option} is "), (proto, option)
        assert f"not of {proto}" in err
    for option, value in (("b", "4"), ("epsilon", "0.5"),
                          ("family", "/nonexistent/family")):
        code, out, err = run_cli(capsys, "--protocol", "halving", "--N", "8",
                                 "--checks", f"--{option}", value)
        assert (code, out) == (2, ""), option
        assert err.startswith(f"error: --{option} is "), option
        assert "--checks reads only --N and --k" in err
    assert calls == []

    # the options that are read still reach the drivers
    for argv in (("--protocol", "halving", *base, "--k", "3"),
                 ("--protocol", "tradeoff", *base, "--k", "3",
                  "--epsilon", "0.5", "--family", "f"),
                 ("--protocol", "pairing", "--N", "8", "--k", "3",
                  "--checks")):
        try:
            main(list(argv))
        except Reached:
            pass
        else:
            raise AssertionError(f"{argv} did not reach a driver")
    assert len(calls) == 3


def test_dense_walks_check_every_set_before_any_run(tmp_path, capsys, monkeypatch):
    # without --b the block width needs n >= 2; a singleton listed last
    # must stop the experiment before its first run, not after two
    listing = tmp_path / "subsets.txt"
    listing.write_text("1 2 3\n4 5\n6\n")
    calls = []
    for proto in cli.DENSE_WALKS:
        driver = f"{proto}_election"
        monkeypatch.setattr(cli, driver, lambda *a, **kw: calls.append(a))
        code, out, err = run_cli(capsys, "--protocol", proto, "--N", "6",
                                 "--subsets", "file",
                                 "--subsets-file", str(listing))
        assert code == 2 and out == ""
        assert "device set [6]" in err and "n >= 2" in err
    assert calls == []


def test_assert_success_failure_exit(capsys):
    # two devices in eight width-1 blocks cannot form a large enough group
    code, out, err = run_cli(capsys, "--protocol", "dense_simple", "--N", "8",
                             "--b", "1", "--ids", "1,2", "--assert-success")
    assert code == 1
    assert "missed strict success" in err
    rows, _ = body_rows(out)
    assert rows[0].split(",")[8] == "false"

    code, _, _ = run_cli(capsys, "--protocol", "dense_simple", "--N", "8",
                         "--b", "4", "--ids", "5,6,7,8", "--assert-success")
    assert code == 0


SWEEP = ["--protocol", "exponential", "--N", "8", "--subsets", "all"]


def test_sweep_leaves_no_cyclic_garbage():
    # run_experiment pauses the collector across the whole sweep; that is
    # only free if the sweep builds no reference cycles for it to find
    args = build_parser().parse_args(SWEEP)
    gc.collect()
    rows, _, _, attempts = cli.run_experiment(args)
    assert len(rows) == 2**8 - 1 and attempts
    assert gc.collect() == 0


def test_repeated_calls_leave_no_cyclic_garbage(tmp_path):
    # the parser is built once per process, not dropped by every call as a
    # cycle that only a full collection would find
    argv = ["--protocol", "pairing", "--N", "8", "--n", "2", "--trials", "2",
            "--out", str(tmp_path / "runs.csv")]
    for extra in ([], ["--json-out", str(tmp_path / "runs.json")]):
        assert main(argv + extra) == 0
        gc.collect()
        assert main(argv + extra) == 0
        assert gc.collect() == 0, extra


@pytest.mark.parametrize("argv", [
    ["--protocol", "exponential", "--N", "6", "--subsets", "all"],
    ["--protocol", "pairing", "--N", "8", "--checks"],
])
def test_json_out_matches_the_stdlib_encoder(tmp_path, argv):
    path = tmp_path / "out.json"
    assert main(argv + ["--out", str(tmp_path / "out.csv"),
                        "--json-out", str(path)]) == 0
    text = path.read_text()
    payload = json.loads(text)
    assert payload  # runs and aggregates, or the checker rows
    assert text == json.dumps(payload, sort_keys=True) + "\n"


@pytest.mark.parametrize("fail_at", [None, 5])
@pytest.mark.parametrize("enabled", [True, False])
def test_sweep_restores_the_collector_state(monkeypatch, fail_at, enabled):
    # paused for every run of the sweep, and left as it was found, also
    # when a run raises part-way
    states = []
    run_one = cli._run_one

    def spy(*args):
        states.append(gc.isenabled())
        if len(states) == fail_at:
            raise RuntimeError("run failed")
        return run_one(*args)

    monkeypatch.setattr(cli, "_run_one", spy)
    args = build_parser().parse_args(SWEEP)
    if not enabled:
        gc.disable()
    try:
        if fail_at is None:
            cli.run_experiment(args)
        else:
            with pytest.raises(RuntimeError, match="run failed"):
                cli.run_experiment(args)
        assert gc.isenabled() == enabled
    finally:
        gc.enable()
    assert states and not any(states)
    assert len(states) == (fail_at or 2**8 - 1)



def test_subset_options_that_nothing_reads_are_refused(tmp_path, capsys,
                                                      monkeypatch):
    def run_one(*args):
        raise AssertionError("a run started")

    monkeypatch.setattr(cli, "_run_one", run_one)
    monkeypatch.setattr(cli, "canonical_sequences", run_one)
    out = str(tmp_path / "runs.csv")
    for refused, argv in (
            ("n", "--protocol pairing --ids 1,2 --trials 7 --n 3 --density 1/2"),
            ("trials", "--protocol pairing --subsets all --trials 5"),
            ("subsets", "--checks --n 3 --trials 2 --subsets all"),
            ("density", "--protocol pairing --n 2 --density 1/2 "
                        "--subsets-file /nonexistent")):
        code, stdout, err = run_cli(capsys, "--N", "8", *argv.split(),
                                    "--out", out)
        assert (code, stdout) == (2, ""), argv
        assert err.startswith(f"error: --{refused} is "), argv
        assert err.count("\n") == 1, argv
    assert list(tmp_path.iterdir()) == []


def test_the_table_decides_every_refusal(tmp_path, capsys, monkeypatch):
    # every option with every protocol and subset kind, and with --checks:
    # refused with exit 2 before any driver exactly when nothing of the
    # invocation reads it, and otherwise run up to the first driver
    class Reached(Exception):
        pass

    calls = []

    def count(*args, **kwargs):
        calls.append(args)
        raise Reached

    for name in COUNTED:
        monkeypatch.setattr(cli, name, count)
    listing = tmp_path / "subsets.txt"
    listing.write_text("1 2\n")
    values = {"b": "4", "k": "3", "epsilon": "0.5", "family": "f",
              "model": "strong_cd", "assert-success": None,
              "emit-transcripts": str(tmp_path / "t"), "ids": "1,2",
              "subsets": "random", "n": "2", "trials": "1",
              "density": "1/2", "subsets-file": str(listing)}
    assert set(values) == set(cli.OPTIONS)
    selecting = {"all": {"subsets": "all"}, "random": {},
                 "file": {"subsets": "file"},
                 "density": {"subsets": "density"}, "ids": {"ids": "1,2"}}
    invocations = [({"checks"}, {"checks": None},
                    "; --checks reads only --N and --k\n")]
    for proto in PROGRAMS:
        # a dense walk without --b refuses the singletons of --subsets all
        width = {"b": "4"} if proto in cli.DENSE_WALKS else {}
        invocations += [
            ({proto, kind}, {"protocol": proto, **width, **chosen},
             f", not of {proto} with --"
             + ("ids" if kind == "ids" else f"subsets {kind}") + "\n")
            for kind, chosen in selecting.items()]
    for used, fixed, unread in invocations:
        needed = {option: values[option]
                  for option, (_, _, needers, _) in cli.OPTIONS.items()
                  if not used.isdisjoint(needers)}
        for option, (_, readers, _, _) in cli.OPTIONS.items():
            if option == "ids" and used.isdisjoint({"ids", "checks"}):
                continue  # --ids would change the subset kind
            given = {**needed, option: values[option], **fixed}
            argv = ["--N", "8"]
            for name, value in given.items():
                argv += [f"--{name}"] + ([] if value is None else [value])
            calls.clear()
            if used.isdisjoint(readers):
                code, out, err = run_cli(capsys, *argv)
                assert (code, out, calls) == (2, "", []), argv
                assert err.startswith(f"error: --{option} is "), argv
                assert err.endswith(unread) and err.count("\n") == 1, argv
            else:
                with pytest.raises(Reached):
                    main(argv)
                assert len(calls) == 1, argv
    assert not (tmp_path / "t").exists()
