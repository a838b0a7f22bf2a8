"""End-to-end command-line behavior and exit codes."""

from __future__ import annotations

import csv
import time

import pytest

from genturan import search
from genturan.cli import main
from genturan.constructions import f_star
from genturan.graph6 import decode_graph6, encode_graph6
from genturan.graphs import (are_isomorphic, canonical_graph, complete,
                             complete_bipartite, enumerate_graphs, join, turan)
from genturan.gspec import MAX_DEPTH, parse_spec

from conftest import DEEP_NESTING, MALFORMED_SPECS, nested_specs


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_count_mantel(capsys):
    code, out, _ = run_cli(capsys, "count", "--host", "T(5,2)", "--pattern", "K2")
    assert code == 0 and out.strip() == "6"


def test_free_true_and_false(capsys):
    code, out, _ = run_cli(capsys, "free", "--host", "join(K1,T(8,2))",
                           "--forbid", "2*C5")
    assert code == 0 and out.strip() == "true"
    code, out, _ = run_cli(capsys, "free", "--host", "K4", "--forbid", "K3")
    assert code == 1 and out.strip() == "false"


def test_construct_emits_graph6(capsys):
    code, out, _ = run_cli(capsys, "construct", "thm35",
                           "--n", "12", "--t", "3", "--k", "2")
    assert code == 0
    g = decode_graph6(out.strip())
    assert are_isomorphic(g, join(complete(1), turan(11, 2)))


def test_construct_fstar_defaults_center(capsys):
    code, out, _ = run_cli(capsys, "construct", "fstar", "--f", "K3", "--k", "2")
    assert code == 0
    g = decode_graph6(out.strip())
    assert g.n == 9 and g.edge_count() == 12


def test_construct_prop61_host(capsys):
    code, out, _ = run_cli(capsys, "construct", "prop61", "--n", "8")
    assert code == 0
    g = decode_graph6(out.strip())
    assert are_isomorphic(g, complete_bipartite(4, 4))


def test_construct_missing_flag_usage_error(capsys):
    code, _, err = run_cli(capsys, "construct", "thm62", "--n", "9")
    assert code == 2 and "needs --k" in err


# Every construction with the flags it needs.
CONSTRUCTION_FLAGS = {
    "universal-join": {"k": "2", "f": "C5"},
    "thm32": {"n": "10", "s": "3", "t": "3", "k": "2"},
    "thm35": {"n": "10", "t": "3", "k": "2"},
    "thm62": {"n": "9", "k": "2"},
    "prop54": {"n": "9", "s": "3"},
    "prop61": {"n": "8"},
    "fstar": {"k": "2", "f": "K3"},
}


@pytest.mark.parametrize("name", sorted(CONSTRUCTION_FLAGS))
def test_construct_names_each_missing_flag(capsys, name):
    flags = CONSTRUCTION_FLAGS[name]
    argv = [arg for flag, value in flags.items() for arg in (f"--{flag}", value)]
    code, out, _ = run_cli(capsys, "construct", name, *argv)
    assert code == 0 and decode_graph6(out.strip()).n > 0
    for missing in flags:
        argv = [arg for flag, value in flags.items() if flag != missing
                for arg in (f"--{flag}", value)]
        code, out, err = run_cli(capsys, "construct", name, *argv)
        assert (code, out) == (2, ""), (name, missing)
        assert f"construction {name!r} needs --{missing}" in err


@pytest.mark.parametrize("name", sorted(CONSTRUCTION_FLAGS))
def test_construct_refuses_each_flag_it_does_not_read(capsys, name):
    flags = CONSTRUCTION_FLAGS[name]
    argv = [arg for flag, value in flags.items() for arg in (f"--{flag}", value)]
    extras = {"n": "9", "s": "5", "t": "3", "k": "2", "f": "K9", "u": "1"}
    unread = [flag for flag in extras
              if flag not in flags and (name, flag) != ("fstar", "u")]
    for flag in unread:
        code, out, err = run_cli(capsys, "construct", name, *argv, f"--{flag}", extras[flag])
        assert (code, out) == (2, ""), (name, flag)
        assert f"construction {name!r} does not read --{flag}" in err
    every = [arg for flag in unread for arg in (f"--{flag}", extras[flag])]
    code, out, err = run_cli(capsys, "construct", name, *argv, *every)
    assert (code, out) == (2, "") and all(f"--{flag}" in err for flag in unread)


def test_construct_fstar_takes_its_center(capsys):
    code, out, _ = run_cli(capsys, "construct", "fstar", "--f", "K1,2", "--k", "2",
                           "--u", "1")
    assert (code, out.strip()) == (0, encode_graph6(f_star(parse_spec("K1,2").build(), 1, 2)))


def test_construct_unknown_name_lists_every_construction(capsys):
    code, out, err = run_cli(capsys, "construct", "thm99", "--n", "9")
    assert (code, out) == (2, "")
    assert "unknown construction 'thm99'" in err
    for name in CONSTRUCTION_FLAGS:
        assert name in err


def test_pack_and_partition(capsys):
    code, out, _ = run_cli(capsys, "pack", "--host", "2*K3", "--pattern", "K3")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "2"
    code, out, _ = run_cli(capsys, "partition", "--host", "join(K1,T(6,2))",
                           "--pattern", "K3")
    assert code == 0
    assert out.startswith("L:")
    assert "packing: 1" in out


def test_search_copies(capsys):
    code, out, _ = run_cli(capsys, "search", "copies", "--n", "5",
                           "--forbid", "K3", "--pattern", "2*K2")
    assert code == 0 and "value=6" in out


def test_search_sharded_matches(capsys):
    code1, out1, _ = run_cli(capsys, "search", "edges", "--n", "6", "--forbid", "K3")
    code2, out2, _ = run_cli(capsys, "search", "edges", "--n", "6", "--forbid", "K3",
                             "--shards", "4")
    assert code1 == code2 == 0
    tail1 = out1.partition("| ")[2]
    tail2 = out2.partition("| ")[2]
    assert tail1 == tail2 and "value=9" in tail1


@pytest.mark.parametrize("argv,field", [
    (["edges", "--k", "3"], "k"),
    (["edges", "--pattern", "K2"], "pattern"),
    (["exstar", "--k", "3", "--pattern", "K2"], "pattern"),
    (["copies", "--pattern", "K2", "--k", "3"], "k"),
])
def test_search_objective_field_it_ignores_usage_error(capsys, argv, field):
    code, out, err = run_cli(capsys, "search", *argv, "--n", "5")
    assert code == 2 and out == ""
    assert f"takes no {field}" in err


def test_shards_share_one_deadline(capsys):
    # Every shard stops at the one deadline, which has passed before the
    # first shard starts, so no shard evaluates a host.
    code, out, _ = run_cli(capsys, "search", "edges", "--n", "8", "--forbid", "K3",
                           "--budget-seconds", "0", "--shards", "4")
    assert code == 0
    assert " | value=none num_extremal=0 explored=0 exhaustive=false " in out


def test_enumerate_counts(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--n", "5", "--count-only")
    assert code == 0 and out.strip() == "34"
    code, out, _ = run_cli(capsys, "enumerate", "--n", "5", "--count-only", "--force")
    assert code == 0 and out.strip() == "34"
    code, out, _ = run_cli(capsys, "enumerate", "--n", "4", "--canonical")
    assert code == 0
    assert len(out.strip().split("\n")) == 11


@pytest.mark.parametrize("n,forbid", [(n, ()) for n in range(8)] + [(8, ("2*K3",))])
def test_enumerate_canonical_matches_canonical_graph(capsys, n, forbid):
    # The certificates the walk hands out print exactly what a second
    # canonical search per graph would.
    argv = ("--forbid",) + forbid if forbid else ()
    code, out, _ = run_cli(capsys, "enumerate", "--n", str(n), "--canonical", *argv)
    family = [parse_spec(f).build() for f in forbid]
    want = "".join(encode_graph6(canonical_graph(g)) + "\n"
                   for g in enumerate_graphs(n, family))
    assert code == 0 and out == want


@pytest.mark.parametrize("argv,message", [
    (("--n", "11"), "exceeds the cap 10"),
    (("--n", "65"), "exceeds the cap 10"),
    (("--n", "65", "--force"), "outside 0..64"),
    (("--n", "-1"), "outside 0..64"),
])
def test_enumerate_host_size_usage_error(capsys, argv, message):
    code, out, err = run_cli(capsys, "enumerate", "--count-only", *argv)
    assert code == 2 and out == "" and message in err


@pytest.mark.parametrize("argv,message", [
    (("--n", "11"), "exceeds the cap 10"),
    (("--n", "65"), "exceeds the cap 10"),
    (("--n", "65", "--force"), "outside 0..64"),
    (("--n", "-1"), "negative host size"),
])
def test_search_host_size_usage_error(capsys, argv, message):
    code, out, err = run_cli(capsys, "search", "edges", "--forbid", "K3", *argv)
    assert code == 2 and out == "" and message in err


def test_search_force_lifts_the_cap(capsys):
    code, out, _ = run_cli(capsys, "search", "edges", "--n", "11", "--forbid", "K3",
                           "--force", "--budget-seconds", "0")
    assert code == 0 and out.startswith("n=11 ") and "exhaustive=false" in out


def test_verify_check_pass_exit_zero(capsys, tmp_path):
    csv_path = tmp_path / "report.csv"
    code, out, _ = run_cli(capsys, "verify", "prop6.1", "--n-range", "4..6",
                           "--csv", str(csv_path))
    assert code == 0
    assert "[PASS] prop6.1" in out
    assert csv_path.read_text().startswith("check_id,n,params")


@pytest.mark.parametrize("workers", ["1", "2"])
def test_verify_budget_bounds_the_whole_run(capsys, tmp_path, workers):
    # --budget-seconds is one deadline for the whole run, pool workers
    # included, not one per search: a 1 s budget over n = 5..10 ends within
    # a 5 s slack, and the searches it cuts short give inconclusive rows,
    # never fail.
    csv_path = tmp_path / "report.csv"
    start = time.monotonic()
    code, out, _ = run_cli(capsys, "verify", "all", "--n-range", "5..10",
                           "--budget-seconds", "1", "--workers", workers,
                           "--csv", str(csv_path))
    assert time.monotonic() - start < 1 + 5
    with open(csv_path, newline="") as fh:
        verdicts = [row["verdict"] for row in csv.DictReader(fh)]
    assert code == 0 and "fail" not in verdicts
    assert "inconclusive" in verdicts


def test_verify_unknown_check_usage_error(capsys):
    code, _, err = run_cli(capsys, "verify", "thm9.9")
    assert code == 2 and "unknown check" in err


def test_verify_hypothesis_violation_usage_error(capsys):
    code, _, err = run_cli(capsys, "verify", "thm2.4",
                           "--param", "f=K3", "--n-range", "6..6")
    assert code == 2


def test_bad_spec_usage_error(capsys):
    code, _, err = run_cli(capsys, "count", "--host", "Q9", "--pattern", "K2")
    assert code == 2 and "error:" in err


@pytest.mark.parametrize("spec", MALFORMED_SPECS)
def test_malformed_spec_usage_error(capsys, spec):
    code, _, err = run_cli(capsys, "count", "--host", spec, "--pattern", "K1")
    assert code == 2 and "not a graph spec or graph6 string" in err


@pytest.mark.parametrize("shape", sorted(DEEP_NESTING))
def test_deeply_nested_spec_usage_error(capsys, shape):
    # Too deep a graph argument is a usage error naming the limit, not a
    # RecursionError; an expression at the limit still builds.
    spec = nested_specs(DEEP_NESTING[shape])[shape]
    for argv in (["count", "--host", spec, "--pattern", "K1"],
                 ["verify", "thm2.4", "--n-range", "7..7", "--param", f"f={spec}"]):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, ""), argv[0]
        assert f"graph spec nests more than {MAX_DEPTH} combinators deep" in err
    code, out, _ = run_cli(capsys, "count", "--host", nested_specs(MAX_DEPTH)[shape],
                           "--pattern", "K1")
    assert (code, out) == (0, "1\n" if shape == "copies" else "0\n")


# Refused graph arguments thousands of characters long, and the text their
# message must still name: the nesting limit, the token that does not parse,
# and the over-long number.
LONG_BAD_SPECS = {
    "nested": (nested_specs(DEEP_NESTING["copies"])["copies"], "nests more than"),
    "token": ("join(K2," + "Q" * 2992, "cannot parse graph spec at 'QQQ"),
    "number": ("9" * 5000 + "*K1", "more than 18 digits at '999"),
}


@pytest.mark.parametrize("name", sorted(LONG_BAD_SPECS))
def test_long_bad_spec_message_is_bounded(capsys, name):
    spec, names = LONG_BAD_SPECS[name]
    assert len(spec) >= 3000
    for argv in (["count", "--host", spec, "--pattern", "K1"],
                 ["verify", "thm2.4", "--n-range", "7..7", "--param", f"f={spec}"]):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, ""), argv[0]
        assert names in err and len(err.encode()) < 300, err


def test_bad_range_usage_error(capsys):
    code, _, err = run_cli(capsys, "verify", "prop6.1", "--n-range", "x..y")
    assert code == 2


def test_graph6_host_accepted(capsys):
    code, out, _ = run_cli(capsys, "count", "--host", "Bw", "--pattern", "K3")
    assert code == 0 and out.strip() == "1"


def test_stdin_host(capsys, monkeypatch):
    import io
    monkeypatch.setattr("sys.stdin", io.StringIO("Bw\n"))
    code, out, _ = run_cli(capsys, "count", "--host", "-", "--pattern", "K2")
    assert code == 0 and out.strip() == "3"


def test_missing_subcommand_usage(capsys):
    assert main([]) == 2


def test_config_file(capsys, tmp_path, monkeypatch):
    # An empty cache, so that the budget is what decides the verdicts.
    monkeypatch.setattr(search, "_cache", {})
    cfg = tmp_path / "verify.cfg"
    cfg.write_text("# settings\nbudget-seconds=0\n")
    code, out, _ = run_cli(capsys, "verify", "erdos", "--n-range", "6..6",
                           "--config", str(cfg))
    assert code == 0
    assert "inconclusive" in out


@pytest.mark.parametrize("source", ["flag", "config"])
def test_verify_single_check_refuses_workers(capsys, tmp_path, source):
    # Like --param for 'all', workers above 1 is refused, not ignored.
    cfg = tmp_path / "verify.cfg"
    cfg.write_text("workers=3\n")
    extra = ["--workers", "3"] if source == "flag" else ["--config", str(cfg)]
    code, out, err = run_cli(capsys, "verify", "erdos", "--n-range", "5..5", *extra)
    assert (code, out) == (2, "") and "workers=3 applies to 'all'" in err


def test_verify_unknown_param_usage_error(capsys):
    code, _, err = run_cli(capsys, "verify", "erdos", "--param", "bogus=9",
                           "--n-range", "5..5")
    assert code == 2 and "unknown parameter bogus" in err
    code, _, err = run_cli(capsys, "verify", "erdos", "--param", "bogus",
                           "--n-range", "5..5")
    assert code == 2 and "bad --param 'bogus'; expected KEY=VALUE" in err


def test_verify_repeated_param_usage_error(capsys):
    code, out, err = run_cli(capsys, "verify", "thm2.1", "--n-range", "5..5",
                             "--param", "k=2", "--param", "k=3")
    assert code == 2 and out == ""
    assert "repeated --param key 'k'" in err


def test_config_unknown_key_usage_error(capsys, tmp_path):
    cfg = tmp_path / "verify.cfg"
    cfg.write_text("workers=1\nwitness_cap=4\n")
    code, _, err = run_cli(capsys, "verify", "erdos", "--n-range", "5..5",
                           "--config", str(cfg))
    assert code == 2 and "unknown config key 'witness_cap'" in err


@pytest.mark.parametrize("surface", ["search", "verify", "config"])
def test_host_cap_is_refused(capsys, tmp_path, surface):
    # The deadline is the one search budget: the old host cap is refused on
    # every surface, never silently ignored.
    cfg = tmp_path / "verify.cfg"
    cfg.write_text("max-explored=3\n")
    argv = {"search": ["search", "edges", "--n", "5", "--forbid", "K3", "--max-explored", "3"],
            "verify": ["verify", "erdos", "--n-range", "5..5", "--max-explored", "3"],
            "config": ["verify", "erdos", "--n-range", "5..5", "--config", str(cfg)]}[surface]
    code, out, err = run_cli(capsys, *argv)
    message = ("unknown config key 'max-explored'" if surface == "config"
               else "unrecognized arguments: --max-explored 3")
    assert (code, out) == (2, "") and message in err


def test_witness_cap_command_line_then_file_then_default(capsys, tmp_path, monkeypatch):
    from genturan import cli
    from genturan.verify import TheoremCheck
    caps = []

    def fake_run_check(check_id, params, n_range, config):
        caps.append(config.witness_cap)
        return TheoremCheck(check_id, {}, (5, 5))

    monkeypatch.setattr(cli, "run_check", fake_run_check)
    cfg = tmp_path / "verify.cfg"
    cfg.write_text("witness-cap=3\n")
    for argv in (["--config", str(cfg), "--witness-cap", "16"],
                 ["--config", str(cfg)], []):
        code, _, _ = run_cli(capsys, "verify", "erdos", *argv)
        assert code == 0
    assert caps == [16, 3, 16]


@pytest.mark.parametrize("argv,option", [
    (["search", "edges", "--n", "5", "--forbid", "K3", "--witness-cap", "-1"],
     "--witness-cap"),
    (["search", "edges", "--n", "5", "--forbid", "K3", "--witness-cap", "0"],
     "--witness-cap"),
    (["search", "edges", "--n", "5", "--forbid", "K3", "--shards", "0"], "--shards"),
    (["verify", "erdos", "--n-range", "5..5", "--witness-cap", "0"], "--witness-cap"),
    (["verify", "all", "--n-range", "5..5", "--workers", "0"], "--workers"),
    (["verify", "all", "--n-range", "5..5", "--workers", "-3"], "--workers"),
])
def test_counts_below_one_usage_error(capsys, argv, option):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert f"argument {option}: expected an integer >= 1" in err


@pytest.mark.parametrize("argv,option,expected", [
    (["verify", "erdos", "--n-range", "5..5", "--budget-seconds", "-1"],
     "--budget-seconds", "a number >= 0"),
    (["search", "edges", "--n", "5", "--forbid", "K3", "--budget-seconds", "-1"],
     "--budget-seconds", "a number >= 0"),
    (["search", "edges", "--n", "5", "--forbid", "K3", "--budget-seconds", "nan"],
     "--budget-seconds", "a number >= 0"),
    (["search", "edges", "--n", "5", "--forbid", "K3", "--budget-seconds", "abc"],
     "--budget-seconds", "a number >= 0"),
    (["verify", "erdos", "--n-range", "5..5", "--budget-seconds", "nan"],
     "--budget-seconds", "a number >= 0"),
])
def test_negative_budget_usage_error(capsys, argv, option, expected):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert f"argument {option}: expected {expected}" in err


@pytest.mark.parametrize("line,key", [
    ("witness-cap=0", "witness-cap"), ("workers=-3", "workers"),
    ("budget-seconds=abc", "budget-seconds"), ("budget-seconds=-1", "budget-seconds"),
    ("budget-seconds=nan", "budget-seconds"),
])
def test_config_bad_value_usage_error(capsys, tmp_path, line, key):
    cfg = tmp_path / "verify.cfg"
    cfg.write_text(line + "\n")
    code, out, err = run_cli(capsys, "verify", "erdos", "--n-range", "5..5",
                             "--config", str(cfg))
    assert code == 2 and out == ""
    assert f"bad value for config key {key!r}" in err


def test_config_repeated_key_usage_error(capsys, tmp_path):
    cfg = tmp_path / "verify.cfg"
    cfg.write_text("workers=2\nworkers=1\n")
    code, out, err = run_cli(capsys, "verify", "erdos", "--n-range", "5..5",
                             "--config", str(cfg))
    assert code == 2 and out == ""
    assert f"repeated config key 'workers' in {cfg}" in err
