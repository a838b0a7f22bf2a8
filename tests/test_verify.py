"""Check registry behavior: coverage, verdict rules, report determinism."""

from __future__ import annotations

import hashlib

import pytest

from genturan import verify
from genturan.verify import (CSV_HEADER, FAIL, HypothesisError, PASS,
                             REPORTED, TheoremCheck, UnknownCheckError,
                             check_summary, emit_report, registry_ids,
                             report_csv, report_table, run_all, run_check)

from conftest import first_hosts_search

EXPECTED_IDS = {
    "erdos", "thm1.1-gorgol", "thm2.1", "thm2.2", "thm2.4", "thm2.7",
    "thm3.2", "thm3.4", "thm3.5", "thm4.1a", "thm4.1b", "prop4.2",
    "prop5.1", "prop5.2", "prop5.3", "prop5.4", "prop6.1", "thm6.2",
    "prop6.3",
}


def test_registry_covers_every_in_scope_claim_once():
    assert set(registry_ids()) == EXPECTED_IDS
    for cid in EXPECTED_IDS:
        assert check_summary(cid)


def test_aliases_resolve():
    chk = run_check("prop1.2", {"s": 2, "t": 3}, (5, 6))
    assert chk.check_id == "erdos"
    chk2 = run_check("gorgol", None, (6, 6))
    assert chk2.check_id == "thm1.1-gorgol"


def test_unknown_id_rejected():
    with pytest.raises(UnknownCheckError):
        run_check("thm9.9")


def test_unknown_params_rejected():
    with pytest.raises(ValueError, match="unknown parameter bogus"):
        run_check("erdos", {"bogus": 9}, (5, 5))
    # prop5.1 shares its runner with prop5.2, which reads k.
    assert run_check("prop5.1", {"k": 2}, (5, 5)).params["k"] == 2


def test_hypothesis_violations_rejected():
    with pytest.raises(HypothesisError):
        run_check("thm2.4", {"f": "K3"}, (6, 6))      # 3 < 4 vertices
    with pytest.raises(HypothesisError):
        run_check("thm2.2", {"f1": "K2", "f2": "C4"}, (5, 6))
    with pytest.raises(HypothesisError):
        run_check("thm2.1", {"h": "K3", "k": 2}, (5, 6))  # needs k >= |V(H)|
    with pytest.raises(HypothesisError):
        run_check("erdos", {"s": 3, "t": 3}, (5, 6))
    with pytest.raises(HypothesisError):
        run_check("thm3.5", {"s": 5, "t": 3, "k": 2}, (6, 6))
    with pytest.raises(HypothesisError):
        run_check("thm4.1a", {"r": 3, "k": 2, "l": 2, "parity": "odd"}, (5, 6))
    with pytest.raises(HypothesisError):
        run_check("prop5.3", {"a": 2, "b": 2, "s": 2, "t": 2, "k": 2}, (6, 6))


def test_thm24_c4_actually_passes_hypothesis():
    # |V(C4)| = 4 meets the bound; the failure above must come from K3 only.
    chk = run_check("thm2.4", {"f": "C4", "k": 2}, (6, 6))
    assert chk.rows


def test_exact_checks_pass_small():
    chk = run_check("prop6.1", {"l": 1}, (4, 7))
    assert chk.passed
    assert all(r.mode == "ExactEquality" for r in chk.rows)
    assert all(r.verdict == PASS for r in chk.rows)


def test_ratio_rows_never_fail():
    chk = run_check("prop4.2", None, (5, 6))
    ratio_rows = [r for r in chk.rows if r.mode == "RatioTrend"]
    assert ratio_rows
    assert all(r.verdict == REPORTED for r in ratio_rows)


def test_budgeted_check_reports_inconclusive_not_fail(monkeypatch):
    monkeypatch.setattr(verify, "brute_force_ex", first_hosts_search(3))
    chk = run_check("erdos", {"s": 2, "t": 3}, (6, 7))
    verdicts = {r.verdict for r in chk.rows}
    assert FAIL not in verdicts
    assert "inconclusive" in verdicts


@pytest.mark.parametrize("cid", registry_ids())
def test_budgeted_checks_never_fail(cid, monkeypatch):
    # A partial search must never turn into a fail verdict, for any check.
    lo = verify._REGISTRY[cid].default_range[0]
    for k in (1, 3):
        monkeypatch.setattr(verify, "brute_force_ex", first_hosts_search(k))
        chk = run_check(cid, None, (lo, lo + 1))
        assert FAIL not in {r.verdict for r in chk.rows}, k


@pytest.mark.parametrize("cid", ["thm1.1-gorgol", "prop6.3"])
def test_uncertified_upper_bounds_inconclusive(cid, monkeypatch):
    # A partial maximum is only a lower bound, so it cannot pass an upper bound.
    monkeypatch.setattr(verify, "brute_force_ex", first_hosts_search(1))
    lo = verify._REGISTRY[cid].default_range[0]
    chk = run_check(cid, None, (lo, lo))
    sandwich = [r.verdict for r in chk.rows if r.mode == "Sandwich"]
    assert sandwich and set(sandwich) == {"inconclusive"}


def test_run_all_csv_pinned():
    # Any change to a row's cells, its order or its verdict changes the digest.
    text = report_csv(run_all(None, (5, 7)))
    assert len(text.splitlines()) == 1 + 153
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "4ddd897fdd2e9af009d954eb02dbc83d069f2a8936c892d65d8f5a4988c31c30")


def test_pool_report_matches_serial():
    # The pool runs each check in a worker and hands the results back in id
    # order, so its CSV is the serial run's, byte for byte.
    serial = report_csv(run_all(None, (5, 6)))
    assert report_csv(run_all(None, (5, 6), workers=2)) == serial


def test_report_csv_deterministic_and_ordered():
    checks = [run_check("prop6.1", {"l": 1}, (4, 6)),
              run_check("erdos", {"s": 2, "t": 3}, (5, 6))]
    text1 = report_csv(checks)
    text2 = report_csv(list(reversed(checks)))
    assert text1 == text2
    lines = text1.strip().split("\n")
    assert lines[0] == ",".join(CSV_HEADER)
    body = [line.split(",")[0] for line in lines[1:]]
    assert body == sorted(body)


def test_report_empty_checklist_header_only():
    assert report_csv([]) == ",".join(CSV_HEADER) + "\n"
    table = report_table([])
    assert table.splitlines()[0].split() == CSV_HEADER


def test_report_verdict_vocabulary():
    checks = [run_check("thm3.4", None, (5, 6))]
    for row in checks[0].rows:
        assert row.verdict in {"pass", "fail", "inconclusive", "reported"}


def test_emit_report_writes_csv(tmp_path):
    checks = [run_check("prop6.1", {"l": 1}, (4, 5))]
    path = tmp_path / "out.csv"
    table = emit_report(checks, str(path))
    assert path.read_text().startswith(",".join(CSV_HEADER))
    assert "prop6.1" in table


def test_theoremcheck_passed_property():
    chk = TheoremCheck("x", {}, (1, 1))
    assert chk.passed
