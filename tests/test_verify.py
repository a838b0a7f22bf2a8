"""Check registry behavior: coverage, verdict rules, report determinism."""

from __future__ import annotations

import pytest

from genturan.verify import (CSV_HEADER, FAIL, HypothesisError, PASS,
                             REPORTED, TheoremCheck, UnknownCheckError,
                             VerifyConfig, check_summary, emit_report,
                             registry_ids, report_csv, report_table,
                             run_check)

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


def test_budgeted_check_reports_inconclusive_not_fail():
    cfg = VerifyConfig(max_explored=3)
    chk = run_check("erdos", {"s": 2, "t": 3}, (6, 7), cfg)
    verdicts = {r.verdict for r in chk.rows}
    assert FAIL not in verdicts
    assert "inconclusive" in verdicts


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
