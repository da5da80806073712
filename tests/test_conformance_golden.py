"""Golden-table regression layer: bands, trajectory file, drift."""

import json

import pytest

from repro.conformance.golden import (
    GOLDEN_CONFIG,
    GOLDEN_FORMAT,
    GOLDEN_PATH,
    _compare_rows,
    _structural_violations,
    check_golden,
    check_paper_bands,
    measure,
    write_golden,
)


def _clean_row():
    """A synthetic measurement row that satisfies every band."""
    from repro.pipeline import branch_cost

    accuracies = (90.0, 92.0, 93.0)
    return {
        "rho_sbtb": 0.5,
        "accuracy_sbtb": accuracies[0],
        "rho_cbtb": 0.01,
        "accuracy_cbtb": accuracies[1],
        "accuracy_fs": accuracies[2],
        "branches": 1000,
        "instructions": 5000,
        "control_fraction": 0.2,
        "taken_fraction": 0.4,
        "known_fraction": 0.98,
        "cost_kl2": [branch_cost(a / 100.0, k=2, l_bar=0.0, m_bar=1.0)
                     for a in accuracies],
        "cost_kl3": [branch_cost(a / 100.0, k=3, l_bar=0.0, m_bar=1.0)
                     for a in accuracies],
        "expansion_percent": {"1": 2.0, "2": 4.0, "4": 8.0, "8": 16.0},
    }


def test_structural_checks_pass_on_consistent_row():
    assert _structural_violations("synthetic", _clean_row()) == []


def test_structural_checks_catch_cost_identity_violation():
    row = _clean_row()
    row["cost_kl2"][1] += 0.01       # no longer the cost equation
    violations = _structural_violations("synthetic", row)
    assert any("cost equation" in violation for violation in violations)


def test_structural_checks_catch_non_monotone_expansion():
    row = _clean_row()
    row["expansion_percent"]["8"] = 1.0
    violations = _structural_violations("synthetic", row)
    assert any("expansion shrank" in violation
               for violation in violations)


def test_structural_checks_catch_cheaper_deep_pipeline():
    row = _clean_row()
    row["cost_kl3"] = [value - 0.5 for value in row["cost_kl2"]]
    violations = _structural_violations("synthetic", row)
    assert any("deeper pipeline" in violation for violation in violations)


def test_compare_rows_flags_float_drift_and_passes_identity():
    golden = _clean_row()
    assert _compare_rows("wc", golden, dict(golden)) == []
    drifted = json.loads(json.dumps(golden))   # exact roundtrip
    assert _compare_rows("wc", golden, drifted) == []
    drifted["accuracy_fs"] += 0.5
    drifted["expansion_percent"]["4"] += 1.0
    drifted["cost_kl2"][0] += 1.0
    violations = _compare_rows("wc", golden, drifted)
    labels = "\n".join(violations)
    assert "accuracy_fs" in labels
    assert "expansion_percent[4]" in labels
    assert "cost_kl2[0]" in labels


def test_compare_rows_handles_missing_keys():
    golden = _clean_row()
    partial = dict(golden)
    del partial["rho_cbtb"]
    partial["expansion_percent"] = {}
    violations = _compare_rows("wc", golden, partial)
    assert any("rho_cbtb" in violation for violation in violations)
    assert any("expansion_percent[1]" in violation
               for violation in violations)


def test_committed_golden_file_is_wellformed():
    """The file in the tree must parse, match the pinned config, and
    satisfy its own structural bands without running anything."""
    payload = json.loads(GOLDEN_PATH.read_text())
    assert payload["format"] == 1
    assert payload["config"] == GOLDEN_CONFIG
    assert set(payload["measured"]) == set(GOLDEN_CONFIG["benchmarks"])
    for name, row in payload["measured"].items():
        assert _structural_violations(name, row) == [], name


def test_check_golden_reports_missing_file(tmp_path):
    violations = check_golden({}, path=tmp_path / "absent.json")
    assert len(violations) == 1
    assert "missing" in violations[0]


def test_check_golden_reports_format_mismatch(tmp_path):
    path = tmp_path / "golden.json"
    path.write_text(json.dumps({"format": 99}))
    violations = check_golden({}, path=path)
    assert "format" in violations[0]


def test_check_golden_asks_to_regenerate_another_config(tmp_path):
    path = tmp_path / "golden.json"
    path.write_text(json.dumps({
        "format": GOLDEN_FORMAT,
        "config": dict(GOLDEN_CONFIG, scale=0.1),
        "measured": {},
    }))
    violations = check_golden({}, path=path)
    assert len(violations) == 1
    assert "0.1" in violations[0] and "--update-golden" in violations[0]


@pytest.mark.slow
def test_golden_roundtrip_and_paper_bands(tmp_path, monkeypatch):
    """End-to-end: a fresh pinned-config measurement matches a freshly
    written golden file and sits inside the paper's bands."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    path = write_golden(path=tmp_path / "golden.json")
    measured = measure()
    assert check_golden(measured, path=path) == []
    assert check_paper_bands(measured) == []

    # Drift injection: corrupting one measured value must be caught.
    payload = json.loads(path.read_text())
    payload["measured"]["wc"]["accuracy_cbtb"] += 0.25
    path.write_text(json.dumps(payload))
    violations = check_golden(measured, path=path)
    assert any("accuracy_cbtb" in violation for violation in violations)


@pytest.mark.slow
def test_measure_is_deterministic(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    first = measure()       # computes and fills the cache
    second = measure()      # loads it
    assert first == second
    assert measure(cache=False) == first
