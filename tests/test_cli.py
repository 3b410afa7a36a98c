"""CLI behaviour: parsing, payloads, exit codes, determinism."""

import json
import subprocess
import sys

from coxline import coxmono
from coxline.cli import main, nef_classes, run_sweep
from coxline.oracle import PointConfig
from coxline.picard import DivisorClass


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, "--json", *argv)
    return code, json.loads(out), err


def test_classify_nef_class(capsys):
    code, payload, _ = run_json(capsys, "classify", "3 1 1 1")
    assert code == 0
    assert payload["nef"] is True
    assert payload["effective"] is True
    assert payload["h0"] == 7
    assert payload["chi"] == 7
    assert payload["nef_coords"] == {"b": 0, "b_i": [1, 1, 1]}


def test_classify_exceptional_class(capsys):
    code, payload, _ = run_json(capsys, "classify", "0", "-1", "0", "0")
    assert code == 0
    assert payload["effective"] is True
    assert payload["nef"] is False
    assert payload["h0"] == 1
    assert payload["removed"] == {"l": 0, "e": [1, 0, 0]}


def test_classify_non_effective_class(capsys):
    code, payload, _ = run_json(capsys, "classify", "2 3 0 0")
    assert code == 0
    assert payload["effective"] is False
    assert payload["h0"] == 0
    assert payload["nef_part"] is None


def test_malformed_divisor_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "classify", "3 1 1")
    assert code == 2
    assert "expected 4 integers" in err
    code, out, err = run_cli(capsys, "classify", "3 x 1 1")
    assert code == 2
    assert "d a1 ... an" in err


def test_h0_command(capsys):
    code, payload, _ = run_json(capsys, "h0", "2 2 1 1")
    assert code == 0
    assert payload["h0"] == 2


def test_basis_degree_L(capsys):
    code, payload, _ = run_json(capsys, "basis", "1 0 0 0")
    assert code == 0
    assert payload["h0"] == 3
    assert payload["independent"] is True
    texts = {entry["form_text"] for entry in payload["monomials"]}
    assert texts == {"x - z", "x - 2*z", "y"}


def test_basis_zero_class(capsys):
    code, payload, _ = run_json(capsys, "basis", "0 0 0 0")
    assert code == 0
    assert [e["text"] for e in payload["monomials"]] == ["1"]


def test_basis_non_effective(capsys):
    code, payload, _ = run_json(capsys, "basis", "2 3 0 0")
    assert code == 0
    assert payload["h0"] == 0
    assert payload["note"] == "h0 = 0, empty basis"
    assert payload["monomials"] == []


def test_basis_n4(capsys):
    code, payload, _ = run_json(capsys, "--n", "4", "basis", "2 0 0 0 0")
    assert code == 0
    assert len(payload["monomials"]) == 6
    assert payload["independent"] is True


def test_relations_default(capsys):
    code, payload, _ = run_json(capsys, "relations")
    assert code == 0
    assert payload["ok"] is True
    assert payload["relations"] == [
        {
            "i": 1,
            "a": "-2",
            "b": "1",
            "text": "g1 = s1*e1 + (-2)*s2*e2 + (1)*s3*e3",
            "geometric_ok": True,
        }
    ]


def test_relations_n2(capsys):
    code, payload, _ = run_json(capsys, "--n", "2", "relations")
    assert code == 0
    assert payload["relations"] == []
    assert "polynomial ring" in payload["note"]


def test_relations_n5(capsys):
    code, payload, _ = run_json(capsys, "--n", "5", "relations")
    assert code == 0
    assert len(payload["relations"]) == 3
    assert all(r["geometric_ok"] for r in payload["relations"])
    assert all(z for _, _, z in payload["spoly"])


def test_relations_corrupted_fails(capsys):
    code, payload, _ = run_json(capsys, "relations", "--inject-bad-relation")
    assert code == 1
    assert payload["ok"] is False
    assert payload["relations"][0]["geometric_ok"] is False


def test_verify_small_sweep(capsys):
    code, payload, _ = run_json(capsys, "verify", "--dmax", "2", "--n-list", "3,4")
    assert code == 0
    assert payload["ok"] is True
    assert [r["n"] for r in payload["reports"]] == [3, 4]
    assert all(r["failures"] == [] for r in payload["reports"])


def test_verify_dmax_zero(capsys):
    code, payload, _ = run_json(capsys, "verify", "--dmax", "0")
    assert code == 0
    assert payload["reports"][0]["classes_checked"] == 1


def test_verify_output_is_deterministic(capsys):
    _, first, _ = run_cli(capsys, "--json", "verify", "--dmax", "2", "--n-list", "3")
    _, second, _ = run_cli(capsys, "--json", "verify", "--dmax", "2", "--n-list", "3")
    assert first == second


def test_verify_injected_bad_relation_fails(capsys):
    code, payload, _ = run_json(
        capsys, "verify", "--dmax", "1", "--inject-bad-relation"
    )
    assert code == 1
    failures = payload["reports"][0]["failures"]
    assert failures
    assert any("relation" in f["check"] for f in failures)
    assert all({"check", "divisor", "expected", "got"} <= set(f) for f in failures)


def test_verify_rejects_negative_dmax(capsys):
    code, _, err = run_cli(capsys, "verify", "--dmax", "-1")
    assert code == 2
    assert "dmax" in err


def test_verify_rejects_negative_max_classes(capsys):
    code, out, err = run_cli(capsys, "verify", "--dmax", "2", "--max-classes", "-1")
    assert code == 2
    assert "max-classes" in err
    assert out == ""


def test_verify_class_budget_flags_incomplete(capsys):
    code, payload, _ = run_json(capsys, "verify", "--dmax", "3", "--max-classes", "5")
    assert code == 0  # nothing failed, the sweep just stopped early
    report = payload["reports"][0]
    assert report["complete"] is False
    assert report["classes_checked"] == 5


def test_config_file_loading(capsys, tmp_path):
    cfgfile = tmp_path / "pts.cfg"
    cfgfile.write_text("n = 3\nt = 0, 1/2, 7\nq = 1, 2, 1\n")
    code, payload, _ = run_json(capsys, "--config", str(cfgfile), "relations")
    assert code == 0
    assert payload["ok"] is True
    assert len(payload["relations"]) == 1

    code, payload, _ = run_json(capsys, "--config", str(cfgfile), "verify", "--dmax", "2")
    assert code == 0

    bad = tmp_path / "bad.cfg"
    bad.write_text("t = 0, 0, 1\n")
    code, _, err = run_cli(capsys, "--config", str(bad), "relations")
    assert code == 2
    assert "collinear" in err or "error" in err


def test_zero_denominator_in_config_is_a_config_error(tmp_path):
    # a typo in a config file is exit 2, not a verification failure (exit 1)
    for key, text in (("t", "t = 0, 1/0, 7\n"), ("q", "t = 0, 1/2, 7\nq = 1, 2/0, 1\n")):
        cfgfile = tmp_path / f"zero-{key}.cfg"
        cfgfile.write_text(text)
        proc = subprocess.run(
            [sys.executable, "-m", "coxline", "--config", str(cfgfile), "relations"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:")
        assert str(cfgfile) in proc.stderr and f"{key} " in proc.stderr
        assert "Traceback" not in proc.stderr


def test_missing_config_file(capsys):
    code, _, err = run_cli(capsys, "--config", "/nonexistent/x.cfg", "relations")
    assert code == 2


def test_nef_class_iteration_order():
    classes = list(nef_classes(2, 2))
    assert classes[0] == DivisorClass(0, (0, 0))
    keys = [(D.d,) + D.a for D in classes]
    assert keys == sorted(keys)
    # d <= 2, a >= 0, sum(a) <= d: 1 + 3 + 6
    assert len(classes) == 10


def test_run_sweep_reports_a_negative_level(monkeypatch):
    # a planted per-level count of -1 at lam = 1: every swept class with
    # d >= 1 has that level, the classes of d = 0 do not
    real = coxmono.count_at_level
    monkeypatch.setattr(coxmono, "count_at_level", lambda D, lam: -1 if lam == 1 else real(D, lam))
    report = run_sweep(PointConfig.default(3), 2)
    flagged = {
        (f["divisor"]["d"], *f["divisor"]["a"])
        for f in report.failures
        if f["check"] == "per-level count non-negative"
    }
    assert flagged == {(D.d, *D.a) for D in nef_classes(3, 2) if D.d >= 1}


def test_run_sweep_counts_classes():
    report = run_sweep(PointConfig.default(2), 3)
    assert report.ok
    assert report.classes_checked == len(list(nef_classes(2, 3)))


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "coxline", "--json", "h0", "1 0 0 0"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["h0"] == 3
