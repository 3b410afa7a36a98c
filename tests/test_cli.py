"""CLI behaviour: parsing, payloads, exit codes, determinism."""

import itertools
import json
import subprocess
import sys
from fractions import Fraction

import pytest

from child_env import child_env
from coxline import cli, coxmono, relations
from coxline.cli import main, nef_classes, run_sweep
from coxline.oracle import PointConfig
from coxline.picard import DivisorClass


def run_module(*argv):
    """python -m coxline in a fresh interpreter."""
    return subprocess.run([sys.executable, "-m", "coxline", *argv], capture_output=True, text=True, env=child_env())


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


POOL_A4 = PointConfig.collinear((Fraction(-1), Fraction(1, 2), Fraction(3), Fraction(9, 2)), q=(1, 2, 1))


@pytest.mark.parametrize(
    "cfg, spoly_13, spoly_23",
    [
        (PointConfig.default(4), "-s3*e3", "(-2)*s3^2*e3^2 + s3*s4*e3*e4"),
        (POOL_A4, "-s3*e3", "(-8/3)*s3^2*e3^2 + (5/3)*s3*s4*e3*e4"),
    ],
)
def test_a_second_relation_of_one_index_prints_its_normal_forms(cfg, spoly_13, spoly_23):
    # a perturbed copy of g1 appended as g3 shares its leading monomial
    # s1*e1 with g1, so the S-pairs with g3 leave a nonzero remainder; the
    # division uses the first relation of each index, g1
    rels = relations.derive_relations(cfg)
    bad = relations.Relation(4, 1, rels[0].a_coeff + 1, rels[0].b_coeff)
    report = run_sweep(cfg, 1, rels=rels + [bad])
    assert report.classes_checked == 6
    assert report.failures == [
        {"divisor": None, "check": "relation(1) form identity", "expected": "0", "got": "nonzero residual"},
        {"divisor": None, "check": "spoly(1,3) normal form", "expected": "0", "got": spoly_13},
        {"divisor": None, "check": "spoly(2,3) normal form", "expected": "0", "got": spoly_23},
    ]


def test_a_relation_of_another_n_is_rejected():
    cfg = PointConfig.default(4)
    other = relations.derive_relations(PointConfig.default(5))[0]
    with pytest.raises(ValueError, match="config has 4 points but relation has n = 5"):
        run_sweep(cfg, 1, rels=relations.derive_relations(cfg) + [other])


def test_verify_rejects_negative_dmax(capsys):
    code, _, err = run_cli(capsys, "verify", "--dmax", "-1")
    assert code == 2
    assert "dmax" in err


def test_verify_rejects_negative_max_classes(capsys):
    code, out, err = run_cli(capsys, "verify", "--dmax", "2", "--max-classes", "-1")
    assert code == 2
    assert "max-classes" in err
    assert out == ""


def test_an_empty_n_list_is_a_usage_error(capsys, tmp_path):
    # '' names no point count: it is not read as the default n, nor as the
    # n of a loaded config
    cfgfile = tmp_path / "pts.cfg"
    cfgfile.write_text("t = 0, 1/2, 7\n")
    for argv in (["verify", "--n-list", ""], ["--config", str(cfgfile), "verify", "--n-list", ""]):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "--n-list" in err and "''" in err


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
        proc = run_module("--config", str(cfgfile), "relations")
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:")
        assert str(cfgfile) in proc.stderr and f"{key} " in proc.stderr
        assert "Traceback" not in proc.stderr


def test_bad_literal_names_where_it_is(tmp_path):
    # a typo in a config file or in --n-list says where it is, with exit 2
    cases = []
    for key, text in (("t", "t = 0, x, 7\n"), ("q", "t = 0, 1/2, 7\nq = 1, y, 1\n"), ("n", "n = three\nt = 0 1 2\n")):
        cfgfile = tmp_path / f"bad-{key}.cfg"
        cfgfile.write_text(text)
        cases.append((["--config", str(cfgfile), "relations"], [str(cfgfile), f"{key} "]))
    cases.append((["verify", "--n-list", "3,x"], ["--n-list", "'3,x'"]))
    for argv, named in cases:
        proc = run_module(*argv)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:")
        assert all(text in proc.stderr for text in named), proc.stderr
        assert "Traceback" not in proc.stderr


def test_unknown_or_repeated_key_names_where_it_is(capsys, tmp_path):
    # a misspelt key is not ignored and a repeated one does not overwrite
    # the first: exit 2, naming the file, the line and the key
    for text, where, key in (
        ("t = 0, 1, 2\nqq = 1, 2, 1\n", 2, "'qq'"),
        ("# the points\nt = 0 1 2\n\nq = 1, 2, 1\nq = 0, 1, 0\n", 5, "'q'"),
        ("t = 0 1 2\nt = 0 1 3\n", 2, "'t'"),
    ):
        cfgfile = tmp_path / "keys.cfg"
        cfgfile.write_text(text)
        for command in (["relations"], ["verify", "--dmax", "1"], ["h0", "1 0 0 0"]):
            code, out, err = run_cli(capsys, "--config", str(cfgfile), *command)
            assert code == 2 and out == "", (text, command)
            assert err.startswith(f"error: {cfgfile}:{where}: ") and key in err, err


def test_a_zero_q_names_the_file_and_the_key(capsys, tmp_path):
    # q = 0, 0, 0 is no projective point: exit 2, naming the file and q with
    # its values as written; the library's message prints plain numbers
    cfgfile = tmp_path / "zero.cfg"
    cfgfile.write_text("t = 0, 1, 2\nq = 0, 0/3, 0\n")
    for command in (["relations"], ["verify", "--dmax", "1"], ["h0", "1 0 0 0"]):
        code, out, err = run_cli(capsys, "--config", str(cfgfile), *command)
        assert code == 2 and out == "", command
        assert err == f"error: {cfgfile}: q = '0, 0/3, 0' is not a projective point: all three coordinates are 0\n"
    with pytest.raises(ValueError, match=r"^not a projective point: \(0, 0, 0\)$"):
        PointConfig.collinear((0, 1, 2), q=(0, Fraction(0), 0))


def test_coincident_points_are_not_called_collinear(tmp_path):
    # 1/2 and 2/4 are the same point; the message says so, with exit 2
    cfgfile = tmp_path / "coincident.cfg"
    cfgfile.write_text("t = 0, 1/2, 2/4\n")
    proc = run_module("--config", str(cfgfile), "h0", "1 0 0 0")
    assert proc.returncode == 2
    assert proc.stderr == "error: p2 and p3 coincide\n"
    with pytest.raises(ValueError, match="p1 and p2 coincide"):
        PointConfig.explicit([(1, 0, 1), (2, 0, 2)], q=(0, 1, 0))


def test_fewer_than_two_points_is_a_config_error(capsys, tmp_path):
    # every command that builds a configuration rejects n < 2 with one
    # message, whether n comes from --n, --n-list or a config file
    cfgfile = tmp_path / "one.cfg"
    cfgfile.write_text("t = 0\n")
    for source in (["--n", "1"], ["--n", "0"], ["--config", str(cfgfile)]):
        for command in (["relations"], ["verify", "--dmax", "1"], ["h0", "1", "0"]):
            code, out, err = run_cli(capsys, *source, *command)
            assert code == 2, (source, command)
            assert out == ""
            assert err.startswith("error: need n >= 2 blown-up points"), err
    code, _, err = run_cli(capsys, "verify", "--n-list", "3,1")
    assert code == 2 and err.startswith("error: need n >= 2")


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


def test_nef_classes_are_the_filtered_product_in_order():
    # the report's counts and each sweep item follow this exact sequence:
    # every (d, a) with a in 0..d and sum(a) <= d, d ascending, a
    # lexicographic, as itertools.product lists them
    for n in range(2, 7):
        expected = [
            (d, a) for d in range(0, 7) for a in itertools.product(range(d + 1), repeat=n) if sum(a) <= d
        ]
        for d_max in range(0, 7):
            got = [(D.d, D.a) for D in nef_classes(n, d_max)]
            assert got == [(d, a) for d, a in expected if d <= d_max], (n, d_max)


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
    proc = run_module("--json", "h0", "1 0 0 0")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["h0"] == 3


def basis_failures(report):
    """The sub-checks named by the report's basis failures."""
    return [f["got"] for f in report.failures if f["check"] == "basis independence"]


def test_basis_failure_names_the_degree(monkeypatch):
    # one extra e1 on every enumerated monomial: its degree is off
    real = cli.enumerate_standard_monomials

    def extra_e1(D):
        return tuple(coxmono.CoxMonomial(m.lam, m.sigma, (m.epsilon[0] + 1,) + m.epsilon[1:]) for m in real(D))

    monkeypatch.setattr(cli, "enumerate_standard_monomials", extra_e1)
    got = basis_failures(run_sweep(PointConfig.default(3), 2))
    assert got and set(got) == {"degree"}


def test_basis_failure_names_the_vanishing_point():
    # p1 = (0 : 1 : 1) is off y = 0: the forms of the collinear layout miss
    # it, or the count against the interpolation dimension is off
    bent = PointConfig.explicit([(0, 1, 1), (1, 0, 1), (2, 0, 1)], q=(0, 1, 0))
    got = basis_failures(run_sweep(bent, 3))
    assert "vanishing at p1" in got
    assert all(g == "vanishing at p1" or g.startswith("count ") for g in got)


def test_basis_failure_names_the_rank(monkeypatch):
    # the last monomial replaced by a repeat of the first: degree, vanishing
    # and count pass, the rank does not
    real = cli.enumerate_standard_monomials

    def first_repeated(D):
        mons = tuple(real(D))
        return mons[:-1] + mons[:1]

    monkeypatch.setattr(cli, "enumerate_standard_monomials", first_repeated)
    report = run_sweep(PointConfig.default(3), 3)
    got = basis_failures(report)
    assert got and set(got) == {"rank"}
    assert len(got) == sum(len(real(D)) > 1 for D in nef_classes(3, 3))


def test_a_sweep_builds_no_cox_monomial(monkeypatch):
    # the verify path works on level runs and the relation checks on sparse
    # exponents; CoxMonomials are built only where basis prints them
    built = []
    real = coxmono.CoxMonomial.__init__

    def counted(self, *args):
        built.append(args)
        real(self, *args)

    pairs = []
    real_reduce = relations.spoly_reduce

    def reduce_counted(i, j, rels):
        pairs.append((i, j))
        return real_reduce(i, j, rels)

    monkeypatch.setattr(coxmono.CoxMonomial, "__init__", counted)
    monkeypatch.setattr(relations, "spoly_reduce", reduce_counted)
    cfg = PointConfig.default(5)
    report = run_sweep(cfg, 4)
    assert report.ok and report.classes_checked == len(list(nef_classes(5, 4)))
    assert pairs == [(1, 2), (1, 3), (2, 3)]
    # nor where a nonzero normal form is printed
    rels = relations.derive_relations(cfg)
    bad = run_sweep(cfg, 0, rels=rels + [relations.Relation(5, 1, rels[0].a_coeff + 1, rels[0].b_coeff)])
    assert [f["check"] for f in bad.failures if f["check"].startswith("spoly")] == [
        "spoly(1,4) normal form",
        "spoly(2,4) normal form",
        "spoly(3,4) normal form",
    ]
    assert built == []
    # the counter sees the monomials that the basis command prints
    payload = cli._basis_payload(PointConfig.default(4), DivisorClass(2, (1, 0, 0, 0)))
    assert len(built) == len(payload["monomials"]) > 0
