"""Command-line surface: flags, formats, exit codes."""

import json

from hexrep.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_s2k_bruteforce(capsys):
    code, out, _ = run(capsys, "s2k", "--k", "7", "--n", "1")
    assert code == 0
    assert out.split() == ["1", "42"]
    code, out, _ = run(capsys, "s2k", "--k", "1", "--n", "2")
    assert code == 0
    assert out.split() == ["2", "0"]


def test_s2k_methods_agree(capsys):
    values = {}
    for method in ("bruteforce", "formula", "decomposition"):
        code, out, _ = run(
            capsys, "s2k", "--k", "7", "--n", "1..30", "--method", method,
            "--format", "json",
        )
        assert code == 0
        values[method] = json.loads(out)
    assert values["bruteforce"] == values["formula"] == values["decomposition"]


def test_s2k_unsupported_k(capsys):
    code, _, err = run(capsys, "s2k", "--k", "15", "--n", "1")
    assert code == 2 and "k=15" in err
    code, _, err = run(capsys, "s2k", "--k", "8", "--n", "1", "--method", "formula")
    assert code == 2 and "valid" in err


def test_tau_eta_values(capsys):
    code, out, _ = run(capsys, "tau", "--n", "1..3", "--method", "eta", "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["n,value", "1,1", "2,-24", "3,252"]


def test_tau_formula_value(capsys):
    code, out, _ = run(capsys, "tau", "--n", "5", "--method", "paper-formula")
    assert code == 0
    assert out.split() == ["5", "4830"]


def test_tau_methods_agree(capsys):
    code, out_eta, _ = run(capsys, "tau", "--n", "1..50", "--format", "json")
    assert code == 0
    code, out_formula, _ = run(
        capsys, "tau", "--n", "1..50", "--method", "paper-formula", "--format", "json"
    )
    assert code == 0
    assert json.loads(out_eta) == json.loads(out_formula)


def test_lsum_values(capsys):
    code, out, _ = run(capsys, "lsum", "L_6_2", "--n", "1")
    assert code == 0 and out.split() == ["1", "12"]
    code, out, _ = run(capsys, "lsum", "L_10_6", "--n", "1")
    assert code == 0 and out.split() == ["1", "120"]


def test_lsum_unknown_name(capsys):
    code, _, err = run(capsys, "lsum", "bogus", "--n", "1")
    assert code == 2 and "bogus" in err


def test_verify_all_json(capsys):
    code, out, _ = run(capsys, "verify", "--all", "--nmax", "50", "--format", "json")
    assert code == 0
    reports = json.loads(out)
    names = {r["name"] for r in reports}
    assert "tau-eq" in names and "rho-star-6" in names
    by_name = {r["name"]: r for r in reports}
    assert by_name["tau-eq"]["status"] == "match"
    assert by_name["rho-star-6"]["status"] == "mismatch"
    assert by_name["f7-decomposition"]["constant_term"]["match"] is True


def test_verify_single_identity(capsys):
    code, out, _ = run(capsys, "verify", "--identity", "tau-eq", "--nmax", "50")
    assert code == 0
    assert "tau-eq: ok (n=1..50)" in out
    assert "verification: PASS" in out


def test_verify_strict_fails_on_documented(capsys):
    code, out, _ = run(capsys, "verify", "--all", "--nmax", "20", "--strict")
    assert code == 1
    assert "verification: FAIL" in out


def test_verify_precision_too_low(capsys):
    code, _, err = run(capsys, "verify", "--all", "--nmax", "10000", "--precision", "200")
    assert code == 2 and "precision" in err


def test_verify_precision_defaults_to_nmax(capsys):
    # results do not depend on the precision, so the default only sets the cost
    assert run(capsys, "verify", "--all", "--nmax", "20") == run(
        capsys, "verify", "--all", "--nmax", "20", "--precision", "200"
    )
    code, out, err = run(capsys, "verify", "--all", "--nmax", "250")
    assert code == 0 and err == ""
    assert out.splitlines()[0] == "f7-decomposition: ok (n=1..250)"


def test_verify_csv(capsys):
    code, out, _ = run(
        capsys, "verify", "--identity", "ramanujan-convolution", "--nmax", "5",
        "--format", "csv",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# identity: ramanujan-convolution"
    assert lines[1] == "n,lhs,rhs,match"
    assert len(lines) == 7  # header pair + five rows


def test_value_json_round_trip(capsys):
    code, out, _ = run(capsys, "s2k", "--k", "12", "--n", "1..5", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert rows == json.loads(json.dumps(rows))
    assert rows[0] == {"n": 1, "value": 72}


def test_repeated_calls_share_no_parser_state(capsys):
    # a second call must not see the first call's options
    argv = ["verify", "--identity", "tau-eq", "--nmax", "3", "--format", "json"]
    for _ in range(2):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert [r["name"] for r in json.loads(out)] == ["tau-eq"]


def test_explicit_precision_must_cover_request(capsys):
    code, _, err = run(capsys, "tau", "--n", "50", "--precision", "10")
    assert code == 2 and "precision" in err


def test_malformed_n_is_a_usage_error_naming_n(capsys):
    for text in ("1..", "..5", "a..b", "1..2..3", "x", ""):
        code, out, err = run(capsys, "tau", "--n", text)
        assert code == 2 and out == ""
        assert err == f"error: --n {text!r} is not of the form N or A..B\n"
