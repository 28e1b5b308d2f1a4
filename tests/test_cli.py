"""Command-line interface behavior and exit codes."""

import csv
import io
import json

import pytest

from blochpriors import reproduce
from blochpriors.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_kl_text(capsys):
    code, out, _ = run(capsys, "kl", "--p", "sld", "--q", "km")
    assert code == 0
    assert abs(float(out.strip()) - 0.0891523) < 1e-4


def test_kl_bits(capsys):
    code, out, _ = run(capsys, "kl", "--p", "sld", "--q", "km",
                       "--units", "bits")
    assert code == 0
    assert abs(float(out.strip()) - 0.0891523 / 0.6931471805599453) < 1e-4


def test_kl_support_mismatch_exits_1(capsys):
    code, _, err = run(capsys, "kl", "--p", "p0", "--q", "sld")
    assert code == 1
    assert "SupportMismatch" in err


def test_compare_support_mismatch_exits_1(capsys):
    code, out, err = run(capsys, "compare", "--p", "sld", "--q", "p0",
                         "--record", "balanced6")
    assert code == 1
    assert not out
    assert "SupportMismatchError" in err


def test_compare_text(capsys):
    code, out, _ = run(capsys, "compare", "--p", "km", "--q", "sld",
                       "--record", "balanced6", "--variant", "paper")
    assert code == 0
    assert "FirstMoreNoninformative" in out
    for value in ("0.0891523", "0.0975976", "0.0720681", "0.457259"):
        assert value in out


def test_compare_json_clarke(capsys):
    code, out, _ = run(capsys, "compare", "--p", "mc", "--q", "km",
                       "--record", "balanced6", "--variant", "clarke",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "FirstMoreNoninformative"
    assert doc["d_p_post_q"] == pytest.approx(0.0910048, rel=1e-3)
    assert doc["d_q_post_p"] == pytest.approx(0.452794, rel=1e-3)


def test_gain(capsys):
    code, out, _ = run(capsys, "gain", "--p", "km", "--record", "balanced6")
    assert code == 0
    assert abs(float(out.strip()) - 0.151575) < 1e-4


def test_eval(capsys):
    code, out, _ = run(capsys, "eval", "--p", "ld", "--x", "0.1",
                       "--y", "0.2", "--z", "0.3")
    assert code == 0
    assert abs(float(out.strip()) - 3.0 / (4.0 * 3.141592653589793)) < 1e-6


def test_sweep_csv(capsys):
    code, out, _ = run(capsys, "sweep", "--p", "ld", "--q", "mc",
                       "--record", "balanced6", "--k-max", "3",
                       "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "k,statistic"
    values = [float(line.split(",")[1]) for line in lines[1:]]
    assert values[0] == pytest.approx(0.559829, rel=1e-3)
    assert values[2] == pytest.approx(0.307632, rel=1e-3)


def test_search_json(capsys):
    code, out, _ = run(capsys, "search", "--p", "km", "--q", "km",
                       "--max-total", "4", "--constraint", "any",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == pytest.approx(0.0, abs=1e-12)


def test_reproduce_csv(capsys):
    code, out, _ = run(capsys, "reproduce", "--table", "all",
                       "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("quantity_id,paper_value,computed")
    assert len(lines) - 1 >= 45


def test_csv_and_json_emitters(capsys):
    rows = reproduce("s3")
    code, out, _ = run(capsys, "reproduce", "--table", "s3", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "quantity_id,paper_value,computed,abs_diff,rel_diff,class,pass"
    assert len(lines) == len(rows) + 1
    code, out, _ = run(capsys, "reproduce", "--table", "s3",
                       "--format", "json")
    assert code == 0
    parsed = json.loads(out)
    assert len(parsed) == len(rows)
    assert {"quantity_id", "paper_value", "computed", "abs_diff",
            "rel_diff", "class", "pass"} <= set(parsed[0])


def test_priors_listing(capsys):
    code, out, _ = run(capsys, "priors")
    assert code == 0
    for label in ("sld", "km", "mc", "ld", "p0", "p1", "p2"):
        assert label in out


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["kl", "--p", "nope", "--q", "sld"])
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["compare", "--p", "km", "--q", "sld", "--record", "W~:1"])
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["nosuchcommand"])
    assert exc.value.code == 2
    capsys.readouterr()
    # an option the command would ignore is a usage error
    for argv in (["reproduce", "--R", "0.5"], ["reproduce", "--units", "bits"],
                 ["priors", "--units", "bits"],
                 ["eval", "--p", "ld", "--units", "bits"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        capsys.readouterr()
    # a tolerance must be a finite positive number; the message names it
    for option, value in (("--abs-tol", "inf"), ("--rel-tol", "nan"),
                          ("--rel-tol", "-inf"), ("--abs-tol", "0")):
        with pytest.raises(SystemExit) as exc:
            main(["kl", "--p", "sld", "--q", "km", option, value])
        assert exc.value.code == 2, (option, value)
        assert option in capsys.readouterr().err
    # the tolerances are the only quadrature settings
    with pytest.raises(SystemExit) as exc:
        main(["kl", "--p", "sld", "--q", "km", "--max-evals", "21"])
    assert exc.value.code == 2
    assert "--max-evals" in capsys.readouterr().err
    # an option value out of range is a usage error too
    for argv in (["kl", "--p", "sld", "--q", "km", "--R", "1.5"],
                 ["sweep", "--p", "km", "--q", "sld", "--k-max", "0"],
                 ["search", "--p", "km", "--q", "sld", "--max-total", "31"],
                 ["search", "--p", "km", "--q", "sld", "--max-total", "-1"],
                 ["eval", "--p", "ld", "--x", "2"]):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert not out and err.startswith("error: "), argv


def test_improper_radius_exits_1(capsys):
    code, _, err = run(capsys, "kl", "--p", "p0", "--q", "p1", "--R", "1.0")
    assert code == 1
    assert "Improper" in err


def test_underflowed_evidence_exits_1(capsys):
    code, out, err = run(capsys, "gain", "--p", "km", "--record",
                         "balanced6^200")
    assert code == 1
    assert not out
    assert "ZeroEvidenceError" in err


def test_deterministic_output(capsys):
    a = run(capsys, "compare", "--p", "km", "--q", "sld",
            "--record", "balanced6", "--format", "json")
    b = run(capsys, "compare", "--p", "km", "--q", "sld",
            "--record", "balanced6", "--format", "json")
    doc_a, doc_b = json.loads(a[1]), json.loads(b[1])
    # the evaluation counter reflects cache hits within one process; all
    # computed quantities must be bit-identical
    doc_a.pop("evaluations")
    doc_b.pop("evaluations")
    assert doc_a == doc_b


# one cheap invocation per subcommand; the compare record has several
# tokens, so its commas must be quoted in CSV output
EVERY_COMMAND = [
    ["priors"],
    ["eval", "--p", "ld", "--x", "0.1", "--z", "-0.2"],
    ["kl", "--p", "sld", "--q", "km"],
    ["compare", "--p", "km", "--q", "sld", "--record", "X+:1,Y-:2"],
    ["gain", "--p", "km", "--record", "Z+:1"],
    ["sweep", "--p", "km", "--q", "sld", "--record", "X+:1,Y-:1",
     "--k-max", "2"],
    ["search", "--p", "km", "--q", "sld", "--max-total", "3"],
    ["reproduce", "--table", "s3"],
]


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
@pytest.mark.parametrize("argv", EVERY_COMMAND, ids=lambda argv: argv[0])
def test_every_command_in_every_format(capsys, argv, fmt):
    code, out, _ = run(capsys, *argv, "--format", fmt)
    assert code == 0
    if fmt == "json":
        json.loads(out)
    elif fmt == "csv":
        header, *rows = csv.reader(io.StringIO(out))
        assert rows
        assert all(len(row) == len(header) for row in rows)
    else:
        assert out.strip()
