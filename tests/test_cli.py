"""Command-line interface: spec examples, round trips, and determinism."""

import ast
import json
import math
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from heckepoly import cli
from heckepoly.cli import main
from heckepoly.errors import NotProportionalError
from heckepoly.polynomials import Polynomial


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def input_error(args, capsys) -> str:
    """Run a command that must fail on its input: exit code 2 and exactly
    one line on stderr, which is returned."""
    with pytest.raises(SystemExit) as info:
        main(args)
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert err.endswith("\n") and err.count("\n") == 1
    return err[:-1]


def test_poly_jack_example(capsys):
    code, out = run_cli(
        ["poly", "--family", "jack", "--lambda", "2,0", "--n", "2", "--beta", "1"],
        capsys,
    )
    assert code == 0
    assert out.splitlines()[0] == "x_1^2 + x_1 x_2 + x_2^2"


def test_poly_hermite_example(capsys):
    code, out = run_cli(
        ["poly", "--family", "hermite", "--lambda", "2", "--n", "1", "--beta", "0"],
        capsys,
    )
    assert out.splitlines()[0] == "x^2 - 1/2"


def test_poly_laguerre_example(capsys):
    code, out = run_cli(
        ["poly", "--family", "laguerre", "--lambda", "1", "--n", "1", "--beta", "0",
         "--gamma", "1/2"],
        capsys,
    )
    assert out.splitlines()[0] == "u - 1"


def test_poly_nonsymmetric(capsys):
    code, out = run_cli(
        ["poly", "--family", "jack", "--lambda", "1,0", "--n", "2", "--beta", "1",
         "--w", "2,1", "--format", "json"],
        capsys,
    )
    data = json.loads(out)
    assert data["label"] == {"lambda": [1, 0], "w": [2, 1]}
    assert data["eigenvalues"] == [0, 2]


def test_norm_examples(capsys):
    _, out = run_cli(
        ["norm", "--family", "jack", "--lambda", "1,0", "--n", "2", "--beta", "1"],
        capsys,
    )
    assert out.strip() == "2"
    _, out = run_cli(
        ["norm", "--family", "hermite", "--lambda", "", "--n", "2", "--beta", "1"],
        capsys,
    )
    assert out.strip() == "π"


def test_pair_command(capsys):
    payload = json.dumps(Polynomial.one(2).to_json_dict())
    _, out = run_cli(
        ["pair", "--family", "jack", "--n", "2", "--beta", "1",
         "--f", payload, "--g", payload],
        capsys,
    )
    assert out.strip() == "2"


def test_pair_reads_a_polynomial_from_a_file(tmp_path, capsys):
    payload = json.dumps(Polynomial.one(2).to_json_dict())
    path = tmp_path / "one.json"
    path.write_text(payload, encoding="utf-8")
    _, out = run_cli(
        ["pair", "--family", "jack", "--n", "2", "--beta", "1",
         "--f", f"@{path}", "--g", payload],
        capsys,
    )
    assert out.strip() == "2"


@pytest.mark.parametrize("family, exps, expected", [
    # (u_1 - u_2)^2 against 1!, 600!, 601!, 602!: 600! (2 - 2*601 + 601*602)
    (["laguerre", "--gamma", "1/2"], [0, 600], f"{math.factorial(600) * 360602} · Γ(γ+1/2)^2"),
    # (1/2) g(1200) + g(1202) with g(k) = (k-1)!!/2^(k/2): 601 * 1199!!/2^600
    (["hermite"], [0, 1200], f"{Fraction(601 * math.prod(range(1, 1200, 2)), 2**600)} · π"),
])
def test_pair_of_one_high_power(family, exps, expected, capsys):
    """A single high power pairs by one weight sum, with no recursion limit."""
    f = json.dumps({"vars": 2, "terms": [{"exp": exps, "num": "1", "den": "1"}]})
    g = json.dumps(Polynomial.one(2).to_json_dict())
    code, out = run_cli(
        ["pair", "--family", *family, "--n", "2", "--beta", "1", "--f", f, "--g", g], capsys
    )
    assert code == 0
    assert out.strip() == expected


def test_pair_with_named_operators(capsys):
    from heckepoly.combinatorics import monomial_symmetric

    f = json.dumps(monomial_symmetric(2, (2, 0)).to_json_dict())
    g = json.dumps(monomial_symmetric(2, (1, 1)).to_json_dict())
    base = ["pair", "--family", "jack", "--n", "2", "--beta", "1",
            "--f", f, "--g", g]
    _, lhs = run_cli(base + ["--apply-f", "cherednikA:j=2"], capsys)
    _, rhs = run_cli(base + ["--apply-g", "cherednikA:j=2"], capsys)
    assert lhs == rhs  # self-adjointness through the operator interface
    with pytest.raises(SystemExit):
        run_cli(base + ["--apply-f", "bogus:j=1"], capsys)


@pytest.mark.parametrize("text, item", [("cherednik:j=x", "j=x"), ("cherednik:j=", "j="),
                                        ("exchange:i=1,j=2.5", "j=2.5")])
def test_pair_rejects_a_malformed_operator_parameter(text, item, capsys):
    message = input_error(["pair", *_JACK, "--f", _ONE_IN_2, "--g", _ONE_IN_2, "--apply-f", text],
                          capsys)
    assert message == f"error: malformed operator parameter {item!r} in {text!r}"


@pytest.mark.parametrize("flag", ["--apply-f", "--apply-g"])
def test_pair_rejects_an_empty_operator_name(flag, capsys):
    """An empty operator string is a name, not a missing option."""
    message = input_error(["pair", *_JACK, "--f", _ONE_IN_2, "--g", _ONE_IN_2, flag, ""],
                          capsys)
    assert message == "error: unknown operator name ''"


def test_norm_takes_a_negative_gamma_in_the_equals_form(capsys):
    code, out = run_cli(["norm", "--family", "laguerre", "--lambda", "1", "--n", "2",
                         "--beta", "1", "--gamma=-1/3"], capsys)
    assert code == 0
    assert out.strip() == "7/9 · Γ(γ+1/2)^2"


@pytest.mark.parametrize("text", ["dunkl:j=1,x=3", "exchange:i=1,j=2,k=9", "dunkl:j=1,j=2"])
def test_pair_rejects_unknown_or_repeated_operator_parameters(text, capsys):
    message = input_error(["pair", *_JACK, "--f", _ONE_IN_2, "--g", _ONE_IN_2, "--apply-f", text],
                          capsys)
    assert message.startswith("error: ")


def test_pair_applies_laguerre_operators_through_the_codec(capsys):
    """f and g are u-polynomials and h_j acts on z: applied through the
    codec, the self-adjoint h_2 gives one value on either side."""
    from heckepoly.combinatorics import monomial_symmetric

    f = json.dumps(monomial_symmetric(2, (2, 0)).to_json_dict())
    g = json.dumps(monomial_symmetric(2, (1, 1)).to_json_dict())
    base = ["pair", "--family", "laguerre", "--n", "2", "--beta", "1", "--gamma", "1/2",
            "--f", f, "--g", g, "--format", "json"]
    _, lhs = run_cli(base + ["--apply-f", "htilde:j=2"], capsys)
    _, rhs = run_cli(base + ["--apply-g", "htilde:j=2"], capsys)
    assert lhs == rhs and json.loads(lhs)["q"] == "288"


_ONE_IN_2 = json.dumps(Polynomial.one(2).to_json_dict())
_ONE_IN_3 = json.dumps(Polynomial.one(3).to_json_dict())


@pytest.mark.parametrize(
    "family, f, g, message",
    [
        (["laguerre", "--gamma=-1"], _ONE_IN_2, _ONE_IN_2, "divergent weight"),
        (["hermite"], _ONE_IN_2, _ONE_IN_3, "ambient size mismatch"),
        (["hermite"], '{"vars": 2,', _ONE_IN_2, "cannot read polynomial"),
    ],
    ids=["divergent-weight", "size-mismatch", "malformed-json"],
)
def test_pair_input_errors(family, f, g, message, capsys):
    text = input_error(["pair", "--family", *family, "--n", "2", "--beta", "1",
                        "--f", f, "--g", g], capsys)
    assert text.startswith("error: ") and message in text


@pytest.mark.parametrize("family", ["jack", "hermite"])
@pytest.mark.parametrize("method", ["bogus", "gram", "triangular", "intertwined"])
def test_poly_nonsymmetric_rejects_foreign_route(family, method, capsys):
    # a non-symmetric label has one route per family; any other is an error
    text = input_error(["poly", "--family", family, "--lambda", "1,0", "--n", "2",
                        "--beta", "1", "--w", "2,1", "--method", method], capsys)
    assert text.startswith("error: ") and repr(method) in text


@pytest.mark.parametrize(
    "lam, w, message",
    [
        ("1,0", "1,1", "(1, 1) is not a permutation of 1..2"),
        ("1,0", "3,1", "(3, 1) is not a permutation of 1..2"),
        ("1,0,0", "2,1", "label partition and permutation lengths differ"),
    ],
    ids=["repeated", "out-of-range", "length-mismatch"],
)
def test_poly_rejects_bad_permutation(lam, w, message, capsys):
    text = input_error(["poly", "--family", "jack", "--lambda", lam, "--n", "2",
                        "--beta", "1", "--w", w], capsys)
    assert text == f"error: {message}"


def test_poly_rejects_a_malformed_permutation(capsys):
    text = input_error(["poly", "--family", "jack", "--lambda", "1,0", "--n", "2",
                        "--beta", "1", "--w", "2,x"], capsys)
    assert text == "error: malformed permutation '2,x'"


@pytest.mark.parametrize("family, method", [("jack", "recursion"), ("hermite", "recursion"),
                                            ("laguerre", "recursion")])
def test_poly_nonsymmetric_accepts_its_route(family, method, capsys):
    gamma = ["--gamma", "1/2"] if family == "laguerre" else []
    code, out = run_cli(
        ["poly", "--family", family, *gamma, "--lambda", "1,0", "--n", "2", "--beta", "1",
         "--w", "2,1", "--method", method, "--format", "json"],
        capsys,
    )
    assert code == 0 and json.loads(out)["construction"] == method


@pytest.mark.parametrize("m", ["0", "-1", "3"])
def test_raise_index_checked_before_label(m, capsys):
    text = input_error(["raise", "--family", "laguerre", "--gamma", "1/2", "--lambda",
                        "1", "--n", "2", "--beta", "1", "--m", m], capsys)
    assert text == f"error: raising index {m} out of range 1..2"


@pytest.mark.parametrize(
    "argv",
    [
        ["--suite", "intertwine_A", "--rand-polys", "0"],
        ["--suite", "duality_all", "--pairs", "-5"],
    ],
    ids=["rand-polys", "pairs"],
)
def test_verify_rejects_empty_grid(argv, capsys):
    text = input_error(["verify", *argv], capsys)
    assert text.startswith("error: ") and "must be positive" in text


def test_table_divergent_weight(capsys):
    text = input_error(["table", "--family", "laguerre", "--n", "2", "--beta", "1",
                        "--gamma", "-1", "--max-weight", "1"], capsys)
    assert text.startswith("error: ") and "divergent weight" in text


@pytest.mark.parametrize(
    "flag, value",
    [("--beta-list", "x"), ("--n-list", "2,"), ("--gamma-list", "1/0")],
    ids=["beta-list", "n-list", "gamma-list"],
)
def test_verify_malformed_list_is_usage_error(flag, value, capsys):
    with pytest.raises(SystemExit) as info:
        main(["verify", flag, value])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1].startswith("heckepoly verify: error: argument")
    assert "Traceback" not in err


def test_raise_command(capsys):
    _, out = run_cli(
        ["raise", "--family", "jack", "--lambda", "1,0", "--n", "2", "--beta", "1",
         "--m", "1", "--format", "json"],
        capsys,
    )
    data = json.loads(out)
    assert data["constant"] == "2"
    assert data["result"]["label"] == {"lambda": [2, 0]}


def test_shift_command(capsys):
    _, out = run_cli(
        ["shift", "--family", "jack", "--lambda", "1,0", "--n", "2", "--beta", "1",
         "--direction", "G", "--format", "json"],
        capsys,
    )
    data = json.loads(out)
    assert data["constant"] == "-1"
    assert data["calibration"]["assignment"] == "swapped"
    assert data["result"]["spec"]["beta"] == 2


def test_verify_defaults_are_the_default_grid():
    from heckepoly.verify import GridSpec

    args = cli.build_parser().parse_args(["verify"])
    grid = GridSpec()
    assert {name: getattr(args, name) for name in GridSpec.__match_args__} == {
        name: getattr(grid, name) for name in GridSpec.__match_args__}


def test_verify_help_says_degree_bounds_every_relation_table(capsys):
    with pytest.raises(SystemExit) as info:
        main(["verify", "--help"])
    assert info.value.code == 0
    text = " ".join(capsys.readouterr().out.split())  # argparse wraps the lines
    assert ("--degree DEGREE monomial degree of every relation table "
            "(daha_relations, dunkl_commute, res_B, appendix_A)") in text


def test_verify_command_exit_code(capsys):
    code, out = run_cli(
        ["verify", "--suite", "norm_equiv_appB", "--n-list", "2",
         "--beta-list", "0,1", "--gamma-list", "1/2", "--max-weight", "2",
         "--degree", "3", "--pairs", "2", "--rand-polys", "2"],
        capsys,
    )
    assert code == 0
    assert "norm_equiv_appB: PASS" in out


def test_table_command_rfc4180(capsys):
    _, out = run_cli(
        ["table", "--family", "jack", "--max-weight", "1", "--n", "2", "--beta", "1"],
        capsys,
    )
    lines = out.splitlines()
    assert lines[0] == "family,lambda,n,beta,gamma,norm_product,norm_hook,eigenvalues"
    assert lines[1].startswith('jack,"0,0",2,1,')
    assert "\r" in out  # RFC 4180 line endings from the csv writer


def test_usage_errors(capsys):
    for argv in (
        ["poly", *_JACK, "--lambda", "2,x"],
        ["poly", "--family", "laguerre", "--lambda", "1", "--n", "1", "--beta", "0",
         "--gamma", "1/0"],
    ):
        assert input_error(argv, capsys).startswith("error: malformed")
    for argv in (
        ["poly", "--family", "laguerre", "--lambda", "1", "--n", "1",
         "--beta", "0"],  # missing gamma
        ["poly", "--family", "jack", "--lambda", "1,2", "--n", "2",
         "--beta", "1"],  # not weakly decreasing
        ["norm", "--family", "jack", "--lambda", "1,1,1", "--n", "2",
         "--beta", "1"],  # too many parts for the ambient size
    ):
        assert "error: " in input_error(argv, capsys)


@pytest.mark.parametrize(
    "argv",
    [
        ["--suite", "rodrigues_all", "--beta-list", "0"],
        ["--all", "--beta-list", "0", "--n-list", "2", "--max-weight", "1", "--degree", "1",
         "--pairs", "1", "--rand-polys", "1", "--gamma-list", "1/2"],
    ],
    ids=["suite", "all"],
)
def test_exit_code_2_for_a_grid_that_gives_a_suite_no_case(argv, capsys):
    """rodrigues_all skips beta = 0, where the hook prefactor is singular.
    A suite that ran no case has checked nothing: an input error with no
    report, not a counterexample."""
    from heckepoly.verify import GridSpec, run_suite

    with pytest.raises(SystemExit) as info:
        main(["verify", *argv])
    captured = capsys.readouterr()
    assert info.value.code == 2
    assert captured.err == "error: the grid gives no case to rodrigues_all\n"
    assert captured.out == ""
    report = run_suite("rodrigues_all", GridSpec(betas=(0,)))
    assert report.cases_run == 0 and not report.passed


def test_exit_code_2_for_a_grid_out_of_bounds(capsys):
    text = input_error(["verify", "--n-list", "9"], capsys)
    assert text.startswith("error: grid out of bounds")


@pytest.mark.parametrize(
    "flag, value, message",
    [("--n-list", "2,2", "N in 2, 2"), ("--beta-list", "1,0,1", "beta in 1, 0, 1"),
     ("--gamma-list", "1/2,2/4", "gamma in 1/2, 1/2")],
    ids=["n-list", "beta-list", "gamma-list"],
)
def test_exit_code_2_for_a_repeated_grid_value(flag, value, message, capsys):
    """A repeated N, beta or gamma, compared after canonicalisation, would
    run each of its cases once per copy: an input error."""
    text = input_error(["verify", "--suite", "norms_all", flag, value], capsys)
    assert text == f"error: grid repeats a value: {message}"


@pytest.mark.parametrize(
    "argv",
    [
        ["--suite", "daha_relations", "--n-list", "2", "--beta-list", "1", "--degree", "-1"],
        ["--suite", "jack_orth", "--beta-list=-1"],
        ["--suite", "norms_all", "--gamma-list=-1"],
    ],
    ids=["degree", "beta", "gamma"],
)
def test_verify_rejects_grid_below_bounds(argv, capsys):
    """A grid that would check nothing or record a bad parameter as a
    counterexample is an input error."""
    text = input_error(["verify", *argv], capsys)
    assert text.startswith("error: grid out of bounds")


def test_table_rejects_negative_weight(capsys):
    text = input_error(["table", "--family", "jack", "--n", "2", "--beta", "1",
                        "--max-weight", "-1"], capsys)
    assert text == "error: max_weight must be non-negative, got -1"
    _, out = run_cli(["table", "--family", "jack", "--n", "2", "--beta", "1",
                      "--max-weight", "0"], capsys)
    assert out.splitlines()[1:] == ['jack,"0,0",2,1,,2,2,0;1']


def test_unwritable_output_is_an_input_error(tmp_path, capsys):
    target = tmp_path / "missing" / "out.txt"
    text = input_error(["poly", "--family", "jack", "--lambda", "1", "--n", "2",
                        "--beta", "1", "--output", str(target)], capsys)
    assert text.startswith("error: ") and str(target) in text
    assert not target.exists()


_TERM = {"exp": [0, 0], "num": "1", "den": "1"}
# inputs not of the shape {"vars": .., "terms": [{"exp", "num", "den"}, ..]}
_MALFORMED_SHAPES = [1, {"vars": 2}, {"vars": 2, "terms": 5}, {"vars": 2, "terms": [5]}]


@pytest.mark.parametrize(
    "poly",
    [
        {"vars": 2, "terms": [dict(_TERM, den="0")]},
        {"vars": 2, "terms": [dict(_TERM, exp=[0.5, 0])]},
        {"vars": 2, "terms": [dict(_TERM, exp=["1", 0])]},
        {"vars": 2, "terms": [dict(_TERM, exp=[True, 0])]},
        {"vars": 2, "terms": [dict(_TERM, num=0.5)]},
        {"vars": 2, "terms": [dict(_TERM, den=1.9)]},
        {"vars": 2, "terms": [dict(_TERM, num=" 1")]},
        {"vars": 2.7, "terms": [_TERM]},
        {"vars": True, "terms": [dict(_TERM, exp=[0])]},
        {"vars": 2, "terms": [_TERM, dict(_TERM, num="5")]},
        *_MALFORMED_SHAPES,
    ],
    ids=["zero-den", "float-exponent", "string-exponent", "bool-exponent", "float-num",
         "float-den", "padded-num", "float-vars", "bool-vars", "repeated-exponent",
         "not-an-object", "no-terms", "int-terms", "int-term"],
)
def test_pair_rejects_malformed_terms(poly, capsys):
    f = json.dumps(poly)
    text = input_error(["pair", "--family", "hermite", "--n", "2", "--beta", "1",
                        "--f", f, "--g", _ONE_IN_2], capsys)
    assert text.startswith("error: cannot read polynomial")
    if poly in _MALFORMED_SHAPES:  # named by the expected shape, not by Python internals
        assert text.endswith(': expected {"vars": n, "terms": [{"exp", "num", "den"}, ...]}')


@pytest.mark.parametrize("family", [["jack"], ["hermite"], ["laguerre", "--gamma", "1/2"]],
                         ids=["jack", "hermite", "laguerre"])
def test_pair_rejects_a_negative_exponent(family, capsys):
    """A Laurent input is refused where it is read, before any pairing."""
    f = json.dumps({"vars": 2, "terms": [dict(_TERM, exp=[1, -1])]})
    text = input_error(["pair", "--family", *family, "--n", "2", "--beta", "1",
                        "--f", f, "--g", _ONE_IN_2], capsys)
    assert text == "error: cannot read polynomial: negative exponent in (1, -1)"


def test_poly_symmetrized_route_is_gone(capsys):
    text = input_error(["poly", "--family", "jack", "--lambda", "2", "--n", "2", "--beta",
                        "1", "--method", "symmetrized"], capsys)
    assert text == "error: unknown Jack construction 'symmetrized'"


_JACK = ["--family", "jack", "--n", "2", "--beta", "1"]
_RUNNER_CASES = {
    # command: (argv that runs, argv with an input error, cli name to plant a failure in)
    "poly": (["poly", *_JACK, "--lambda", "1"], ["poly", *_JACK, "--lambda", "1,2"],
             "construct"),
    "norm": (["norm", *_JACK, "--lambda", "1"], ["norm", *_JACK, "--lambda", "1,1,1"],
             "norm_formula"),
    "pair": (["pair", *_JACK, "--f", _ONE_IN_2, "--g", _ONE_IN_2],
             ["pair", *_JACK, "--f", _ONE_IN_2, "--g", _ONE_IN_3], "realization"),
    "raise": (["raise", *_JACK, "--lambda", "1", "--m", "1"],
              ["raise", *_JACK, "--lambda", "1", "--m", "5"], "raising_apply"),
    "shift": (["shift", *_JACK, "--lambda", "1", "--direction", "G"],
              ["shift", "--family", "hermite", "--n", "2", "--beta", "0", "--lambda", "1",
               "--direction", "G_hat"], "shift_apply"),
    "table": (["table", *_JACK, "--max-weight", "1"],
              ["table", *_JACK, "--max-weight", "-1"], "construct"),
}


@pytest.mark.parametrize("command", sorted(_RUNNER_CASES))
def test_runner_exit_codes(command, monkeypatch, capsys):
    """Every command goes through the one runner: an input error exits 2
    and a failed check exits 1, each with exactly one line on stderr."""
    argv, bad_input, target = _RUNNER_CASES[command]
    assert input_error(bad_input, capsys).startswith("error: ")

    def planted(*args, **kwargs):
        raise NotProportionalError("not proportional: planted")

    monkeypatch.setattr(cli, target, planted)
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 1
    captured = capsys.readouterr()
    assert captured.err == "error: not proportional: planted\n" and captured.out == ""


def test_only_main_emits_and_maps_errors():
    """main is the one exit path: no other function raises SystemExit and
    only the __main__ guard calls sys.exit; no command branches on the
    output format."""
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    functions = [node for node in tree.body if isinstance(node, ast.FunctionDef)]
    commands = [fn.name for fn in functions if fn.name.startswith("cmd_")]
    assert len(commands) == 7
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef) or fn.name == "main":
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                assert getattr(exc, "id", "") != "SystemExit", fn.name
            if fn.name in commands and isinstance(node, ast.Attribute):
                assert node.attr != "format", fn.name
    guard = tree.body[-1]
    assert isinstance(guard, ast.If) and "__main__" in ast.unparse(guard.test)
    exits = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute) and node.func.attr == "exit"]
    assert len(exits) == 1 and exits[0] in ast.walk(guard)


@pytest.mark.parametrize(
    "argv",
    [
        ["poly", *_JACK, "--lambda", "2,x"],
        ["poly", *_JACK, "--lambda", "1,0", "--w", "2,x"],
        ["norm", "--family", "laguerre", "--lambda", "1", "--n", "1", "--beta", "0",
         "--gamma", "1/0"],
        ["norm", "--family", "jack", "--lambda", "1", "--n", "0", "--beta", "1"],
        ["pair", *_JACK, "--f", '{"vars": 2,', "--g", _ONE_IN_2],
        ["pair", *_JACK, "--f", _ONE_IN_2, "--g", _ONE_IN_2, "--apply-f", "bogus:j=1"],
    ],
    ids=["partition", "permutation", "rational", "spec", "polynomial", "operator"],
)
def test_every_rejected_input_reads_error(argv, capsys):
    """An input refused by a parse helper, the family spec, or pair's
    reading of a polynomial or an operator string reaches main's one
    handler: exit code 2 and one line that starts with "error: "."""
    assert input_error(argv, capsys).startswith("error: ")


def test_exit_code_1_for_a_failing_verify_case(monkeypatch, capsys):
    """A planted defect (Dhat_N + 1) is a counterexample, not an input error."""
    from heckepoly import clear_caches
    from heckepoly import operators as ops

    cherednik = ops.cherednik

    def planted(j, spec):
        op = cherednik(j, spec)
        return op + ops.identity(spec.n) if j == spec.n else op

    clear_caches()
    monkeypatch.setattr(ops, "cherednik", planted)
    try:
        code, out = run_cli(["verify", "--suite", "daha_relations", "--n-list", "2",
                             "--beta-list", "1", "--degree", "2"], capsys)
    finally:
        monkeypatch.undo()
        clear_caches()
    assert code == 1
    assert out.startswith("daha_relations: FAIL") and "counterexample: " in out


def test_exit_code_1_for_a_failed_check(monkeypatch, capsys):
    """A raise image that is not proportional to its target is a
    counterexample: one error line, exit code 1."""

    def not_proportional(m, base):
        raise NotProportionalError("not proportional: planted")

    monkeypatch.setattr(cli, "raising_apply", not_proportional)
    with pytest.raises(SystemExit) as info:
        main(["raise", "--family", "jack", "--lambda", "1,0", "--n", "2",
              "--beta", "1", "--m", "1"])
    assert info.value.code == 1
    assert capsys.readouterr().err == "error: not proportional: planted\n"


@pytest.mark.parametrize("method", [[], ["--method", "rodrigues"]])
def test_exit_code_1_for_a_construction_that_is_not_symmetric(method, monkeypatch, capsys):
    """With Dhat_N + 1 planted the Rodrigues Jack construction is not
    symmetric: a failed check, not an input error.  The default triangular
    route applies no operator and builds its result in the m_mu basis, so
    there the plant adds x_1 to what the route returns."""
    from heckepoly import clear_caches, families
    from heckepoly import operators as ops

    cherednik = ops.cherednik
    triangular = families._ROUTES["triangular"]

    def planted(j, spec):
        op = cherednik(j, spec)
        return op + ops.identity(spec.n) if j == spec.n else op

    def planted_route(lam, spec):
        return triangular(lam, spec) + Polynomial.variable(spec.n, 1)

    clear_caches()
    if method:
        monkeypatch.setattr(ops, "cherednik", planted)
    else:
        monkeypatch.setitem(families._ROUTES, "triangular", planted_route)
    try:
        with pytest.raises(SystemExit) as info:
            main(["poly", "--family", "jack", "--lambda", "2,1", "--n", "2",
                  "--beta", "1", *method])
    finally:
        monkeypatch.undo()
        clear_caches()
    assert info.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: not symmetric") and err.count("\n") == 1
    assert "at N=2, beta=1, lambda=(2, 1)" in err


def test_exit_code_1_for_an_image_that_is_not_even(capsys):
    """pair applies a named Laguerre operator, type B on z, through the
    codec: B_1 maps the even encoding of f to an odd image, and the failed
    evenness check is a counterexample, not an input error."""
    f = json.dumps(Polynomial.variable(2, 1).to_json_dict())
    with pytest.raises(SystemExit) as info:
        main(["pair", "--family", "laguerre", "--n", "2", "--beta", "1", "--gamma", "1/2",
              "--f", f, "--g", f, "--apply-f", "creation:j=1"])
    assert info.value.code == 1
    assert capsys.readouterr().err == "error: evenness violated\n"


def test_output_file(tmp_path, capsys):
    target = tmp_path / "out.txt"
    code, out = run_cli(
        ["norm", "--family", "jack", "--lambda", "1,0", "--n", "2", "--beta", "1",
         "--output", str(target)],
        capsys,
    )
    assert code == 0 and out == ""
    assert target.read_text() == "2\n"


def test_cli_deterministic_across_processes(src_env):
    args = [
        sys.executable, "-m", "heckepoly.cli", "verify", "--suite",
        "dunkl_pairing_prop", "--n-list", "2", "--beta-list", "1",
        "--gamma-list", "1/2", "--max-weight", "2", "--degree", "3",
        "--pairs", "2", "--rand-polys", "3", "--seed", "11", "--format", "json",
    ]
    first = subprocess.run(args, capture_output=True, text=True, env=src_env)
    second = subprocess.run(args, capture_output=True, text=True, env=src_env)
    assert first.returncode == 0 and second.returncode == 0
    assert first.stdout == second.stdout


def test_verify_rejects_single_variable_grid(capsys):
    text = input_error(["verify", "--suite", "appendix_A", "--n-list", "1",
                        "--beta-list", "1", "--max-weight", "1", "--degree", "1"], capsys)
    assert text.startswith("error: ") and "2 <= N <= 4" in text


@pytest.mark.parametrize("weight", ["-3", "0", "7", "40"])
def test_verify_rejects_weight_out_of_bounds(weight, capsys):
    text = input_error(["verify", "--suite", "norms_all", "--max-weight", weight], capsys)
    assert text.startswith("error: ") and "1 <= max_weight <= 6" in text


@pytest.mark.parametrize("weight", ["1", "6"])
def test_verify_accepts_weight_at_bounds(weight, capsys):
    code, out = run_cli(
        ["verify", "--suite", "jack_eigen", "--n-list", "2", "--beta-list", "1",
         "--max-weight", weight, "--degree", "2"],
        capsys,
    )
    assert code == 0 and out.startswith("jack_eigen: PASS")


def test_poly_in_thirty_variables_returns(src_env):
    """The label (1) at N = 30 has a 30-member orbit; it is built without
    walking the 30! permutations of its exponents."""
    args = [sys.executable, "-m", "heckepoly", "poly", "--family", "jack", "--n", "30",
            "--beta", "1", "--lambda", "1"]
    done = subprocess.run(args, capture_output=True, text=True, timeout=60, env=src_env)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("x_1 + x_2 + ") and "x_30" in done.stdout


def test_python_dash_m_entry_point(src_env):
    args = [
        sys.executable, "-m", "heckepoly", "verify", "--suite", "jack_eigen",
        "--n-list", "2", "--beta-list", "1", "--max-weight", "2", "--degree", "2",
    ]
    done = subprocess.run(args, capture_output=True, text=True, env=src_env)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("jack_eigen: PASS")
    bad = subprocess.run(args[:-4] + ["--max-weight", "-3"], capture_output=True, text=True,
                         env=src_env)
    assert bad.returncode == 2
    assert bad.stderr.strip().startswith("error: grid out of bounds")
