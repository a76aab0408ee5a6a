"""Byte-for-byte regression of deterministic CLI reports.

Each file in tests/golden/ is the exact stdout of one CLI command.  A
refactor must leave these reports unchanged; a change that alters a report
on purpose (a new flag or counter, say) regenerates the file with

    cd tests && PYTHONPATH=../src python -m hopfdy.cli <argv> > golden/<name>.json

Commands run from the tests directory, so that the paths of input files,
which a report records, are the relative ones below.
"""

from pathlib import Path

import pytest

from hopfdy.cli import main

TESTS = Path(__file__).parent
GOLDEN = TESTS / "golden"
LAMBDA = "data/lambda_37_41.json"  # [["37/41"]]

CASES = {
    "verify_bk_2": ["verify", "bk:2"],
    "double_bk_1": ["double", "bk:1"],
    "rmatrix_tangent_bk_2_r0": ["rmatrix", "tangent", "bk:2", "--r0"],
    # lambda = [["37/41", "-5/3"], ["2/7", "11/13"]]: rational tangent conditions
    "rmatrix_tangent_bk_2_lambda_bk2": ["rmatrix", "tangent", "bk:2", "--lambda",
                                        "data/lambda_bk2.json"],
    "dy_tensor_bk_1_r0_degree_2": ["dy", "tensor", "bk:1", "--r0", "--degree", "2"],
    "dy_res_bk_2_sub_bk_1_degree_2": ["dy", "res", "bk:2", "--sub", "bk:1",
                                      "--degree", "2"],
    "relext_bk_2_sub_bk_1_coeff_restriction_degree_2": [
        "relext", "bk:2", "--sub", "bk:1", "--coeff", "restriction", "--degree", "2"],
    "relext_bk_2_sub_bk_1_coeff_restriction_degree_3_bar": [
        "relext", "bk:2", "--sub", "bk:1", "--coeff", "restriction", "--degree", "3",
        "--resolution", "bar"],
    "crosscheck_adjunction_res_bk_2_sub_bk_1_degree_2": [
        "crosscheck", "adjunction-res", "bk:2", "--sub", "bk:1", "--degree", "2"],
    "crosscheck_adjunction_res_bk_2_sub_bk_1_degree_2_bar": [
        "crosscheck", "adjunction-res", "bk:2", "--sub", "bk:1", "--degree", "2",
        "--resolution", "bar"],
    "crosscheck_adjunction_tensor_bk_1_r0_degree_2": [
        "crosscheck", "adjunction-tensor", "bk:1", "--r0", "--degree", "2"],
    "crosscheck_kunneth_bk_1_degree_2": ["crosscheck", "kunneth", "bk:1", "--degree", "2"],
    "crosscheck_kunneth_bk_1_degree_2_bar": [
        "crosscheck", "kunneth", "bk:1", "--degree", "2", "--resolution", "bar"],
    # the rational path: R_lambda at lambda = 37/41, and an identity complex
    "crosscheck_dimension_formula_bk_1_lambda_37_41": [
        "crosscheck", "dimension-formula", "bk:1", "--lambda", LAMBDA],
    "dy_tensor_bk_1_lambda_37_41_degree_2": [
        "dy", "tensor", "bk:1", "--lambda", LAMBDA, "--degree", "2"],
    "dy_id_bk_2_degree_3": ["dy", "id", "bk:2", "--degree", "3"],
    # B_1 in the basis f_3 = xg + x/2, whose basis products can have two
    # terms, with R_0 carried over to that basis
    "dy_tensor_bk_1_basis_f3_r0_degree_2": [
        "dy", "tensor", "data/bk_1_basis_f3.json", "--rmatrix", "data/bk_1_basis_f3_r0.json",
        "--degree", "2"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(capsys, monkeypatch, name):
    monkeypatch.chdir(TESTS)
    code = main(CASES[name])
    assert code == 0
    assert capsys.readouterr().out == (GOLDEN / (name + ".json")).read_text()


def test_every_golden_file_has_a_case():
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == sorted(CASES)
