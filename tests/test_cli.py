import json
import subprocess
import sys
import time

import pytest

from hopfdy.cli import main
from hopfdy.hopfcore import build_bk
from hopfdy.hopffile import hopf_from_json, hopf_to_json, load_hopf, save_hopf


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


class TestVerifyCommand:
    def test_bk2_valid(self, capsys):
        code, rep = run_cli(capsys, "verify", "bk:2")
        assert code == 0
        assert rep["results"]["valid"] is True

    def test_cyclic4_valid(self, capsys):
        code, rep = run_cli(capsys, "verify", "cyclic:4")
        assert code == 0

    @pytest.mark.parametrize("field,extra,value", [
        ("antipode", None, [[i, i, "1"] for i in range(4)]),
        ("mult", [-1, 0, 0, "1"], None),
        ("mult", [4, 0, 0, "1"], None),
        ("mult", [0, 1, 4, "1"], None),
        ("comult", [0, 0, 4, "1"], None),
        ("unit", [7, "1"], None),
        ("counit", [-1, "1"], None),
        ("antipode", [0, 4, "1"], None),
        ("counit", [0, 1.0], None),  # the right value, but as a float
        ("dim", None, 4.9),
        ("dim", None, "4"),
        ("dim", None, True),
        ("dim", None, 0),
        ("basis_labels", None, ["a"]),
        ("basis_labels", None, ["a", "b", "c", 4]),
        ("basis_labels", None, "abcd"),
    ], ids=["antipode-identity", "mult-i-neg", "mult-i-high", "mult-k-high",
            "comult-k-high", "unit-high", "counit-neg", "antipode-col-high",
            "counit-float", "dim-float", "dim-string", "dim-bool", "dim-zero", "labels-short",
            "labels-non-string", "labels-not-list"])
    def test_corrupted_file_exit_2_named_axiom(self, capsys, tmp_path, field, extra,
                                               value):
        path = tmp_path / "bad.json"
        data = hopf_to_json(build_bk(1))
        if extra is None:
            data[field] = value
        else:
            data[field].append(extra)  # an index outside 0..3
        path.write_text(json.dumps(data))
        code, rep = run_cli(capsys, "verify", str(path))
        assert code == 2
        assert any(field in v for v in rep["results"]["violations"])

    def test_unparseable_exit_2(self, capsys, tmp_path):
        path = tmp_path / "junk.json"
        for text, named in [('{"format_version": 1, "dim": "zebra"}', "zebra"),
                            ("not JSON {", "unparseable Hopf file")]:
            path.write_text(text)
            code, rep = run_cli(capsys, "verify", str(path))
            assert code == 2
            assert named in rep["results"]["violations"][0]

    @pytest.mark.parametrize("key", ["bk:x", "cyclic:x", "bk:"])
    def test_malformed_catalog_key_exit_2(self, capsys, key):
        code, rep = run_cli(capsys, "verify", key)
        assert code == 2 and rep is None


class TestRoundTrip:
    @pytest.mark.parametrize("key", ["bk:1", "bk:2", "cyclic:3"])
    def test_save_load(self, tmp_path, key):
        from hopfdy.hopfcore import catalog_hopf
        H = catalog_hopf(key)
        p = str(tmp_path / "h.json")
        save_hopf(H, p)
        H2 = load_hopf(p)
        assert H2.dim == H.dim
        assert H2.algebra.mult == H.algebra.mult
        assert [c.coeffs for c in H2.comult] == [c.coeffs for c in H.comult]

    def test_permuted_basis_same_dimensions(self, tmp_path):
        # identity-complex and tangent dimensions are invariant under
        # permuting the basis of the input file
        from hopfdy.dycomplex import identity_complex
        from hopfdy.exactlin import TensorElement
        from hopfdy.rmatrix import bk_r0, tangent_space
        H = build_bk(1)
        data = hopf_to_json(H)
        perm = [2, 0, 3, 1]  # relabel basis indices
        inv = [perm.index(i) for i in range(4)]

        def p(i):
            return perm[i]

        data2 = dict(data)
        data2["basis_labels"] = [data["basis_labels"][inv[i]] for i in range(4)]
        data2["mult"] = [[p(i), p(j), p(k), v] for i, j, k, v in data["mult"]]
        data2["comult"] = [[p(i), p(j), p(k), v] for i, j, k, v in data["comult"]]
        data2["unit"] = [[p(i), v] for i, v in data["unit"]]
        data2["counit"] = [[p(i), v] for i, v in data["counit"]]
        data2["antipode"] = [[p(i), p(j), v] for i, j, v in data["antipode"]]
        H2 = hopf_from_json(data2, name="permuted")
        cx1 = identity_complex(H)
        cx2 = identity_complex(H2)
        for n in range(3):
            assert cx1.cohomology_dim(n) == cx2.cohomology_dim(n)
        R = bk_r0(1, H)
        R2 = TensorElement(H2.algebra, 2,
                           {(p(a), p(b)): c for (a, b), c in R.coeffs.items()})
        assert tangent_space(H2, R2).dim == tangent_space(H, R).dim == 1


class TestDyCommand:
    def test_dy_id_bk1(self, capsys):
        code, rep = run_cli(capsys, "dy", "id", "bk:1", "--degree", "2")
        assert code == 0
        assert rep["results"]["cohomology_dim"] == 1

    def test_dy_tensor_bk1(self, capsys):
        code, rep = run_cli(capsys, "dy", "tensor", "bk:1", "--r0", "--degree", "2")
        assert code == 0
        assert rep["results"]["cohomology_dim"] == 3

    def test_dy_res(self, capsys):
        code, rep = run_cli(capsys, "dy", "res", "bk:2", "--sub", "bk:1",
                            "--degree", "3")
        assert code == 0
        assert rep["results"]["cohomology_dim"] == 0

    def test_unsupported_degree_exit_4(self, capsys):
        code = main(["dy", "id", "bk:1", "--degree", "9"])
        assert code == 4

    def test_oversized_ambient_exit_5_before_basis_work(self, capsys):
        # delta^4 of the tensor complex of B_1 lands in H^{ox 10}, dim 4^10
        t0 = time.monotonic()
        code = main(["dy", "tensor", "bk:1", "--r0", "--degree", "4",
                     "--max-seconds", "60"])
        assert code == 5
        assert time.monotonic() - t0 < 5
        assert capsys.readouterr().out == ""


class TestTangentCommand:
    def test_bk1(self, capsys):
        code, rep = run_cli(capsys, "rmatrix", "tangent", "bk:1", "--r0")
        assert code == 0
        assert rep["results"]["dim"] == 1
        assert rep["results"]["span_matches_standard_basis"] is True

    def test_rmatrix_from_file(self, capsys, tmp_path):
        from hopfdy.hopffile import tensor_to_json
        from hopfdy.rmatrix import bk_r0
        path = tmp_path / "r.json"
        path.write_text(json.dumps(tensor_to_json(bk_r0(1, build_bk(1)))))
        code, rep = run_cli(capsys, "rmatrix", "tangent", "bk:1",
                            "--rmatrix", str(path))
        assert code == 0
        assert rep["results"]["dim"] == 1

    def test_lambda_family_from_file(self, capsys, tmp_path):
        path = tmp_path / "lam.json"
        path.write_text(json.dumps([["1/2", "0"], ["-1", "1/3"]]))
        code, rep = run_cli(capsys, "rmatrix", "family", "bk:2",
                            "--lambda", str(path))
        assert code == 0
        assert rep["results"]["check"]["verified"] is True

    def test_cyclic2_trivial(self, capsys):
        code, rep = run_cli(capsys, "rmatrix", "tangent", "cyclic:2", "--trivial-r")
        assert code == 0
        assert rep["results"]["dim"] == 0

    def test_bk2(self, capsys):
        code, rep = run_cli(capsys, "rmatrix", "tangent", "bk:2", "--r0")
        assert code == 0
        assert rep["results"]["dim"] == 4
        assert rep["results"]["span_matches_standard_basis"] is True

    def test_invalid_r_exit_3(self, capsys):
        code, rep = run_cli(capsys, "rmatrix", "tangent", "bk:1", "--trivial-r")
        assert code == 3
        assert rep["results"]["check"]["verified"] is False

    @pytest.mark.parametrize("argv,data,named", [
        (["rmatrix", "check", "bk:1", "--rmatrix"], [[[0, 9], "1"]], "index 9"),
        (["rmatrix", "check", "bk:1", "--rmatrix"], [[[0, 0, 0], "1"]], "[[0, 0, 0], '1']"),
        (["rmatrix", "check", "bk:1", "--rmatrix"], [[[0, 0], "x"]], "'x'"),
        (["rmatrix", "check", "bk:2", "--lambda"], [["1", "2"]], "2x2"),
        (["rmatrix", "check", "bk:1", "--rmatrix"], [[[0, 0], float("inf")]], "inf"),
        (["rmatrix", "family", "bk:1", "--lambda"], [[0.1]], "0.1"),
        (["dy", "tensor", "bk:1", "--degree", "1", "--rmatrix"], [[[0, 9], "1"]], "index 9"),
        (["rmatrix", "check", "bk:1", "--rmatrix"], b"not JSON [", "r.json"),
        (["rmatrix", "family", "bk:1", "--lambda"], None, "r.json"),
    ], ids=["index-high", "key-length", "value-not-rational", "lambda-1x2", "value-infinity",
            "lambda-float", "dy-index-high", "not-json", "lambda-missing"])
    def test_malformed_r_file_exit_3(self, capsys, tmp_path, argv, data, named):
        """data is written as JSON, as raw bytes, or (None) not at all."""
        path = tmp_path / "r.json"
        if isinstance(data, bytes):
            path.write_bytes(data)
        elif data is not None:
            path.write_text(json.dumps(data))
        code = main(argv + [str(path)])
        out, err = capsys.readouterr()
        assert code == 3 and out == ""
        assert named in err


class TestRelextCommand:
    def test_trivial_coefficients(self, capsys):
        code, rep = run_cli(capsys, "relext", "bk:1", "--degree", "2")
        assert code == 0
        assert rep["results"]["ext_dims"] == [1, 0, 1]

    def test_restriction_coefficients_bar(self, capsys):
        code, rep = run_cli(capsys, "relext", "bk:2", "--sub", "bk:1",
                            "--coeff", "restriction", "--degree", "2",
                            "--resolution", "bar")
        assert code == 0
        assert rep["results"]["ext_dims"] == [1, 0, 3]


class TestCrosscheckCommand:
    def test_dimension_formula(self, capsys):
        code, rep = run_cli(capsys, "crosscheck", "dimension-formula", "bk:1", "--r0")
        assert code == 0
        r = rep["results"]
        assert (r["h2_tensor"], r["h2_id"], r["tangent_dim"]) == (3, 1, 1)
        assert r["consistent"] is True

    def test_adjunction_res(self, capsys):
        code, rep = run_cli(capsys, "crosscheck", "adjunction-res", "bk:2",
                            "--sub", "bk:1", "--degree", "2")
        assert code == 0
        assert rep["results"]["equal"] and rep["results"]["ext_dim"] == 3

    def test_adjunction_tensor_cli(self, capsys):
        code, rep = run_cli(capsys, "crosscheck", "adjunction-tensor", "bk:1",
                            "--r0", "--degree", "2")
        assert code == 0
        assert rep["results"]["equal"] and rep["results"]["ext_dim"] == 3

    def test_kunneth_cli(self, capsys):
        code, rep = run_cli(capsys, "crosscheck", "kunneth", "bk:1",
                            "--degree", "2", "--skip-product-verify")
        assert code == 0
        assert rep["results"]["equal"] and rep["results"]["product_ext"] == 2

    def test_budget_exceeded_exit_5(self, capsys):
        code = main(["crosscheck", "adjunction-tensor", "bk:1", "--r0",
                     "--degree", "3"])
        assert code == 5

    def test_max_seconds_exit_5(self, capsys):
        code = main(["dy", "tensor", "bk:2", "--r0", "--degree", "2",
                     "--max-seconds", "0.001"])
        assert code == 5


class TestDeterminism:
    def test_reports_byte_identical(self, capsys):
        _, _ = run_cli(capsys, "verify", "bk:2")
        code1 = main(["verify", "bk:2"])
        out1 = capsys.readouterr().out
        code2 = main(["verify", "bk:2"])
        out2 = capsys.readouterr().out
        assert code1 == code2 == 0
        assert out1 == out2

    def test_catalog(self, capsys):
        code, rep = run_cli(capsys, "catalog")
        assert code == 0
        assert any("bk:k" in k for k in rep["results"]["keys"])

    def test_json_out_matches_stdout(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code = main(["verify", "bk:1", "--json-out", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert json.loads(path.read_text()) == json.loads(out)


class TestEntryPoint:
    def test_console_script_runs(self):
        out = subprocess.run([sys.executable, "-m", "hopfdy.cli", "verify", "bk:1"],
                             capture_output=True, text=True)
        assert out.returncode == 0
        assert json.loads(out.stdout)["results"]["valid"] is True
