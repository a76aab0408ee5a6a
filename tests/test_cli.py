import json
import os
import resource
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from hopfdy.cli import _expire, main
from hopfdy.exactlin import BudgetExceededError
from hopfdy.hopfcore import build_bk
from hopfdy.hopffile import hopf_from_json, hopf_to_json, load_hopf, save_hopf, tensor_to_json
from hopfdy.rmatrix import bk_r0

# B_1 as a Hopf file, and R_0 of B_1 as an --rmatrix file
BK1 = hopf_to_json(build_bk(1))
R0_BK1 = tensor_to_json(bk_r0(1, build_bk(1)))


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
        ("generators", [[4, "1"]], None),
        ("generators", [[0, 1.0]], None),
        ("dual_generators", [[4, "1"]], None),
        ("dual_generators", [[0, 1.0]], None),
        # a repeated index tuple, a wrong value before the true one
        ("mult", None, [[0, 0, 0, "5"]] + BK1["mult"]),
        ("comult", None, [[0, 0, 0, "5"]] + BK1["comult"]),
        ("antipode", None, [[0, 0, "5"]] + BK1["antipode"]),
        ("unit", None, [[0, "5"], [0, "1"]]),
        ("counit", None, [[0, "5"]] + BK1["counit"]),
        ("generators", None, [[[1, "5"], [1, "1"]], [[2, "1"]]]),
        # the right unit coefficient 1, but not as -?digits or -?digits/digits
        ("unit", None, [[0, "1.0"]]),
        ("unit", None, [[0, "1e0"]]),
        ("unit", None, [[0, "0_1"]]),
        ("unit", None, [[0, " 1/1 "]]),
        ("unit", None, [[0, "+1/1"]]),
    ], ids=["antipode-identity", "mult-i-neg", "mult-i-high", "mult-k-high",
            "comult-k-high", "unit-high", "counit-neg", "antipode-col-high",
            "counit-float", "dim-float", "dim-string", "dim-bool", "dim-zero", "labels-short",
            "labels-non-string", "labels-not-list", "generators-high", "generators-float",
            "dual-generators-high", "dual-generators-float", "mult-repeated",
            "comult-repeated", "antipode-repeated", "unit-repeated", "counit-repeated",
            "generators-repeated", "unit-decimal", "unit-exponent", "unit-underscore",
            "unit-spaces", "unit-plus"])
    def test_corrupted_file_exit_2_named_axiom(self, capsys, tmp_path, field, extra,
                                               value):
        path = tmp_path / "bad.json"
        data = json.loads(json.dumps(BK1))
        if extra is None:
            data[field] = value
        else:
            data[field].append(extra)  # an index outside 0..3
        path.write_text(json.dumps(data))
        code, rep = run_cli(capsys, "verify", str(path))
        assert code == 2
        assert any(field in v for v in rep["results"]["violations"])

    @pytest.mark.parametrize("corrupt", [False, True], ids=["valid", "x-squared-one"])
    def test_non_spanning_generators_same_report(self, capsys, tmp_path, corrupt):
        # a generator hint that does not span (the unit alone) falls back to
        # the full basis, so the report equals that of the file without it
        data = hopf_to_json(build_bk(1))
        if corrupt:
            data["mult"].append([1, 1, 0, "1"])  # x x = 1 breaks associativity
        del data["generators"]
        reports = []
        for hint in ({}, {"generators": [[[0, "1"]]]}):
            data.update(hint)
            path = tmp_path / "h.json"
            path.write_text(json.dumps(data))
            code, rep = run_cli(capsys, "verify", str(path))
            reports.append((code, rep["results"]))
        assert reports[0] == reports[1]
        assert reports[0][0] == (2 if corrupt else 0)

    def test_unparseable_exit_2(self, capsys, tmp_path):
        path = tmp_path / "junk.json"
        for text, named in [('{"format_version": 1, "dim": "zebra"}', "zebra"),
                            ("not JSON {", "unparseable Hopf file")]:
            path.write_text(text)
            code, rep = run_cli(capsys, "verify", str(path))
            assert code == 2
            assert named in rep["results"]["violations"][0]

    @pytest.mark.parametrize("labels", [True, False], ids=["labels", "no-labels"])
    @pytest.mark.parametrize("dim", [2 ** 70, 5000], ids=["2**70", "5000"])
    def test_dim_over_bound_exit_2(self, tmp_path, dim, labels):
        # refused before anything is built per dimension; the subprocess runs
        # under a memory limit, since such a dim used to exhaust memory
        data = json.loads((Path(__file__).parent / "data" / "bk_1_basis_f3.json").read_text())
        data["dim"] = dim
        if not labels:
            del data["basis_labels"]
        path = tmp_path / "big.json"
        path.write_text(json.dumps(data))
        t0 = time.monotonic()
        out = subprocess.run([sys.executable, "-m", "hopfdy.cli", "verify", str(path)],
                             capture_output=True, text=True, timeout=60,
                             preexec_fn=lambda: resource.setrlimit(
                                 resource.RLIMIT_AS, (1 << 30, 1 << 30)))
        assert time.monotonic() - t0 < 1
        assert out.returncode == 2, out.stderr
        assert "dim %d is not an integer in 1..1024" % dim in out.stdout

    def test_deadline_while_parsing_is_not_a_malformed_file(self, monkeypatch):
        import hopfdy.hopffile as hopffile

        def expire(*args):
            raise BudgetExceededError("deadline")

        monkeypatch.setattr(hopffile, "_entries", expire)
        with pytest.raises(BudgetExceededError):
            hopf_from_json(hopf_to_json(build_bk(1)))

    @pytest.mark.parametrize("key", ["bk:x", "cyclic:x", "bk:"])
    def test_malformed_catalog_key_exit_2(self, capsys, key):
        code, rep = run_cli(capsys, "verify", key)
        assert code == 2 and rep is None

    @pytest.mark.parametrize("key", ["bk:40", "cyclic:1025"])
    def test_catalog_key_over_bound_exit_2(self, capsys, key):
        # refused before any structure constants are built
        t0 = time.time()
        code, rep = run_cli(capsys, "verify", key)
        assert code == 2 and rep is None
        assert time.time() - t0 < 5


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
        assert H2.algebra.generators == H.algebra.generators
        assert H2.dual_generator_hint == H.dual_generator_hint

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
        (["rmatrix", "check", "bk:1", "--rmatrix"], [[[0, 0], "7"]] + R0_BK1,
         "tensor entry [[0, 0], '1/2'] repeats"),
        (["crosscheck", "dimension-formula", "bk:1", "--lambda"], [["0.5"]], "'0.5'"),
        (["crosscheck", "dimension-formula", "bk:1", "--lambda"], [["1e3"]], "'1e3'"),
        (["crosscheck", "dimension-formula", "bk:1", "--lambda"], [["1_000"]], "'1_000'"),
        (["crosscheck", "dimension-formula", "bk:1", "--lambda"], [[" 3/4 "]], "' 3/4 '"),
        (["crosscheck", "dimension-formula", "bk:1", "--lambda"], [["+3/4"]], "'+3/4'"),
        (["crosscheck", "dimension-formula", "bk:1", "--lambda"], [["3/0"]], "'3/0'"),
    ], ids=["index-high", "key-length", "value-not-rational", "lambda-1x2", "value-infinity",
            "lambda-float", "dy-index-high", "not-json", "lambda-missing", "key-repeated",
            "lambda-decimal", "lambda-exponent", "lambda-underscore", "lambda-spaces",
            "lambda-plus", "lambda-zero-denominator"])
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

    @pytest.mark.parametrize("name", ["bk:x", "bk:1"])
    def test_file_named_like_a_catalog_key_is_no_bk_source(self, capsys, tmp_path,
                                                            monkeypatch, name):
        """A Hopf file is never read as a bk:k key, even when its name is one:
        --r0 refuses it with exit 3."""
        monkeypatch.chdir(tmp_path)
        save_hopf(build_bk(1), name)
        code = main(["rmatrix", "check", name, "--r0"])
        out, err = capsys.readouterr()
        assert code == 3 and out == ""
        assert "requires a bk:k source" in err


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
        code, rep = run_cli(capsys, "crosscheck", "kunneth", "bk:1", "--degree", "2")
        assert code == 0
        assert rep["results"]["equal"] and rep["results"]["product_ext"] == 2
        assert rep["results"]["product_resolution_ok"] is True
        assert rep["results"]["product_resolution_violations"] == []

    @pytest.mark.parametrize("argv", [
        "crosscheck kunneth bk:1 --degree -1",
        "crosscheck adjunction-res bk:2 --sub bk:1 --degree 9",
        "relext bk:1 --degree 5",
        "dy id bk:1 --degree -1",
    ])
    def test_degree_outside_budget_exit_4(self, capsys, argv):
        assert main(argv.split()) == 4
        assert capsys.readouterr().out == ""

    def test_adjunction_res_oversized_ambient_exit_5_before_basis_work(self, capsys,
                                                                       monkeypatch):
        # delta^4 of the restriction complex of B_3 lands in H^{ox 5}, dim 16^5
        import hopfdy.double
        monkeypatch.setattr(hopfdy.double, "drinfeld_double", None)
        code = main(["crosscheck", "adjunction-res", "bk:3", "--sub", "bk:1",
                     "--degree", "4"])
        assert code == 5
        assert capsys.readouterr().out == ""

    def test_budget_exceeded_exit_5(self, capsys):
        code = main(["crosscheck", "adjunction-tensor", "bk:1", "--r0",
                     "--degree", "3"])
        assert code == 5


class TestMaxSeconds:
    """--max-seconds stops a command wherever it is.  The budgeted runs go in
    a subprocess, so that an expiry cannot leave half-built state in the
    catalog algebras that the other tests share."""

    # each budgeted part outlasts its budget at least 4x on a 2-core VM
    # (1.15-1.8 s, 0.8-1.5 s and 0.6 s), so a faster machine still expires
    @pytest.mark.parametrize("argv,budget", [
        ("dy tensor bk:2 --lambda {data}/lambda_bk2.json --degree 2", 0.2),
        ("crosscheck kunneth bk:1 --degree 3", 0.1),
        ("dy tensor bk:2 --r0 --degree 2", 0.001),
    ], ids=["dy-lambda-bk2", "kunneth-bk1", "dy-r0-bk2"])
    def test_max_seconds_exit_5(self, argv, budget):
        t0 = time.monotonic()
        data = Path(__file__).parent / "data"
        out = subprocess.run([sys.executable, "-m", "hopfdy.cli",
                              *argv.format(data=data).split(), "--max-seconds", str(budget)],
                             capture_output=True, text=True)
        assert out.returncode == 5, out.stderr
        assert out.stdout == ""
        assert time.monotonic() - t0 < budget + 1.5

    def test_timer_disarmed_and_handler_restored(self, capsys):
        previous = signal.getsignal(signal.SIGALRM)
        assert main(["verify", "bk:1", "--max-seconds", "60"]) == 0
        assert json.loads(capsys.readouterr().out)["results"]["valid"] is True
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
        assert signal.getsignal(signal.SIGALRM) is previous

    def test_expiry_waits_for_an_import_to_finish(self, tmp_path, monkeypatch):
        # raised inside an import, the error would leave the module half-run
        (tmp_path / "slow_budget_module.py").write_text(
            "import time\ntime.sleep(0.2)\nDONE = True\n")
        monkeypatch.syspath_prepend(str(tmp_path))
        monkeypatch.delitem(sys.modules, "slow_budget_module", raising=False)
        previous = signal.signal(signal.SIGALRM, _expire)
        try:
            signal.setitimer(signal.ITIMER_REAL, 0.05)
            with pytest.raises(BudgetExceededError):
                import slow_budget_module  # noqa: F401
                time.sleep(5)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert sys.modules.pop("slow_budget_module").DONE

    @pytest.mark.parametrize("value", ["-1", "nan", "inf", "-inf", "1e300", "soon"])
    def test_invalid_budget_is_a_usage_error(self, capsys, value):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "bk:1", "--max-seconds", value])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    def test_zero_means_no_budget(self, capsys):
        previous = signal.getsignal(signal.SIGALRM)
        code, rep = run_cli(capsys, "verify", "bk:1", "--max-seconds", "0")
        assert code == 0 and rep["results"]["valid"] is True
        assert signal.getsignal(signal.SIGALRM) is previous


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

    @pytest.mark.parametrize("where", ["missing-directory", "a-directory"])
    def test_json_out_that_cannot_be_written_is_a_usage_error(self, capsys, tmp_path,
                                                               where):
        path = tmp_path / "missing" / "x.json" if where == "missing-directory" else tmp_path
        with pytest.raises(SystemExit) as exc:
            main(["verify", "bk:1", "--json-out", str(path)])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""


class TestUsage:
    @pytest.mark.parametrize("argv", [
        "rmatrix tangent bk:1 --lambda {data}/lambda_37_41.json --r0",
        "dy tensor bk:1 --r0 --trivial-r",
        "crosscheck dimension-formula bk:1 --rmatrix {data}/r.json --lambda {data}/l.json",
        "verify bk:1 --sub bk:2",
        "double bk:1 --sub bk:1",
        "rmatrix check bk:1 --r0 --sub bk:1",
        "verify bk:1 --resolution bar",
        "double bk:2 --resolution cover",
        "dy id bk:1 --resolution bar",
    ], ids=["lambda-and-r0", "r0-and-trivial", "rmatrix-and-lambda", "verify-sub",
            "double-sub", "rmatrix-sub", "verify-resolution", "double-resolution",
            "dy-resolution"])
    def test_unread_or_competing_options_are_usage_errors(self, capsys, argv):
        """Two R-matrix sources, or --sub and --resolution on a command that
        does not read them, exit 2 before any work and print no report."""
        data = Path(__file__).parent / "data"
        with pytest.raises(SystemExit) as exc:
            main(argv.format(data=data).split())
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""


class TestEntryPoint:
    def test_console_script_runs(self):
        out = subprocess.run([sys.executable, "-m", "hopfdy.cli", "verify", "bk:1"],
                             capture_output=True, text=True)
        assert out.returncode == 0
        assert json.loads(out.stdout)["results"]["valid"] is True

    # runs `python -m hopfdy.cli ARGS` and prints, at exit, what it imported and
    # the OPENBLAS_NUM_THREADS value in force
    WRAPPER = ("import atexit, json, os, runpy, sys\n"
               "atexit.register(lambda: print(json.dumps({\n"
               "    'modules': sorted(m for m in sys.modules if m.startswith('hopfdy.')\n"
               "                      or m in ('numpy', 'hashlib')),\n"
               "    'blas': os.environ.get('OPENBLAS_NUM_THREADS')}), file=sys.stderr))\n"
               "runpy.run_module('hopfdy.cli', run_name='__main__')\n")

    @pytest.mark.parametrize("preset", [None, "2"])
    def test_dimension_formula_imports_only_what_it_runs(self, preset):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        if preset:
            env["OPENBLAS_NUM_THREADS"] = preset
        lam = Path(__file__).parent / "data" / "lambda_37_41.json"
        out = subprocess.run([sys.executable, "-c", self.WRAPPER, "crosscheck",
                              "dimension-formula", "bk:1", "--lambda", str(lam)],
                             capture_output=True, text=True, env=env)
        assert out.returncode == 0, out.stderr
        assert json.loads(out.stdout)["results"]["consistent"] is True
        seen = json.loads(out.stderr.splitlines()[-1])
        assert "numpy" in seen["modules"] and "hopfdy.slotkernel" in seen["modules"]
        for m in ("hopfdy.double", "hopfdy.relext", "hashlib"):
            assert m not in seen["modules"]
        assert seen["blas"] == (preset or "1")
