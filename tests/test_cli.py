"""Command-line interface: exit codes, file formats, JSON output."""

import contextlib
import io
import json
import os
import tempfile
import time

import pytest
from hypothesis import given, settings, strategies as st

from ihcalc import cli
from ihcalc.catalog import catalog_build
from ihcalc.cli import main, parse_coefficients
from ihcalc.exactalg import PrimeField, coeff_from_label
from ihcalc.ihcore import Perversity, ih_homology

# suspension of a triangle circle: a 2-sphere with the poles (3 and 4)
# marked as the 0-skeleton
SUSP_S1 = {
    "dimension": 2,
    "maximal_simplices": [
        [0, 1, 3], [1, 2, 3], [0, 2, 3],
        [0, 1, 4], [1, 2, 4], [0, 2, 4],
    ],
    "skeleta": {"0": [[3], [4]]},
}

# S2 with the point strata 0 and 1, whose edge [0, 1] is not in X^0
NOT_FULL_SPACE = {
    "dimension": 2,
    "maximal_simplices": [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]],
    "skeleta": {"0": [[0], [1]]},
}

# a circle given formal dimension 3
LOW_SPACE = {"dimension": 3, "maximal_simplices": [[0, 1], [1, 2], [0, 2]]}

# a triangle with a free edge: not a pseudomanifold
BAD_SPACE = {
    "dimension": 2,
    "maximal_simplices": [[0, 1, 2], [2, 3, 4], [4, 5]],
}


@pytest.fixture
def space_file(tmp_path):
    p = tmp_path / "susp.json"
    p.write_text(json.dumps(SUSP_S1))
    return str(p)


@pytest.fixture
def bad_space_file(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(BAD_SPACE))
    return str(p)


def json_file(tmp_path, doc, name="gram.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


class TestExitCodes:
    def test_success(self, capsys):
        assert main(["compute", "--catalog", "S2"]) == 0

    def test_unknown_catalog(self, capsys):
        assert main(["compute", "--catalog", "nope"]) == 2

    def test_bad_coefficients(self, capsys):
        assert main(["compute", "--catalog", "S2", "--coeff", "Zp:4"]) == 2
        assert main(["compute", "--catalog", "S2", "--coeff", "R"]) == 2

    @pytest.mark.parametrize("spec", ["R", "Zp:", "Zp:x", "Zp:3:1", "Fq:2", "Fq:2:2:", "Z:", "Q:1", "Fq:a:2"])
    def test_coefficient_spec_of_the_wrong_shape(self, capsys, spec):
        assert main(["compute", "--catalog", "S2", "--coeff", spec]) == 2
        assert f"bad coefficient spec {spec!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("spec,label", [
        ("Q", "Q"), ("Z", "Z"), ("Zp:3", "Z3"), (" Zp:5 ", "Z5"), ("Fq:2:2", "F2^2"),
        ("Fq:3:2", "F3^2"), ("Fq:5:1", "F5^1"), ("Zp:+7", "Z7"),
    ])
    def test_coefficient_spec_reads_as_its_label(self, spec, label):
        ring, want = parse_coefficients(spec), coeff_from_label(label)
        assert type(ring) is type(want) and ring.label == want.label

    def test_invalid_perversity(self, capsys):
        r = main(["compute", "--catalog", "cone_RP2", "--perversity", "p:0,2"])
        assert r == 3

    def test_strict_non_pseudomanifold(self, bad_space_file, capsys):
        r = main(["compute", "--space", bad_space_file, "--strict"])
        assert r == 4
        # the free edge is the first failure verify_pseudomanifold lists
        assert "at [4, 5]" in capsys.readouterr().err
        # without --strict the computation proceeds
        assert main(["compute", "--space", bad_space_file]) == 0

    def test_witt_check_non_pseudomanifold_without_strict(self, bad_space_file, capsys):
        assert main(["witt-check", "--space", bad_space_file]) == 4
        assert "at [4, 5]" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["compute", "--strict"], ["witt-check"], ["witt-check", "--strict"],
    ], ids=["compute-strict", "witt-check", "witt-check-strict"])
    def test_below_formal_dimension_names_a_facet(self, tmp_path, capsys, argv):
        f = json_file(tmp_path, LOW_SPACE, "low.json")
        assert main([*argv, "--space", f]) == 4
        assert capsys.readouterr().err == (
            "error: input is not a pseudomanifold: failed dimensional homogeneity at [0, 1]\n")

    @pytest.mark.parametrize("argv", [
        ["compute", "--perversity", "0", "--coeff", "Q", "--strict"],
        ["compute", "--perversity", "0", "--coeff", "Z"],
        ["witt-check"],
    ], ids=["compute-Q", "compute-Z", "witt-check"])
    def test_skeleton_not_full(self, tmp_path, capsys, argv):
        f = json_file(tmp_path, NOT_FULL_SPACE, "not_full.json")
        assert main([argv[0], "--space", f, *argv[1:]]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == (
            "error: skeleton 0 is not a full subcomplex: "
            "[0, 1] lies on its vertices but not in it\n")

    def test_degenerate_matrix(self, tmp_path, capsys):
        f = json_file(tmp_path, {"dimension": 1, "entries": ["0"]})
        r = main(["witt-class", "--matrix", f, "--field", "Zp:3"])
        assert r == 5

    def test_missing_space_file(self, capsys):
        assert main(["compute", "--space", "/does/not/exist.json"]) == 2

    @pytest.mark.parametrize("vertex", [0.5, True])
    def test_non_integer_vertex(self, tmp_path, capsys, vertex):
        # 0.5 used to be truncated to the vertex 0, True read as 1
        p = tmp_path / "float.json"
        p.write_text(json.dumps({"dimension": 1,
                                 "maximal_simplices": [[0, vertex]]}))
        assert main(["compute", "--space", str(p)]) == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("key", ["-1", "3"])
    def test_skeleton_key_outside_dimension(self, tmp_path, capsys, key):
        p = tmp_path / "skel.json"
        p.write_text(json.dumps({**SUSP_S1, "skeleta": {key: [[0]]}}))
        assert main(["compute", "--space", str(p)]) == 2
        err = capsys.readouterr().err
        assert f"skeleton key '{key}'" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("skeleta", [[[0]], "01", 5])
    def test_skeleta_not_an_object(self, tmp_path, capsys, skeleta):
        p = tmp_path / "skel.json"
        p.write_text(json.dumps({**SUSP_S1, "skeleta": skeleta}))
        assert main(["compute", "--space", str(p)]) == 2
        err = capsys.readouterr().err
        assert "skeleta must be an object" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "doc",
        [
            # a filled triangle and a solid tetrahedron, each declared one
            # dimension too low
            {"dimension": 1, "maximal_simplices": [[0, 1, 2]]},
            {"dimension": 2, "maximal_simplices": [[0, 1, 2, 3]]},
            {**SUSP_S1, "skeleta": {"0": [[3, 4]]}},
        ],
    )
    def test_simplex_above_its_dimension(self, tmp_path, capsys, doc):
        p = tmp_path / "low.json"
        p.write_text(json.dumps(doc))
        assert main(["compute", "--space", str(p), "--coeff", "Q"]) == 2
        assert "dimension above" in capsys.readouterr().err

    @pytest.mark.parametrize("doc, what", [
        # the strings used to be read as the triangles 012, 023, ...
        ({"dimension": 2, "maximal_simplices": ["012", "023", "013", "123"]},
         "a simplex must be a JSON array"),
        # and this one as four points
        ({"dimension": 2, "maximal_simplices": "0123"},
         "a list of simplices must be a JSON array"),
        ({"dimension": 2, "maximal_simplices": {"0": [0, 1, 2]}},
         "a list of simplices must be a JSON array"),
        ({**SUSP_S1, "skeleta": {"0": "34"}}, "a list of simplices must be a JSON array"),
        ({**SUSP_S1, "skeleta": {"0": ["3", "4"]}}, "a simplex must be a JSON array"),
    ])
    def test_simplices_must_be_arrays(self, tmp_path, capsys, doc, what):
        p = json_file(tmp_path, doc, "strings.json")
        assert main(["compute", "--space", p, "--coeff", "Q"]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: bad space file {p}: {what}\n"
        assert not captured.out

    def test_null_skeleton_stays_empty(self, tmp_path, capsys):
        # a null skeleton is the empty one, as an empty list is
        tables = []
        for gens in (None, []):
            p = json_file(tmp_path, {**SUSP_S1, "skeleta": {"0": gens}}, "null.json")
            assert main(["compute", "--space", p, "--json"]) == 0
            tables.append(json.loads(capsys.readouterr().out)["table"])
        assert tables[0] == tables[1]

    def test_dimension_above_the_bound(self, tmp_path, capsys):
        # one 29-simplex would list 2^30 faces
        p = tmp_path / "d29.json"
        p.write_text(json.dumps({"dimension": 29, "maximal_simplices": [list(range(30))]}))
        start = time.perf_counter()
        assert main(["compute", "--space", str(p), "--coeff", "Zp:2"]) == 2
        assert time.perf_counter() - start < 1
        assert "dimension 29 is above 12" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["compute", "--catalog", "S2", "--coeff", "Zp:2305843009213693951"],
            ["bordism", "--n", "4", "--p", "2305843009213693951"],
        ],
    )
    def test_large_prime(self, capsys, argv):
        # 2^61 - 1
        start = time.perf_counter()
        assert main(argv) == 0
        assert time.perf_counter() - start < 1

    def test_prime_above_the_bound(self, capsys):
        assert main(["compute", "--catalog", "S2", "--coeff", "Zp:18446744073709551629"]) == 2
        assert "not below 2^64" in capsys.readouterr().err

    def test_field_above_the_bound(self, capsys):
        start = time.perf_counter()
        assert main(["compute", "--catalog", "S2", "--coeff", "Fq:2:64"]) == 2
        assert time.perf_counter() - start < 1
        err = capsys.readouterr().err
        assert "more than 65536 elements" in err
        assert "Traceback" not in err
        assert main(["compute", "--catalog", "S2", "--coeff", "Fq:2:16"]) == 0

    def test_subdivision_above_the_bound(self, tmp_path, capsys):
        # boundary of the 8-simplex: 9 facets, 9 * 8! = 362880 simplices
        # after one subdivision
        p = tmp_path / "d8.json"
        facets = [[v for v in range(9) if v != w] for w in range(9)]
        p.write_text(json.dumps({"dimension": 7, "maximal_simplices": facets}))
        start = time.perf_counter()
        r = main(["compute", "--space", str(p), "--normalize-triangulation"])
        assert r == 2
        assert time.perf_counter() - start < 1
        assert "362880 top simplices" in capsys.readouterr().err


class TestCompute:
    def test_space_file_table(self, space_file, capsys):
        assert main(["compute", "--space", space_file, "--coeff", "Q",
                     "--perversity", "m", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        degrees = doc["table"]["degrees"]
        assert [degrees[str(i)]["dimension"] for i in range(3)] == [1, 0, 1]

    def test_integral_catalog(self, capsys):
        assert main(["compute", "--catalog", "cone_RP2", "--coeff", "Z",
                     "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["table"]["degrees"]["1"]["group"] == "Z/2"

    def test_formula_entry(self, capsys):
        assert main(["compute", "--catalog", "Uhat_S2", "--coeff", "Zp:3",
                     "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        degrees = doc["table"]["degrees"]
        assert [degrees[str(i)]["dimension"] for i in range(5)] == [1, 0, 0, 0, 1]

    def test_formula_entry_rejects_integral(self, capsys):
        assert main(["compute", "--catalog", "Uhat_S2", "--coeff", "Z"]) == 2

    @pytest.mark.parametrize("flags", [
        ["--strict"],
        ["--normalize-triangulation"],
        ["--strict", "--normalize-triangulation"],
    ], ids=["strict", "normalize", "both"])
    def test_formula_entry_rejects_triangulation_flags(self, flags, capsys):
        # neither flag can apply to a space given by a formula
        assert main(["compute", "--catalog", "X8_SY", "--coeff", "Q"] + flags) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error:") and "Traceback" not in err
        assert all(flag in err for flag in flags)

    def test_normalize_triangulation(self, space_file, capsys):
        assert main(["compute", "--space", space_file,
                     "--normalize-triangulation", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        degrees = doc["table"]["degrees"]
        assert [degrees[str(i)]["dimension"] for i in range(3)] == [1, 0, 1]

    def test_normalize_triangulation_fills_the_skeleta(self, tmp_path, capsys):
        f = json_file(tmp_path, NOT_FULL_SPACE, "not_full.json")
        assert main(["compute", "--space", f, "--perversity", "0", "--coeff", "Q",
                     "--strict", "--normalize-triangulation"]) == 0
        assert capsys.readouterr().out.splitlines()[1:] == [
            "  H_0 = Q", "  H_1 = 0", "  H_2 = Q"]

    @pytest.mark.parametrize("spec,perversity", [
        ("0", Perversity.zero), ("m", Perversity.lower_middle),
        ("n", Perversity.upper_middle), ("t", Perversity.top),
    ])
    @pytest.mark.parametrize("name,coeff", [("cone_RP2", "Z"), ("S_RP2", "Zp:2")])
    def test_named_perversities(self, capsys, spec, perversity, name, coeff):
        assert main(["compute", "--catalog", name, "--perversity", spec,
                     "--coeff", coeff, "--json"]) == 0
        X = catalog_build(name)
        want = ih_homology(X, perversity(X.n), parse_coefficients(coeff))
        assert json.loads(capsys.readouterr().out)["table"] == want.as_dict()

    def test_json_deterministic(self, capsys):
        main(["compute", "--catalog", "S_RP2", "--coeff", "Zp:2", "--json"])
        first = capsys.readouterr().out
        main(["compute", "--catalog", "S_RP2", "--coeff", "Zp:2", "--json"])
        second = capsys.readouterr().out
        assert first == second

    def test_text_output_lists_groups(self, capsys):
        main(["compute", "--catalog", "T2", "--coeff", "Z"])
        out = capsys.readouterr().out
        assert "H_1 = Z^2" in out

    def test_extension_field_powers_are_bracketed(self, capsys):
        assert main(["compute", "--catalog", "T2", "--coeff", "Fq:3:2"]) == 0
        out = capsys.readouterr().out
        assert "coefficients F3^2" in out
        assert "H_1 = (F3^2)^2" in out
        assert "H_2 = F3^2" in out


class TestWittCheck:
    def test_multiple_coefficients(self, capsys):
        assert main(["witt-check", "--catalog", "S_RP2",
                     "--coeff", "Q,Zp:2,Zp:3", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        verdicts = {r["coefficients"]: r["passes"] for r in doc["results"]}
        assert verdicts == {"Q": True, "Z2": False, "Z3": True}
        assert all(not r["oriented"] for r in doc["results"])

    def test_check_all_links_same_verdict(self, capsys):
        main(["witt-check", "--catalog", "S_RP2", "--coeff", "Zp:2", "--json"])
        base = json.loads(capsys.readouterr().out)
        main(["witt-check", "--catalog", "S_RP2", "--coeff", "Zp:2",
              "--check-all-links", "--json"])
        alt = json.loads(capsys.readouterr().out)
        assert base["results"][0]["passes"] == alt["results"][0]["passes"]
        assert all(c["all_links_agree"] for c in alt["results"][0]["checks"])

    def test_space_is_verified_once(self, capsys, monkeypatch):
        # one pseudomanifold check serves every field of the list
        from ihcalc import witt
        calls = []
        for module in (cli, witt):
            real = module.verify_pseudomanifold
            monkeypatch.setattr(module, "verify_pseudomanifold",
                                lambda X, real=real: calls.append(X) or real(X))
        assert main(["witt-check", "--catalog", "S_RP2",
                     "--coeff", "Q,Zp:2,Fq:2:2"]) == 0
        assert len(calls) == 1
        assert capsys.readouterr().out.splitlines() == [
            "Witt condition for S_RP2 (oriented=False, irreducible=True)",
            "  Q: pass (stratum dim 0: middle IH dim 0; stratum dim 0: middle IH dim 0)",
            "  Z2: fail (stratum dim 0: middle IH dim 1; stratum dim 0: middle IH dim 1)",
            "  F2^2: fail (stratum dim 0: middle IH dim 1; stratum dim 0: middle IH dim 1)",
        ]

    def test_strict_space_is_verified_once(self, capsys, monkeypatch):
        # the report --strict makes is the one the Witt check reads
        from ihcalc import witt
        catalog_build("SJ_L3")
        calls = []
        for module in (cli, witt):
            real = module.verify_pseudomanifold
            monkeypatch.setattr(module, "verify_pseudomanifold",
                                lambda X, real=real: calls.append(X) or real(X))
        assert main(["witt-check", "--catalog", "SJ_L3",
                     "--coeff", "Q,Zp:3,Fq:3:2", "--strict"]) == 0
        assert len(calls) == 1
        assert capsys.readouterr().out.splitlines() == [
            "Witt condition for SJ_L3 (oriented=True, irreducible=True)",
            "  Q: pass (stratum dim 0: middle IH dim 0; stratum dim 0: middle IH dim 0)",
            "  Z3: fail (stratum dim 0: middle IH dim 2; stratum dim 0: middle IH dim 2)",
            "  F3^2: fail (stratum dim 0: middle IH dim 2; stratum dim 0: middle IH dim 2)",
        ]

    def test_integral_rejected(self, capsys):
        assert main(["witt-check", "--catalog", "S_RP2", "--coeff", "Z"]) == 2

    def test_text_lists_each_odd_codimension_stratum(self, capsys):
        assert main(["witt-check", "--catalog", "S_RP2", "--coeff", "Q,Zp:2"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "Witt condition for S_RP2 (oriented=False, irreducible=True)",
            "  Q: pass (stratum dim 0: middle IH dim 0; stratum dim 0: middle IH dim 0)",
            "  Z2: fail (stratum dim 0: middle IH dim 1; stratum dim 0: middle IH dim 1)",
        ]

    def test_manifold_vacuous(self, capsys):
        assert main(["witt-check", "--catalog", "T2", "--coeff", "Q"]) == 0
        out = capsys.readouterr().out
        assert "no odd-codimension strata" in out


class TestWittClass:
    def test_identity_shorthand(self, capsys):
        assert main(["witt-class", "--matrix", "I2", "--field", "Zp:3",
                     "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["class"]["dim0"] == 0
        assert doc["class"]["dpm"] == "nonsquare"

    def test_rational_signature(self, tmp_path, capsys):
        f = json_file(tmp_path, {
            "dimension": 2,
            "entries": ["1", "0", "0", "-1/2"],
        })
        assert main(["witt-class", "--matrix", f, "--field", "Q",
                     "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["class"]["signature"] == 0
        assert doc["class"]["identity"]

    def test_poly_entries(self, tmp_path, capsys):
        # the generator of F9 is a square there
        f = json_file(tmp_path, {"dimension": 1, "entries": ["poly:0,1"]})
        assert main(["witt-class", "--matrix", f, "--field", "Fq:3:2",
                     "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["class"]["dim0"] == 1
        assert doc["class"]["dpm"] == "square"

    def test_poly_needs_extension_field(self, tmp_path, capsys):
        f = json_file(tmp_path, {"dimension": 1, "entries": ["poly:0,1"]})
        assert main(["witt-class", "--matrix", f, "--field", "Zp:3"]) == 2

    def test_wrong_entry_count(self, tmp_path, capsys):
        f = json_file(tmp_path, {"dimension": 2, "entries": ["1", "0", "0"]})
        assert main(["witt-class", "--matrix", f, "--field", "Zp:3"]) == 2

    def test_fraction_needs_rationals(self, tmp_path, capsys):
        f = json_file(tmp_path, {"dimension": 1, "entries": ["1/2"]})
        assert main(["witt-class", "--matrix", f, "--field", "Zp:3"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_zero_denominator(self, tmp_path, capsys):
        f = json_file(tmp_path, {"dimension": 1, "entries": ["1/0"]})
        assert main(["witt-class", "--matrix", f, "--field", "Q"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("entry", [1.5, True])
    def test_non_integer_entry(self, tmp_path, capsys, entry):
        # 1.5 used to be read as 1, True as 1
        f = json_file(tmp_path, {"dimension": 1, "entries": [entry]})
        assert main(["witt-class", "--matrix", f, "--field", "Zp:3"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("doc, what", [
        # the string used to be read as the matrix [[5]]
        ({"dimension": 1, "entries": "5"}, "entries must be a JSON array"),
        ({"dimension": 1, "entries": {"0": "5"}}, "entries must be a JSON array"),
        # and this as the empty form, the trivial class
        ({"dimension": -1, "entries": ["5"]}, "dimension -1 is negative"),
    ])
    def test_malformed_matrix_file(self, tmp_path, capsys, doc, what):
        f = json_file(tmp_path, doc)
        assert main(["witt-class", "--matrix", f, "--field", "Zp:3"]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: bad matrix file {f}: {what}\n"
        assert not captured.out

    @pytest.mark.parametrize("spec", ["I1001", "I01001", "I" + "9" * 5000])
    def test_identity_above_the_bound(self, monkeypatch, capsys, spec):
        def refuse(*args, **kw):
            raise AssertionError("an oversized identity was built")

        monkeypatch.setattr(cli, "BilinearForm", refuse)
        start = time.perf_counter()
        assert main(["witt-class", "--matrix", spec, "--field", "Zp:3"]) == 2
        assert time.perf_counter() - start < 1
        assert "limited to I1000" in capsys.readouterr().err

    def test_identity_needs_a_decimal_numeral(self, capsys):
        # "²" is a digit to str.isdigit but not a numeral to int()
        assert main(["witt-class", "--matrix", "I²", "--field", "Q"]) == 2
        assert "cannot read matrix file" in capsys.readouterr().err

    def test_identity_at_the_bound(self, monkeypatch):
        # the largest identity is still built; the stub stands in for
        # the form, whose classification is not under test here
        monkeypatch.setattr(cli, "BilinearForm", lambda rows, field: len(rows))
        assert cli.load_gram_matrix("I1000", PrimeField(3)) == 1000
        assert cli.load_gram_matrix("I0", PrimeField(3)) == 0


# files that json.load refuses with something other than JSONDecodeError
UNDECODABLE = {
    "long-numeral": b"[" + b"9" * 5000 + b"]",
    "utf16-bom": b"\xff\xfe" + '{"dimension": 1}'.encode("utf-16-le"),
    "deep-nesting": b"[" * 200_000,
}


@pytest.mark.parametrize("payload", UNDECODABLE.values(), ids=UNDECODABLE)
@pytest.mark.parametrize("command", [
    ["compute", "--space"],
    ["witt-class", "--field", "Q", "--matrix"],
], ids=["compute", "witt-class"])
def test_undecodable_file_exits_2(tmp_path, capsys, command, payload):
    p = tmp_path / "doc.json"
    p.write_bytes(payload)
    assert main(command + [str(p)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: cannot read") and "Traceback" not in err


class TestBordism:
    def test_point_groups(self, capsys):
        assert main(["bordism", "--n", "4", "--p", "3", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["group"]["torsion"] == [4]
        main(["bordism", "--n", "4", "--p", "5", "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["group"]["torsion"] == [2, 2]
        main(["bordism", "--n", "6", "--p", "3", "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["group"]["description"] == "0"

    def test_composite_prime_rejected(self, capsys):
        assert main(["bordism", "--n", "4", "--p", "6"]) == 2

    def test_huge_degree_with_space(self, tmp_path, capsys):
        circle = {"dimension": 1,
                  "maximal_simplices": [[0, 1], [1, 2], [0, 2]]}
        p = tmp_path / "s1.json"
        p.write_text(json.dumps(circle))
        start = time.perf_counter()
        assert main(["bordism", "--n", str(10**12 + 1), "--p", "3",
                     "--space", str(p), "--json"]) == 0
        assert time.perf_counter() - start < 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["group"]["torsion"] == [4]

    def test_negative_degree_is_trivial(self, capsys):
        assert main(["bordism", "--n", "-4", "--p", "3", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["group"]["description"] == "0"

    def test_splitting_from_space(self, tmp_path, capsys):
        circle = {"dimension": 1,
                  "maximal_simplices": [[0, 1], [1, 2], [0, 2]]}
        p = tmp_path / "s1.json"
        p.write_text(json.dumps(circle))
        assert main(["bordism", "--n", "5", "--p", "3",
                     "--space", str(p), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["group"]["torsion"] == [4]


class TestCatalogCommand:
    def test_lists_all_entries(self, capsys):
        assert main(["catalog", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        names = {e["name"] for e in doc["entries"]}
        assert {"S2", "CP2", "L3_1", "SJ_L3", "X8_SY"} <= names
        assert all(e["kind"] in ("triangulated", "formula")
                   for e in doc["entries"])

    def test_text_listing(self, capsys):
        assert main(["catalog"]) == 0
        out = capsys.readouterr().out
        assert "L3_1" in out and "dim 3" in out


@pytest.mark.parametrize("argv", [
    ["compute", "--catalog", "S2"],
    ["witt-check", "--catalog", "S2"],
    ["witt-class", "--matrix", "I2", "--field", "Zp:3"],
    ["bordism", "--n", "4", "--p", "3"],
    ["catalog"],
], ids=lambda argv: argv[0])
def test_json_names_its_subcommand(capsys, argv):
    assert main([*argv, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["command"] == argv[0]


SIMPLEX = st.lists(st.integers(0, 5), min_size=1, max_size=4)
SPACE_DOC = st.one_of(
    st.fixed_dictionaries(
        {
            "dimension": st.integers(-1, 4),
            "maximal_simplices": st.lists(SIMPLEX, min_size=1, max_size=5),
        },
        optional={
            "skeleta": st.dictionaries(
                st.sampled_from(["-1", "0", "1", "2", "3", "x"]),
                st.lists(SIMPLEX, max_size=2),
                max_size=3,
            )
            | st.lists(SIMPLEX, max_size=2)
            | st.text(max_size=3)
            | st.integers(-1, 3)
        },
    ),
    st.recursive(
        st.none() | st.booleans() | st.integers(-3, 9) | st.floats() | st.text(max_size=3),
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.sampled_from(["dimension", "maximal_simplices", "skeleta"]), inner),
        max_leaves=6,
    ),
)
PRIME_ISH = st.integers(-2, 60)
COEFF_SPEC = st.one_of(
    st.sampled_from(["Q", "Z", "", "Zp:", "Fq:2", "Fq:a:b", "F9"]),
    st.builds("Zp:{}".format, PRIME_ISH),
    st.builds("Fq:{}:{}".format, PRIME_ISH, st.integers(-1, 64)),
    st.text(max_size=6),
)
PERVERSITY_SPEC = st.one_of(
    st.sampled_from(["0", "m", "n", "t", "p:", "p:x", "q"]),
    st.lists(st.integers(-2, 4), max_size=4).map(
        lambda vs: "p:" + ",".join(map(str, vs))
    ),
    st.text(max_size=4),
)


@settings(max_examples=60, deadline=None)
@given(
    doc=SPACE_DOC,
    command=st.sampled_from(["compute", "witt-check"]),
    coeff=COEFF_SPEC,
    perversity=PERVERSITY_SPEC,
    flags=st.lists(
        st.sampled_from(["--strict", "--normalize-triangulation", "--json"]),
        unique=True,
    ),
)
def test_cli_fuzz_returns_a_documented_exit_code(doc, command, coeff, perversity, flags):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "space.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        argv = [command, "--space", path, f"--coeff={coeff}", *flags]
        if command == "compute":
            argv.append(f"--perversity={perversity}")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in {0, 2, 3, 4, 5}
    assert "Traceback" not in err.getvalue()


INT_ENTRY = st.one_of(st.integers(-3, 9), st.integers(-3, 9).map(str))
FRACTION_ENTRY = st.builds("{}/{}".format, st.integers(-3, 3), st.integers(-1, 3))
POLY_ENTRY = st.lists(st.integers(-2, 9), max_size=4).map(
    lambda cs: "poly:" + ",".join(map(str, cs))
)
GRAM_ENTRY = st.one_of(
    INT_ENTRY,
    FRACTION_ENTRY,
    POLY_ENTRY,
    st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.none(),
    st.sampled_from(["", "x", "1/", "poly:", "poly:a"]),
)


def _symmetric_docs(entry):
    """Gram documents of dimension 0..3 whose entries mirror an upper
    triangle drawn from `entry`."""

    def mirrored(n, upper):
        rows = [[None] * n for _ in range(n)]
        it = iter(upper)
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = next(it)
        return {"dimension": n, "entries": [v for row in rows for v in row]}

    return st.integers(0, 3).flatmap(
        lambda n: st.lists(
            entry, min_size=n * (n + 1) // 2, max_size=n * (n + 1) // 2
        ).map(lambda upper: mirrored(n, upper))
    )


GRAM_DOC = st.one_of(
    _symmetric_docs(INT_ENTRY),
    _symmetric_docs(st.one_of(INT_ENTRY, FRACTION_ENTRY)),
    _symmetric_docs(st.one_of(INT_ENTRY, POLY_ENTRY)),
    _symmetric_docs(GRAM_ENTRY),
    st.fixed_dictionaries(
        {
            "dimension": st.one_of(st.integers(-2, 4), GRAM_ENTRY),
            "entries": st.one_of(st.lists(GRAM_ENTRY, max_size=5), GRAM_ENTRY),
        }
    ),
)
FIELD_SPEC = st.one_of(
    st.sampled_from(["Q", "Z", "Zp:2", "Zp:3", "Zp:5", "Fq:2:2", "Fq:3:2", "Fq:5:2"]),
    COEFF_SPEC,
)


@settings(max_examples=80, deadline=None)
@given(doc=GRAM_DOC, field=FIELD_SPEC, as_json=st.booleans())
def test_witt_class_fuzz_returns_a_documented_exit_code(doc, field, as_json):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "gram.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        argv = ["witt-class", "--matrix", path, f"--field={field}"]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv + ["--json"] * as_json)
    assert code in {0, 2, 5}
    assert "Traceback" not in err.getvalue()
