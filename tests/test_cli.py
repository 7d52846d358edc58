"""End-to-end CLI checks: formats, determinism and exit codes."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import click
import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from enriques.cli import main
from enriques.clusters import cluster_to_json, single_point, chain_cluster
from enriques import configs, field
from enriques.field import generator, poly_to_json, tower_to_json
from enriques import QQ, BiPoly

X = BiPoly.variable("x")
Y = BiPoly.variable("y")
DATA = Path(__file__).resolve().parent / "data"


@pytest.fixture
def runner():
    return CliRunner()


def run(runner, args):
    return runner.invoke(main, args, catch_exceptions=False)


def run_either(runner, script, args):
    """(exit code, stdout, stderr) of the CLI on ``args``, from CliRunner
    or, with ``script``, from a fresh interpreter."""
    if not script:
        res = run(runner, args)
        return res.exit_code, res.stdout, res.stderr
    env = dict(os.environ, PYTHONPATH=str(DATA.parent.parent / "src"))
    res = subprocess.run(
        [sys.executable, "-c", "from enriques.cli import main; main()", *args],
        env=env, capture_output=True, text=True, timeout=120)
    return res.returncode, res.stdout, res.stderr


def write(tmp_path, name, data):
    p = tmp_path / name
    p.write_text(json.dumps(data))
    return str(p)


class TestGen:
    def test_fermat_md_row(self, runner):
        res = run(runner, ["gen", "fermat", "--k", "3", "--format", "md"])
        assert res.exit_code == 0
        assert "-9/4" in res.output
        assert "-2.25" in res.output
        assert "h_index" in res.output  # provenance column

    def test_wiman_json(self, runner):
        res = run(runner, ["gen", "wiman", "--format", "json"])
        rows = json.loads(res.output)
        assert rows[0]["h"] == "-225/67"
        assert rows[0]["points"] == 201

    def test_triangle_and_klein(self, runner):
        for name, h in (("triangle", "0/1"), ("klein", "-3/1"),
                        ("klein-polars", "-71/23")):
            res = run(runner, ["gen", name, "--format", "json"])
            assert json.loads(res.output)[0]["h"] == h

    def test_config_out_roundtrips(self, runner, tmp_path):
        cfg = tmp_path / "fermat2.json"
        run(runner, ["gen", "fermat", "--k", "2", "--config-out", str(cfg)])
        res = run(runner, ["config", "h-index", str(cfg), "--format", "json"])
        assert json.loads(res.output)[0]["h"] == "-12/7"


class TestDeterminism:
    def test_byte_identical_sweeps(self, runner):
        a = run(runner, ["sweep", "theorem-b", "--kmax", "6", "--format", "csv"])
        b = run(runner, ["sweep", "theorem-b", "--kmax", "6", "--format", "csv"])
        assert a.output == b.output

    def test_byte_identical_pullback(self, runner, tmp_path):
        mp = write(tmp_path, "m.json", {"f1": poly_to_json(X ** 2),
                                        "f2": poly_to_json(Y ** 3)})
        kf = write(tmp_path, "k.json", cluster_to_json(chain_cluster([2, 1])))
        outs = [run(runner, ["map", "pullback", mp, kf, "--seed", "1",
                             "--format", "csv"]).output for _ in range(2)]
        assert outs[0] == outs[1]


class TestClusterCommands:
    def test_check_valid(self, runner, tmp_path):
        kf = write(tmp_path, "k.json",
                   cluster_to_json(chain_cluster([2, 1, 1], satellites={2: 0})))
        res = run(runner, ["cluster", "check", kf, "--format", "json"])
        assert res.exit_code == 0
        row = json.loads(res.output)[0]
        assert row["consistent"] is True and row["K2"] == 6

    def test_check_invalid_exit_1(self, runner, tmp_path):
        bad = write(tmp_path, "bad.json", {"nodes": [
            {"id": "p"}, {"id": "q", "parent": "p"},
            {"id": "r", "parent": "q", "second_proximity": "q"}],
            "weights": {"p": 1, "q": 1, "r": 1}})
        res = run(runner, ["cluster", "check", bad])
        assert res.exit_code == 1
        assert res.stderr == "ForestViolation: DuplicateProximity: r\n"

    @pytest.mark.parametrize("cmd", [["check"], ["hc", "--c2", "4"],
                                     ["codim"]], ids=lambda c: c[0])
    def test_forest_violation_before_weights(self, runner, tmp_path, cmd):
        # the forest is read before the weights, so a forest that breaks
        # an invariant is reported even where a weight is malformed
        kf = write(tmp_path, "k.json", {"nodes": [
            {"id": "p", "mult": 1}, {"id": "q", "parent": "r", "mult": "x"}]})
        res = run(runner, ["cluster", cmd[0], kf] + cmd[1:])
        assert res.exit_code == 1
        assert res.stderr == "ForestViolation: MissingParent: q\n"

    def test_hc(self, runner, tmp_path):
        kf = write(tmp_path, "k.json", cluster_to_json(single_point(3)))
        res = run(runner, ["cluster", "hc", kf, "--c2", "9",
                           "--format", "json"])
        assert json.loads(res.output)[0]["H"] == "0/1"

    def test_codim(self, runner, tmp_path):
        kf = write(tmp_path, "k.json", cluster_to_json(chain_cluster([2, 1, 1])))
        res = run(runner, ["cluster", "codim", kf, "--format", "csv"])
        assert res.output.splitlines()[1].startswith("5/1,")


class TestGermAndMap:
    def test_mult_cluster_tacnode(self, runner, tmp_path):
        gf = write(tmp_path, "g.json",
                   poly_to_json((Y - X ** 2) * (Y + X ** 2)))
        res = run(runner, ["germ", "mult-cluster", gf, "--format", "json"])
        data = json.loads(res.output)
        assert sorted(nd["mult"] for nd in data["nodes"]) == [2, 2]

    # s^2 - 2 written out: 0 in Q(s), s^2 = 2, once read
    ZERO_IN_S = {"ext": "s", "coeffs": ["-2", "0", "1"]}
    LEVEL_S = {"var": "s", "modulus": ["-2", "0", "1"]}

    @pytest.mark.parametrize("levels, terms", [
        ([LEVEL_S], [[0, 2, "1"], [3, 0, "-1"], [2, 0, ZERO_IN_S]]),
        ([LEVEL_S], [[2, 0, "1"], [0, 2, "-1"], [0, 0, ZERO_IN_S]]),
        ([LEVEL_S, {"var": "u", "modulus": [
            "-3", "0", {"ext": "s", "coeffs": ["-1", "0", "1"]}]}],
         [[0, 2, "1"], [3, 0, "-1"]])],
        ids=["zero-x2-coefficient", "zero-constant-term", "unit-lead"])
    def test_tower_elements_are_reduced(self, runner, tmp_path, levels,
                                        terms):
        # each germ is a cusp or a node with one point of multiplicity 2
        gf = write(tmp_path, "g.json", {
            "tower": {"levels": levels},
            "poly": {"vars": ["x", "y"], "terms": terms}})
        res = run(runner, ["germ", "mult-cluster", gf, "--format", "csv"])
        assert res.exit_code == 0, res.stderr
        assert res.output.splitlines()[1:] == ["q001,,,1,2"]

    def test_repeated_unit_factor_is_ignored(self, runner, tmp_path):
        # (1 + x)^2 is a unit at the origin, so y (1 + x)^2 is reduced there
        gf = write(tmp_path, "g.json", poly_to_json(Y * (1 + X) ** 2))
        res = run(runner, ["germ", "mult-cluster", gf, "--format", "csv"])
        assert res.exit_code == 0, res.stderr
        assert res.output == "id,parent,second_proximity,orbit,mult\n"

    def test_bp_and_degree(self, runner, tmp_path):
        mp = write(tmp_path, "m.json", {"f1": poly_to_json(X ** 2),
                                        "f2": poly_to_json(Y ** 3)})
        res = run(runner, ["map", "bp", mp, "--format", "json"])
        data = json.loads(res.output)
        assert sorted(nd["mult"] for nd in data["nodes"]) == [1, 1, 2]
        res = run(runner, ["map", "degree", mp, "--format", "json"])
        assert json.loads(res.output)[0]["degree"] == 6


class TestConfigCommands:
    def test_kummer_matches_fermat(self, runner, tmp_path):
        cfg = tmp_path / "tri.json"
        run(runner, ["gen", "triangle", "--config-out", str(cfg)])
        res = run(runner, ["config", "kummer", str(cfg), "--k", "3"])
        assert res.exit_code == 0
        out = tmp_path / "out.json"
        out.write_text(res.output)
        res2 = run(runner, ["config", "h-index", str(out), "--format", "json"])
        assert json.loads(res2.output)[0]["h"] == "-9/4"

    def test_verify_pullback(self, runner, tmp_path):
        cfg = tmp_path / "w.json"
        run(runner, ["gen", "wiman", "--config-out", str(cfg)])
        res = run(runner, ["config", "verify-pullback", str(cfg), "--k", "2",
                           "--format", "json"])
        assert res.exit_code == 0
        row = json.loads(res.output)[0]
        assert row["holds"] is True

    def test_verify_pullback_at_h_zero(self, runner):
        # four concurrent lines at a vertex: h = 0 is not lowered, and no
        # strict drop is expected (once expected, and reported as failed)
        res = run(runner, ["config", "verify-pullback",
                           str(DATA / "config_four_lines_vertex.json"),
                           "--k", "2", "--format", "json"])
        assert res.exit_code == 0
        row = json.loads(res.stdout)[0]
        assert (row["lhs"], row["rhs"], row["strict_expected"],
                row["holds"]) == ("0/1", "0/1", False, True)

    def test_verify_pullback_fails_exit_1(self, runner, monkeypatch):
        # a check that does not hold still prints its row, then exits 1
        monkeypatch.setattr(configs, "pullback_theorem_check",
                            lambda c, k, seed: (Fraction(1), Fraction(0),
                                                False))
        res = run(runner, ["config", "verify-pullback",
                           str(DATA / "config.json"), "--k", "2",
                           "--format", "json"])
        assert res.exit_code == 1
        row = json.loads(res.stdout)[0]
        assert (row["lhs"], row["rhs"], row["holds"]) == ("1/1", "0/1", False)

class TestSweeps:
    def test_klein_bound_rows(self, runner):
        res = run(runner, ["sweep", "klein-bound", "--kmax", "5",
                           "--format", "json"])
        rows = json.loads(res.output)
        assert len(rows) == 4
        k2 = rows[0]
        assert k2["h_bound"] == "-641/205"  # -(1283*81-81)/(410*81) reduced
        assert k2["discrepancy"] is True
        assert k2["K2"] == 49182

    def test_h_bound_limit_column(self, runner):
        res = run(runner, ["sweep", "h-bound", "--kmax", "3",
                           "--gen", "wiman", "--format", "json"])
        rows = json.loads(res.output)
        assert all(r["limit"] == "-226/67" for r in rows)


class TestExitCodes:
    def test_parse_error_exit_2(self, runner, tmp_path):
        bad = tmp_path / "garbage.json"
        bad.write_text("{not json")
        res = run(runner, ["cluster", "codim", str(bad)])
        assert res.exit_code == 2
        assert "ParseError" in res.stderr

    def test_domain_error_exit_1(self, runner, tmp_path):
        # inconsistent cluster rejected by a domain operation downstream
        mp = write(tmp_path, "m.json", {"f1": poly_to_json(X ** 2),
                                        "f2": poly_to_json(X * Y)})
        kf = write(tmp_path, "k.json", cluster_to_json(single_point(1)))
        res = run(runner, ["map", "pullback", mp, kf])
        assert res.exit_code == 1
        assert "ContractedCurvePresent" in res.stderr

    @pytest.mark.parametrize("modulus", [["1/1", "0/1"], ["-2/1", "1/1"],
                                         ["-2/1", "0/1", "2/1"]],
                             ids=["trailing-zero", "degree-1", "not-monic"])
    def test_bad_tower_modulus_exit_2(self, runner, tmp_path, modulus):
        gf = write(tmp_path, "g.json", {
            "tower": {"levels": [{"var": "s", "modulus": modulus}]},
            "poly": poly_to_json(X * Y)})
        res = run(runner, ["germ", "mult-cluster", gf])
        assert res.exit_code == 2
        assert "ParseError" in res.stderr
        assert "Traceback" not in res.stderr

    def test_reducible_tower_modulus_exit_2(self, runner, tmp_path):
        # t^2 - 1 = (t - 1)(t + 1): a depth-1 modulus must be irreducible
        tw = QQ.extend("t", (Fraction(-1), Fraction(0), Fraction(1)))
        x = BiPoly.variable("x", tw)
        y = BiPoly.variable("y", tw)
        t = BiPoly(tw, {(0, 0): generator(tw)})
        gf = write(tmp_path, "g.json", {
            "tower": tower_to_json(tw),
            "poly": poly_to_json((y - t * x) * (y - x) + x ** 3)})
        res = run(runner, ["germ", "mult-cluster", gf])
        assert res.exit_code == 2
        assert "ParseError" in res.stderr
        assert "reducible" in res.stderr
        assert "Traceback" not in res.stderr

    def test_reducible_quartic_modulus_exit_2(self, runner, tmp_path,
                                              monkeypatch):
        # t^4 + 4 = (t^2 + 2t + 2)(t^2 - 2t + 2) has no rational root, so
        # the squarefree quartic is factored by sympy
        seen = []
        factor = field._sympy_factors
        monkeypatch.setattr(field, "_sympy_factors",
                            lambda f: seen.append(f) or factor(f))
        tw = QQ.extend("t", (Fraction(4), 0, 0, 0, Fraction(1)))
        gf = write(tmp_path, "g.json", {
            "tower": tower_to_json(tw),
            "poly": poly_to_json((Y - X) * (Y + X) + X ** 3)})
        res = run(runner, ["germ", "mult-cluster", gf])
        assert res.exit_code == 2
        assert "reducible" in res.stderr
        assert "Traceback" not in res.stderr
        assert seen == [[4, 0, 0, 0, 1]]

    @pytest.mark.parametrize("coeff", ["0.5", "1_000", " 3 ", "+3", "1e5",
                                       "1/-2", "", "١"])
    def test_coefficient_outside_p_q_exit_2(self, runner, tmp_path, coeff):
        # README's grammar: an optional -, digits, optionally / and digits
        gf = write(tmp_path, "g.json", {"terms": [[0, 2, "1"],
                                                  [3, 0, coeff]]})
        res = run(runner, ["germ", "mult-cluster", gf])
        assert res.exit_code == 2
        assert res.stderr == ("ParseError: malformed polynomial: "
                              f"coefficient {coeff!r} is not p/q\n")

    @pytest.mark.parametrize("args", [
        ["germ", "mult-cluster"], ["map", "bp"]], ids=lambda a: a[0])
    def test_deep_tower_exit_2(self, runner, tmp_path, args):
        # 200 levels, s0^2 = 2 and then s_i^2 = 3: more than the
        # field.MAX_LEVELS that a tower may have
        path = DATA / "germ_deep_tower.json"
        if args[0] == "map":
            tower = json.loads(path.read_text())["tower"]
            path = write(tmp_path, "m.json", {
                "f1": {"tower": tower, "poly": poly_to_json(X ** 2)},
                "f2": {"tower": tower, "poly": poly_to_json(Y ** 2)}})
        res = run(runner, args + [str(path)])
        assert res.exit_code == 2
        assert res.stderr.startswith("ParseError: malformed polynomial: ")
        assert res.stderr.count("\n") == 1
        assert "Traceback" not in res.stderr

    @pytest.mark.parametrize("script", [False, True],
                             ids=["runner", "console-script"])
    def test_tower_depth_cap(self, runner, tmp_path, script):
        # s0^2 = 2, then s_i^2 = 3, under y^2 - 3x^2 + x^5, whose tangent
        # form the engine adjoins as one more level: field.MAX_LEVELS
        # levels answer as two do, one more is a parse error, the same
        # verdict from a fresh interpreter and from CliRunner's deeper
        # stack
        def invoke(n):
            levels = [{"var": f"s{i}", "modulus": [f"-{2 if i == 0 else 3}",
                                                   "0", "1"]}
                      for i in range(n)]
            path = write(tmp_path, f"g{n}.json", {
                "tower": {"levels": levels},
                "poly": poly_to_json(Y ** 2 - 3 * X ** 2 + X ** 5)})
            return run_either(runner, script, ["germ", "mult-cluster", path])

        cap = field.MAX_LEVELS
        code, out, _ = invoke(cap)
        assert (code, out) == (0, invoke(2)[1])
        assert invoke(cap + 1) == (2, "", (
            f"ParseError: malformed polynomial: tower of {cap + 1} levels; "
            f"at most {cap} are read\n"))

    @pytest.mark.parametrize("script", [False, True],
                             ids=["runner", "console-script"])
    @pytest.mark.parametrize("cmd, name, what, key", [
        ("germ mult-cluster", "germ_string_coeffs", "polynomial", "coeffs"),
        ("germ mult-cluster", "germ_string_modulus", "polynomial", "modulus"),
        ("germ mult-cluster", "germ_string_levels", "polynomial", "levels"),
        ("germ mult-cluster", "germ_string_terms", "polynomial", "terms"),
        ("cluster check", "cluster_string_nodes", "cluster", "nodes"),
        ("config h-index", "config_string_sing", "config", "sing"),
        ("config h-index", "config_string_components", "config",
         "components"),
        ("config h-index", "config_string_cluster_nodes", "config", "nodes")],
        ids=["coeffs", "modulus", "levels", "terms", "nodes", "sing",
             "components", "sing-nodes"])
    def test_string_for_a_list_exit_2(self, runner, script, cmd, name, what,
                                      key):
        # each string was once read one item per character: "coeffs": "01"
        # as the element s, "modulus": "201" as t^2 + 2, "levels": "" as
        # the tower Q, "nodes" and "components": "" as none, each with an
        # answer, and "sing": "" as no singular points, a PlacementConflict
        got = run_either(runner, script,
                         [*cmd.split(), str(DATA / f"{name}.json")])
        assert got == (2, "", f"ParseError: malformed {what}: {key!r} "
                              "is not a list\n")

    @pytest.mark.parametrize("script", [False, True],
                             ids=["runner", "console-script"])
    @pytest.mark.parametrize("cmd, name, message", [
        ("cluster check", "cluster_string_node",
         "cluster: 'node' is not an object"),
        ("germ mult-cluster", "germ_int_coefficient",
         "polynomial: 'coefficient' is not a string"),
        ("germ mult-cluster", "germ_int_term",
         "polynomial: 'term' is not a list"),
        ("germ mult-cluster", "germ_tower_int_coefficient",
         "polynomial: 'coefficient' is not a string or an object"),
        ("germ mult-cluster", "germ_int_level",
         "polynomial: 'level' is not an object"),
        ("cluster check", "list_document",
         "cluster: 'cluster' is not an object"),
        ("config h-index", "list_document",
         "config: 'config' is not an object"),
        ("germ mult-cluster", "list_document",
         "polynomial: 'germ' is not an object"),
        ("map bp", "list_document", "map: 'map' is not an object"),
        ("map degree", "map_int_component",
         "polynomial: 'f2' is not an object"),
        ("config h-index", "config_int_component",
         "config: 'component' is not an object"),
        ("config h-index", "config_int_sing",
         "config: 'singular point' is not an object"),
        ("germ mult-cluster", "germ_short_term",
         "polynomial: 'term' has 2 items, not 3"),
        ("map bp", "map_missing_f2", "map: missing key 'f2'")],
        ids=["node", "coefficient", "term", "tower-coefficient", "level",
             "cluster-document", "config-document", "germ-document",
             "map-document", "map-component", "component", "sing",
             "term-length", "missing-key"])
    def test_wrong_json_type_names_its_key(self, runner, script, cmd, name,
                                           message):
        # each was once reported in Python's words, such as "string
        # indices must be integers" for a node, "cannot unpack
        # non-iterable int object" for a term, "not enough values to
        # unpack (expected 3, got 2)" for a short one, "'int' object has
        # no attribute 'get'" for a coefficient over Q(s) or the bare key
        # 'f2' for a map without it
        got = run_either(runner, script,
                         [*cmd.split(), str(DATA / f"{name}.json")])
        assert got == (2, "", f"ParseError: malformed {message}\n")

    def test_zero_denominator_exit_2(self, runner, tmp_path):
        gf = write(tmp_path, "g.json", {"vars": ["x", "y"], "terms": [
            [1, 0, "1/0"], [0, 1, "1/1"]]})
        res = run(runner, ["germ", "mult-cluster", gf])
        assert res.exit_code == 2
        assert "ParseError" in res.stderr and "'1/0'" in res.stderr
        assert "Traceback" not in res.stderr

    def test_constant_germ_exit_2(self, runner, tmp_path):
        gf = write(tmp_path, "g.json", poly_to_json(BiPoly.const(1)))
        res = run(runner, ["germ", "mult-cluster", gf])
        assert res.exit_code == 2
        assert "ParseError" in res.stderr
        assert "Traceback" not in res.stderr

    def test_zero_germ_exit_2(self, runner, tmp_path):
        gf = write(tmp_path, "g.json", {"terms": []})
        res = run(runner, ["germ", "mult-cluster", gf])
        assert res.exit_code == 2
        assert "ParseError" in res.stderr and "zero polynomial" in res.stderr
        assert "Traceback" not in res.stderr

    # consistent, valid forests that no chart of the blowups realizes
    @pytest.mark.parametrize("cluster, message", [
        (cluster_to_json(chain_cluster([4, 2, 1, 1], satellites={3: 0})),
         "q4 is satellite to a point not on its chart"),
        ({"nodes": [{"id": "p", "mult": 4},
                    {"id": "q", "parent": "p", "mult": 2},
                    {"id": "r1", "parent": "q", "second_proximity": "p",
                     "mult": 1},
                    {"id": "r2", "parent": "q", "second_proximity": "p",
                     "mult": 1}]},
         "two satellites at the same direction under q")],
        ids=["off-chart", "same-direction"])
    def test_unrealizable_forest_exit_1(self, runner, tmp_path, cluster,
                                        message):
        kf = write(tmp_path, "k.json", cluster)
        res = run(runner, ["cluster", "check", kf, "--format", "json"])
        assert json.loads(res.output)[0]["consistent"] is True
        mp = write(tmp_path, "m.json", {"f1": poly_to_json(X),
                                        "f2": poly_to_json(Y)})
        res = run(runner, ["map", "pullback", mp, kf])
        assert res.exit_code == 1
        assert f"UnrealizableForest: {message}" in res.stderr

    def test_inconsistent_cluster_exit_1(self, runner, tmp_path):
        # cluster check reports it; map pullback refuses it before any
        # curve is drawn (RetryBudgetExceeded after every rung, before)
        kf = write(tmp_path, "k.json", cluster_to_json(chain_cluster([2, 2, 3])))
        res = run(runner, ["cluster", "check", kf, "--format", "json"])
        assert res.exit_code == 0
        assert json.loads(res.output)[0]["consistent"] is False
        mp = write(tmp_path, "m.json", {"f1": poly_to_json(X),
                                        "f2": poly_to_json(Y)})
        res = run(runner, ["map", "pullback", mp, kf])
        assert res.exit_code == 1
        assert res.stderr == ("HypothesisViolated: cluster is not "
                              "consistent: excess -1 at q2\n")

    @pytest.mark.parametrize("script", [False, True],
                             ids=["runner", "console-script"])
    @pytest.mark.parametrize("name, message", [
        # a conic and two lines with ten nodes once gave h = -12/5
        ("config_ten_nodes",
         "delta 10 of the singular points exceeds C(4, 2) = 6"),
        # three lines of a degree-7 curve with one triple point, h = 40
        ("config_short_degree", "component degrees sum to 3, not the "
         "degree 7")], ids=["ten-nodes", "short-degree"])
    def test_genus_formula_exit_1(self, runner, script, name, message):
        got = run_either(runner, script, ["config", "h-index",
                                          str(DATA / f"{name}.json")])
        assert got == (1, "", f"PlacementConflict: {message}\n")

    @pytest.mark.parametrize("cmd", ["degree", "bp"])
    def test_non_dominant_map_exit_1(self, runner, tmp_path, cmd):
        mp = write(tmp_path, "m.json", {"f1": poly_to_json(X),
                                        "f2": poly_to_json(X)})
        res = run(runner, ["map", cmd, mp])
        assert res.exit_code == 1
        assert "HypothesisViolated" in res.stderr and "dominant" in res.stderr
        assert res.stdout == ""

    def test_reducible_second_level_exit_2(self, runner, tmp_path):
        # u^2 - 2 = (u - s)(u + s) over Q(s), s^2 = 2
        s_tw = QQ.extend("s", (Fraction(-2), Fraction(0), Fraction(1)))
        tw = s_tw.extend("u", ((Fraction(-2),), (), (Fraction(1),)))
        x = BiPoly.variable("x", tw)
        y = BiPoly.variable("y", tw)
        u = BiPoly(tw, {(0, 0): generator(tw)})
        s = BiPoly(tw, {(0, 0): (generator(s_tw),)})
        gf = write(tmp_path, "g.json", {
            "tower": tower_to_json(tw),
            "poly": poly_to_json((y - u * x) * (y - s * x) + x ** 3)})
        res = run(runner, ["germ", "mult-cluster", gf])
        assert res.exit_code == 2
        assert "ParseError" in res.stderr and "'u'" in res.stderr
        assert "Traceback" not in res.stderr

    def test_map_over_two_towers_exit_2(self, runner, tmp_path):
        tw = QQ.extend("s", (Fraction(-2), Fraction(0), Fraction(1)))
        mp = write(tmp_path, "m.json", {
            "f1": poly_to_json(X ** 2),
            "f2": {"tower": tower_to_json(tw),
                   "poly": poly_to_json(BiPoly.variable("y", tw) ** 3)}})
        for cmd in (["bp"], ["degree"]):
            res = run(runner, ["map"] + cmd + [mp])
            assert res.exit_code == 2
            assert "different towers" in res.stderr

    @pytest.mark.parametrize("node", [
        {"id": "p", "orbit": "2", "mult": 2}, {"id": ["p"], "mult": 2},
        {"id": "p", "parent": 1, "mult": 2}, {"id": "p", "mult": 3.5},
        {"id": "p", "mult": True}],
        ids=["orbit-str", "id-list", "parent-int", "mult-float", "mult-bool"])
    @pytest.mark.parametrize("cmd", [["check"], ["hc", "--c2", "4"],
                                     ["codim"]], ids=lambda c: c[0])
    def test_malformed_node_exit_2(self, runner, tmp_path, node, cmd):
        kf = write(tmp_path, "k.json", {"nodes": [node]})
        res = run(runner, ["cluster", cmd[0], kf] + cmd[1:])
        assert res.exit_code == 2
        assert "ParseError: malformed cluster" in res.stderr

    @pytest.mark.parametrize("term", [["a", 0, "1"], [-1, 3, "1"],
                                      [1.0, 2, "1"], [True, 2, "1"],
                                      [2, 0, "3"]],
                             ids=["str", "negative", "float", "bool",
                                  "repeated"])
    def test_bad_exponent_exit_2(self, runner, tmp_path, term):
        gf = write(tmp_path, "g.json", {"terms": [term, [2, 0, "1"]]})
        res = run(runner, ["germ", "mult-cluster", gf])
        assert res.exit_code == 2
        assert "ParseError: malformed polynomial" in res.stderr

    @pytest.mark.parametrize("script", [False, True],
                             ids=["runner", "console-script"])
    @pytest.mark.parametrize("args, message", [
        ("germ mult-cluster germ_repeated_term.json",
         "polynomial: monomial x^3 y^0 appears twice"),
        ("germ mult-cluster germ_exponent_coefficient.json",
         "polynomial: coefficient '1e999999999' is not p/q"),
        ("germ mult-cluster germ_decimal_coefficient.json",
         "polynomial: coefficient '0.5' is not p/q"),
        ("germ mult-cluster germ_deep_tower.json",
         "polynomial: tower of 200 levels; at most 64 are read"),
        ("map pullback map_tower_list_name.json cluster_two_on_root.json "
         "--seed 3", "polynomial: 'var' is not a string"),
        ("config h-index config_bad_placement.json",
         "config: unknown placement 'nowhere'")],
        ids=["repeated-term", "exponent-coefficient", "decimal-coefficient",
             "deep-tower", "list-level-name", "unknown-placement"])
    def test_malformed_data_file_exit_2(self, runner, script, args, message):
        # a monomial listed twice was once a silent overwrite; Fraction
        # reads "1e999999999" and builds 10^999999999 in full, and "0.5"
        # outside README's p/q grammar; a tower of 200 levels is past
        # field.MAX_LEVELS; a list level name is unhashable where a fresh
        # level is named
        got = run_either(runner, script, [
            str(DATA / a) if a.endswith(".json") else a for a in args.split()])
        assert got == (2, "", f"ParseError: malformed {message}\n")

    @pytest.mark.parametrize("cmd", [["gen", "fermat"], ["config", "kummer"],
                                     ["config", "verify-pullback"]],
                             ids=lambda c: c[-1])
    def test_k_below_2_is_a_usage_error(self, runner, cmd):
        args = cmd + ([str(DATA / "config.json")] if cmd[0] == "config" else [])
        res = run(runner, args + ["--k", "1"])
        assert res.exit_code == 2
        assert "Invalid value for '--k'" in res.stderr

    @pytest.mark.parametrize("cmd", ["theorem-b", "klein-bound", "h-bound"])
    @pytest.mark.parametrize("kmax", ["1", "0", "-3"])
    def test_kmax_below_2_is_a_usage_error(self, runner, cmd, kmax):
        res = run(runner, ["sweep", cmd, "--kmax", kmax])
        assert res.exit_code == 2
        assert "Invalid value for '--kmax'" in res.stderr

    @pytest.mark.parametrize("field, value", [
        ("degree", -6), ("deg", -1), ("count", 0), ("sing.count", 0),
        ("smooth_vertex_marks", -2)])
    @pytest.mark.parametrize("cmd", [["h-index"], ["kummer", "--k", "2"]],
                             ids=lambda c: c[0])
    def test_bad_config_number_exit_2(self, runner, tmp_path, field, value,
                                      cmd):
        data = json.loads((DATA / "config.json").read_text())
        if field == "sing.count":
            # a singular spec's count is read as a component's is
            field = "count"
            data["sing"][0][field] = value
        elif field in ("deg", "count"):
            data["components"][0][field] = value
        else:
            data[field] = value
        cf = write(tmp_path, "c.json", data)
        res = run(runner, ["config", cmd[0], cf] + cmd[1:])
        assert res.exit_code == 2
        assert f"ParseError: malformed config: {field} must be >=" in res.stderr

    @pytest.mark.parametrize("placement", ["nowhere", 5])
    @pytest.mark.parametrize("cmd", [["h-index"], ["kummer", "--k", "2"]],
                             ids=lambda c: c[0])
    def test_unknown_placement_exit_2(self, runner, tmp_path, placement, cmd):
        # malformed input, as a non-integer count is: not a domain error
        data = json.loads((DATA / "config.json").read_text())
        data["sing"][1]["placement"] = placement
        cf = write(tmp_path, "c.json", data)
        res = run(runner, ["config", cmd[0], cf] + cmd[1:])
        assert res.exit_code == 2
        assert res.stderr == ("ParseError: malformed config: unknown "
                              f"placement {placement!r}\n")

    @pytest.mark.parametrize("option,target", [
        ("--out", "missing/x.md"), ("--out", ""),
        ("--config-out", "missing/c.json")],
        ids=["out-missing-dir", "out-directory", "config-out-missing-dir"])
    def test_unwritable_output_exit_2(self, runner, tmp_path, option, target):
        path = tmp_path / target
        res = run(runner, ["gen", "wiman", option, str(path)])
        assert res.exit_code == 2
        assert f"ParseError: cannot write {path}" in res.stderr
        assert "Traceback" not in res.stderr
        # nothing reaches stdout before the failed write
        assert res.stdout == ""

    def test_level_named_like_an_engine_level(self, runner, tmp_path):
        # the irreducible cubic tangent cone is adjoined one level up
        outs = []
        for var in ("s", "t2"):
            tw = QQ.extend(var, (Fraction(-2), Fraction(0), Fraction(1)))
            x = BiPoly.variable("x", tw)
            y = BiPoly.variable("y", tw)
            gf = write(tmp_path, f"g-{var}.json", {
                "tower": tower_to_json(tw),
                "poly": poly_to_json(y ** 3 - 3 * x ** 3 + x ** 5)})
            res = run(runner, ["germ", "mult-cluster", gf, "--format", "json"])
            assert res.exit_code == 0, res.stderr
            outs.append(res.output)
        assert outs[0] == outs[1]
        assert [nd["mult"] for nd in json.loads(outs[0])["nodes"]] == [3]


# files that json.load cannot read: a syntax error, bytes that are not
# UTF-8 (UnicodeDecodeError), nesting past the recursion limit
# (RecursionError) and a path that is never written (OSError)
MALFORMED = {
    "not-json": b"{not json",
    "not-utf8": b"\xff\xfe{",
    "too-deep": b"[" * 100_000 + b"]" * 100_000,
    "missing": None,
}


def _leaves(cmd, path=()):
    if not isinstance(cmd, click.Group):
        yield path, cmd
    for name in sorted(getattr(cmd, "commands", {})):
        yield from _leaves(cmd.commands[name], path + (name,))


FILE_COMMANDS = {" ".join(path): cmd for path, cmd in _leaves(main)
                 if any(isinstance(p, click.Argument) for p in cmd.params)}


def assert_cannot_parse(runner, script, tmp_path, command, kind):
    """``command``, with every file argument the one file of ``kind`` and
    its required options set to 2, exits 2 with the one line that
    ``load_json`` writes for that file."""
    bad = tmp_path / "bad.json"
    if MALFORMED[kind] is not None:
        bad.write_bytes(MALFORMED[kind])
    args = command.split()
    for p in FILE_COMMANDS[command].params:
        if isinstance(p, click.Argument):
            args.append(str(bad))
        elif p.required:
            args += [p.opts[0], "2"]
    code, out, err = run_either(runner, script, args)
    assert (code, out) == (2, "")
    assert err.startswith(f"ParseError: cannot parse {bad}: ")
    assert err.count("\n") == 1


class TestMalformedFiles:
    def test_every_file_command_is_walked(self):
        assert len(FILE_COMMANDS) == 10

    @pytest.mark.parametrize("kind", sorted(MALFORMED))
    @pytest.mark.parametrize("command", sorted(FILE_COMMANDS))
    def test_parse_error_exit_2(self, runner, tmp_path, command, kind):
        assert_cannot_parse(runner, False, tmp_path, command, kind)

    # a fresh interpreter has the default recursion limit and no
    # CliRunner around it; a syntax error fails in json.load as the bytes
    # that are not UTF-8 do, with a ValueError
    @pytest.mark.parametrize("kind", ["missing", "not-utf8", "too-deep"])
    @pytest.mark.parametrize("command", ["cluster check", "config h-index",
                                         "germ mult-cluster", "map bp"])
    def test_parse_error_in_a_fresh_interpreter(self, tmp_path, command,
                                                kind):
        assert_cannot_parse(None, True, tmp_path, command, kind)


# -- fuzzing: small well-formed JSON with at most one node replaced by junk --

JUNK = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 3)
    | st.sampled_from([1.5, "", "p", "1", "1/0", "x"]),
    lambda c: st.lists(c, max_size=2)
    | st.dictionaries(st.sampled_from(["id", "mult", "terms", "levels"]), c,
                      max_size=2),
    max_leaves=4)


def _paths(value, path=()):
    yield path
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        yield from _paths(child, path + (key,))


def _replace(value, path, new):
    if not path:
        return new
    out = dict(value) if isinstance(value, dict) else list(value)
    out[path[0]] = _replace(value[path[0]], path[1:], new)
    return out


@st.composite
def corrupted(draw, valid):
    """A value of ``valid``, or that value with one node swapped for junk."""
    value = draw(valid)
    path = draw(st.none() | st.sampled_from(list(_paths(value))))
    return value if path is None else _replace(value, path, draw(JUNK))


@st.composite
def clusters(draw):
    nodes = []
    for i in range(draw(st.integers(1, 3))):
        parent = draw(st.sampled_from([None] + [nd["id"] for nd in nodes]))
        # a satellite is proximate to a strict ancestor of its parent
        ancestors = []
        cur = parent and nodes[int(parent[1:])]["parent"]
        while cur is not None:
            ancestors.append(cur)
            cur = nodes[int(cur[1:])]["parent"]
        nodes.append({"id": f"q{i}", "parent": parent,
                      "second_proximity": draw(
                          st.sampled_from([None] + ancestors)),
                      "orbit": 1, "mult": draw(st.integers(0, 2))})
    return {"nodes": nodes}


S_TOWER = {"levels": [{"var": "s", "modulus": ["-2", "0", "1"]}]}
RATIONALS = st.sampled_from(["1", "-2", "1/2", "3"])


@st.composite
def polys(draw, towers=True):
    over_s = towers and draw(st.booleans())
    coeffs = (RATIONALS | st.builds(lambda a, b: {"ext": "s", "coeffs": [a, b]},
                                    RATIONALS, RATIONALS)
              if over_s else RATIONALS)
    # a monomial listed twice is malformed, so a valid draw lists each once
    terms = draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3),
                                    coeffs).map(list), min_size=1, max_size=3,
                          unique_by=lambda t: tuple(t[:2])))
    return {"tower": S_TOWER, "poly": {"terms": terms}} if over_s else {
        "terms": terms}


MAPS = st.fixed_dictionaries({"f1": polys(), "f2": polys()})
# a pullback over Q(s) of these maps can take minutes, so over Q only
QQ_MAPS = st.fixed_dictionaries({"f1": polys(False), "f2": polys(False)})
CONFIGS = st.fixed_dictionaries({
    "degree": st.integers(1, 6),
    "components": st.lists(st.fixed_dictionaries(
        {"deg": st.integers(1, 2), "count": st.integers(1, 6)}), max_size=2),
    "sing": st.lists(st.fixed_dictionaries(
        {"cluster": clusters(), "count": st.integers(1, 3),
         "placement": st.sampled_from(["generic", "vertex", "line"])}),
        max_size=2),
    "smooth_vertex_marks": st.integers(0, 1)})
OPTION = st.sampled_from(["-1", "0", "1", "2", "3", "x"])

# each command: its arguments before the files, its input files, its options
COMMANDS = {
    "cluster check": ([clusters()], []),
    "cluster hc": ([clusters()], ["--c2"]),
    "cluster codim": ([clusters()], []),
    "germ mult-cluster": ([polys()], []),
    "map bp": ([MAPS], []),
    "map degree": ([MAPS], []),
    "map pullback": ([QQ_MAPS, clusters()], ["--seed"]),
    "config h-index": ([CONFIGS], []),
    "config kummer": ([CONFIGS], ["--k"]),
    "config verify-pullback": ([CONFIGS], ["--k"]),
    "gen fermat": ([], ["--k"]),
    "gen wiman": ([], []),
    "sweep theorem-b": ([], ["--kmax"]),
    "sweep klein-bound": ([], ["--kmax"]),
    "sweep h-bound": ([], ["--kmax"]),
}


class TestFuzz:
    """Every command ends in exit 0, 1 or 2 and never in a traceback."""

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_exit_codes(self, command, data):
        inputs, options = COMMANDS[command]
        runner = CliRunner()
        with runner.isolated_filesystem():
            args = command.split()
            for n, strategy in enumerate(inputs):
                name = f"in{n}.json"
                with open(name, "w") as fh:
                    json.dump(data.draw(corrupted(strategy)), fh)
                args.append(name)
            for opt in options:
                args += [opt, data.draw(OPTION)]
            res = runner.invoke(main, args)
        assert res.exit_code in (0, 1, 2), res.output
        assert res.exception is None or isinstance(res.exception, SystemExit), (
            repr(res.exception))
