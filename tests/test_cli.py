"""End-to-end CLI checks: formats, determinism and exit codes."""

import json
from fractions import Fraction

import pytest
from click.testing import CliRunner

from enriques.cli import main
from enriques.clusters import cluster_to_json, single_point, chain_cluster
from enriques.field import generator, poly_to_json, tower_to_json
from enriques import QQ, BiPoly

X = BiPoly.variable("x")
Y = BiPoly.variable("y")


@pytest.fixture
def runner():
    return CliRunner()


def run(runner, args):
    return runner.invoke(main, args, catch_exceptions=False)


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
        assert "DuplicateProximity" in res.stderr

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
        t = BiPoly.from_elem(tw, generator(tw))
        gf = write(tmp_path, "g.json", {
            "tower": tower_to_json(tw),
            "poly": poly_to_json((y - t * x) * (y - x) + x ** 3)})
        res = run(runner, ["germ", "mult-cluster", gf])
        assert res.exit_code == 2
        assert "ParseError" in res.stderr
        assert "reducible" in res.stderr
        assert "Traceback" not in res.stderr

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
        u = BiPoly.from_elem(tw, generator(tw))
        s = BiPoly.from_elem(tw, (generator(s_tw),))
        gf = write(tmp_path, "g.json", {
            "tower": tower_to_json(tw),
            "poly": poly_to_json((y - u * x) * (y - s * x) + x ** 3)})
        res = run(runner, ["germ", "mult-cluster", gf])
        assert res.exit_code == 2
        assert "ParseError" in res.stderr and "'u'" in res.stderr
        assert "Traceback" not in res.stderr

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
