"""Command line interface: exact tables and verification certificates."""
from __future__ import annotations

import contextlib
import csv
import io
import json
import sys
from decimal import Decimal, localcontext
from fractions import Fraction

import click

from . import configs as C
from . import clusters as CL
from . import localeng as L
from .errors import EnriquesError, HypothesisViolated, ModulusSplit, ParseError
from .field import json_value, poly_from_json, rat_str, tower_from_json


def dec10(q):
    q = Fraction(q)
    with localcontext() as ctx:
        ctx.prec = 10
        d = Decimal(q.numerator) / Decimal(q.denominator)
    return str(d)


def write(text, out):
    """Write text to the --out path, or echo it to stdout."""
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as e:
            raise ParseError(f"cannot write {out}: {e}") from None
    else:
        click.echo(text, nl=False)


def render(rows, fmt, columns=None):
    """The rows as a json, csv or markdown table, whose columns are the
    keys of the first row unless ``columns`` names them."""
    columns = columns or list(rows[0])
    if fmt == "json":
        return json.dumps(rows, indent=2) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for r in rows:
            writer.writerow([r[c] for c in columns])
        return buf.getvalue()
    head = "| " + " | ".join(columns) + " |"
    sep = "| " + " | ".join("---" for _ in columns) + " |"
    lines = [head, sep]
    for r in rows:
        lines.append("| " + " | ".join(str(r[c]) for c in columns) + " |")
    return "\n".join(lines) + "\n"


def emit(rows, fmt, out):
    write(render(rows, fmt), out)


def load_json(path):
    """The JSON document at ``path``, the only reader of input files: one
    that is missing, unreadable or not JSON is a ``ParseError``."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as e:
        raise ParseError(f"cannot parse {path}: {e}") from None


@contextlib.contextmanager
def malformed(what):
    """The one rule for malformed input, around each parser: a missing
    key, a value of the wrong type or out of range, such as a tower of
    more than ``field.MAX_LEVELS`` levels, or a document nested past the
    recursion limit, is a ``ParseError("malformed <what>: ...")``."""
    try:
        yield
    except KeyError as e:
        raise ParseError(f"malformed {what}: missing key {e}") from None
    except (AttributeError, TypeError, ValueError, RecursionError) as e:
        raise ParseError(f"malformed {what}: {e}") from None


def parse_poly(data, key="germ"):
    """The ``"poly"`` (else the whole object) at ``key`` over its tower."""
    with malformed("polynomial"):
        data = json_value(data, dict, key)
        tower = tower_from_json(data.get("tower", {"levels": []}))
        return poly_from_json(tower, data.get("poly", data))


def parse_cluster(data):
    with malformed("cluster"):
        return CL.cluster_from_json(data)


class Guarded(click.Group):
    """The one error boundary: every command runs inside ``main.invoke``.
    A parse error exits 2 and any other ``EnriquesError`` 1, each with
    one line on stderr."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except ParseError as e:
            click.echo(f"ParseError: {e}", err=True)
            sys.exit(2)
        except ModulusSplit as e:
            # the engine branches its own levels, so this one came from
            # the input tower
            click.echo(f"ParseError: tower modulus for {e.var!r} is "
                       "reducible", err=True)
            sys.exit(2)
        except EnriquesError as e:
            click.echo(f"{type(e).__name__}: {e}", err=True)
            sys.exit(1)


FORMAT = click.option("--format", "fmt", default="md",
                      type=click.Choice(["json", "csv", "md"]))
SEED = click.option("--seed", default=0, type=int, show_default=True)
OUT = click.option("--out", default=None, type=click.Path())


def table_options(fn):
    """--format, then --out."""
    return FORMAT(OUT(fn))


@click.group(cls=Guarded)
def main():
    """Exact cluster calculus, ramified pullbacks and Harbourne constants."""


# -- cluster ----------------------------------------------------------------

@main.group()
def cluster():
    """Weighted cluster operations."""


@cluster.command("check")
@click.argument("file")
@table_options
def cluster_check(file, fmt, out):
    """Check the forest; print size, consistency and K^2."""
    k = parse_cluster(load_json(file))
    emit([{"size": k.size(), "consistent": CL.is_consistent(k),
           "K2": CL.self_intersection(k), "provenance": "excesses"}], fmt, out)


@cluster.command("hc")
@click.argument("file")
@click.option("--c2", required=True, type=int,
              help="self-intersection of the curve")
@table_options
def cluster_hc(file, c2, fmt, out):
    """Harbourne constant of a curve of self-intersection c2."""
    k = parse_cluster(load_json(file))
    h = CL.harbourne_constant(c2, k)
    emit([{"H": rat_str(h), "decimal": dec10(h),
           "provenance": "harbourne_constant"}], fmt, out)


@cluster.command("codim")
@click.argument("file")
@table_options
def cluster_codim(file, fmt, out):
    """Virtual codimension of the cluster."""
    k = parse_cluster(load_json(file))
    v = CL.virtual_codimension(k)
    emit([{"codim": rat_str(v), "decimal": dec10(v),
           "provenance": "virtual_codimension"}], fmt, out)


# -- germ ---------------------------------------------------------------

def cluster_rows(k):
    """``CL.cluster_to_json``'s nodes, with an empty cell for None."""
    return [{key: "" if v is None else v for key, v in nd.items()}
            for nd in CL.cluster_to_json(k)["nodes"]]


CLUSTER_COLS = ["id", "parent", "second_proximity", "orbit", "mult"]


def emit_cluster(k, fmt, out):
    if fmt == "json":
        write(json.dumps(CL.cluster_to_json(k), indent=2) + "\n", out)
    else:
        # a smooth germ's cluster is empty, and its header still prints
        write(render(cluster_rows(k), fmt, CLUSTER_COLS), out)


def parse_germ(data):
    with malformed("germ"):
        return L.Germ(parse_poly(data))


@main.group()
def germ():
    """Plane curve germ operations."""


@germ.command("mult-cluster")
@click.argument("file")
@table_options
def germ_mult_cluster(file, fmt, out):
    """Points of multiplicity >= 2 of the germ."""
    emit_cluster(L.mult_cluster(parse_germ(load_json(file))), fmt, out)


# -- map ----------------------------------------------------------------

def parse_map(data):
    """A map germ, which must be dominant: a Jacobian determinant that
    vanishes identically is rejected here, where maps enter."""
    with malformed("map"):
        data = json_value(data, dict, "map")
        f = L.LocalMap.from_polys(parse_poly(data["f1"], "f1"),
                                  parse_poly(data["f2"], "f2"))
    p1, p2 = f.f1.poly, f.f2.poly
    if p1.tower != p2.tower:
        raise ParseError("malformed map: f1 and f2 are over different towers")
    jacobian = p1.deriv("x") * p2.deriv("y") - p1.deriv("y") * p2.deriv("x")
    if jacobian.is_zero():
        raise HypothesisViolated("map germ is not dominant: its Jacobian "
                                 "determinant vanishes identically")
    return f


@main.group(name="map")
def map_():
    """Local map germ operations."""


@map_.command("bp")
@click.argument("file")
@table_options
def map_bp(file, fmt, out):
    """Weighted base points of the map germ's pencil."""
    emit_cluster(L.base_points(parse_map(load_json(file))), fmt, out)


@map_.command("degree")
@click.argument("file")
@table_options
def map_degree(file, fmt, out):
    """Local degree of the map germ."""
    d = L.local_degree(parse_map(load_json(file)))
    emit([{"degree": d, "provenance": "local_degree"}], fmt, out)


@map_.command("pullback")
@click.argument("mapfile")
@click.argument("clusterfile")
@SEED
@table_options
def map_pullback(mapfile, clusterfile, seed, fmt, out):
    """Pullback cluster f*(K) of K under the map germ."""
    f = parse_map(load_json(mapfile))
    k = parse_cluster(load_json(clusterfile))
    emit_cluster(L.pullback_cluster(f, k, seed), fmt, out)


# -- config ---------------------------------------------------------------

def parse_config(data):
    with malformed("config"):
        return C.config_from_json(data)


@main.group()
def config():
    """Plane configuration operations."""


@config.command("h-index")
@click.argument("file")
@table_options
def config_h_index(file, fmt, out):
    """Harbourne index h of the configuration."""
    h = C.h_index(parse_config(load_json(file)))
    emit([{"h": rat_str(h), "decimal": dec10(h), "provenance": "h_index"}],
         fmt, out)


@config.command("kummer")
@click.argument("file")
@click.option("--k", required=True, type=click.IntRange(min=2))
@SEED
@OUT
def config_kummer(file, k, seed, out):
    """Configuration pulled back by the degree-k^2 Kummer cover."""
    c = parse_config(load_json(file))
    new = C.kummer_pullback(c, k, seed)
    write(json.dumps(C.config_to_json(new), indent=2) + "\n", out)


@config.command("verify-pullback")
@click.argument("file")
@click.option("--k", required=True, type=click.IntRange(min=2))
@SEED
@table_options
def config_verify_pullback(file, k, seed, fmt, out):
    """Check H(f*C, f*K) against H(C, K) for the Kummer cover."""
    c = parse_config(load_json(file))
    lhs, rhs, strict = C.pullback_theorem_check(c, k, seed)
    ok = lhs < rhs if strict else lhs <= rhs
    emit([{"lhs": rat_str(lhs), "rhs": rat_str(rhs),
           "strict_expected": strict, "holds": ok,
           "provenance": "pullback_theorem_check"}], fmt, out)
    if not ok:
        sys.exit(1)


# -- gen --------------------------------------------------------------------

GEN_TABLE = {
    "wiman": C.wiman,
    "klein": C.klein_lines,
    "klein-polars": C.klein_polars,
    "triangle": C.triangle,
}


def emit_config_row(name, cfg, fmt, out, config_out):
    h = C.h_index(cfg)
    text = render([{"generator": name, "degree": cfg.degree,
                    "points": C.mult_size(cfg), "h": rat_str(h),
                    "decimal": dec10(h), "provenance": "h_index"}], fmt)
    # the config is written first, so a path that cannot be written
    # exits 2 before anything reaches stdout
    if config_out:
        write(json.dumps(C.config_to_json(cfg), indent=2) + "\n", config_out)
    write(text, out)


CONFIG_OUT = click.option("--config-out", default=None, type=click.Path(),
                          help="also write the configuration JSON here")


@main.group()
def gen():
    """Configuration generators."""


@gen.command("fermat")
@click.option("--k", required=True, type=click.IntRange(min=2))
@table_options
@CONFIG_OUT
def gen_fermat(k, fmt, out, config_out):
    """Degree, points and h of the Fermat arrangement."""
    emit_config_row(f"fermat-{k}", C.fermat(k), fmt, out, config_out)


def _make_gen(name):
    @gen.command(name, help=f"Degree, points and h of the {name} arrangement.")
    @table_options
    @CONFIG_OUT
    def _cmd(fmt, out, config_out, _name=name):
        emit_config_row(_name, GEN_TABLE[_name](), fmt, out, config_out)
    return _cmd


for _name in GEN_TABLE:
    _make_gen(_name)


# -- sweep --------------------------------------------------------------

@main.group()
def sweep():
    """Families swept over k."""


@sweep.command("theorem-b")
@click.option("--kmax", default=10, type=click.IntRange(min=2),
              show_default=True)
@SEED
@table_options
def sweep_theorem_b(kmax, seed, fmt, out):
    """h of the theorem-B family for k = 2 to kmax."""
    rows = []
    for k in range(2, kmax + 1):
        h = C.theorem_b_family(k, seed)
        rows.append({"k": k, "h": rat_str(h), "decimal": dec10(h),
                     "provenance": "theorem_b_family"})
    emit(rows, fmt, out)


@sweep.command("klein-bound")
@click.option("--kmax", default=8, type=click.IntRange(min=2),
              show_default=True)
@table_options
def sweep_klein_bound(kmax, fmt, out):
    """Klein recursion against its closed forms, k = 2 to kmax."""
    rows = []
    for k in range(2, kmax + 1):
        rep = C.klein_report(k)
        rows.append({
            "k": k,
            "K2": rep["K2_recursion"],
            "size_bound": rep["size_recursion"],
            "h_bound": rat_str(rep["h_bound"]),
            "decimal": dec10(rep["h_bound"]),
            "K2_closed_form": rat_str(rep["K2_closed_form"]),
            "size_closed_form": rat_str(rep["size_closed_form"]),
            "discrepancy": rep["discrepancy"],
            "provenance": "klein_recursion vs klein_closed_forms",
        })
    emit(rows, fmt, out)


@sweep.command("h-bound")
@click.option("--kmax", default=10, type=click.IntRange(min=2),
              show_default=True)
@click.option("--gen", "gen_name", default="wiman",
              type=click.Choice(sorted(GEN_TABLE)))
@table_options
def sweep_h_bound(kmax, gen_name, fmt, out):
    """The h bound and its limit in k, for k = 2 to kmax."""
    cfg = GEN_TABLE[gen_name]()
    rows = []
    for k in range(2, kmax + 1):
        value, limit = C.h_bound_gap(cfg, k)
        rows.append({"k": k, "value": rat_str(value), "decimal": dec10(value),
                     "limit": rat_str(limit), "provenance": "h_bound_gap"})
    emit(rows, fmt, out)


if __name__ == "__main__":
    main()
