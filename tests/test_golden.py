"""Golden outputs: every README CLI example, byte for byte.

Each case runs one command on the fixed inputs in ``tests/data`` and
compares its stdout with ``tests/data/golden/<name>.txt``.  The germ and
map examples also run on inputs over Q(s), s^2 = 2, so the tower
arithmetic is pinned as well, and ``sweep klein-bound --kmax 12`` pins
the Klein recursion beyond the range the cluster cross-check builds.
Cases named in ``BOUNDS`` must also finish within their time bound.
``help.txt`` holds the ``--help`` of every group and command.
"""

import math
import time
from pathlib import Path

import pytest
from click.testing import CliRunner

from enriques.cli import main

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden"


def _d(name):
    return str(DATA / name)


CASES = {
    "gen-fermat-3-md": ["gen", "fermat", "--k", "3", "--format", "md"],
    "gen-wiman-json": ["gen", "wiman", "--format", "json"],
    "gen-klein-polars": ["gen", "klein-polars"],
    "sweep-theorem-b-50": ["sweep", "theorem-b", "--kmax", "50"],
    "sweep-klein-bound-8": ["sweep", "klein-bound", "--kmax", "8"],
    "sweep-klein-bound-12": ["sweep", "klein-bound", "--kmax", "12"],
    "sweep-h-bound-wiman": ["sweep", "h-bound", "--gen", "wiman"],
    "cluster-check": ["cluster", "check", _d("cluster.json")],
    "cluster-hc-2025": ["cluster", "hc", _d("cluster.json"), "--c2", "2025"],
    "cluster-codim": ["cluster", "codim", _d("cluster.json")],
    "germ-mult-cluster": ["germ", "mult-cluster", _d("germ.json")],
    # a smooth germ has an empty cluster; its table header still prints
    "germ-mult-cluster-smooth-md": ["germ", "mult-cluster",
                                    _d("germ_smooth.json"), "--format", "md"],
    "germ-mult-cluster-smooth-csv": ["germ", "mult-cluster",
                                     _d("germ_smooth.json"), "--format",
                                     "csv"],
    "map-bp": ["map", "bp", _d("map.json")],
    "map-degree": ["map", "degree", _d("map.json")],
    "map-pullback": ["map", "pullback", _d("map.json"), _d("cluster.json")],
    "map-bp-tower": ["map", "bp", _d("map_tower.json")],
    "map-degree-tower": ["map", "degree", _d("map_tower.json")],
    "map-pullback-tower-seed3": ["map", "pullback",
                                 _d("map_tower_pullback.json"),
                                 _d("cluster_two_on_root.json"),
                                 "--seed", "3"],
    # the slowest op of the pullback grid: a curves-cache miss on the free
    # chain [3, 3, 3] and an orbit-2 branch of the cube roots of unity
    "map-pullback-cubes-chain333-seed7": ["map", "pullback",
                                          _d("map_cubes.json"),
                                          _d("chain_333.json"),
                                          "--seed", "7"],
    # a map found by a seeded search for slow pullbacks: over Q, with 15
    # points on the chain [3, 2, 2], nearly all of its time in the chart
    # loop, whose colength budget 28 K^2 is far above deg f K^2 = 5 K^2
    "map-pullback-hunted-chain322-seed0": ["map", "pullback",
                                           _d("map_hunted.json"),
                                           _d("chain_322.json"),
                                           "--seed", "0"],
    "config-kummer-2": ["config", "kummer", _d("config.json"), "--k", "2"],
    "config-verify-pullback-2": ["config", "verify-pullback",
                                 _d("config.json"), "--k", "2"],
    "config-verify-pullback-2-csv": ["config", "verify-pullback",
                                     _d("config.json"), "--k", "2",
                                     "--format", "csv"],
    "config-h-index": ["config", "h-index", _d("config.json")],
}


# seconds; a map pullback over Q(s) whose curves through K were drawn
# at degree 1 + sum of the weights took 57-65 s (2-vCPU Xeon, Python
# 3.11.7), nearly all of it in the chart loop on w o f and z o f; at the
# least degree it took 3.4-4.0 s with untruncated transforms and
# 0.64-0.70 s with the colength budget; the hunted map took 3.3-4.0 s
BOUNDS = {"map-pullback-tower-seed3": 15.0,
          "map-pullback-hunted-chain322-seed0": 15.0}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name):
    start = time.perf_counter()
    res = CliRunner().invoke(main, CASES[name], catch_exceptions=False)
    elapsed = time.perf_counter() - start
    assert res.exit_code == 0, res.stderr
    assert res.stdout == (GOLDEN / f"{name}.txt").read_text()
    assert elapsed < BOUNDS.get(name, math.inf)


def _command_paths(cmd, path=()):
    yield path
    for name in sorted(getattr(cmd, "commands", {})):
        yield from _command_paths(cmd.commands[name], path + (name,))


def test_help_golden():
    out = []
    for path in _command_paths(main):
        res = CliRunner().invoke(main, [*path, "--help"], terminal_width=80,
                                 catch_exceptions=False)
        assert res.exit_code == 0, res.stderr
        out.append(f"$ enriques {' '.join(path + ('--help',))}\n{res.stdout}")
    assert "\n".join(out) == (GOLDEN / "help.txt").read_text()
