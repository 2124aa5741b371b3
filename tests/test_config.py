"""Seeded fuzz of the set-up path (load_config, build_model, cone_from_config):
each single-entry mutation of a valid config builds or raises MmvConeError."""

import copy
import math
import random

from mmvcone import cli
from mmvcone.cones import cone_from_config
from mmvcone.errors import MmvConeError
from mmvcone.market import build_model

from conftest import INSTANCE_A, INSTANCE_B, INSTANCE_C, INSTANCE_C_SIGMA1, INSTANCE_ORTHANT2

_MODELS = [
    INSTANCE_A, INSTANCE_B, INSTANCE_ORTHANT2, INSTANCE_C, INSTANCE_C_SIGMA1,
    # a generated cone and a time grid, which the instances above lack
    {**INSTANCE_ORTHANT2, "cone": {"kind": "generated", "G": [[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]]}},
    {**INSTANCE_A, "coefficients": {"kind": "deterministic", "times": [0.0, 0.5, 1.0],
                                    "mu": [[0.06], [0.05], [0.07]],
                                    "sigma": [[[0.2]], [[0.25]], [[0.2]]]}},
]
# what a mutation may put in an entry's place: other JSON types, text that
# reads as a number, non-finite numbers, an integer past float's range and
# a ragged list
_JUNK = [None, True, False, "x", "1.5", [], {}, [1.0, "x"], math.nan, math.inf, -math.inf,
         0, -1, 1.5, 10 ** 400, [[1.0], [2.0, 3.0]]]
_CASES = 400


def _cli_config(model, experiment):
    markov = model["coefficients"]["kind"] == "markov"
    cfg = {"model": copy.deepcopy(model), "experiment": experiment, "seed": 7,
           "solver": ({"kind": "markovian", "paths": 1000, "steps": 10} if markov
                      else {"kind": "deterministic", "steps": 100})}
    if experiment in ("simulate", "saddle"):
        cfg.update(paths=200, steps=10)
    return cfg


def _paths(node, prefix=()):
    """The path (keys and indices) of every entry under node."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


def _mutate(cfg, rng):
    """Change one entry of cfg in place: delete it, wrap it in a list, drop
    a list's last element or replace it with junk; returns (path, what)."""
    path = rng.choice(list(_paths(cfg)))
    parent = cfg
    for key in path[:-1]:
        parent = parent[key]
    key, op = path[-1], rng.randrange(4)
    if op == 0 and isinstance(parent, dict):
        del parent[key]
        return path, "deleted"
    if op == 1:
        parent[key] = [parent[key]]
        return path, "wrapped"
    if op == 2 and isinstance(parent[key], list) and parent[key]:
        parent[key] = parent[key][:-1]
        return path, "shortened"
    parent[key] = rng.choice(_JUNK)
    return path, f"set to {parent[key]!r:.40}"


def test_single_entry_mutations_build_or_raise_a_typed_error():
    rng = random.Random(33)
    built = refused = 0
    escapes = []
    for _ in range(_CASES):
        cfg = _cli_config(rng.choice(_MODELS), rng.choice(cli.EXPERIMENTS))
        path, what = _mutate(cfg, rng)
        try:
            cfg = cli.load_config(cfg)
            model = build_model(cfg["model"])
            cone_from_config(cfg["model"]["cone"], model.m)
            built += 1
        except MmvConeError:
            refused += 1
        except Exception as exc:   # a RuntimeWarning lands here too: pytest raises it
            escapes.append(f"{path} {what}: {type(exc).__name__}: {exc}")
    assert escapes == []
    assert built > 0 and refused > _CASES // 2
