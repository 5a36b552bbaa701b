"""Model files: finite filtered space, asset, and random time as JSON.

Rationals are serialized as "p/q" strings everywhere.  The random time
may be given explicitly per outcome or as a last-visit recipe naming an
adapted process and a rational level set; honesty and class membership
are always recomputed by analyze(), never trusted from a file.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

from .errors import NotAdapted, SchemaError
from .finite_prob import AdaptedProcess, FiniteFilteredSpace, adapted, build_space
from .random_times import RandomTimeMap, last_visit


def _fraction(text, where: str) -> Fraction:
    try:
        return Fraction(str(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"bad rational {text!r}", field=where) from exc


def load_model(path) -> tuple[FiniteFilteredSpace, RandomTimeMap, AdaptedProcess]:
    """Read and validate a model file; returns (space, tau, asset)."""
    try:
        payload = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise SchemaError(f"not valid JSON: {exc}", field=str(path)) from exc
    return parse_model(payload)


def _typed(value, kind: type, where: str):
    """``value`` if it is a ``kind`` (a JSON object or array), else a
    SchemaError naming ``where``."""
    if not isinstance(value, kind):
        expected = "an object" if kind is dict else "an array"
        raise SchemaError(f"expected {expected}, got {value!r}", field=where)
    return value


def _names(value, where: str) -> list:
    """An array of outcome names, else a SchemaError naming ``where``."""
    if not all(isinstance(o, str) for o in _typed(value, list, where)):
        raise SchemaError("outcome names must be strings", field=where)
    return value


def _known(raw: dict, space: FiniteFilteredSpace, where: str) -> dict:
    """``raw``, keyed by outcome names, else a SchemaError naming its
    first key that names no outcome."""
    ghost = next((o for o in raw if o not in space.prob), None)
    if ghost is not None:
        raise SchemaError(f"unknown outcome {ghost!r}", field=f"{where}.{ghost}")
    return raw


def parse_model(payload: dict):
    _typed(payload, dict, "(model)")
    for key in ("outcomes", "prob", "partitions", "S", "tau"):
        if key not in payload:
            raise SchemaError("missing required key", field=key)
    prob = {o: _fraction(p, f"prob.{o}")
            for o, p in _typed(payload["prob"], dict, "prob").items()}
    for t, part in enumerate(_typed(payload["partitions"], list,
                                    "partitions")):
        for block in _typed(part, list, f"partitions.{t}"):
            _names(block, f"partitions.{t}")
    space = build_space({"outcomes": _names(payload["outcomes"], "outcomes"),
                         "prob": prob,
                         "partitions": payload["partitions"],
                         "horizon": payload.get("horizon")})

    processes = {"S": _parse_process(payload["S"], space, "S")}
    for name, raw in _typed(payload.get("processes", {}), dict,
                            "processes").items():
        processes[name] = _parse_process(raw, space, f"processes.{name}")

    tau_raw = _typed(payload["tau"], dict, "tau")
    if "last_visit" in tau_raw:
        if len(tau_raw) > 1:
            raise SchemaError("a last_visit recipe takes no other key",
                              field="tau")
        recipe = _typed(tau_raw["last_visit"], dict, "tau.last_visit")
        name = recipe.get("process", "S")
        if name not in processes:
            raise SchemaError(f"unknown process {name!r}",
                              field="tau.last_visit.process")
        levels = {_fraction(v, "tau.last_visit.set")
                  for v in _typed(recipe.get("set", []), list,
                                  "tau.last_visit.set")}
        tau = last_visit(space, processes[name], levels.__contains__)
    else:
        for o, v in tau_raw.items():
            if isinstance(v, bool) or not isinstance(v, int):
                raise SchemaError(f"time {v!r} is not an integer",
                                  field=f"tau.{o}")
        tau = RandomTimeMap.build(_known(tau_raw, space, "tau"), space)
    return space, tau, processes["S"]


def _parse_process(raw: dict, space: FiniteFilteredSpace,
                   where: str) -> AdaptedProcess:
    _known(_typed(raw, dict, where), space, where)
    values = {}
    for o in space.outcomes:
        if o not in raw:
            raise SchemaError(f"no row for outcome {o!r}", field=where)
        values[o] = [_fraction(v, f"{where}.{o}")
                     for v in _typed(raw[o], list, f"{where}.{o}")]
    try:
        return adapted(values, space)
    except (NotAdapted, SchemaError) as exc:
        raise SchemaError(str(exc), field=where) from exc


def dump_model(space: FiniteFilteredSpace, tau: RandomTimeMap,
               asset: AdaptedProcess, path=None) -> dict:
    payload = {
        "outcomes": list(space.outcomes),
        "prob": {o: str(space.prob[o]) for o in space.outcomes},
        "horizon": space.horizon,
        "partitions": [[list(block) for block in part]
                       for part in space.filtration.partitions],
        "S": {o: [str(asset.at(o, t)) for t in range(space.horizon + 1)]
              for o in space.outcomes},
        "tau": {o: tau[o] for o in space.outcomes},
    }
    if path is not None:
        Path(path).write_text(json.dumps(payload, indent=1, sort_keys=True))
    return payload
