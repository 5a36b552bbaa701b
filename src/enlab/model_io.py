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
from .random_times import RandomTimeMap


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


def parse_model(payload: dict):
    for key in ("outcomes", "prob", "partitions", "S", "tau"):
        if key not in payload:
            raise SchemaError("missing required key", field=key)
    prob = {o: _fraction(p, f"prob.{o}") for o, p in payload["prob"].items()}
    space = build_space({"outcomes": payload["outcomes"], "prob": prob,
                         "partitions": payload["partitions"],
                         "horizon": payload.get("horizon")})

    processes = {"S": _parse_process(payload["S"], space, "S")}
    for name, raw in payload.get("processes", {}).items():
        processes[name] = _parse_process(raw, space, f"processes.{name}")

    tau_raw = payload["tau"]
    if isinstance(tau_raw, dict) and "last_visit" in tau_raw:
        recipe = tau_raw["last_visit"]
        name = recipe.get("process", "S")
        if name not in processes:
            raise SchemaError(f"unknown process {name!r}",
                              field="tau.last_visit.process")
        levels = {_fraction(v, "tau.last_visit.set")
                  for v in recipe.get("set", [])}
        driver = processes[name]
        tau_map = {}
        for o in space.outcomes:
            hits = [t for t in range(space.horizon + 1)
                    if driver.at(o, t) in levels]
            tau_map[o] = max(hits) if hits else 0
        tau = RandomTimeMap.build(tau_map, space)
    else:
        tau = RandomTimeMap.build(
            {o: int(v) for o, v in tau_raw.items()}, space)
    return space, tau, processes["S"]


def _parse_process(raw: dict, space: FiniteFilteredSpace,
                   where: str) -> AdaptedProcess:
    values = {}
    for o in space.outcomes:
        if o not in raw:
            raise SchemaError(f"no row for outcome {o!r}", field=where)
        values[o] = [_fraction(v, f"{where}.{o}") for v in raw[o]]
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
