"""Power-grid case ingestion and serialization.

A case is a set of buses (generator or load, signed per-unit injection)
and branches (per-unit reactance or susceptance, exactly one given).
Susceptances are the edge weights of the oscillator network; injections
are the natural frequencies, mean-centered into the rotating frame.

The native format is JSON (see docs/case-format.md); a converter ingests
the common bus/branch text layout of power-system test cases.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .graphs import WeightedGraph, _is_integer, _node_index, build_graph

__all__ = [
    "GENERATOR",
    "LOAD",
    "CaseError",
    "Bus",
    "Branch",
    "GridCase",
    "load_case",
    "parse_case_json",
    "parse_bus_branch_text",
    "case_to_dict",
    "write_case",
]

GENERATOR = "generator"
LOAD = "load"


class CaseError(ValueError):
    """Schema violation in a grid case file."""


@dataclass(frozen=True)
class Bus:
    id: int
    kind: str
    power_pu: float


@dataclass(frozen=True)
class Branch:
    from_bus: int
    to_bus: int
    susceptance_pu: float


@dataclass(frozen=True)
class GridCase:
    """Validated grid case; bus order follows ascending bus id."""

    name: str
    buses: tuple[Bus, ...]
    branches: tuple[Branch, ...]

    def __post_init__(self) -> None:
        ids = [b.id for b in self.buses]
        if len(set(ids)) != len(ids):
            dup = next(i for i in ids if ids.count(i) > 1)
            raise CaseError(f"duplicate bus id {dup}")
        object.__setattr__(self, "buses", tuple(sorted(self.buses, key=lambda b: b.id)))
        object.__setattr__(
            self, "_node_index", {b.id: idx + 1 for idx, b in enumerate(self.buses)}
        )
        known = set(ids)
        for b in self.buses:
            if not math.isfinite(b.power_pu):
                raise CaseError(f"bus {b.id}: power_pu must be finite, "
                                f"got {b.power_pu}")
            if b.kind not in (GENERATOR, LOAD):
                raise CaseError(f"bus {b.id}: unknown kind {b.kind!r}")
            if b.kind == GENERATOR and b.power_pu < 0:
                raise CaseError(f"bus {b.id}: generator has negative injection")
            if b.kind == LOAD and b.power_pu > 0:
                raise CaseError(f"bus {b.id}: load has positive injection")
        seen_pairs: set[tuple[int, int]] = set()
        for br in self.branches:
            if br.from_bus not in known or br.to_bus not in known:
                raise CaseError(
                    f"branch {br.from_bus}-{br.to_bus}: unknown endpoint"
                )
            if br.from_bus == br.to_bus:
                raise CaseError(f"branch at bus {br.from_bus} is a self-loop")
            if not 0 < br.susceptance_pu < math.inf:
                raise CaseError(f"branch {br.from_bus}-{br.to_bus}: susceptance must "
                                f"be positive and finite, got {br.susceptance_pu}")
            pair = (min(br.from_bus, br.to_bus), max(br.from_bus, br.to_bus))
            if pair in seen_pairs:
                raise CaseError(f"duplicate branch {pair[0]}-{pair[1]}")
            seen_pairs.add(pair)

    @property
    def n(self) -> int:
        return len(self.buses)

    def node_of(self, bus_id: int) -> int:
        """1-based node index of a bus id, a Python or numpy integer but not a
        bool: the package's one bus-id check. Raises CaseError otherwise."""
        if not _is_integer(bus_id):
            raise CaseError(f"bus id must be an integer, got {bus_id!r}")
        try:
            return self._node_index[bus_id]
        except KeyError:
            raise CaseError(f"unknown bus id {bus_id}") from None

    def bus_of(self, node: int) -> int:
        return self.buses[_node_index(node, self.n)].id

    @property
    def generator_ids(self) -> tuple[int, ...]:
        return tuple(b.id for b in self.buses if b.kind == GENERATOR)

    @property
    def injection_shift(self) -> float:
        """Per-bus shift applied to mean-center injections."""
        total = sum(b.power_pu for b in self.buses)
        return -total / self.n

    def omega(self) -> np.ndarray:
        """Mean-centered injections in node order (rotating frame)."""
        w = np.array([b.power_pu for b in self.buses])
        return w - w.mean()

    def edge_pairs(self) -> tuple[tuple[int, int], ...]:
        """Branches as 1-based node pairs, in branch order."""
        return tuple(
            (self.node_of(br.from_bus), self.node_of(br.to_bus))
            for br in self.branches
        )

    def susceptances(self) -> np.ndarray:
        return np.array([br.susceptance_pu for br in self.branches])

    @property
    def total_susceptance(self) -> float:
        return float(sum(br.susceptance_pu for br in self.branches))

    @cached_property
    def _topology(self) -> WeightedGraph:
        """The branch network at unit weights, validated once on first use."""
        return build_graph(self.n, self.edge_pairs(), np.ones(len(self.branches)))

    def graph(self, b: np.ndarray | None = None) -> WeightedGraph:
        """Oscillator network with physical (or given) edge weights.

        Every call shares the one ``_topology`` and its index arrays.
        """
        return self._topology.with_weights(self.susceptances() if b is None else b)


def _branch_from_fields(from_bus: int, to_bus: int, reactance, susceptance,
                        where: str) -> Branch:
    if (reactance is None) == (susceptance is None):
        raise CaseError(
            f"{where}: give exactly one of reactance_pu or susceptance_pu"
        )
    if reactance is not None:
        if reactance <= 0:
            raise CaseError(f"{where}: reactance must be positive")
        susceptance = 1.0 / reactance
    return Branch(from_bus=from_bus, to_bus=to_bus, susceptance_pu=float(susceptance))


def _json_id(value) -> int:
    # bool is an int subclass; a float id would be truncated by int().
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"id must be an integer, got {value!r}")
    return value


def _json_number(value, key: str) -> float:
    # bool is an int subclass, and float() would also parse a string.
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{key} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an integer beyond float range fails the finite checks
        return math.inf if value > 0 else -math.inf


def _json_objects(raw: dict, section: str) -> list[dict]:
    """A section of the case: a JSON array whose entries are all objects."""
    entries = raw.get(section, [])
    if not isinstance(entries, list):
        raise CaseError(f"{section} must be a JSON array, got {entries!r}")
    for idx, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise CaseError(f"{section}[{idx}]: must be a JSON object, got {entry!r}")
    return entries


def parse_case_json(text: str, name: str | None = None) -> GridCase:
    """Parse the native JSON schema."""
    try:
        raw = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer too long to parse
        raise CaseError(f"invalid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise CaseError("case file must hold a JSON object")
    buses = []
    for idx, rb in enumerate(_json_objects(raw, "buses")):
        try:
            buses.append(Bus(id=_json_id(rb["id"]), kind=str(rb["kind"]),
                             power_pu=_json_number(rb["power_pu"], "power_pu")))
        except (KeyError, TypeError, ValueError) as exc:
            raise CaseError(f"buses[{idx}]: {exc}") from None
    branches = []
    for idx, rb in enumerate(_json_objects(raw, "branches")):
        try:
            x, s = (None if rb.get(key) is None else _json_number(rb[key], key)
                    for key in ("reactance_pu", "susceptance_pu"))
            branches.append(_branch_from_fields(
                _json_id(rb["from"]), _json_id(rb["to"]), x, s, f"branches[{idx}]",
            ))
        except (KeyError, TypeError) as exc:
            raise CaseError(f"branches[{idx}]: {exc}") from None
    if not buses:
        raise CaseError("case has no buses")
    if not branches:
        raise CaseError("case has no branches")
    return GridCase(
        name=str(raw.get("name", name or "unnamed")),
        buses=tuple(buses),
        branches=tuple(branches),
    )


def parse_bus_branch_text(text: str, name: str = "unnamed") -> GridCase:
    """Convert the common bus/branch matrix text layout.

    Layout: a BUS section of lines `id type_code injection_pu` (type codes
    2 and 3 are generators, 0 and 1 loads), then a BRANCH section of lines
    `from to reactance_pu`. `#` starts a comment.
    """
    buses: list[Bus] = []
    branches: list[Branch] = []
    section = None
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        upper = line.upper()
        if upper.startswith("BUS"):
            section = "bus"
            continue
        if upper.startswith("BRANCH"):
            section = "branch"
            continue
        if upper == "END":
            break
        fields = line.split()
        if section == "bus":
            if len(fields) < 3:
                raise CaseError(f"line {lineno}: bus needs id, type code, injection")
            try:
                bid, code, power = int(fields[0]), int(fields[1]), float(fields[2])
            except ValueError as exc:
                raise CaseError(f"line {lineno}: {exc}") from None
            if code not in (0, 1, 2, 3):
                raise CaseError(f"line {lineno}: unknown bus type code {code}")
            buses.append(Bus(id=bid, kind=GENERATOR if code >= 2 else LOAD,
                             power_pu=power))
        elif section == "branch":
            if len(fields) < 3:
                raise CaseError(f"line {lineno}: branch needs from, to, reactance")
            try:
                fb, tb, x = int(fields[0]), int(fields[1]), float(fields[2])
            except ValueError as exc:
                raise CaseError(f"line {lineno}: {exc}") from None
            branches.append(_branch_from_fields(fb, tb, x, None, f"line {lineno}"))
        else:
            raise CaseError(f"line {lineno}: data before a BUS/BRANCH header")
    if not buses or not branches:
        raise CaseError("text case needs nonempty BUS and BRANCH sections")
    return GridCase(name=name, buses=tuple(buses), branches=tuple(branches))


def load_case(path: str | Path) -> GridCase:
    """Load a case file, JSON or bus/branch text layout."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise CaseError(f"cannot read case file {path}: {exc}") from None
    if text.lstrip().startswith("{"):
        return parse_case_json(text, name=path.stem)
    return parse_bus_branch_text(text, name=path.stem)


def case_to_dict(case: GridCase) -> dict:
    """Normalized JSON form (susceptances resolved)."""
    return {
        "name": case.name,
        "buses": [
            {"id": b.id, "kind": b.kind, "power_pu": b.power_pu}
            for b in case.buses
        ],
        "branches": [
            {"from": br.from_bus, "to": br.to_bus,
             "susceptance_pu": br.susceptance_pu}
            for br in case.branches
        ],
    }


def write_case(case: GridCase, path: str | Path) -> None:
    Path(path).write_text(json.dumps(case_to_dict(case), indent=2) + "\n")
