"""Scenario and material documents, field sampling, CSV/JSON output.

Documents are JSON objects whose ``schema_version`` is 1. Each part of one
is laid out once, in a table below: the material document (``_MATERIAL``),
a scenario's top level for its kind (``_SCENARIOS``), its ``wave``
(``_WAVE``) and its ``grid`` (``_GRID``). A table gives each key, whether it
is required and the parser of its value; ``_walk`` parses by it and
``_dump`` inverts it. A key outside its part's table is a ParseError, except
in a material document, and a message names a nested key with its part
(``scenario file S.wave: key 'phi' must be a number``). For example::

    {"schema_version": 1, "kind": "freefield-half", "omega": 6.283e6,
     "wave": {"mode": "S1", "amplitude": [1.0, 0.0], "phi": 0.6},
     "grid": {"x1": [-1.0, 1.0, 50], "x2": [-2.0, 0.0, 50]},
     "outputs": ["displacement", "traction"], "normal": [0.0, 1.0]}

The point-source kinds take a ``source`` [x1, x2] in place of ``wave``, and
a ``points`` list [[x1, x2], ...] may replace ``grid``.

Field samples are written as CSV with one row per evaluation point; complex
quantities always appear as separate ``_re``/``_im`` columns (so
superposition checks stay exact), formatted with shortest round-trip float
repr. Point-source kinds use the column set
``x1,x2,u31_re,u31_im,u32_re,u32_im,w31_re,w31_im,w32_re,w32_im`` (plus
``t31,t32,G31,G32`` pairs when tractions are requested), free-field kinds
``x1,x2,u3_re,u3_im,w3_re,w3_im`` (plus ``t3,G3``). Grid rows are emitted
with x1 as the outer loop and x2 as the inner loop; evaluation order is
deterministic, so identical scenarios produce byte-identical CSV files.
``run_scenario`` streams them: ``scenario_points`` builds one block of points
from the grid's axes (or slices the point list), and ``sample_rows`` evaluates
it; the block is checked, formatted and written before the next is built.
A grid may hold at most ``MAX_POINTS`` = 10**7 points (n1 * n2).
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple, Optional

import numpy as np

# Invariant checks are called through their modules: a tracer patching the
# names bound here (benchmarks/tracing.py) then counts evaluation calls only.
from . import __version__, halfplane, kernels, material
from .errors import EvaluationError, ParseError, QcError, ValidationError
from .freefield import (
    IncidentWave,
    freefield_traction,
    fullplane_incident,
    halfplane_freefield,
)
from .halfplane import green_displacement, green_traction
from .kernels import fundamental_displacement, fundamental_traction
from .material import QcMaterial

__all__ = [
    "SCHEMA_VERSION",
    "KINDS",
    "MAX_POINTS",
    "Scenario",
    "load_material",
    "material_to_dict",
    "parse_scenario",
    "load_scenario",
    "scenario_to_dict",
    "validate_scenario",
    "scenario_points",
    "csv_header",
    "sample_rows",
    "run_scenario",
]

SCHEMA_VERSION = 1
KINDS = ("fundamental", "green-half", "freefield-full", "freefield-half")
POINT_SOURCE_KINDS = ("fundamental", "green-half")
HALF_PLANE_KINDS = ("green-half", "freefield-half")

# Largest grid (n1 * n2 points) validate_scenario accepts. A run holds one block
# whatever the grid, so the cap bounds run time and CSV size, not memory.
MAX_POINTS = 10**7
# Points per block: scenario_points builds, and run_scenario evaluates, checks,
# formats and writes, one block at a time. It bounds the memory alive and is the
# span over which a repeated float (a grid coordinate, a column equal to another)
# is formatted once: a longer block finds more repeats but holds more.
_BLOCK_ROWS = 1024


@dataclass(frozen=True)
class Scenario:
    """A validated sampling request for one solution family."""

    kind: str
    omega: float
    source: Optional[tuple[float, float]] = None
    wave: Optional[IncidentWave] = None
    grid: Optional[tuple[tuple[float, float, int], tuple[float, float, int]]] = None
    points: Optional[tuple[tuple[float, float], ...]] = None
    outputs: tuple[str, ...] = ("displacement",)
    normal: Optional[tuple[float, float]] = None


def _number(value, key: str, where: str) -> float:
    """The one check of every number in a document: a finite int or float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"{where}: key {key!r} must be a number; got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an int beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ParseError(f"{where}: key {key!r} must be finite; got {value!r}")
    return number


def _schema_version(value, key: str, where: str) -> int:
    if type(value) is not int or value != SCHEMA_VERSION:  # not True, 1.0 or "1"
        raise ParseError(
            f"{where}: unsupported schema_version {value!r} (expected {SCHEMA_VERSION})"
        )
    return value


def _kind(value, key: str, where: str) -> str:
    if value not in KINDS:
        raise ParseError(f"{where}: kind must be one of {KINDS}; got {value!r}")
    return value


def _pair(value, key: str, where: str) -> tuple[float, float]:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ParseError(f"{where}: key {key!r} must be a pair [x1, x2]")
    return (_number(value[0], key, where), _number(value[1], key, where))


def _amplitude(value, key: str, where: str) -> complex:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ParseError(f"{where}: {key} must be [re, im]")
    return complex(_number(value[0], key, where), _number(value[1], key, where))


def _axis(value, key: str, where: str) -> tuple[float, float, int]:
    if not isinstance(value, (list, tuple)) or len(value) != 3:
        raise ParseError(f"{where}: {key} must be [min, max, count]")
    lo, hi, count = _number(value[0], key, where), _number(value[1], key, where), value[2]
    if isinstance(count, bool) or not isinstance(count, int):
        raise ParseError(f"{where}: {key} count must be an integer")
    return (lo, hi, count)


def _points(value, key: str, where: str) -> tuple[tuple[float, float], ...]:
    if not isinstance(value, (list, tuple)) or not value:
        raise ParseError(f"{where}: key {key!r} must be a non-empty list of pairs")
    return tuple(_pair(point, key, where) for point in value)


def _outputs(value, key: str, where: str) -> tuple[str, ...]:
    if not isinstance(value, list) or not all(isinstance(out, str) for out in value):
        raise ParseError(f"{where}: key {key!r} must be a list of strings; got {value!r}")
    for i, out in enumerate(value):
        if out not in ("displacement", "traction"):
            raise ParseError(f"{where}: unknown output {out!r}")
        if out in value[:i]:
            raise ParseError(f"{where}: output {out!r} is repeated")
    if not value:
        raise ParseError(f"{where}: outputs must not be empty")
    return tuple(value)


class _Part(NamedTuple):
    """The layout of one object of a document.

    ``keys`` maps each key, in document order, to (required, parser). required is True,
    False, or the key of an alternative, when exactly one of the two must be given. A
    parser takes (value, key, where) and returns the key's field; a _Part as parser reads
    a nested object. ``build`` makes the object's value from its fields, ``fields`` the
    fields from the value.
    """

    keys: dict
    build: Callable
    fields: Callable
    extra_keys: bool = False  # a key outside keys is ignored, not a ParseError


def _document(cls, keys: dict, extra_keys: bool = False) -> _Part:
    """A whole document: its schema_version, then keys whose fields build a cls."""
    return _Part({"schema_version": (True, _schema_version), **keys},
                 lambda schema_version, **fields: cls(**fields),
                 lambda value: {"schema_version": SCHEMA_VERSION, **vars(value)}, extra_keys)


_MATERIAL = _document(QcMaterial, {key: (True, _number) for key in ("c44", "R3", "K2", "rho")},
                      extra_keys=True)
_WAVE = _Part({"mode": (True, lambda value, key, where: value),  # IncidentWave checks it
               "amplitude": (True, _amplitude), "phi": (True, _number)}, IncidentWave, vars)
_GRID = _Part({"x1": (True, _axis), "x2": (True, _axis)},
              lambda x1, x2: (x1, x2), lambda grid: {"x1": grid[0], "x2": grid[1]})
# A scenario's schema_version and kind come first: the kind chooses the layout of the rest.
_KIND = _document(dict, {"kind": (True, _kind)}, extra_keys=True)
_SCENARIOS = {kind: _document(Scenario, {
    "kind": (True, _kind),
    "omega": (True, _number),
    **({"source": (True, _pair)} if kind in POINT_SOURCE_KINDS else {"wave": (True, _WAVE)}),
    "grid": ("points", _GRID),
    "points": ("grid", _points),
    "outputs": (False, _outputs),
    "normal": (False, _pair),
}) for kind in KINDS}


def _walk(doc, part: _Part, where: str, key: Optional[str] = None):
    """Parse doc by part: the whole document named where, or its object under key."""
    if not isinstance(doc, dict):
        raise ParseError(f"{where}: expected a JSON object" if key is None
                         else f"{where}: key {key!r} must be an object")
    if key is not None:
        where = f"{where}.{key}"
    unexpected = [name for name in doc if name not in part.keys]
    if unexpected and not part.extra_keys:
        raise ParseError(f"{where}: unexpected key {unexpected[0]!r}")
    fields = {}
    for name, (required, parse) in part.keys.items():
        if isinstance(required, str) and (name in doc) == (required in doc):
            raise ParseError(f"{where}: exactly one of {name!r} or {required!r} is required")
        if name in doc:
            fields[name] = (_walk(doc[name], parse, where, name) if isinstance(parse, _Part)
                            else parse(doc[name], name, where))
        elif required is True:
            raise ParseError(f"{where}: missing required key {name!r}")
    try:
        return part.build(**fields)
    except ValueError as exc:  # IncidentWave checks its mode, angle and amplitude
        raise ValidationError(f"{where}: {exc}") from exc


def _dump(value, parse):
    """The document form of value, as parse (a parser or a _Part) would read it back."""
    if isinstance(parse, _Part):
        fields = parse.fields(value)
        return {key: _dump(fields[key], sub) for key, (_, sub) in parse.keys.items()
                if fields.get(key) is not None}
    if isinstance(value, complex):
        return [value.real, value.imag]
    return [_dump(item, None) for item in value] if isinstance(value, tuple) else value


def _load_json(path, where: str):
    """Read a JSON document; a key repeated in any of its objects is a ParseError."""
    def unique_keys(pairs):
        doc = {}
        for key, value in pairs:
            if key in doc:
                raise ParseError(f"{where}: key {key!r} is repeated")
            doc[key] = value
        return doc

    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, object_pairs_hook=unique_keys)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"{where}: {exc}") from exc


def load_material(path) -> QcMaterial:
    """Load and parse a material document laid out as _MATERIAL; does not run validate()."""
    where = f"material file {path}"
    return _walk(_load_json(path, where), _MATERIAL, where)


def material_to_dict(m: QcMaterial) -> dict:
    return _dump(m, _MATERIAL)


def _write_json(path, m: QcMaterial, **fields) -> None:
    """Write fields under the schema_version, generator and material every JSON output carries."""
    doc = {"schema_version": SCHEMA_VERSION,
           "generator": {"package": "qcwaves", "version": __version__},
           "material": material_to_dict(m), **fields}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def parse_scenario(doc: dict, where: str = "scenario") -> Scenario:
    """Build a Scenario from a parsed JSON document laid out as _SCENARIOS[kind]."""
    return _walk(doc, _SCENARIOS[_walk(doc, _KIND, where)["kind"]], where)


def load_scenario(path) -> Scenario:
    return parse_scenario(_load_json(path, f"scenario file {path}"), where=f"scenario file {path}")


def scenario_to_dict(s: Scenario) -> dict:
    """Canonical JSON-ready form; parse_scenario() round-trips it exactly."""
    return _dump(s, _SCENARIOS[s.kind])


def _axis_values(lo: float, hi: float, count: int) -> np.ndarray:
    if count == 1:
        return np.array([lo])
    step = (hi - lo) / (count - 1)
    with np.errstate(over="ignore", invalid="ignore"):  # validate_scenario names the point
        return lo + np.arange(count) * step


def scenario_points(s: Scenario) -> Iterator[np.ndarray]:
    """Yield the points in output order as (n, 2) blocks of at most _BLOCK_ROWS rows."""
    if s.points is not None:
        for start in range(0, len(s.points), _BLOCK_ROWS):
            yield np.array(s.points[start:start + _BLOCK_ROWS], dtype=float)
        return
    (lo1, hi1, n1), (lo2, hi2, n2) = s.grid
    x1, x2 = _axis_values(lo1, hi1, n1), _axis_values(lo2, hi2, n2)
    for start in range(0, n1 * n2, _BLOCK_ROWS):
        i1, i2 = np.divmod(np.arange(start, min(start + _BLOCK_ROWS, n1 * n2)), n2)
        yield np.column_stack([x1[i1], x2[i2]])


def validate_scenario(s: Scenario, m: QcMaterial) -> None:
    """Check every scenario invariant before any kernel evaluation; raise a QcError.

    The material, frequency, normal, source and half-plane checks are the library's own.
    """
    material.wave_parameters(material.decompose(m), m.rho, s.omega)
    if s.grid is not None:
        for axis, (lo, hi, count) in zip(("x1", "x2"), s.grid):
            if count < 1:
                raise ValidationError(f"grid {axis} count must be >= 1; got {count}")
        n_points = s.grid[0][2] * s.grid[1][2]
        if n_points > MAX_POINTS:
            raise ValidationError(f"grid has {n_points} points; at most {MAX_POINTS} are allowed")
    if "traction" in s.outputs and s.normal is None:
        raise ValidationError("traction output requested but no normal given")
    if s.normal is not None:
        kernels.check_normal(s.normal)
    if s.kind == "green-half":
        halfplane.image_point(s.source)
    for pts in scenario_points(s):
        finite = np.isfinite(pts).all(axis=1)
        if not finite.all():
            field = "points" if s.grid is None else "grid"
            raise ValidationError(f"{field}: point {pts[finite.argmin()].tolist()} is not finite")
        if s.kind in HALF_PLANE_KINDS:
            halfplane.check_field_point(pts)


def csv_header(s: Scenario) -> list[str]:
    if s.kind in POINT_SOURCE_KINDS:
        cols = ["x1", "x2"]
        for name in ("u31", "u32", "w31", "w32"):
            cols += [f"{name}_re", f"{name}_im"]
        if "traction" in s.outputs:
            for name in ("t31", "t32", "G31", "G32"):
                cols += [f"{name}_re", f"{name}_im"]
        return cols
    cols = ["x1", "x2", "u3_re", "u3_im", "w3_re", "w3_im"]
    if "traction" in s.outputs:
        cols += ["t3_re", "t3_im", "G3_re", "G3_im"]
    return cols


def sample_rows(s: Scenario, m: QcMaterial, pts: np.ndarray) -> np.ndarray:
    """Evaluate (n, 2) points, a block of scenario_points(s), as an (n, C) array
    with the csv_header columns.

    Raises EvaluationError naming a failing point.
    """
    rows = np.empty((len(pts), len(csv_header(s))))
    rows[:, :2] = pts
    traction = "traction" in s.outputs
    if s.kind in POINT_SOURCE_KINDS:
        disp, trac = ((fundamental_displacement, fundamental_traction) if s.kind == "fundamental"
                      else (green_displacement, green_traction))
        out = rows[:, 2:].view(complex).reshape(len(pts), -1, 2, 2)  # 2x2 results, row-major
        for i, p in enumerate(pts.tolist()):
            try:
                out[i, 0] = disp(m, p, s.source, s.omega)
                if traction:
                    out[i, 1] = trac(m, p, s.source, s.omega, s.normal)
            except QcError as exc:
                raise EvaluationError(f"evaluation failed at point {p}: {exc}") from exc
    else:
        half_plane = s.kind == "freefield-half"
        field = halfplane_freefield if half_plane else fullplane_incident
        try:  # the library names the first failing point; an overflow, the check below
            with np.errstate(over="ignore", invalid="ignore"):
                rows[:, 2:6] = field(m, s.wave, s.omega, pts).view(float)
                if traction:
                    rows[:, 6:] = freefield_traction(m, s.wave, s.omega, pts, s.normal,
                                                     half_plane).view(float)
        except QcError as exc:
            raise EvaluationError(f"evaluation failed: {exc}") from exc
    finite = np.isfinite(rows).all(axis=1)
    if not finite.all():
        raise EvaluationError(
            f"evaluation at point {pts[finite.argmin()].tolist()} gave a non-finite value")
    return rows


def _format_block(block: np.ndarray) -> str:
    """CSV lines of a (B, C) block, each distinct float repr'd once."""
    # matched by bits, not by ==: 0.0 == -0.0 but their reprs differ
    bits, index = np.unique(block.view(np.int64), return_inverse=True)
    # repr of builtin float: shortest digits that round-trip exactly
    text = np.array(list(map(repr, bits.view(float).tolist())), dtype=object)
    return "".join(",".join(row) + "\n" for row in text[index.reshape(block.shape)].tolist())


def run_scenario(s: Scenario, m: QcMaterial, out_path, sidecar_path=None) -> int:
    """Validate, then evaluate and write the CSV one block of points at a time,
    and the optional JSON sidecar.

    Returns the number of data rows written. Any error once the CSV is open,
    say a point that fails to evaluate or a MemoryError, removes the CSV and
    the sidecar.
    """
    validate_scenario(s, m)
    n_rows = len(s.points) if s.grid is None else s.grid[0][2] * s.grid[1][2]
    fh = open(out_path, "w", encoding="utf-8", newline="\n")
    try:
        with fh:
            fh.write(",".join(csv_header(s)) + "\n")
            for pts in scenario_points(s):
                fh.write(_format_block(sample_rows(s, m, pts)))
        if sidecar_path is not None:
            _write_json(sidecar_path, m, scenario=scenario_to_dict(s), rows=n_rows)
    except BaseException:
        for path in (out_path, sidecar_path):
            if path is not None and os.path.isfile(path):
                os.remove(path)
        raise
    return n_rows
