"""File formats: model documents, observation series, exported paths.

Model files are YAML with an explicit season-major layout and a schema
version, so a transposed coefficient table fails loudly instead of running
quietly::

    schema: parma-model-v1
    l: 4
    p: 1
    q: 0
    drift: [0.0, 0.0, 0.0, 0.0]
    ar:                 # one row per AR lag m = 1..p, one column per season
    - [0.9, 0.9, 0.9, 0.9]
    ma: []              # one row per MA lag j = 1..q
    sigma2: [1.0, 1.0, 1.0, 1.0]

Unknown keys are rejected.  Series files are delimited text with header
``time,season,value``; the season column is validated against the model's
clock because season misalignment is the dominant user error for periodic
data.  Exported sample paths use ``time,season,y,eps`` columns.  All
numeric output is written with 12 significant digits.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np
import yaml

from .model import ModelValidationError, PeriodicModel, _is_int
from .sim import SamplePath

__all__ = [
    "SCHEMA",
    "FileFormatError",
    "NUMBER_FORMAT",
    "Series",
    "format_number",
    "load_model",
    "dump_model",
    "save_model",
    "load_series",
    "dump_path",
]

SCHEMA = "parma-model-v1"
#: libyaml's parser when PyYAML was built with it: about 7x faster on a daily model
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
_MODEL_KEYS = {"schema", "l", "p", "q", "drift", "ar", "ma", "sigma2"}


class FileFormatError(ValueError):
    """A document was readable but does not follow the declared format."""


#: printf-style spec of :func:`format_number`, for writers that format a whole row at once
NUMBER_FORMAT = "%.12g"


def format_number(x: float) -> str:
    """Fixed 12-significant-digit rendering (stable across platforms)."""
    return NUMBER_FORMAT % float(x)


def load_model(path: str) -> PeriodicModel:
    """Read and validate a model document.

    Raises
    ------
    FileFormatError
        Unparseable YAML, wrong schema, or unknown/missing keys.
    ModelValidationError
        Well-formed document whose numbers violate the model invariants.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        doc = yaml.load(text, Loader=_LOADER)
    except yaml.YAMLError as exc:
        raise FileFormatError(f"{path}: not valid YAML: {exc}") from exc
    if not isinstance(doc, dict):
        raise FileFormatError(f"{path}: expected a mapping at top level")
    if doc.get("schema") != SCHEMA:
        raise FileFormatError(
            f"{path}: schema must be {SCHEMA!r}, got {doc.get('schema')!r}")
    unknown = set(doc) - _MODEL_KEYS
    if unknown:
        raise FileFormatError(
            f"{path}: unknown key(s): {', '.join(sorted(unknown))}")
    missing = _MODEL_KEYS - set(doc)
    if missing:
        raise FileFormatError(
            f"{path}: missing key(s): {', '.join(sorted(missing))}")
    for name in ("l", "p", "q"):
        if not _is_int(doc[name]):
            raise FileFormatError(f"{path}: {name} must be an integer")
    try:
        return PeriodicModel(l=doc["l"], p=doc["p"], q=doc["q"],
                             drift=doc["drift"], ar=doc["ar"], ma=doc["ma"],
                             sigma2=doc["sigma2"])
    except ModelValidationError:
        raise
    except (TypeError, ValueError) as exc:
        raise FileFormatError(f"{path}: malformed arrays: {exc}") from exc


def dump_model(model: PeriodicModel) -> str:
    """Render a model as a schema-stamped YAML document."""
    doc = {
        "schema": SCHEMA,
        "l": int(model.l),
        "p": int(model.p),
        "q": int(model.q),
        "drift": [float(x) for x in model.drift],
        "ar": [[float(x) for x in row] for row in model.ar],
        "ma": [[float(x) for x in row] for row in model.ma],
        "sigma2": [float(x) for x in model.sigma2],
    }
    return yaml.safe_dump(doc, sort_keys=False, default_flow_style=None)


def save_model(model: PeriodicModel, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_model(model))


@dataclass(frozen=True)
class Series:
    """Observations at consecutive integer times."""

    times: np.ndarray
    values: np.ndarray

    def __len__(self) -> int:
        return len(self.times)

    @property
    def last_time(self) -> int:
        return int(self.times[-1])

    def tail(self, p: int) -> np.ndarray:
        """Last ``p`` values, newest first (the forecasting origin tail)."""
        if p > len(self.values):
            raise ValueError(
                f"series holds {len(self.values)} points; need at least {p}")
        return self.values[::-1][:p].copy()


def load_series(path: str, model: PeriodicModel) -> Series:
    """Read a ``time,season,value`` file and check it against the clock."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        rows = [(reader.line_num, row) for row in reader if row]
    if not rows:
        raise FileFormatError(f"{path}: empty series file")
    header = [c.strip().lower() for c in rows[0][1]]
    if header != ["time", "season", "value"]:
        raise FileFormatError(
            f"{path}: header must be time,season,value, got {','.join(header)}")
    times = []
    values = []
    for lineno, row in rows[1:]:
        if len(row) != 3:
            raise FileFormatError(f"{path}:{lineno}: expected 3 columns")
        try:
            t, season, value = int(row[0]), int(row[1]), float(row[2])
        except ValueError as exc:
            raise FileFormatError(f"{path}:{lineno}: {exc}") from exc
        if not np.isfinite(value):
            raise FileFormatError(f"{path}:{lineno}: value {row[2].strip()} is not finite")
        want = model.season(t)
        if season != want:
            raise FileFormatError(
                f"{path}:{lineno}: time {t} falls in season {want}, "
                f"file says {season}")
        times.append(t)
        values.append(value)
    if not times:
        raise FileFormatError(f"{path}: no observations")
    times_arr = np.array(times, dtype=int)
    if np.any(np.diff(times_arr) != 1):
        raise FileFormatError(f"{path}: times must be consecutive integers")
    return Series(times=times_arr, values=np.array(values))


def dump_path(path_obj: SamplePath, stream: io.TextIOBase) -> None:
    """Write one sample path as ``time,season,y,eps`` rows."""
    stream.write("time,season,y,eps\n")
    line = "%d,%d," + NUMBER_FORMAT + "," + NUMBER_FORMAT + "\n"
    rows = zip(path_obj.times.tolist(), path_obj.seasons.tolist(), path_obj.y.tolist(),
               path_obj.eps.tolist())
    stream.writelines(line % row for row in rows)
