"""Artifact writers shared by the experiment runners: a tiny CSV table and
strict JSON, both written atomically.

All floats are serialized with 17 significant digits so that written values
round-trip exactly through text, and reruns of a deterministic experiment
produce byte-identical files.  Every artifact is written to a temporary
file in its target directory and then moved over the target with
``os.replace``, so a run that fails midway leaves either the previous file
or the complete new one, never a partial file.

A CSV table picks one ``%`` format per column from the types of its
cells: ``%d`` for a column of Python ints and bools, ``%.17g`` for a
column of floats and numpy numbers, and ``%s`` over cells formatted one
by one with ``format_value`` for any other column (strings, or mixed
types).  The whole table is then formatted by a single ``%``, and every
cell comes out as ``format_value`` writes it.
"""

from __future__ import annotations

import json
import os
import uuid
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import ConfigurationError, ShapeError


def atomic_write(path, write):
    """Create or replace the text file ``path`` with what ``write(fh)`` writes.

    The text goes to a temporary file next to ``path``, which replaces
    ``path`` only once ``write`` has returned; if anything raises, the
    temporary file is removed and ``path`` is left as it was.  A ``path``
    whose directory cannot be created, or that cannot be created or
    replaced there, raises ``ConfigurationError``; what ``write`` raises
    passes through unchanged.
    """
    parent, name = os.path.split(os.path.abspath(path))
    tmp = os.path.join(parent, f".{name}.{uuid.uuid4().hex}.tmp")
    try:
        os.makedirs(parent, exist_ok=True)
        fh = open(tmp, "x", encoding="utf-8")
    except OSError as exc:
        raise ConfigurationError(f"cannot write {path!r}: {exc}") from exc
    try:
        with fh:
            write(fh)
    except BaseException:
        os.unlink(tmp)
        raise
    try:
        os.replace(tmp, path)
    except OSError as exc:
        os.unlink(tmp)
        raise ConfigurationError(f"cannot write {path!r}: {exc}") from exc
    return path


def write_json(payload, path):
    """Write ``payload`` as indented strict JSON (no NaN or infinity)."""

    def dump(fh):
        json.dump(payload, fh, indent=2, allow_nan=False)
        fh.write("\n")

    return atomic_write(path, dump)


def format_value(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int,)) and not isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return f"{value:.17g}"
    try:
        return f"{float(value):.17g}"
    except (TypeError, ValueError):
        return str(value)


_FLOAT_TYPES = (float, np.integer, np.floating, np.bool_)


def _column_format(cells):
    """The ``%`` format that writes every one of ``cells`` as
    ``format_value`` does, or None when no single format does."""
    kinds = set(map(type, cells))
    if kinds <= {bool, int}:
        return "%d"
    if all(issubclass(kind, _FLOAT_TYPES) for kind in kinds):
        return "%.17g"
    return None


@dataclass
class Table:
    """An ordered-column table of scalar values."""

    columns: list
    rows: list

    def write_csv(self, path):
        for row in self.rows:
            if len(row) != len(self.columns):
                raise ShapeError(
                    f"row has {len(row)} entries for {len(self.columns)} columns"
                )
        formats, columns = [], []
        for cells in zip(*self.rows):
            fmt = _column_format(cells)
            if fmt is None:
                fmt, cells = "%s", [format_value(v) for v in cells]
            formats.append(fmt)
            columns.append(cells)
        line = ",".join(formats) + "\n"
        body = (line * len(self.rows)) % tuple(chain.from_iterable(zip(*columns)))
        text = ",".join(self.columns) + "\n" + body
        return atomic_write(path, lambda fh: fh.write(text))
