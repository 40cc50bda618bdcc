"""Row generators and the array-spec document format.

A family produces the row for any requested n, so asymptotic quantities
(index estimates, gap tails) can sweep n without the caller managing
construction.  Families and rows serialise to a JSON document with
schema id ``stein-clt-row/1``; the exact field grammar is documented in
``docs/row-spec.md`` and round-trips bit-exactly (floats are written
with full shortest-repr precision).
"""

from __future__ import annotations

import json
import math
import sys

import numpy as np

from .errors import ConstructionError, ParameterError, RowSpecError, RowValidationError, ShapeError
from .rows import (
    ArrayRow,
    build_eta_row,
    build_product_row,
    build_rademacher_row,
)

__all__ = [
    "ArrayFamily",
    "RademacherFamily",
    "EtaAlphaFamily",
    "ProductFamily",
    "ExplicitFamily",
    "SCHEMA_ID",
    "load_row_spec",
    "serialize_row",
    "serialize_family",
]

SCHEMA_ID = "stein-clt-row/1"


class ArrayFamily:
    """Base class: a generator of standard rows, one per n."""

    kind: str = "abstract"
    # the most atoms a cell of any row of the family can hold
    _cell_atoms: int = 1

    def __init__(self):
        self._cache: dict[int, ArrayRow] = {}

    @property
    def dimension(self) -> int:
        raise NotImplementedError

    @property
    def label(self) -> str:
        return self.kind

    def _build(self, n: int) -> ArrayRow:
        raise NotImplementedError

    def row(self, n: int) -> ArrayRow:
        if n not in self._cache:
            if n > np.iinfo(np.intp).max // self._cell_atoms:
                raise ParameterError(
                    f"{self.label}: n={n} is too large: a row of n cells of up to "
                    f"{self._cell_atoms} atoms has more atoms than an array can index"
                )
            self._cache[n] = self._build(n)
        return self._cache[n]

    def to_doc(self) -> dict:
        raise NotImplementedError


class RademacherFamily(ArrayFamily):
    """i.i.d. +-1/sqrt(n) coins; satisfies the classical CLT condition."""

    kind = "rademacher_iid"
    _cell_atoms = 2

    @property
    def dimension(self) -> int:
        return 1

    def _build(self, n: int) -> ArrayRow:
        return build_rademacher_row(n)

    def to_doc(self) -> dict:
        return {"schema": SCHEMA_ID, "kind": self.kind}


class EtaAlphaFamily(ArrayFamily):
    """Two-scale family with tuning parameter alpha (see rows module)."""

    kind = "eta_alpha"
    _cell_atoms = 4

    def __init__(self, alpha: float, shifted_start: bool = False):
        super().__init__()
        self.alpha = float(alpha)
        self.shifted_start = bool(shifted_start)

    @property
    def dimension(self) -> int:
        return 1

    @property
    def label(self) -> str:
        return f"eta_alpha(alpha={self.alpha!r})"

    def _build(self, n: int) -> ArrayRow:
        return build_eta_row(self.alpha, n, allow_shifted_start=self.shifted_start)

    def to_doc(self) -> dict:
        doc = {"schema": SCHEMA_ID, "kind": self.kind, "alpha": self.alpha}
        if self.shifted_start:
            doc["shifted_start"] = True
        return doc


class ProductFamily(ArrayFamily):
    """Coordinate-wise product of 1-D families, one per dimension."""

    kind = "product"

    def __init__(self, factors):
        super().__init__()
        self.factors = tuple(factors)
        if not self.factors:
            raise ShapeError("product family needs at least one factor")
        for idx, factor in enumerate(self.factors):
            if factor.dimension != 1:
                raise ShapeError(f"product factor {idx} must be one-dimensional")

    @property
    def dimension(self) -> int:
        return len(self.factors)

    @property
    def _cell_atoms(self) -> int:
        return math.prod(f._cell_atoms for f in self.factors)

    @property
    def label(self) -> str:
        return f"product({', '.join(f.label for f in self.factors)})"

    def _build(self, n: int) -> ArrayRow:
        return build_product_row([f.row(n) for f in self.factors])

    def to_doc(self) -> dict:
        return {
            "schema": SCHEMA_ID,
            "kind": self.kind,
            "factors": [_strip_schema(f.to_doc()) for f in self.factors],
        }


class ExplicitFamily(ArrayFamily):
    """Finite map n -> row, for hand-specified arrays."""

    kind = "explicit"

    def __init__(self, rows: dict[int, ArrayRow]):
        super().__init__()
        if not rows:
            raise ShapeError("explicit family needs at least one row")
        dims = {row.dimension for row in rows.values()}
        if len(dims) != 1:
            raise ShapeError("explicit family rows must share one dimension")
        for n, row in rows.items():
            if row.n != n:
                raise ShapeError(f"row stored under n={n} actually has {row.n} cells")
        self._rows = dict(rows)

    @property
    def dimension(self) -> int:
        return next(iter(self._rows.values())).dimension

    def _build(self, n: int) -> ArrayRow:
        if n not in self._rows:
            raise ConstructionError(
                f"explicit family has no row for n={n} (available: {sorted(self._rows)})"
            )
        return self._rows[n]

    def to_doc(self) -> dict:
        return {
            "schema": SCHEMA_ID,
            "kind": self.kind,
            "N": self.dimension,
            "rows": {str(n): _cells_doc(row) for n, row in sorted(self._rows.items())},
        }


def _strip_schema(doc: dict) -> dict:
    return {k: v for k, v in doc.items() if k != "schema"}


def _cells_doc(row: ArrayRow) -> list:
    points, probs, bounds = row.points.tolist(), row.probs.tolist(), row.offsets.tolist()
    return [
        {"atoms": [{"x": x, "p": p} for x, p in zip(points[lo:hi], probs[lo:hi])]}
        for lo, hi in zip(bounds[:-1], bounds[1:])
    ]


def serialize_row(row: ArrayRow) -> str:
    """JSON array-spec document for one explicit row (schema stein-clt-row/1)."""
    doc = {
        "schema": SCHEMA_ID,
        "kind": "explicit",
        "N": row.dimension,
        "cells": _cells_doc(row),
    }
    return json.dumps(doc, indent=1)


def serialize_family(family: ArrayFamily) -> str:
    """JSON array-spec document for a family (schema stein-clt-row/1)."""
    return json.dumps(family.to_doc(), indent=1)


_NUMBER = (int, float)


def _is_a(value, types) -> bool:
    """isinstance, except that a JSON true/false is a bool and nothing else."""
    return isinstance(value, types) and isinstance(value, bool) == (types is bool)


def _expect(doc: dict, key: str, types, ctx: str):
    if key not in doc:
        raise RowSpecError(f"{ctx}: missing required field {key!r}")
    value = doc[key]
    if not _is_a(value, types):
        raise RowSpecError(f"{ctx}.{key}: expected {types}, got {type(value).__name__}")
    return value


def _parse_cells(cells_doc, dim: int, ctx: str) -> list[tuple[list, list]]:
    """One (points, probs) pair of lists per cell, each atom checked."""
    if not isinstance(cells_doc, list) or not cells_doc:
        raise RowSpecError(f"{ctx}: 'cells' must be a non-empty list")
    cells = []
    for ci, cell_doc in enumerate(cells_doc):
        cctx = f"{ctx}.cells[{ci}]"
        if not isinstance(cell_doc, dict):
            raise RowSpecError(f"{cctx}: expected an object")
        atoms = _expect(cell_doc, "atoms", list, cctx)
        if not atoms:
            raise RowSpecError(f"{cctx}.atoms: must be non-empty")
        pts, prs = [], []
        for ai, atom in enumerate(atoms):
            actx = f"{cctx}.atoms[{ai}]"
            if not isinstance(atom, dict):
                raise RowSpecError(f"{actx}: expected an object")
            x = _expect(atom, "x", list, actx)
            # a bound, not math.isfinite, which overflows on a huge JSON integer
            finite = all(_is_a(v, _NUMBER) and abs(v) <= sys.float_info.max for v in x)
            if len(x) != dim or not finite:
                raise RowSpecError(f"{actx}.x: expected {dim} finite numbers")
            p = _expect(atom, "p", _NUMBER, actx)
            if not 0.0 < p <= 1.0:
                raise RowSpecError(f"{actx}.p: probability {p} outside (0, 1]")
            pts.append([float(v) for v in x])
            prs.append(float(p))
        cells.append((pts, prs))
    return cells


def _row_from_cells(cells, ctx: str) -> ArrayRow:
    try:
        return ArrayRow.from_cells(cells)
    except RowValidationError as exc:
        raise RowValidationError(f"{ctx}: {exc}", report=exc.report) from None


def _family_from_doc(doc: dict, ctx: str):
    if not isinstance(doc, dict):
        raise RowSpecError(f"{ctx}: expected an object")
    kind = _expect(doc, "kind", str, ctx)
    if kind == "rademacher_iid":
        return RademacherFamily()
    if kind == "eta_alpha":
        alpha = _expect(doc, "alpha", _NUMBER, ctx)
        if not 0.0 < alpha < 1.0:
            raise RowSpecError(f"{ctx}.alpha: must lie in (0, 1), got {alpha}")
        shifted = "shifted_start" in doc and _expect(doc, "shifted_start", bool, ctx)
        return EtaAlphaFamily(float(alpha), shifted)
    if kind == "product":
        factors_doc = _expect(doc, "factors", list, ctx)
        factors = []
        for i, sub in enumerate(factors_doc):
            factor = _family_from_doc(sub, f"{ctx}.factors[{i}]")
            if not isinstance(factor, ArrayFamily) or factor.dimension != 1:
                raise RowSpecError(f"{ctx}.factors[{i}]: a product factor must be a "
                                   "one-dimensional family")
            factors.append(factor)
        return ProductFamily(factors)
    if kind == "explicit":
        dim = _expect(doc, "N", int, ctx)
        if dim < 1:
            raise RowSpecError(f"{ctx}.N: must be >= 1")
        if "cells" in doc:
            return _row_from_cells(_parse_cells(doc["cells"], dim, ctx), ctx)
        rows_doc = _expect(doc, "rows", dict, ctx)
        rows = {}
        for key, cells_doc in rows_doc.items():
            try:
                n = int(key)
            except ValueError:
                raise RowSpecError(f"{ctx}.rows: key {key!r} is not an integer") from None
            row = _row_from_cells(_parse_cells(cells_doc, dim, f"{ctx}.rows[{key}]"),
                                  f"{ctx}.rows[{key}]")
            if row.n != n:
                raise RowSpecError(f"{ctx}.rows[{key}]: {row.n} cells listed under n={n}")
            rows[n] = row
        return ExplicitFamily(rows)
    raise RowSpecError(f"{ctx}.kind: unknown kind {kind!r}")


def load_row_spec(text: str):
    """Parse an array-spec document into an ArrayRow or ArrayFamily.

    Raises RowSpecError on malformed documents (with line/field context)
    and RowValidationError (embedding the ValidationReport) when an
    explicit row parses but fails statistical validation.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise RowSpecError(
            f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from None
    if not isinstance(doc, dict):
        raise RowSpecError("top level of an array-spec document must be an object")
    schema = _expect(doc, "schema", str, "document")
    if schema != SCHEMA_ID:
        raise RowSpecError(f"document.schema: expected {SCHEMA_ID!r}, got {schema!r}")
    return _family_from_doc(doc, "document")
