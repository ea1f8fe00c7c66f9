"""File formats: PLY point clouds and plain-text pose trajectories.

read_ply reads ASCII and binary little-endian files with float or double
x/y/z, optional uchar red/green/blue, and an optional integer ``label``
property. Unknown vertex properties and non-vertex elements are skipped.
write_ply writes binary little-endian files with double x/y/z.

Pose files carry one pose per line: 12 whitespace-separated numbers, the
row-major 3x4 matrix [R | t].
"""

from __future__ import annotations

import io as _stdio
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .cloud import PointCloud
from .errors import DataError, ParseError
from .transform import ROTATION_TOL, RigidTransform, orthonormalize_rotation, rotation_drift

_PLY_TYPES = {
    "char": "i1", "int8": "i1",
    "uchar": "u1", "uint8": "u1",
    "short": "i2", "int16": "i2",
    "ushort": "u2", "uint16": "u2",
    "int": "i4", "int32": "i4",
    "uint": "u4", "uint32": "u4",
    "float": "f4", "float32": "f4",
    "double": "f8", "float64": "f8",
}

_POSE_FIX_TOL = 1e-6  # read_poses re-orthonormalizes drift above ROTATION_TOL up to this


@dataclass
class _Property:
    name: str
    dtype: str            # numpy typecode, e.g. "f4"
    list_count: str | None = None  # typecode of the count for list properties


@dataclass
class _Element:
    name: str
    count: int
    properties: list[_Property]


def _parse_header(raw: bytes):
    """Parse the PLY header; returns (format, elements, data offset, line count).

    The header ends at the first line whose only token is ``end_header``.
    """
    fmt = None
    elements: list[_Element] = []
    offset = 0
    lineno = 0
    while True:
        newline = raw.find(b"\n", offset)
        if newline < 0:
            if raw[offset:].split() == [b"end_header"]:
                raise ParseError("end_header line is not terminated")
            raise ParseError("missing end_header")
        line = raw[offset:newline].decode("ascii", errors="replace")
        offset = newline + 1
        lineno += 1
        tokens = line.split()
        if lineno == 1:
            if tokens != ["ply"]:
                raise ParseError("first line must be 'ply'", line=1)
            continue
        if tokens == ["end_header"]:
            break
        if not tokens or tokens[0] in ("comment", "obj_info"):
            continue
        keyword = tokens[0]
        if keyword == "format":
            if len(tokens) != 3 or tokens[2] != "1.0":
                raise ParseError(f"bad format line: {line.strip()!r}", line=lineno)
            if tokens[1] not in ("ascii", "binary_little_endian"):
                raise ParseError(f"unsupported format {tokens[1]!r}", line=lineno)
            fmt = tokens[1]
        elif keyword == "element":
            if len(tokens) != 3:
                raise ParseError(f"bad element line: {line.strip()!r}", line=lineno)
            try:
                count = int(tokens[2])
            except ValueError:
                raise ParseError(f"bad element count {tokens[2]!r}", line=lineno) from None
            if count < 0:
                raise ParseError(f"negative element count {count}", line=lineno)
            elements.append(_Element(tokens[1], count, []))
        elif keyword == "property":
            if not elements:
                raise ParseError("property before any element", line=lineno)
            if len(tokens) == 3:
                if tokens[1] not in _PLY_TYPES:
                    raise ParseError(f"unknown property type {tokens[1]!r}", line=lineno)
                elements[-1].properties.append(_Property(tokens[2], _PLY_TYPES[tokens[1]]))
            elif len(tokens) == 5 and tokens[1] == "list":
                if tokens[2] not in _PLY_TYPES or tokens[3] not in _PLY_TYPES:
                    raise ParseError(f"unknown list types in {line.strip()!r}", line=lineno)
                elements[-1].properties.append(
                    _Property(tokens[4], _PLY_TYPES[tokens[3]], list_count=_PLY_TYPES[tokens[2]])
                )
            else:
                raise ParseError(f"bad property line: {line.strip()!r}", line=lineno)
        else:
            raise ParseError(f"unknown header keyword {keyword!r}", line=lineno)

    if fmt is None:
        raise ParseError("header has no format line")
    return fmt, elements, offset, lineno


def _vertex_arrays(element: _Element, table: dict[str, np.ndarray]):
    """Extract positions/colors/labels from per-property columns."""
    for axis in ("x", "y", "z"):
        if axis not in table:
            raise ParseError(f"vertex element lacks property {axis!r}")
    n = element.count
    positions = np.column_stack(
        [table["x"].astype(np.float64), table["y"].astype(np.float64), table["z"].astype(np.float64)]
    ) if n else np.empty((0, 3))

    bad = ~np.isfinite(positions).all(axis=1)
    if bad.any():
        raise DataError(f"non-finite coordinate at vertex {int(np.argmax(bad))}")

    colors = None
    if all(c in table for c in ("red", "green", "blue")):
        colors = np.column_stack(
            [table["red"], table["green"], table["blue"]]
        ).astype(np.uint8) if n else np.empty((0, 3), np.uint8)

    labels = None
    if "label" in table:
        labels = table["label"].astype(np.int64)

    return PointCloud(positions, colors, labels)


def _read_ascii(body: str, elements: list[_Element], header_lines: int) -> PointCloud:
    lines = body.splitlines()
    cursor = 0
    for element in elements:
        if element.name != "vertex":
            cursor += element.count  # one line per item by convention
            continue
        rows = lines[cursor:cursor + element.count]
        if len(rows) < element.count:
            raise ParseError(
                f"vertex element declares {element.count} rows but file has {len(rows)}",
                line=header_lines + cursor + len(rows) + 1,
            )
        if any(p.list_count for p in element.properties):
            raise ParseError("list properties are not supported on the vertex element")
        names = [p.name for p in element.properties]
        width = len(names)
        try:
            data = np.empty((0, width))  # loadtxt warns on no rows
            if element.count:
                data = np.loadtxt(_stdio.StringIO("\n".join(rows)), dtype=np.float64, ndmin=2)
            if data.shape != (element.count, width):
                raise ValueError
        except ValueError:
            # slow path: locate the offending line for the error message
            for i, row in enumerate(rows):
                tokens = row.split()
                lineno = header_lines + cursor + i + 1
                if len(tokens) != width:
                    raise ParseError(
                        f"expected {width} values, found {len(tokens)}", line=lineno
                    ) from None
                try:
                    [float(t) for t in tokens]
                except ValueError:
                    raise ParseError(f"bad number in vertex row: {row.strip()!r}", line=lineno) from None
            raise ParseError("malformed vertex data") from None
        table = {name: data[:, i] for i, name in enumerate(names)}
        return _vertex_arrays(element, table)
    raise ParseError("file has no vertex element")


def _item_dtype(element: _Element) -> np.dtype:
    return np.dtype([(p.name, "<" + p.dtype) for p in element.properties])


def _skip_binary_element(raw: bytes, offset: int, element: _Element) -> int:
    """Offset just past an element's data; ParseError if the file ends first."""
    if not any(p.list_count for p in element.properties):
        offset += element.count * _item_dtype(element).itemsize
    else:
        for _ in range(element.count):
            for prop in element.properties:
                if prop.list_count is None:
                    offset += np.dtype(prop.dtype).itemsize
                    continue
                count_dtype = np.dtype("<" + prop.list_count)
                if offset + count_dtype.itemsize > len(raw):
                    raise ParseError(f"element {element.name!r} runs past the end of the file")
                count = int(np.frombuffer(raw, count_dtype, 1, offset)[0])
                if count < 0:
                    raise ParseError(f"negative list length in element {element.name!r}")
                offset += count_dtype.itemsize + count * np.dtype(prop.dtype).itemsize
    if offset > len(raw):
        raise ParseError(f"element {element.name!r} runs past the end of the file")
    return offset


def _read_binary(raw: bytes, offset: int, elements: list[_Element]) -> PointCloud:
    for element in elements:
        if element.name != "vertex":
            offset = _skip_binary_element(raw, offset, element)
            continue
        if any(p.list_count for p in element.properties):
            raise ParseError("list properties are not supported on the vertex element")
        dtype = _item_dtype(element)
        needed = element.count * dtype.itemsize
        if len(raw) - offset < needed:
            raise ParseError(
                f"vertex element needs {needed} bytes, file has {len(raw) - offset}"
            )
        records = np.frombuffer(raw, dtype, element.count, offset)
        table = {p.name: records[p.name] for p in element.properties}
        return _vertex_arrays(element, table)
    raise ParseError("file has no vertex element")


def read_ply(path: str | Path) -> PointCloud:
    """Read a PLY point cloud (ASCII or binary little-endian)."""
    raw = Path(path).read_bytes()
    fmt, elements, data_offset, header_lines = _parse_header(raw)
    if fmt == "ascii":
        return _read_ascii(raw[data_offset:].decode("ascii", errors="replace"), elements, header_lines)
    return _read_binary(raw, data_offset, elements)


def write_ply(path: str | Path, cloud: PointCloud) -> None:
    """Write a binary little-endian PLY file; positions are kept bit-exactly.

    Labels are written as PLY int; a label outside int32 is a DataError."""
    if cloud.labels is not None and len(cloud):
        i4 = np.iinfo(np.int32)
        if cloud.labels.min() < i4.min or cloud.labels.max() > i4.max:
            raise DataError("label outside the int32 range of the PLY label property")
    n = len(cloud)
    header = ["ply", "format binary_little_endian 1.0", f"element vertex {n}"]
    header += ["property double x", "property double y", "property double z"]
    spec = [("x", "<f8"), ("y", "<f8"), ("z", "<f8")]
    if cloud.colors is not None:
        header += ["property uchar red", "property uchar green", "property uchar blue"]
        spec += [("red", "u1"), ("green", "u1"), ("blue", "u1")]
    if cloud.labels is not None:
        header += ["property int label"]
        spec += [("label", "<i4")]
    header += ["end_header", ""]

    records = np.empty(n, dtype=np.dtype(spec))
    records["x"], records["y"], records["z"] = cloud.points.T
    if cloud.colors is not None:
        records["red"], records["green"], records["blue"] = cloud.colors.T
    if cloud.labels is not None:
        records["label"] = cloud.labels
    with Path(path).open("wb") as fh:
        fh.write("\n".join(header).encode("ascii"))
        fh.write(records.tobytes())


def read_poses(path: str | Path) -> list[RigidTransform]:
    """Read the poses of row-major 3x4 pose lines, in file order.

    Rotations with orthonormality drift in (1e-9, 1e-6] are re-orthonormalized;
    larger drift, or a determinant off +1 by more than 1e-6, is rejected.
    """
    poses = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        if not line.strip():
            continue
        tokens = line.split()
        if len(tokens) != 12:
            raise ParseError(f"expected 12 numbers, found {len(tokens)}", line=lineno)
        try:
            values = np.array([float(t) for t in tokens])
        except ValueError:
            raise ParseError(f"bad number in pose line: {line.strip()!r}", line=lineno) from None
        if not np.isfinite(values).all():
            raise DataError(f"line {lineno}: pose contains non-finite values")
        m = values.reshape(3, 4)
        rotation, translation = m[:, :3], m[:, 3]
        if abs(np.linalg.det(rotation) - 1.0) > _POSE_FIX_TOL:
            raise DataError(f"line {lineno}: rotation determinant deviates from +1 by more than 1e-6")
        drift = rotation_drift(rotation)
        if drift > _POSE_FIX_TOL:
            raise DataError(f"line {lineno}: rotation drift {drift:.3g} exceeds 1e-6")
        if drift > ROTATION_TOL:
            rotation = orthonormalize_rotation(rotation)
        poses.append(RigidTransform(rotation, translation))
    return poses


def write_poses(path: str | Path, poses: list[RigidTransform]) -> None:
    """Write pose lines with enough digits for exact float64 round-trips."""
    lines = []
    for pose in poses:
        values = pose.matrix3x4().reshape(-1)
        lines.append(" ".join(format(v, ".17g") for v in values))
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""))
