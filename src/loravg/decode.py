"""Numbers parsed from JSON as packed float64 buffers, without numpy.

A space file's float fields arrive from `json.load` as nested lists of
float objects: 24 bytes each plus an 8-byte pointer, four times their
packed size.  The CLI packs them here before it imports numpy, so that
numpy's own import reuses the memory the parse's float objects and row
lists held.  `space.build_space` reads every numeric field of a space
description through the same function.
"""

import itertools
import sys
from array import array

# numpy takes at most 64 dimensions.
_MAX_DIMS = 64

_NUMBERS = frozenset((float, int))
_NUMBERS_OR_NULL = _NUMBERS | {type(None)}
_FLOAT64 = ("<" if sys.byteorder == "little" else ">") + "f8"


class PackedFloats:
    """Floats in row-major order in an array('d'), and the shape of the
    lists they came from.  np.asarray reads them, through the array
    interface, as a read-only float64 array of that shape without a copy."""

    __slots__ = ("values", "shape")

    def __init__(self, values: array, shape: tuple):
        self.values, self.shape = values, shape

    @property
    def __array_interface__(self) -> dict:
        return {"shape": self.shape, "typestr": _FLOAT64,
                "data": memoryview(self.values).toreadonly(), "version": 3}


def _lists_of(nodes: list, size: int) -> bool:
    return set(map(type, nodes)) == {list} and set(map(len, nodes)) == {size}


def pack_floats(raw) -> PackedFloats | None:
    """raw, a value parsed from JSON, packed; None if it does not convert.
    A PackedFloats is returned as it is.

    raw converts where np.asarray(raw, dtype=float) does, to the same bits,
    except that a boolean or a string is not a number (numpy would read "1"
    and true as 1.0).  So raw is a number, a null (NaN, as numpy reads it),
    or lists nested to one depth, those at each depth of one length, around
    numbers and nulls.  An integer converts with correct rounding; one
    beyond the float range does not convert.
    """
    if type(raw) is PackedFloats:
        return raw
    shape, first = [], raw
    while type(first) is list:  # the shape along the first entries
        shape.append(len(first))
        first = first[0] if first else None
    if len(shape) > _MAX_DIMS:
        return None
    rows = [raw]
    for size in shape[:-1]:
        if not _lists_of(rows, size):
            return None
        rows = list(itertools.chain.from_iterable(rows))
    if not shape:
        rows = [rows]
    elif not _lists_of(rows, shape[-1]):
        return None
    packed = array("d")
    for row in rows:
        kinds = set(map(type, row))
        if not kinds <= _NUMBERS:
            if not kinds <= _NUMBERS_OR_NULL:
                return None
            row = [float("nan") if value is None else value for value in row]
        try:
            packed.fromlist(row)
        except OverflowError:
            return None
    return PackedFloats(packed, tuple(shape))
