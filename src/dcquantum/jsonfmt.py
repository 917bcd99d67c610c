"""The parts of `serialize.dump_json` that json.dumps(obj, indent=1) would
format in its pure-Python encoder: the frame around each matrix's
entries, and the entries themselves from a row template."""

from itertools import chain

# The frame's stand-in for a matrix's entries.  When obj holds this text
# too, the slots cannot be told apart, and json encodes the whole file.
_SLOT = "dcquantum:entries"
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}  # json's spelling
# Rows formatted at once, which bounds the strings alive.
_ROWS_PER_PIECE = 1000


def _frame(value, blocks: list, indent: int = 0):
    """value with each "entries" list of equal-length float lists replaced
    by the slot and appended to blocks with the indent json gives it."""
    if isinstance(value, list):
        return [_frame(v, blocks, indent + 1) for v in value]
    if not isinstance(value, dict):
        return value
    frame = {}
    for k, v in value.items():
        if (k == "entries" and type(v) is list and v and set(map(type, v)) == {list}
                and len(set(map(len, v))) == 1
                and set(map(type, chain.from_iterable(v))) == {float}):
            blocks.append((v, indent + 1))
            v = _SLOT
        frame[k] = _frame(v, blocks, indent + 1)
    return frame


def _indented_rows(rows: list, indent: int):
    """json.dumps(rows, indent=1) at `indent` spaces, for equal-length
    float lists, in pieces: a row template filled with each float's repr."""
    cell, item = ",\n" + " " * (indent + 2), ",\n" + " " * (indent + 1)
    row = "[" + cell[1:] + cell.join(["%s"] * len(rows[0])) + item[1:] + "]"
    yield "[" + item[1:]
    for start in range(0, len(rows), _ROWS_PER_PIECE):
        piece = rows[start:start + _ROWS_PER_PIECE]
        floats = list(map(float.__repr__, chain.from_iterable(piece)))
        if not _NON_FINITE.keys().isdisjoint(floats):
            floats = [_NON_FINITE.get(f, f) for f in floats]
        yield (item if start else "") + item.join([row] * len(piece)) % tuple(floats)
    yield "\n" + " " * indent + "]"
