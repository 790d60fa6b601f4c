"""Columnar batch encoding for bulk chunk payloads.

Per-row XML is the dominant hot-path cost in chunked transfers (ablation
A1): every packed row becomes one ``<item>`` element
whose build/escape/parse cost and ~35-byte framing are paid per row.  A
*colbatch* carries the same rows as a handful of records — one
self-describing header plus one record per **column** — so the SOAP
layer's per-item cost is amortized over the whole chunk.

Layout (each "record" is one string in the SOAP array)::

    @colbatch|<version>|<nrows>|<nfields>|<nexceptions>
    <column record> x nfields
    @xrows|<idx>:<row>;...          (only when nexceptions > 0)

Rows are split on ``|`` (the packed-record field separator); the first
row fixes ``nfields`` and every row with a different arity is carried
verbatim in the ``@xrows`` exceptions record, so *any* string round-trips
byte-identically — the columnar fast path is an optimization, never an
assumption.  A column record is ``<enc>|<nulls>|<payload...>`` where
``nulls`` is ``-`` or a 6-bit-per-char bitmap flagging empty-string
tokens (excluded from the payload), and ``enc`` is one of:

``const``
    every non-null token is the same string (metric/type columns);
``dict``
    dictionary: distinct tokens in first-appearance order plus
    fixed-width packed indexes (focus and quantized value columns);
``fxp``
    fixed-point numbers of one scale (the ``%.9f`` time columns),
    stored as first value + run-length-encoded integer deltas;
``spn``
    time spans ``<start>-<end>`` where both halves are non-negative
    fixed-point literals, stored as two ``fxp`` series (the packed
    ``start-end`` column every :meth:`PerformanceResult.pack` row has);
``f64``
    floats in shortest-``repr`` form (``nan``/``inf`` included), packed
    as base64 IEEE doubles;
``raw``
    escaped tokens, ``;``-joined — the always-available fallback;
``pfx``
    ``pfx|<name=>|<record>``: the ``name=`` every token opens with, once,
    then the record of each token's rest (``value=<float>`` as ``f64``) —
    only in a ``colbatch+pfx`` chunk, and only where it is the shorter.

Every variable-content field is %-escaped (``%``, ``;``, ``|``) so the
structural separators stay unambiguous; ``fxp``/``f64`` eligibility is
validated token-by-token against exact re-rendering, so decoding is
guaranteed to reproduce the original bytes; a column held as numbers
(:class:`_Numbers`) is encoded from them to the same record, or through
its tokens where that is not cheaply provable.  :func:`decode_batch`
validates every length, index, and count and raises
:class:`~repro.soap.chunks.ChunkError` on any malformed input — a
corrupted batch never crashes the decoder or silently drops rows.
"""

from __future__ import annotations

import base64
import math
import re
import struct
import sys
from array import array
from bisect import bisect_left
from functools import cached_property, lru_cache
from itertools import accumulate, chain, groupby, repeat
from operator import sub
from typing import Iterable, Sequence

from repro.soap.chunks import ChunkError

#: first field of every batch header record
BATCH_MAGIC = "@colbatch"

#: first field of the verbatim-exceptions record
XROWS_MAGIC = "@xrows"

#: current batch format version (bumped on any layout change)
COLBATCH_VERSION = 1

#: dictionary columns hold at most this many distinct tokens; columns
#: with higher cardinality fall back to ``f64``/``raw``
DICT_MAX = 4096

#: decoder bound on ``fxp`` scale — wire values beyond it are corrupt
_FXP_MAX_SCALE = 60

_NEGATIVE_ZERO = array("d", [-0.0]).tobytes()

_B64 = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_B64_INDEX = {char: value for value, char in enumerate(_B64)}


def _escape(text: str) -> str:
    """Escape the structural separators (order matters: ``%`` first)."""
    return text.replace("%", "%25").replace(";", "%3B").replace("|", "%7C")


def _unescape(text: str) -> str:
    """Inverse of :func:`_escape` (reverse order)."""
    return text.replace("%7C", "|").replace("%3B", ";").replace("%25", "%")


def _escape_join(tokens: Sequence[str]) -> str:
    """``;``-join the escaped *tokens* — one join when none needs escaping."""
    joined = ";".join(tokens)
    if "%" in joined or "|" in joined or joined.count(";") != len(tokens) - 1:
        return ";".join(map(_escape, tokens))
    return joined


def _split_unescape(payload: str) -> list[str]:
    """Inverse of :func:`_escape_join` (an escaped token holds a ``%``)."""
    tokens = payload.split(";") if payload else []
    return list(map(_unescape, tokens)) if "%" in payload else tokens


# ------------------------------------------------------------ bit packing
def _pack_bits(flags: Sequence[bool]) -> str:
    """Pack booleans 6 per char, LSB-first within each char."""
    out = []
    for group in range(0, len(flags), 6):
        value = 0
        for bit, flag in enumerate(flags[group : group + 6]):
            if flag:
                value |= 1 << bit
        out.append(_B64[value])
    return "".join(out)


def _unpack_bits(packed: str, count: int) -> list[bool]:
    if len(packed) != (count + 5) // 6:
        raise ChunkError(
            f"null bitmap holds {len(packed) * 6} slot(s), column needs {count}"
        )
    flags: list[bool] = []
    for char in packed:
        value = _B64_INDEX.get(char)
        if value is None:
            raise ChunkError(f"bad null-bitmap character {char!r}")
        for bit in range(6):
            flags.append(bool(value >> bit & 1))
    for spare in flags[count:]:
        if spare:
            raise ChunkError("null bitmap sets bits past the column length")
    return flags[:count]


def _index_width(size: int) -> int:
    """Chars per packed dictionary index for a *size*-entry dictionary."""
    if size <= 64:
        return 1
    if size <= 64 * 64:
        return 2
    return 3


def _index_code(index: int, width: int) -> str:
    """*index* as *width* base-64 characters, most significant first."""
    return "".join(_B64[(index >> shift) & 63] for shift in range(6 * width - 6, -1, -6))


def _unpack_indexes(packed: str, count: int, size: int) -> list[int]:
    width = _index_width(size)
    if len(packed) != width * count:
        raise ChunkError(
            f"dict column declares {count} index(es) of width {width}, "
            f"carries {len(packed)} char(s)"
        )
    try:
        if width == 1:
            indexes = [_B64_INDEX[c] for c in packed]
        elif width == 2:
            indexes = [
                _B64_INDEX[packed[i]] << 6 | _B64_INDEX[packed[i + 1]]
                for i in range(0, len(packed), 2)
            ]
        else:
            indexes = [
                _B64_INDEX[packed[i]] << 12
                | _B64_INDEX[packed[i + 1]] << 6
                | _B64_INDEX[packed[i + 2]]
                for i in range(0, len(packed), 3)
            ]
    except KeyError as exc:
        raise ChunkError(f"bad dict-index character {exc.args[0]!r}") from exc
    for index in indexes:
        if index >= size:
            raise ChunkError(
                f"dict index {index} out of range for {size}-entry dictionary"
            )
    return indexes


# ------------------------------------------------------------ fixed point
def _fxp_render(value: int, scale: int) -> str:
    if scale == 0:
        return str(value)
    sign = ""
    if value < 0:
        sign = "-"
        value = -value
    digits = str(value)
    if len(digits) <= scale:
        return f"{sign}0.{digits.zfill(scale)}"
    return f"{sign}{digits[:-scale]}.{digits[-scale:]}"


@lru_cache(maxsize=64)
def _fxp_pattern(scale: int) -> "re.Pattern[str]":
    """Canonical fixed-point literal of *scale* fractional digits (no
    leading zeros, exact fraction width; ``-0`` is screened by caller)."""
    if scale == 0:
        return re.compile(r"-?(?:0|[1-9][0-9]*)")
    return re.compile(r"-?(?:0|[1-9][0-9]*)\.[0-9]{%d}" % scale)


def _fxp_series(tokens: list[str]) -> tuple[int, list[int]] | None:
    """Parse *tokens* as one fixed-point series (scale from the first
    token, each distinct token parsed once); None when any token does not
    round-trip at that scale."""
    first = tokens[0]
    dot = first.find(".")
    scale = 0 if dot < 0 else len(first) - dot - 1
    if scale > _FXP_MAX_SCALE:
        return None
    match = _fxp_pattern(scale).fullmatch
    values = {}
    for token in dict.fromkeys(tokens):
        if match(token) is None:
            return None
        value = values[token] = int(token.replace(".", "", 1))
        if value == 0 and token[0] == "-":  # "-0.000" does not re-render
            return None
    return scale, list(map(values.__getitem__, tokens))


def _rle_deltas(values: Sequence[int], unit: int = 1) -> str:
    """Run-length-encode consecutive deltas, in *unit*s of a value (whole
    floats as tenths): ``d`` or ``d*count``."""
    runs = []
    for delta, run in groupby(map(sub, values[1:], values[:-1])):
        count, delta = len(list(run)), int(delta) * unit
        runs.append(str(delta) if count == 1 else f"{delta}*{count}")
    return ";".join(runs)


def _series_fields(scale: int, values: Sequence[int], unit: int = 1) -> str:
    """One fixed-point series' record fields: scale, first value, deltas."""
    return f"{scale}|{int(values[0]) * unit}|{_rle_deltas(values, unit)}"


def _try_fxp(tokens: list[str], nulls: str) -> str | None:
    series = _fxp_series(tokens)
    return None if series is None else f"fxp|{nulls}|{_series_fields(*series)}"


def _try_spn(tokens: list[str], nulls: str) -> str | None:
    """Span column ``<start>-<end>``: both halves non-negative fixed
    point (splitting on ``-`` leaves no room for signs)."""
    starts: list[str] = []
    ends: list[str] = []
    for token in tokens:
        head, sep, tail = token.partition("-")
        if not sep or not head or not tail or "-" in tail:
            return None
        starts.append(head)
        ends.append(tail)
    start_series = _fxp_series(starts)
    if start_series is None:
        return None
    end_series = _fxp_series(ends)
    if end_series is None:
        return None
    return f"spn|{nulls}|{_series_fields(*start_series)}|{_series_fields(*end_series)}"


def _try_f64(tokens: list[str], nulls: str) -> str | None:
    floats = []
    for token in tokens:
        try:
            value = float(token)
        except ValueError:
            return None
        if repr(value) != token:
            return None
        floats.append(value)
    return _f64_record(nulls, floats)


def _f64_record(nulls: str, floats: Sequence[float]) -> str:
    packed = base64.b64encode(struct.pack(f"<{len(floats)}d", *floats))
    return f"f64|{nulls}|{packed.decode('ascii')}"


def _dict_record(nulls: str, keys: Iterable, distinct: Iterable, texts: Sequence[str]) -> str:
    """*keys* coded as indexes into the *distinct* ones, whose tokens are *texts*."""
    width = _index_width(len(texts))
    code = {key: _index_code(i, width) for i, key in enumerate(distinct)}
    return f"dict|{nulls}|{_escape_join(texts)}|{''.join(map(code.__getitem__, keys))}"


def _repr_scale(floats: Iterable[float]) -> int | None:
    """The scale every float's ``repr`` shares as a fixed-point literal
    (the floats are an ``fxp`` column), else None."""
    reprs = map(repr, floats)
    first = next(reprs)
    if "." not in first:
        return None
    scale = len(first) - first.index(".") - 1
    return scale if all(map(_fxp_pattern(scale).fullmatch, chain((first,), reprs))) else None


# ------------------------------------------------------------- encoding
def _encode_tokens(tokens: Sequence[str]) -> str:
    if "" in tokens:
        nulls = _pack_bits([token == "" for token in tokens])
        values = [token for token in tokens if token]
    else:
        nulls = "-"
        values = tokens
    if not values:
        return f"const|{nulls}|"
    first = values[0]
    if values.count(first) == len(values):
        return f"const|{nulls}|{_escape(first)}"
    if first and (first[0].isdigit() or first[0] == "-"):
        fxp = _try_fxp(values, nulls)
        if fxp is not None:
            return fxp
        if "-" in first:
            spn = _try_spn(values, nulls)
            if spn is not None:
                return spn
    distinct = list(dict.fromkeys(values))
    size = len(distinct)
    if size <= DICT_MAX and size * 2 <= len(values):
        return _dict_record(nulls, values, distinct, distinct)
    f64 = _try_f64(values, nulls)
    if f64 is not None:
        return f64
    return f"raw|{nulls}|" + _escape_join(values)


def _tokens(column: "Sequence[str] | _Numbers") -> Sequence[str]:
    return column.tokens if isinstance(column, _Numbers) else column


def _encode_column(column: "Sequence[str] | _Numbers", named: bool = False) -> str:
    """A column's record: where *named* and shorter, its ``pfx`` record;
    else a numeric column's, from its numbers where that is provable;
    else its tokens'."""
    record = _named_record(column) if named else None
    if record is None and isinstance(column, _Numbers):
        record = column.record()
    return _encode_tokens(_tokens(column)) if record is None else record


def _named_record(column: "Sequence[str] | _Numbers") -> str | None:
    """*column* as a ``pfx`` record — the ``name=`` every token opens with
    (a first token's text up to its first ``=``: a numeric column's
    prefix, if it is one) once, then the record of each token's rest —
    where that is shorter than its plain record, else None."""
    prefix = column.prefix if isinstance(column, _Numbers) else ""
    inner = _Numbers(*column.series) if prefix.find("=") == len(prefix) - 1 > 0 else None
    if inner is None or not inner.comparable:  # the rests as text, each distinct token cut once
        tokens = _tokens(column)
        first = tokens[0] if len(tokens) else ""
        prefix, distinct = first[: first.find("=") + 1], dict.fromkeys(tokens)
        if not prefix or len(distinct) == 1 or not all(map(str.startswith, distinct, repeat(prefix))):
            return None
        rests = {token: token[len(prefix):] for token in distinct}
        inner = list(map(rests.__getitem__, tokens))
    rest = _encode_column(inner)
    if rest.startswith("const|-|"):
        return None  # one token: the plain const record is shorter
    record, count, width = f"pfx|{_escape(prefix)}|{rest}", len(inner), len(_escape(prefix))
    kind, nulls, payload = rest.split("|", 3)[:3]
    if nulls == "-" and kind in ("dict", "raw"):  # the plain record: each token named
        named = payload.count(";") + 1 if kind == "dict" else count
        return record if len(record) < len(rest) + named * width else None
    # no plain token opens with a digit: the plain record is a dict (two
    # tokens or more, an index each) or a raw one, at least this long — a
    # raw one where the numbers went f64 (too many distinct for a dict)
    least = 5 + count * (width + 1)
    if rest.startswith("f64|") and isinstance(inner, _Numbers):
        least += inner.least_length()
    else:
        least = min(least, 9 + 2 * width + count)
    if len(record) < least:
        return record
    return record if len(record) < len(_encode_tokens(_tokens(column))) else None


def encode_columns(
    columns: "Sequence[Sequence[str] | _Numbers]", exceptions: Sequence[tuple[int, str]] = (),
    named: bool = False,
) -> list[str]:
    """Encode equal-length token *columns* as colbatch records (header
    first), and *exceptions*, ``(row index, row)`` pairs, verbatim:
    :func:`decode_batch` gives each row as its tokens ``|``-joined.
    *named* (the ``colbatch+pfx`` encoding) lets a column travel as a
    ``pfx`` record."""
    nrows = len(columns[0]) + len(exceptions) if columns else 0
    if nrows == 0:
        return [f"{BATCH_MAGIC}|{COLBATCH_VERSION}|0|0|0"]
    records = [f"{BATCH_MAGIC}|{COLBATCH_VERSION}|{nrows}|{len(columns)}|{len(exceptions)}"]
    records.extend(map(_encode_column, columns, repeat(named)))
    if exceptions:
        records.append(
            f"{XROWS_MAGIC}|"
            + ";".join(f"{i}:{_escape(row)}" for i, row in exceptions)
        )
    return records


def number_column(prefix: str, numbers: Sequence) -> "_Numbers | None":
    """Floats alone, or ints alone, as a column of ``prefix + repr(n)``
    tokens held as the numbers; None for any other cells."""
    kinds = set(map(type, numbers))
    if kinds == {float} or kinds == {int}:
        return _Numbers((None if float in kinds else 0, numbers), prefix=prefix)
    return None


def split_rows(rows: Iterable[str]) -> "DecodedBatch":
    """*rows* split on ``|`` into token columns, the first row's arity
    fixing them and any row of another arity kept verbatim."""
    rows = list(rows)
    fields = [row.split("|") for row in rows]
    width = len(fields[0]) if fields else 0
    exceptions = {i: rows[i] for i, parts in enumerate(fields) if len(parts) != width}
    matrix = [parts for parts in fields if len(parts) == width] if exceptions else fields
    return DecodedBatch(len(rows), list(zip(*matrix)), exceptions)


def encode_batch(rows: "Sequence[str] | DecodedBatch", named: bool = False) -> list[str]:
    """Encode *rows* as colbatch records (header first): their
    :func:`split_rows` columns through :func:`encode_columns`.  A
    :class:`DecodedBatch` those would be its own columns again is encoded
    from them — a numeric one from its numbers — nothing joined or split:
    the bytes are the same.

    Decoding the result with :func:`decode_batch` reproduces *rows*
    byte-identically for any input strings.
    """
    batch = rows if isinstance(rows, DecodedBatch) and rows.splits_back() else split_rows(rows)
    return encode_columns(batch._columns, sorted(batch.exceptions.items()), named)


# ------------------------------------------------------------- decoding
def _decode_fxp_series(
    scale_text: str, first_text: str, runs_text: str, present: int
) -> tuple[int, list[int]]:
    """Expand one fixed-point series (first value + RLE deltas) to its
    scale and integers; every count is validated against *present*."""
    try:
        scale = int(scale_text)
    except ValueError as exc:
        raise ChunkError(f"bad fxp scale {scale_text!r}") from exc
    if not 0 <= scale <= _FXP_MAX_SCALE:
        raise ChunkError(f"fxp scale {scale} out of range")
    if present == 0:
        return scale, []
    try:
        current = int(first_text)
    except ValueError as exc:
        raise ChunkError(f"bad fxp first value {first_text!r}") from exc
    deltas: list[int] = []
    need = present - 1
    got = 0
    for item in runs_text.split(";") if runs_text else []:
        delta_text, star, count_text = item.partition("*")
        try:
            delta = int(delta_text)
            count = int(count_text) if star else 1
        except ValueError as exc:
            raise ChunkError(f"bad fxp delta run {item!r}") from exc
        if count < 1 or got + count > need:
            raise ChunkError(
                f"fxp column declares {need} delta(s), run {item!r} overflows"
            )
        deltas += [delta] * count
        got += count
    if got != need:
        raise ChunkError(
            f"fxp column declares {need} delta(s) but carries {got}"
        )
    return scale, list(accumulate(deltas, initial=current))


class _Numbers:
    """A null-free ``fxp``/``spn``/``f64`` column as the numbers it carries
    — a ``(scale, numbers)`` series, a span's two, f64 floats at scale
    None — behind the ``prefix`` every token opens with (a ``pfx``
    record's ``name=``), rendered to its tokens only when they are read,
    and sliced, joined and encoded (:meth:`record`) as numbers."""

    def __init__(self, *series: tuple[int | None, Sequence], prefix: str = "") -> None:
        self.series, self.prefix = series, prefix

    def __len__(self) -> int:
        return len(self.series[0][1])

    def __getitem__(self, rows: slice) -> "_Numbers":
        return _Numbers(*((scale, numbers[rows]) for scale, numbers in self.series),
                        prefix=self.prefix)

    @staticmethod
    def concat(parts: Sequence) -> "_Numbers | list[str]":
        """Column *parts* end to end: numbers when every part is numbers
        of the first one's prefix and scales, else tokens."""
        shapes = {(p.prefix, *(s for s, _ in p.series)) if isinstance(p, _Numbers) else None
                  for p in parts}
        if None in shapes or len(shapes) > 1:
            return list(chain.from_iterable(map(_tokens, parts)))
        return _Numbers(*((scale, list(chain.from_iterable(p.series[i][1] for p in parts)))
                          for i, (scale, _) in enumerate(parts[0].series)), prefix=parts[0].prefix)

    @cached_property
    def tokens(self) -> list[str]:
        rendered = []
        for scale, numbers in self.series:
            if scale is None:
                rendered.append(list(map(repr, numbers)))
            elif scale and min(numbers, default=0) >= 0:  # the common case, in one format
                template, unit = f"%d.%0{scale}d", 10**scale
                rendered.append([template % divmod(number, unit) for number in numbers])
            else:
                rendered.append([_fxp_render(number, scale) for number in numbers])
        tokens = rendered[0] if len(rendered) == 1 else list(map("-".join, zip(*rendered)))
        return list(map(self.prefix.__add__, tokens)) if self.prefix else tokens

    def resident_bytes(self) -> int:
        """What the column holds: its prefix, and each sequence and number
        object (one shared by two cells counted twice)."""
        return sys.getsizeof(self.prefix) + sum(
            sys.getsizeof(numbers) + (sys.getsizeof(0.0) * len(numbers) if scale is None
                                      else sum(map(sys.getsizeof, numbers)))
            for scale, numbers in self.series
        )

    @cached_property
    def comparable(self) -> bool:
        """Whether numbers are equal exactly where their tokens are: no
        float is NaN (unequal to itself, one ``nan`` token) or -0.0 (equal
        to 0.0; its bytes seen anywhere in the packed floats)."""
        scale, numbers = self.series[0]
        return scale is not None or not (any(map(math.isnan, numbers))
                                         or _NEGATIVE_ZERO in array("d", numbers).tobytes())

    def least_length(self) -> int:
        """A floor on an f64 column's numbers' text, counted without
        rendering: three characters a float, four from ten up (short of
        infinity)."""
        magnitudes = list(map(abs, self.series[0][1]))
        return 3 * len(magnitudes) + sum(map((10.0).__le__, magnitudes)) - magnitudes.count(math.inf)

    def record(self) -> str | None:
        """The record :func:`_encode_tokens` makes of the tokens, made from
        the numbers in its order — ``const``, ``fxp``, ``spn``, ``dict``,
        ``f64`` — with no token parsed back.  None where that is not
        cheaply provable: a prefix, no row, a NaN or -0.0, a span half
        below zero (its text is no ``spn``), or an ``fxp`` column of floats
        too large to scale exactly."""
        if self.prefix or not len(self) or not self.comparable:
            return None
        (scale, numbers), *rest = self.series
        if rest and min(chain(numbers, rest[0][1])) < 0:
            return None
        if all(part.count(part[0]) == len(part) for _, part in self.series):
            return f"const|-|{self[:1].tokens[0]}"
        if scale is None:
            if all(map(float.is_integer, numbers)) and max(map(abs, numbers)) < 2.0**53:
                return f"fxp|-|{_series_fields(1, numbers, 10)}"  # "<n>.0": whole tenths
            if (shared := _repr_scale(numbers)) is None:
                distinct = dict.fromkeys(numbers)
                if len(distinct) <= DICT_MAX and len(distinct) * 2 <= len(numbers):
                    return _dict_record("-", numbers, distinct, list(map(repr, distinct)))
                return _f64_record("-", numbers)
            # each repr is its float's nearest decimal at that scale: under
            # 2**50 units, float * 10**scale rounds back to its digits
            scaled = [number * 10.0**shared for number in numbers]
            if shared > 22 or max(map(abs, scaled)) >= 2.0**50:
                return None
            scale, numbers = shared, list(map(round, scaled))
        fields = "|".join(_series_fields(*series) for series in ((scale, numbers), *rest))
        return f"{'spn' if rest else 'fxp'}|-|{fields}"

    def floats(self) -> list[list[float]] | None:
        """Each series as floats, ``float()`` of its text bit for bit:
        ``int / 10**scale`` rounds correctly as ``float(text)`` does, and a
        NaN is ``float("nan")``.  None for a span with a negative start
        (its token does not partition back into the two numbers)."""
        if len(self.series) > 1 and min(self.series[0][1], default=0) < 0:
            return None
        floats = []
        for scale, numbers in self.series:
            if scale is None:
                floats.append([number if number == number else math.nan for number in numbers])
                continue
            unit = 10**scale
            try:
                floats.append([number / unit for number in numbers])
            except OverflowError:  # past the float range, where float() gives inf
                floats.append([float(_fxp_render(number, scale)) for number in numbers])
        return floats


def _decode_column(record: str, nrows: int) -> "list[str] | _Numbers":
    parts = record.split("|")
    if len(parts) < 3:
        raise ChunkError(f"bad colbatch column record {record!r}")
    encoding, nulls_field = parts[0], parts[1]
    if encoding == "pfx":
        if len(parts) < 5 or parts[2] == "pfx":
            raise ChunkError(f"bad pfx column record {record!r}")
        prefix, rests = _unescape(nulls_field), _decode_column("|".join(parts[2:]), nrows)
        if isinstance(rests, _Numbers):
            return _Numbers(*rests.series, prefix=prefix)
        return list(map(prefix.__add__, rests))
    if nulls_field == "-":
        null_flags = None
        present = nrows
    else:
        null_flags = _unpack_bits(nulls_field, nrows)
        present = nrows - sum(null_flags)

    if encoding == "const":
        if len(parts) != 3:
            raise ChunkError(f"bad const column record {record!r}")
        values = [_unescape(parts[2])] * present
    elif encoding == "raw":
        if len(parts) != 3:
            raise ChunkError(f"bad raw column record {record!r}")
        values = _split_unescape(parts[2])
        if len(values) != present:
            raise ChunkError(
                f"raw column carries {len(values)} token(s), expected {present}"
            )
    elif encoding == "dict":
        if len(parts) != 4:
            raise ChunkError(f"bad dict column record {record!r}")
        entries = _split_unescape(parts[2])
        if not entries and present:
            raise ChunkError("dict column has indexes but no dictionary")
        indexes = _unpack_indexes(parts[3], present, len(entries))
        values = [entries[i] for i in indexes]
    elif encoding == "fxp":
        if len(parts) != 5:
            raise ChunkError(f"bad fxp column record {record!r}")
        values = _Numbers(_decode_fxp_series(parts[2], parts[3], parts[4], present))
    elif encoding == "spn":
        if len(parts) != 8:
            raise ChunkError(f"bad spn column record {record!r}")
        values = _Numbers(*(_decode_fxp_series(*parts[i : i + 3], present) for i in (2, 5)))
    elif encoding == "f64":
        if len(parts) != 3:
            raise ChunkError(f"bad f64 column record {record!r}")
        try:
            data = base64.b64decode(parts[2], validate=True)
        except Exception as exc:
            raise ChunkError(f"bad f64 column payload: {exc}") from exc
        if len(data) != 8 * present:
            raise ChunkError(
                f"f64 column carries {len(data)} byte(s), expected {8 * present}"
            )
        values = _Numbers((None, struct.unpack(f"<{present}d", data)))
    else:
        raise ChunkError(f"unknown column encoding {encoding!r}")

    if null_flags is None:
        return values
    filled = iter(values.tokens if isinstance(values, _Numbers) else values)
    return ["" if is_null else next(filled) for is_null in null_flags]


def _decode_exceptions(record: str, nexc: int, nrows: int) -> dict[int, str]:
    magic, sep, payload = record.partition("|")
    if magic != XROWS_MAGIC or not sep:
        raise ChunkError(f"bad colbatch exceptions record {record!r}")
    items = payload.split(";") if payload else []
    if len(items) != nexc:
        raise ChunkError(
            f"colbatch declares {nexc} exception row(s) but carries {len(items)}"
        )
    out: dict[int, str] = {}
    previous = -1
    for item in items:
        index_text, sep2, row_text = item.partition(":")
        try:
            index = int(index_text)
        except ValueError as exc:
            raise ChunkError(f"bad exception row index {index_text!r}") from exc
        if not sep2 or index <= previous or index >= nrows:
            raise ChunkError(
                f"exception row index {index_text!r} out of order or range"
            )
        previous = index
        out[index] = _unescape(row_text)
    return out


class DecodedBatch:
    """Rows held as the ``columns`` of tokens they split into (and the
    verbatim ``exceptions`` rows by index) — a decoded batch, or a chunk
    to encode: a row string is joined only when a row is read, a decoded
    numeric column's tokens only when :attr:`columns` is (:meth:`floats`)."""

    def __init__(
        self, nrows: int, columns: Sequence[Sequence[str]], exceptions: dict[int, str]
    ) -> None:
        self._columns, self.exceptions, self._nrows = columns, exceptions, nrows

    @property
    def columns(self) -> list[Sequence[str]]:
        return list(map(self.column, range(self.width)))

    @property
    def width(self) -> int:
        return len(self._columns)

    def column(self, index: int) -> Sequence[str]:
        column = self._columns[index]
        return column.tokens if isinstance(column, _Numbers) else column

    def floats(self, index: int) -> list[list[float]] | None:
        """A numeric column's floats, one list per number in a token (a
        span's two), as ``float()`` reads each; None for a text column."""
        column = self._columns[index]
        return column.floats() if isinstance(column, _Numbers) else None

    def numeric(self, index: int) -> "_Numbers | None":
        """A column held as its numbers (``prefix``, ``series``), else None."""
        column = self._columns[index]
        return column if isinstance(column, _Numbers) else None

    def __len__(self) -> int:
        return self._nrows

    def __iter__(self):
        return iter(self.rows)

    def __getitem__(self, rows: slice) -> "DecodedBatch":
        """A slice of the rows (step 1 only), still columns — a numeric
        one still numbers."""
        start, stop, step = rows.indices(self._nrows)
        if step != 1:
            raise ValueError(f"a DecodedBatch slices with step 1 only, not {step}")
        stop = max(start, stop)
        marks = sorted(self.exceptions)
        low, high = bisect_left(marks, start), bisect_left(marks, stop)
        columns = [column[start - low : stop - high] for column in self._columns]
        exceptions = {i - start: self.exceptions[i] for i in marks[low:high]}
        return DecodedBatch(stop - start, columns, exceptions)

    @classmethod
    def concat(cls, parts: Sequence["DecodedBatch"]) -> "DecodedBatch":
        """*parts*' rows in order, as one batch (a lone part itself)."""
        if len(parts) == 1:
            return parts[0]
        if len({part.width for part in parts}) > 1:
            return split_rows(chain.from_iterable(parts))
        starts = list(accumulate(map(len, parts), initial=0))
        exceptions = {at + i: row for at, part in zip(starts, parts)
                      for i, row in part.exceptions.items()}
        columns = [_Numbers.concat(cells) for cells in zip(*(p._columns for p in parts))]
        return cls(starts[-1], columns, exceptions)

    def splits_back(self) -> bool:
        """Whether :func:`split_rows` of the rows gives these columns: no
        token holds a ``|``, and only the non-first rows of another arity
        are exceptions."""
        texts = (c.prefix if isinstance(c, _Numbers) else "".join(c) for c in self._columns)
        if 0 in self.exceptions or any("|" in text for text in texts):
            return False
        return all(row.count("|") != self.width - 1 for row in self.exceptions.values())

    @cached_property
    def rows(self) -> list[str]:
        body = list(map("|".join, zip(*self.columns)))
        if not self.exceptions:
            return body
        rest, exceptions = iter(body), self.exceptions
        return [exceptions[i] if i in exceptions else next(rest) for i in range(len(self))]


def decode_columns(records: Sequence[str]) -> DecodedBatch:
    """Decode colbatch *records* column by column, joining no row.

    Raises :class:`~repro.soap.chunks.ChunkError` on any malformed
    input — truncation, corrupted counts, bad indexes, wrong version.
    """
    records = list(records)
    if not records:
        raise ChunkError("empty colbatch payload (missing batch header)")
    header = records[0]
    parts = header.split("|")
    if len(parts) != 5 or parts[0] != BATCH_MAGIC:
        raise ChunkError(f"bad colbatch header {header!r}")
    try:
        version, nrows, nfields, nexc = (int(part) for part in parts[1:])
    except ValueError as exc:
        raise ChunkError(f"bad colbatch header {header!r}: {exc}") from exc
    if version != COLBATCH_VERSION:
        raise ChunkError(
            f"unsupported colbatch version {version} "
            f"(this decoder speaks version {COLBATCH_VERSION})"
        )
    if nrows < 0 or nfields < 0 or not 0 <= nexc <= nrows:
        raise ChunkError(f"inconsistent colbatch header {header!r}")
    if (nrows == 0) != (nfields == 0):
        raise ChunkError(f"inconsistent colbatch header {header!r}")
    expected = 1 + nfields + (1 if nexc else 0)
    if len(records) != expected:
        raise ChunkError(
            f"colbatch declares {expected} record(s) but carries {len(records)}"
        )
    body_rows = nrows - nexc
    columns = [_decode_column(record, body_rows) for record in records[1 : 1 + nfields]]
    exceptions = _decode_exceptions(records[-1], nexc, nrows) if nexc else {}
    return DecodedBatch(nrows, columns, exceptions)


def decode_batch(records: Sequence[str]) -> list[str]:
    """Decode colbatch *records* back to the original row strings
    (:func:`decode_columns`, every row joined)."""
    return decode_columns(records).rows
