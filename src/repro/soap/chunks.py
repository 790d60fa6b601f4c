"""Chunk envelope for streaming result transfer.

A :class:`repro.ogsi.cursor.ResultCursorService` answers each ``next``
call with one *chunk*: a header record followed by the payload rows,
all inside the ordinary SOAP string array.  Keeping the framing inside
the array (instead of inventing a new XML shape) means the existing
encoding, stub, and container layers carry chunks unchanged — the same
architecture-adapter discipline as the ``name|value`` wire records.

Header wire form::

    #chunk|<seq>|<count>|<done>[|<encoding>]

``seq`` is the zero-based chunk sequence number (clients verify it to
detect missed or replayed fetches), ``count`` the number of payload
rows the chunk carries, and ``done`` ``1`` on the final chunk of the
stream (``0`` otherwise).  ``#`` cannot start a packed result record,
so the header is unambiguous.

The optional fifth field is the *content encoding* of the payload
records following the header:

* ``xml`` (the default, and the only form a four-field header can
  carry): ``count`` per-row strings, exactly the legacy wire bytes —
  a colbatch-unaware peer never sees anything new;
* ``colbatch``: a :mod:`repro.soap.colbatch` columnar batch whose
  decoded row count must equal ``count``;
* ``colbatch+pfx``: the same, a column of ``name=`` tokens free to
  travel as a ``pfx`` record (the name once) — a federated answer's;
  a member's packed records have none, so a member serves ``colbatch``.

One ``acceptEncodings`` request header chooses the encoding: of every
chunk of the cursor a ``getPRChunked`` / ``queryChunked`` request
deploys, or of a ``getPR`` / ``query`` answer — one ``done=1`` chunk
(:func:`frame_answer`) only when that is shorter than the rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Sequence

#: first field of every chunk header record
CHUNK_HEADER = "#chunk"

#: per-row strings in the SOAP array — the universal baseline encoding
ENCODING_XML = "xml"

#: columnar batch records (see :mod:`repro.soap.colbatch`)
ENCODING_COLBATCH = "colbatch"

#: colbatch records plus the ``pfx`` column record (a shared ``name=``)
ENCODING_COLPFX = "colbatch+pfx"

#: what a member serves and a member read advertises, in server
#: preference order — a responder picks the first one the request also
#: accepts
WIRE_ENCODINGS = (ENCODING_COLBATCH, ENCODING_XML)

#: what a federated answer (``name=value`` tokens) may be served in
ANSWER_ENCODINGS = (ENCODING_COLPFX, *WIRE_ENCODINGS)


class ChunkError(ValueError):
    """Raised for malformed or out-of-sequence chunk envelopes."""


@dataclass(frozen=True)
class ChunkEnvelope:
    """One decoded chunk: sequence number, payload rows, end-of-stream,
    and the content encoding the payload arrived in.  A colbatch payload's
    rows are a :class:`~repro.soap.colbatch.DecodedBatch`, still columns."""

    seq: int
    rows: Collection[str]
    done: bool
    encoding: str = ENCODING_XML


def encode_chunk(
    seq: int, rows: Collection[str], done: bool, encoding: str = ENCODING_XML
) -> list[str]:
    """Frame *rows* as a chunk payload (header record + payload records).

    ``encoding="xml"`` emits the legacy four-field header and per-row
    payload byte-for-byte; ``"colbatch"`` (``"colbatch+pfx"``) emits the
    tagged five-field header followed by the columnar batch records
    (:func:`~repro.soap.colbatch.encode_batch`: rows held as a
    ``DecodedBatch`` are encoded from their columns).
    """
    if seq < 0:
        raise ChunkError(f"chunk seq must be >= 0, got {seq}")
    if encoding == ENCODING_XML:
        return [f"{CHUNK_HEADER}|{seq}|{len(rows)}|{1 if done else 0}", *rows]
    if encoding in (ENCODING_COLBATCH, ENCODING_COLPFX):
        from repro.soap.colbatch import encode_batch

        header = f"{CHUNK_HEADER}|{seq}|{len(rows)}|{1 if done else 0}|{encoding}"
        return [header, *encode_batch(rows, encoding == ENCODING_COLPFX)]
    raise ChunkError(f"unknown chunk encoding {encoding!r}")


def decode_chunk(payload: list[str]) -> ChunkEnvelope:
    """Parse a chunk payload; raises :class:`ChunkError` on bad framing."""
    if not payload:
        raise ChunkError("empty chunk payload (missing header)")
    header = payload[0]
    parts = header.split("|")
    if len(parts) not in (4, 5) or parts[0] != CHUNK_HEADER:
        raise ChunkError(f"bad chunk header {header!r}")
    try:
        seq = int(parts[1])
        count = int(parts[2])
        done = bool(int(parts[3]))
    except ValueError as exc:
        raise ChunkError(f"bad chunk header {header!r}: {exc}") from exc
    encoding = parts[4] if len(parts) == 5 else ENCODING_XML
    if encoding == ENCODING_XML:
        rows = tuple(payload[1:])
    elif encoding in (ENCODING_COLBATCH, ENCODING_COLPFX):
        from repro.soap.colbatch import decode_columns

        rows = decode_columns(payload[1:])
    else:
        raise ChunkError(f"chunk {seq} carries unknown encoding {encoding!r}")
    if len(rows) != count:
        raise ChunkError(
            f"chunk {seq} declares {count} row(s) but carries {len(rows)}"
        )
    return ChunkEnvelope(seq=seq, rows=rows, done=done, encoding=encoding)


def require_accepted(envelope: ChunkEnvelope, advertised: Sequence[str]) -> None:
    """The caller's acceptance rule: a chunk in an encoding the request did
    not *advertise* is a protocol error; ``xml`` is always accepted."""
    if envelope.encoding not in (ENCODING_XML, *advertised):
        raise ChunkError(
            f"chunk {envelope.seq} arrived as {envelope.encoding!r}, which the "
            f"request did not advertise (accepted {tuple(advertised)})"
        )


def _wire_size(items) -> int:
    # each array item's element costs ~35 bytes beside its text
    return sum(map(len, items)) + 35 * len(items)


def frame_answer(rows: Collection[str], encoding: str) -> list[str]:
    """*rows* as one ``done=1`` chunk in *encoding* when that is shorter
    on the wire, else the rows themselves: never larger than the XML.
    A :class:`~repro.soap.colbatch.DecodedBatch` is encoded from its columns,
    its rows joined only to be measured when the frame does not win outright."""
    if encoding != ENCODING_XML:
        framed = encode_chunk(0, rows, True, encoding)
        size = _wire_size(framed)  # under the rows' elements alone, their text is not counted
        if size < 35 * len(rows) or size < _wire_size(rows):
            return framed
    return rows if isinstance(rows, list) else list(rows)


def unframe_answer(items: Sequence[str], advertised: Sequence[str]) -> tuple[Collection[str], str]:
    """``(rows, encoding)`` of a maybe-framed answer (a colbatch answer's
    rows still its decoded columns); a chunk that is not one whole answer
    in an accepted encoding is a protocol error."""
    if not items or not items[0].startswith(CHUNK_HEADER + "|"):
        return items, ENCODING_XML
    envelope = decode_chunk(items)
    if envelope.seq or not envelope.done:
        raise ChunkError(f"bad one-chunk answer {items[0]!r}")
    require_accepted(envelope, advertised)
    return envelope.rows, envelope.encoding
