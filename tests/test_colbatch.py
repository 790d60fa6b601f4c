"""Columnar batch wire format: round-trip property suite and fuzz wall.

Two halves, matching the ISSUE's test satellites:

* round-trip: every row set — structured, ragged, unicode, NaN/inf,
  all-null, dictionary-overflowing — must decode byte-identical, both
  through ``encode_batch``/``decode_batch`` directly and through the
  tagged chunk envelope;
* adversarial: truncated batches, corrupted length headers, wrong
  format versions, and seeded random mutations must raise
  :class:`ChunkError` — never crash with another exception, and never
  silently drop or invent rows.
"""

from __future__ import annotations

import base64
import hashlib
import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.semantic import PerformanceResult
from repro.soap.chunks import (
    ENCODING_COLBATCH,
    ENCODING_COLPFX,
    ENCODING_XML,
    ChunkError,
    decode_chunk,
    encode_chunk,
    frame_answer,
)
from repro.soap import colbatch
from repro.soap.colbatch import (
    BATCH_MAGIC,
    COLBATCH_VERSION,
    DICT_MAX,
    DecodedBatch,
    decode_batch,
    decode_columns,
    encode_batch,
    encode_columns,
    split_rows,
)
from repro.soap.rpc import decode_response, encode_response


def roundtrip(rows: list[str]) -> list[str]:
    return decode_batch(encode_batch(rows))


class TestRoundTripStructured:
    def test_empty_batch(self):
        records = encode_batch([])
        assert records == [f"{BATCH_MAGIC}|{COLBATCH_VERSION}|0|0|0"]
        assert decode_batch(records) == []

    def test_single_empty_row(self):
        assert roundtrip([""]) == [""]

    def test_all_null_columns(self):
        rows = ["||", "||", "||"]
        assert roundtrip(rows) == rows

    def test_null_bitmap_mixed(self):
        rows = ["a|", "|b", "a|", "|b", "|"]
        assert roundtrip(rows) == rows

    def test_constant_column_encoding(self):
        rows = [f"time_spent|{i}" for i in range(50)]
        records = encode_batch(rows)
        assert records[1].startswith("const|")
        assert decode_batch(records) == rows

    def test_dictionary_column_encoding(self):
        rows = [f"/Code/MPI/MPI_{op}" for op in ("Send", "Recv", "Wait")] * 40
        records = encode_batch(rows)
        assert records[1].startswith("dict|")
        assert decode_batch(records) == rows

    def test_fixed_point_delta_encoding(self):
        rows = [f"{i * 0.001:.9f}" for i in range(200)]
        records = encode_batch(rows)
        assert records[1].startswith("fxp|")
        assert decode_batch(records) == rows

    def test_float_repr_column_with_nan_inf(self):
        values = [repr(i / 7.0) for i in range(80)] + ["nan", "inf", "-inf"]
        rows = [f"{v}|{v}" for v in values]
        assert roundtrip(rows) == rows

    def test_dictionary_overflow_falls_back(self):
        rows = [f"token-{i}" for i in range(DICT_MAX + 10)]
        records = encode_batch(rows)
        assert not records[1].startswith("dict|")
        assert decode_batch(records) == rows

    def test_unicode_and_embedded_delimiters(self):
        rows = [
            "métrique|/Code/δ/%7C|t;ype|1.0-2.0|0.5",
            "a%3Bb|;;|%|%%25|…",
            "naïve|data|with|pipes|везде",
        ]
        assert roundtrip(rows) == rows

    def test_ragged_rows_ride_as_exceptions(self):
        rows = ["a|b|c", "a|b|c|d", "x", "e|f|g"]
        records = encode_batch(rows)
        assert records[0].endswith("|2")  # two exception rows
        assert decode_batch(records) == rows

    def test_non_canonical_numbers_stay_exact(self):
        # leading zeros, negative zero, trailing-dot forms must not be
        # "normalized" by the numeric fast paths
        rows = ["00.5|x", "-0.000|x", "1.|x", "0x10|x", "+5|x"]
        assert roundtrip(rows) == rows


class TestChunkEnvelopeTagged:
    def test_xml_chunk_bytes_unchanged(self):
        # the legacy four-field header is byte-identical: a peer that
        # never negotiates sees exactly the pre-colbatch wire
        rows = ["a|b", "c|d"]
        assert encode_chunk(3, rows, done=False) == ["#chunk|3|2|0", *rows]
        assert encode_chunk(3, rows, done=False, encoding=ENCODING_XML) == [
            "#chunk|3|2|0",
            *rows,
        ]

    def test_colbatch_chunk_roundtrip(self):
        rows = [f"m|/f/{i % 3}|{i * 0.5:.9f}" for i in range(100)]
        payload = encode_chunk(7, rows, done=True, encoding=ENCODING_COLBATCH)
        assert payload[0] == f"#chunk|7|100|1|{ENCODING_COLBATCH}"
        envelope = decode_chunk(payload)
        assert envelope.seq == 7 and envelope.done is True
        assert envelope.encoding == ENCODING_COLBATCH
        assert list(envelope.rows) == rows

    def test_explicit_xml_tag_decodes(self):
        payload = [f"#chunk|0|1|1|{ENCODING_XML}", "row"]
        envelope = decode_chunk(payload)
        assert envelope.rows == ("row",) and envelope.encoding == ENCODING_XML

    def test_unknown_encoding_rejected_on_both_ends(self):
        with pytest.raises(ChunkError, match="unknown chunk encoding"):
            encode_chunk(0, ["r"], done=True, encoding="protobuf")
        with pytest.raises(ChunkError, match="unknown encoding"):
            decode_chunk(["#chunk|0|1|1|protobuf", "r"])

    def test_colbatch_count_mismatch_rejected(self):
        payload = encode_chunk(0, ["a|b", "c|d"], done=True, encoding=ENCODING_COLBATCH)
        header = payload[0].replace("|2|", "|3|")
        with pytest.raises(ChunkError, match="declares 3 row"):
            decode_chunk([header, *payload[1:]])

    def test_trace_chunk_is_an_order_of_magnitude_smaller_on_the_wire(self):
        # one full 2,048-row chunk of Vampir-style time_spent rows over
        # 16 MPI foci: sequential fixed-point spans (delta-RLE), a
        # quantized value pool and three constant/dictionary columns
        mpi_ops = (
            "Send Recv Isend Irecv Wait Waitall Barrier Bcast Reduce Allreduce "
            "Gather Scatter Alltoall Comm_rank Comm_size Finalize"
        ).split()
        rows = []
        for i in range(2048):
            start = i * 0.015625
            rows.append(
                PerformanceResult(
                    "time_spent",
                    f"/Code/MPI/MPI_{mpi_ops[i % 16]}",
                    "vampir",
                    start,
                    start + 0.015625,
                    ((i * 7 + i // 16) % 997) / 64,
                ).pack()
            )
        wire_bytes = {}
        for encoding in (ENCODING_XML, ENCODING_COLBATCH):
            payload = encode_chunk(0, rows, done=True, encoding=encoding)
            wire = encode_response("urn:ppg", "next", payload)
            wire_bytes[encoding] = len(wire)
            assert list(decode_chunk(decode_response(wire).value).rows) == rows
        assert wire_bytes[ENCODING_COLBATCH] * 10 <= wire_bytes[ENCODING_XML], wire_bytes


_wild_text = st.text(min_size=0, max_size=40)


class TestRoundTripProperties:
    @given(st.lists(_wild_text, max_size=30))
    @settings(max_examples=120, deadline=None)
    def test_any_rows_roundtrip(self, rows):
        assert roundtrip(rows) == rows

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["time_spent", "bytes_sent", "μops"]),
                st.integers(0, 5),
                st.floats(allow_nan=True, allow_infinity=True),
                _wild_text,
            ),
            max_size=25,
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_typed_rows_roundtrip(self, specs):
        rows = [
            f"{metric}|/f/{focus}|{value!r}|{text}" for metric, focus, value, text in specs
        ]
        assert roundtrip(rows) == rows

    @given(st.lists(_wild_text, max_size=12), st.integers(0, 10**6), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_chunk_envelope_roundtrip(self, rows, seq, done):
        envelope = decode_chunk(encode_chunk(seq, rows, done, ENCODING_COLBATCH))
        assert list(envelope.rows) == rows
        assert (envelope.seq, envelope.done) == (seq, done)


def _random_token(rng: random.Random) -> str:
    kind = rng.randrange(9)
    if kind == 0:
        return ""
    if kind == 1:
        return f"{rng.uniform(-1000, 1000):.9f}"
    if kind == 2:
        return repr(rng.uniform(-1e9, 1e9))
    if kind == 3:
        return rng.choice(["nan", "inf", "-inf", "0.0", "-0.0"])
    if kind == 4:
        return str(rng.randrange(-(10**12), 10**12))
    if kind == 5:
        return rng.choice(["/Code/MPI/MPI_Send", "time_spent", "vampir"])
    if kind == 6:
        return "".join(chr(rng.randrange(32, 0x2500)) for _ in range(rng.randrange(12)))
    if kind == 7:
        return rng.choice(["%", ";", "|", "a%3Bb", "%25", "-0.000", "00.7"])
    return rng.choice([BATCH_MAGIC, "@xrows", "#chunk", "const", "fxp|x"])


def _random_rows(rng: random.Random) -> list[str]:
    n = rng.randrange(0, 50)
    if rng.random() < 0.5:
        nfields = rng.randrange(1, 8)
        rows = [
            "|".join(_random_token(rng) for _ in range(nfields)) for _ in range(n)
        ]
        for _ in range(rng.randrange(3)):  # ragged injections
            if rows:
                rows[rng.randrange(len(rows))] = _random_token(rng)
        return rows
    return [_random_token(rng) for _ in range(n)]


class TestSeededOracle:
    """Randomized corpus seeded through the --seed/oracle_seed plumbing."""

    N_CASES = 150

    @pytest.mark.parametrize("case", range(N_CASES))
    def test_random_rows_roundtrip(self, case, oracle_seed):
        rng = random.Random(0xC0B + oracle_seed * 1_000_003 + case)
        rows = _random_rows(rng)
        assert roundtrip(rows) == rows

    @pytest.mark.parametrize("case", range(N_CASES))
    def test_random_columns_roundtrip(self, case, oracle_seed):
        """A batch encoded from token columns decodes to the tokens
        ``|``-joined, whatever they hold; tokens without a ``|`` are what
        splitting those rows gives, so the bytes are ``encode_batch``'s."""
        rng = random.Random(0xC01 + oracle_seed * 1_000_003 + case)
        nrows = rng.randrange(0, 40)
        columns = [[_random_token(rng) for _ in range(nrows)] for _ in range(rng.randrange(1, 8))]
        for special in ("%", ";", "|", "", "a|b;c%7C"):
            if nrows and rng.random() < 0.7:
                columns[rng.randrange(len(columns))][rng.randrange(nrows)] = special
        rows = ["|".join(cells) for cells in zip(*columns)]
        records = encode_columns(columns)
        assert decode_batch(records) == rows
        batch = decode_columns(records)
        assert batch.columns == (columns if nrows else []) and not batch.exceptions
        if not any("|" in token for column in columns for token in column):
            assert records == encode_batch(rows)

    @pytest.mark.parametrize("case", range(N_CASES))
    def test_column_slices_encode_as_their_rows(self, case, oracle_seed):
        """A cursor's columnar chunk — slices of token-column batches,
        exception rows kept verbatim, concatenated — encodes to exactly
        ``encode_batch`` of its joined rows, whatever the tokens hold."""
        rng = random.Random(0xC5 + oracle_seed * 1_000_003 + case)
        width = rng.randrange(1, 7)
        parts, rows = [], []
        for _ in range(rng.randrange(1, 4)):
            nrows = rng.randrange(0, 30)
            columns = [[_random_token(rng) for _ in range(nrows)] for _ in range(width)]
            for special in ("%", ";", "|", "", "a|b;c%7C"):
                if nrows and rng.random() < 0.3:
                    columns[rng.randrange(width)][rng.randrange(nrows)] = special
            whole = ["|".join(cells) for cells in zip(*columns)]
            if rng.random() < 0.5:  # the producer's own token columns
                batch = DecodedBatch(nrows, columns, {})
            else:  # split rows, some of another arity (the first one too)
                for _ in range(rng.randrange(3)):
                    if whole:
                        whole[rng.randrange(min(nrows, 3))] = _random_token(rng)
                batch = split_rows(whole)
            start = rng.randrange(nrows + 1)
            stop = rng.randrange(start, nrows + 1)
            parts.append(batch[start:stop])
            rows.extend(whole[start:stop])
            assert list(parts[-1]) == whole[start:stop]
        joined = DecodedBatch.concat(parts)
        assert list(joined) == rows and len(joined) == len(rows)
        assert encode_batch(joined) == encode_batch(rows)
        for encoding in (ENCODING_COLBATCH, ENCODING_XML):
            assert encode_chunk(2, joined, False, encoding) == encode_chunk(2, rows, False, encoding)
        assert decode_batch(encode_batch(joined)) == rows


def _bits(value: float) -> bytes:
    return struct.pack("<d", value)


def _fxp_token(value: int, scale: int) -> str:
    """*value* / 10**scale as the canonical fixed-point literal."""
    digits = str(abs(value)).rjust(scale + 1, "0")
    sign = "-" if value < 0 else ""
    return f"{sign}{digits[:-scale]}.{digits[-scale:]}" if scale else f"{sign}{digits}"


#: f64 cells every typed case may draw: signed zeros, NaN, both
#: infinities, the subnormal range and its edges, the largest doubles
_F64_EDGES = [
    0.0, -0.0, float("nan"), float("inf"), float("-inf"), 5e-324, -5e-324,
    2.2250738585072014e-308, 2.225073858507201e-308, 1e-310, -3.5e-320,
    1.7976931348623157e308, -1.7976931348623157e308, 0.1, -2.5,
]


def _typed_column(rng: random.Random, kind: str, nrows: int) -> list[str]:
    """One column of tokens the encoder packs as *kind* (``fxp``, ``spn``
    or ``f64``), or a text column."""
    if kind == "fxp":
        scale = rng.choice([0, 1, 3, 9, colbatch._FXP_MAX_SCALE])
        unit = 10**scale
        numbers = [
            rng.choice([0, rng.randrange(-unit, unit), rng.randrange(-(10**12), 10**12) * unit,
                        rng.randrange(-(10**20), 10**20)])
            for _ in range(nrows)
        ]
        if scale == 0 and rng.random() < 0.5:  # past the float range: float() gives inf
            numbers[rng.randrange(nrows)] = -(10**400) if rng.random() < 0.5 else 10**400
        return [_fxp_token(number, scale) for number in numbers]
    if kind == "spn":
        scales = rng.choice([0, 3, 9]), rng.choice([0, 9, colbatch._FXP_MAX_SCALE])
        return [
            "-".join(_fxp_token(rng.choice([0, rng.randrange(10**15)]), scale) for scale in scales)
            for _ in range(nrows)
        ]
    if kind == "f64":
        # distinct doubles from random bits, so no dictionary is chosen
        cells = [struct.unpack("<d", rng.randbytes(8))[0] for _ in range(nrows)]
        for _ in range(rng.randrange(4)):
            cells[rng.randrange(nrows)] = rng.choice(_F64_EDGES)
        return [repr(cell) for cell in cells]
    return [rng.choice(["a", "/f/1", "x=y", "é"]) for _ in range(nrows)]


class TestTypedDecode:
    """A null-free numeric column decodes to its numbers: each float is
    ``float()`` of the token the text decode gives, bit for bit; the
    tokens rendered when asked for, and the batch's slices and
    concatenations, are the text's."""

    @pytest.mark.parametrize("case", range(60))
    def test_numbers_equal_the_text_decode(self, case, oracle_seed):
        rng = random.Random(0x7F0A7 + oracle_seed * 1_000_003 + case)
        nrows = rng.randrange(1, 50)
        kinds = [rng.choice(["fxp", "spn", "f64", "text"]) for _ in range(rng.randrange(1, 5))]
        columns = [_typed_column(rng, kind, nrows) for kind in kinds]
        records = encode_columns(columns)
        batch, text = decode_columns(records), DecodedBatch(nrows, columns, {})
        rows = ["|".join(cells) for cells in zip(*columns)]
        for index, (record, column) in enumerate(zip(records[1:], columns)):
            series = batch.floats(index)
            if record.split("|", 1)[0] not in ("fxp", "spn", "f64"):
                assert series is None
                continue
            halves = [token.partition("-")[::2] for token in column]
            parts = halves if record.startswith("spn") else [(token,) for token in column]
            assert series is not None and len(series) == len(parts[0])
            for at, floats in enumerate(series):
                assert list(map(_bits, floats)) == [_bits(float(part[at])) for part in parts]
        # reading the numbers rendered nothing
        assert not any("tokens" in vars(cell) for cell in batch._columns
                       if isinstance(cell, colbatch._Numbers))
        assert batch.columns == columns and batch.rows == rows
        start = rng.randrange(nrows + 1)
        stop = rng.randrange(start, nrows + 1)
        typed = decode_columns(records)
        assert typed[start:stop].columns == text[start:stop].columns
        joined = DecodedBatch.concat([typed[start:stop], decode_columns(records), typed[:start]])
        expected = DecodedBatch.concat([text[start:stop], text, text[:start]])
        assert joined.columns == expected.columns and list(joined) == list(expected)

    def test_a_nan_of_any_bits_is_the_canonical_nan(self):
        """Every NaN renders as ``nan``, which parses back as one NaN: a
        decoded f64 NaN is that one, whatever sign or payload it came with."""
        nans = [struct.unpack("<d", struct.pack("<Q", bits))[0]
                for bits in (0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001)]
        payload = base64.b64encode(struct.pack("<3d", *nans)).decode("ascii")
        batch = decode_columns([f"{BATCH_MAGIC}|{COLBATCH_VERSION}|3|1|0", f"f64|-|{payload}"])
        assert batch.columns == [["nan"] * 3]
        assert list(map(_bits, batch.floats(0)[0])) == [_bits(float("nan"))] * 3


def _numbers_column(rng: random.Random, kind: str, nrows: int) -> "colbatch._Numbers":
    """A numeric column as a warm cursor or a federated answer holds it:
    ``fxp`` integers at one scale (negatives too), ``spn`` pairs (a
    negative start now and then: its text is no ``spn``), or floats —
    runs of one value (``const``), a few values (``dict``), whole ones
    (``fxp`` at scale 1), reprs sharing a scale, random bits, and the
    edges: +-0.0, a NaN of any payload, +-inf, subnormals."""
    if kind == "fxp":
        scale = rng.choice([0, 1, 3, 9])
        return colbatch._Numbers((scale, [rng.randrange(-(10**6), 10**6) for _ in range(nrows)]))
    if kind == "spn":
        low = -5 if rng.random() < 0.2 else 0
        return colbatch._Numbers(*(
            (scale, [rng.randrange(low, 10**5) for _ in range(nrows)])
            for scale in (rng.choice([0, 9]), rng.choice([0, 2, 9]))
        ))
    nan = struct.unpack("<d", struct.pack("<Q", 0xFFF8000000000000 | rng.getrandbits(40)))[0]
    pools = {
        "one": [rng.choice(_F64_EDGES + [nan, 3.5])],
        "few": [rng.choice(_F64_EDGES + [nan]) for _ in range(3)],
        "whole": [float(rng.randrange(-3, 3000)) for _ in range(40)],
        "scale": [rng.randrange(-999, 999) / 10 for _ in range(40)],
        "eighths": [rng.randrange(0, 800) / 8 for _ in range(400)],
        "bits": [struct.unpack("<d", rng.randbytes(8))[0] for _ in range(nrows)],
    }
    pool = pools[rng.choice(list(pools))]
    cells = [rng.choice(pool) for _ in range(nrows)]
    for _ in range(rng.randrange(3) if rng.random() < 0.3 else 0):
        cells[rng.randrange(nrows)] = rng.choice(_F64_EDGES + [nan])
    return colbatch._Numbers((None, cells))


class TestTypedEncode:
    """A column held as numbers encodes, whole or sliced, to the bytes its
    tokens do — ``encode_batch`` of the joined rows, on both encodings —
    the typed encoder choosing what the text encoder chooses, in its
    order, or falling back to the tokens where it cannot prove it."""

    @pytest.mark.parametrize("case", range(40))
    def test_typed_slices_encode_as_their_rows(self, case, oracle_seed):
        rng = random.Random(0x7E4C + oracle_seed * 1_000_003 + case)
        nrows = rng.choice([1, 7, 40, 300])
        kinds = [rng.choice(["fxp", "spn", "f64", "f64", "text"]) for _ in range(rng.randrange(1, 4))]
        columns = [
            _numbers_column(rng, kind, nrows) if kind != "text" else _typed_column(rng, kind, nrows)
            for kind in kinds
        ]
        # the rows from copies: the batch's own columns render nothing
        rows = ["|".join(cells) for cells in zip(*(colbatch._tokens(c[:]) for c in columns))]
        typed = DecodedBatch(nrows, columns, {})
        for size in {1, 7, 256, nrows}:
            for start in range(0, nrows, size):
                for named in (False, True):
                    assert encode_batch(typed[start:start + size], named) == encode_batch(
                        rows[start:start + size], named), (size, start, named)
        assert not any("tokens" in vars(column) for column in typed._columns
                       if isinstance(column, colbatch._Numbers))

    @pytest.mark.parametrize("case", range(40))
    def test_named_columns_round_trip_behind_their_prefix(self, case, oracle_seed):
        """Behind a ``name=`` every column — numbers of every kind, or
        text — encodes as its tokens do on both encodings, and the
        ``colbatch+pfx`` records decode to those tokens, their floats
        ``float()`` of each token's rest bit for bit."""
        rng = random.Random(0x9F1C + oracle_seed * 1_000_003 + case)
        nrows = rng.choice([1, 2, 7, 40, 300])
        columns = []
        for index in range(rng.randrange(1, 4)):
            kind = rng.choice(["fxp", "spn", "f64", "f64", "text"])
            prefix = rng.choice(["value=", "count(m)=", "a;b%=", "x="])
            if kind == "text":
                columns.append([prefix + token for token in _typed_column(rng, kind, nrows)])
            else:
                columns.append(colbatch._Numbers(*_numbers_column(rng, kind, nrows).series,
                                                 prefix=prefix))
        rows = ["|".join(cells) for cells in zip(*map(colbatch._tokens, columns))]
        batch = DecodedBatch(nrows, columns, {})
        for named in (False, True):
            records = encode_batch(batch, named)
            assert records == encode_batch(rows, named)
            decoded = decode_columns(records)
            assert decoded.rows == rows
            for index, record in enumerate(records[1:]):
                assert record.startswith("pfx|") <= named
                floats = decoded.floats(index)
                if floats is None:
                    continue
                rests = [token.partition("=")[2] for token in decoded.column(index)]
                halves = [rest.partition("-")[::2] if len(floats) == 2 else (rest,) for rest in rests]
                for at, series in enumerate(floats):
                    assert list(map(_bits, series)) == [_bits(float(h[at])) for h in halves]

    def test_a_named_column_travels_as_numbers(self):
        """A federated answer's float and count columns go out as ``f64``
        and ``fxp`` behind their name, shorter than the plain ``raw`` or
        ``dict`` record; a constant column stays ``const``."""
        values = [i * 0.37 + 0.001 for i in range(256)]
        columns = [
            colbatch.number_column("value=", values),
            colbatch.number_column("count(m)=", list(range(256))),
            colbatch.number_column("start=", [float(i) for i in range(256)]),
            colbatch.number_column("exec=", [7] * 256),
        ]
        named = encode_columns(columns, named=True)
        plain = encode_columns(columns)
        kinds = [record.split("|")[:3] for record in named[1:]]
        assert kinds == [["pfx", "value=", "f64"], ["pfx", "count(m)=", "fxp"],
                         ["pfx", "start=", "fxp"], ["const", "-", "exec=7"]]
        assert [len(a) < len(b) for a, b in zip(named[1:], plain[1:])] == [True] * 3 + [False]
        assert decode_columns(named).rows == decode_columns(plain).rows

    @pytest.mark.parametrize("case", range(40))
    def test_a_batch_frames_as_its_rows(self, case, oracle_seed):
        """``frame_answer`` of a batch held as columns is that of its rows,
        on both columnar encodings, where the 35-bytes-a-row test leaves
        the choice to the rows' length: one-row and wide aggregate-like
        answers, numbers behind a ``name=``, NaN, -0.0 and spans with a
        negative start among them."""
        rng = random.Random(0xF4A3 + oracle_seed * 1_000_003 + case)
        nrows = rng.choice([1, 1, 2, 5, 40])
        columns = []
        for _ in range(rng.choice([1, 3, 12])):
            kind = rng.choice(["fxp", "spn", "f64", "f64", "text"])
            prefix = rng.choice(["", "focus=", "count(m)=", "mean(m)="])
            if kind == "text":
                columns.append([prefix + token for token in _typed_column(rng, kind, nrows)])
            else:
                columns.append(colbatch._Numbers(*_numbers_column(rng, kind, nrows).series,
                                                 prefix=prefix))
        rows = ["|".join(cells) for cells in zip(*(colbatch._tokens(c[:]) for c in columns))]
        for encoding in (ENCODING_COLBATCH, ENCODING_COLPFX):
            batch = DecodedBatch(nrows, columns, {})
            assert frame_answer(batch, encoding) == frame_answer(rows, encoding), encoding

    def test_a_slice_step_other_than_one_is_refused(self):
        batch = split_rows(["a|1", "b|2", "c|3", "d|4"])
        for step in (2, -1):
            with pytest.raises(ValueError, match="step 1 only"):
                batch[::step]
        assert list(batch[1:3]) == ["b|2", "c|3"] and list(batch[::1]) == list(batch)


def _pinned_corpus() -> list[list[str]]:
    """Row sets covering every column encoding and both escape paths:
    the seeded random corpus, plus Performance Result and raw result-row
    shapes at bulk sizes (one- and two-character dictionary indexes,
    overflow to raw, fixed point of both signs, nulls, ragged rows)."""
    rng = random.Random(0xB17E5)
    corpus = [_random_rows(rng) for _ in range(300)]
    for n, foci in ((640, 8), (5120, 70), (9000, 5000)):
        corpus.append([
            f"m|/rank/{i % foci}|synthetic|{i:.9f}-{i + 1:.9f}|{rng.randrange(8000) / 8!r}"
            for i in range(n)
        ])
        corpus.append([
            f"app=M0{i % 4}|exec={i % 2}|metric=m|focus=/rank/{i % foci}|type=synthetic"
            f"|start={i * 0.5!r}|end={i * 0.5 + 1!r}|value={rng.randrange(-80, 80) / 8!r}"
            for i in range(n)
        ])
    corpus.append([f"{rng.randrange(-10**6, 10**6) / 1000:.3f}|" for _ in range(700)])
    corpus.append([f"a;b|{i}%|x|y" if i % 3 else "ragged" for i in range(400)])
    return corpus


def test_encoder_bytes_are_pinned():
    """``encode_batch`` output is part of the wire: any speed-up must
    emit exactly these bytes (digest of the encoder this test was
    written against)."""
    digest = hashlib.sha256()
    for rows in _pinned_corpus():
        records = encode_batch(rows)
        assert decode_batch(records) == rows
        digest.update("\n".join(records).encode("utf-8", "surrogatepass") + b"\0")
    assert digest.hexdigest() == PINNED_ENCODER_DIGEST


PINNED_ENCODER_DIGEST = "3001c03a9bc067d5a48755746962e3a9845d42f65a8dc3e2ad09d1d86840fc93"


class TestAdversarialDecode:
    @pytest.fixture()
    def valid(self):
        rows = [
            f"time_spent|/f/{i % 5}|vampir|{i * 0.25:.9f}|{repr(i * 0.5)}"
            for i in range(60)
        ]
        rows[17] = "ragged|row"
        return encode_batch(rows)

    def test_empty_payload_rejected(self):
        with pytest.raises(ChunkError, match="missing batch header"):
            decode_batch([])

    def test_wrong_format_version_rejected(self, valid):
        header = valid[0].replace(
            f"|{COLBATCH_VERSION}|", f"|{COLBATCH_VERSION + 1}|", 1
        )
        with pytest.raises(ChunkError, match="version"):
            decode_batch([header, *valid[1:]])

    @pytest.mark.parametrize("drop", range(1, 7))
    def test_truncated_batch_rejected(self, valid, drop):
        with pytest.raises(ChunkError):
            decode_batch(valid[:-drop])

    def test_extra_record_rejected(self, valid):
        with pytest.raises(ChunkError, match="record"):
            decode_batch(valid + ["raw|-|x"])

    def test_corrupted_row_count_rejected(self, valid):
        parts = valid[0].split("|")
        parts[2] = str(int(parts[2]) + 1)
        with pytest.raises(ChunkError):
            decode_batch(["|".join(parts), *valid[1:]])

    def test_garbage_header_counts_rejected(self, valid):
        with pytest.raises(ChunkError):
            decode_batch([f"{BATCH_MAGIC}|1|ten|5|0", *valid[1:]])
        with pytest.raises(ChunkError):
            decode_batch([f"{BATCH_MAGIC}|1|-4|5|0", *valid[1:]])
        with pytest.raises(ChunkError):
            decode_batch([f"{BATCH_MAGIC}|1|3|5|9", *valid[1:]])

    def test_unknown_column_encoding_rejected(self):
        records = encode_batch(["a|b", "c|d"])
        bad = "zstd" + records[1][records[1].index("|") :]
        with pytest.raises(ChunkError, match="unknown column encoding"):
            decode_batch([records[0], bad, records[2]])

    def test_dict_index_out_of_range_rejected(self):
        records = encode_batch(["x", "y"] * 10)
        assert records[1].startswith("dict|")
        head, _, indexes = records[1].rpartition("|")
        with pytest.raises(ChunkError):
            decode_batch([records[0], head + "|" + "z" * len(indexes)])

    def test_fxp_run_length_bomb_rejected(self):
        # a forged run count must not allocate unbounded memory
        records = encode_batch([f"{i}.5" for i in range(10)])
        assert records[1].startswith("fxp|")
        forged = records[1].rsplit("|", 1)[0] + "|10*999999999"
        with pytest.raises(ChunkError, match="overflow"):
            decode_batch([records[0], forged])

    def test_bad_null_bitmap_rejected(self):
        records = encode_batch(["a|", "b|", "c|"])
        column = records[2].split("|")
        column[1] = column[1] + "A"  # wrong bitmap length
        with pytest.raises(ChunkError, match="bitmap"):
            decode_batch([records[0], records[1], "|".join(column)])

    def test_mixed_encoding_sequence_rejected(self):
        # chunk 0 negotiated colbatch, chunk 1 arrives as XML rows: the
        # decode level flags the switch via the envelope encoding, and a
        # colbatch-tagged chunk with per-row payload is malformed
        xml_rows_in_colbatch = [f"#chunk|1|2|0|{ENCODING_COLBATCH}", "a|b", "c|d"]
        with pytest.raises(ChunkError):
            decode_chunk(xml_rows_in_colbatch)

    def test_seeded_mutation_fuzz_of_named_records(self, oracle_seed):
        """The same mutations over ``colbatch+pfx`` records — ``pfx``
        ahead of ``f64``, ``fxp`` and ``dict`` records, a named text
        column — raise ChunkError or decode to the header's row count."""
        rng = random.Random(0xF0F0 + oracle_seed)
        base = encode_batch(
            [f"focus=/f/{i % 7}|count(m)={i}|value={i * 0.37!r}|start={i * 0.5!r}"
             for i in range(80)],
            named=True,
        )
        assert [record[:4] for record in base[1:]] == ["pfx|"] * 4
        for _ in range(2000):
            records = list(base)
            i = rng.randrange(len(records))
            action = rng.randrange(4)
            if action == 0 and len(records) > 1:
                del records[i]
            elif action == 1 and records[i]:
                j = rng.randrange(len(records[i]))
                records[i] = records[i][:j] + rng.choice("|;%-*=ABp0") + records[i][j + 1:]
            elif action == 2:
                records[i] = records[i].replace("|", "|pfx|x|", 1)
            else:
                records[i] = records[i][: rng.randrange(len(records[i]) + 1)]
            try:
                batch = decode_columns(records)
                numbers = [batch.floats(index) for index in range(batch.width)]
                rows = batch.rows
            except ChunkError:
                continue
            assert len(rows) == int(records[0].split("|")[2])
            for series in filter(None, numbers):
                assert all(len(floats) == len(rows) - len(batch.exceptions) for floats in series)

    def test_seeded_mutation_fuzz_never_crashes(self, oracle_seed):
        """Random single-point mutations: ChunkError or a full decode —
        no other exception, no row-count drift from the header."""
        rng = random.Random(0xF022 + oracle_seed)
        base = encode_batch(
            [
                f"time_spent|/f/{i % 7}|vampir|{i * 0.125:.9f}|{repr((i * 13 % 50) / 8)}"
                for i in range(80)
            ]
        )
        for _ in range(2000):
            records = list(base)
            action = rng.randrange(4)
            if action == 0 and len(records) > 1:
                del records[rng.randrange(len(records))]
            elif action == 1:
                i = rng.randrange(len(records))
                if records[i]:
                    j = rng.randrange(len(records[i]))
                    records[i] = (
                        records[i][:j]
                        + chr(rng.randrange(32, 127))
                        + records[i][j + 1 :]
                    )
            elif action == 2:
                i = rng.randrange(len(records))
                records[i] += chr(rng.randrange(32, 127))
            else:
                records.insert(rng.randrange(len(records) + 1), "junk|record")
            try:
                batch = decode_columns(records)
                numbers = [batch.floats(index) for index in range(batch.width)]
                rows = batch.rows
            except ChunkError:
                continue
            header = records[0].split("|")
            assert header[0] == BATCH_MAGIC
            assert len(rows) == int(header[2])
            for series in filter(None, numbers):
                assert all(len(floats) == len(rows) - len(batch.exceptions) for floats in series)
