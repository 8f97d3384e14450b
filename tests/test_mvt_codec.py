"""MVT wire codec robustness: hypothesis round-trip (random tiles
encode → decode fixpoint), geometry command-stream round trips, value
oneof coercion."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvt_wrangler_ray.sources import mvt

_values = st.one_of(
    st.text(max_size=20),
    st.integers(min_value=-(2 ** 60), max_value=2 ** 60),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.booleans(),
)

_points = st.lists(
    st.tuples(st.integers(0, 4095), st.integers(0, 4095)), min_size=1, max_size=8)


@st.composite
def _feature(draw):
    gtype = draw(st.sampled_from([mvt.GEOM_POINT, mvt.GEOM_LINESTRING, mvt.GEOM_POLYGON]))
    pts = draw(_points)
    if gtype == mvt.GEOM_POLYGON and len(pts) >= 3:
        paths = [pts + [pts[0]]]
    elif gtype == mvt.GEOM_POLYGON:
        gtype = mvt.GEOM_POINT
        paths = [pts[:1]]
    else:
        paths = [pts]
    ntags = draw(st.integers(0, 3))
    return {
        "id": draw(st.one_of(st.none(), st.integers(0, 2 ** 40))),
        "type": gtype,
        "tags": [draw(st.integers(0, 3)) for _ in range(ntags * 2)],
        "geometry": mvt.encode_geometry(paths, gtype),
    }


@st.composite
def _tile(draw):
    nlayers = draw(st.integers(1, 3))
    layers = []
    for i in range(nlayers):
        layers.append({
            "name": f"layer{i}",
            "version": 2,
            "extent": draw(st.sampled_from([4096, 8192])),
            "keys": ["a", "b", "c", "d"],
            "values": [draw(_values) for _ in range(4)],
            "features": draw(st.lists(_feature(), max_size=4)),
        })
    return {"layers": layers}


def _norm_value(v):
    # float32 never emitted by our encoder; ints round-trip exactly
    return v


@settings(max_examples=60, deadline=None)
@given(_tile())
def test_tile_roundtrip(tile):
    blob = mvt.encode_tile(tile)
    back = mvt.decode_tile(blob)
    assert len(back["layers"]) == len(tile["layers"])
    for lin, lout in zip(tile["layers"], back["layers"]):
        assert lout["name"] == lin["name"]
        assert lout["extent"] == lin["extent"]
        assert lout["keys"] == lin["keys"]
        for vin, vout in zip(lin["values"], lout["values"]):
            if isinstance(vin, float):
                assert vout == vin or (np.isnan(vin) and np.isnan(vout))
            else:
                assert vout == vin and type(vout) is type(vin)
        assert len(lout["features"]) == len(lin["features"])
        for fin, fout in zip(lin["features"], lout["features"]):
            assert fout["tags"] == fin["tags"]
            assert fout["type"] == fin["type"]
            assert fout["geometry"] == fin["geometry"]
            assert fout["id"] == fin["id"]
    # encode is a fixpoint after one round trip
    assert mvt.encode_tile(back) == blob


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(-10_000, 10_000),
                          st.integers(-10_000, 10_000)),
                min_size=1, max_size=20))
def test_geometry_roundtrip_linestring(pts):
    enc = mvt.encode_geometry([pts], mvt.GEOM_LINESTRING)
    dec = mvt.decode_geometry(enc)
    assert dec == [pts]


def test_geometry_polygon_closepath():
    ring = [(0, 0), (10, 0), (10, 10), (0, 0)]
    enc = mvt.encode_geometry([ring], mvt.GEOM_POLYGON)
    # ClosePath command present (op 7)
    assert any((c & 0x7) == 7 for c in enc)
    dec = mvt.decode_geometry(enc)
    assert dec == [ring]


def test_value_negative_int_zigzag():
    assert mvt.decode_value(mvt.encode_value(-5)) == -5
    assert mvt.decode_value(mvt.encode_value(5)) == 5
    assert mvt.decode_value(mvt.encode_value(True)) is True
    assert mvt.decode_value(mvt.encode_value("日本語")) == "日本語"
    assert mvt.decode_value(mvt.encode_value(3.25)) == 3.25


def test_pmtiles_writer_reader_roundtrip(tmp_path):
    """Random archive through PmTilesWriter → PmTilesReader, including
    content dedup + run-length merging."""
    from mvt_wrangler_ray.geo.tilemath import tile_id
    from mvt_wrangler_ray.sources.pmtiles import PmTilesReader, PmTilesWriter

    path = str(tmp_path / "t.pmtiles")
    w = PmTilesWriter(path, metadata={"name": "rt"})
    blobs = {}
    tid = 0
    rng = np.random.default_rng(4)
    for i in range(200):
        tid += int(rng.integers(1, 4))
        blob = bytes([i % 7]) * 50  # repeats → content dedup
        w.add_tile(tid, blob)
        blobs[tid] = blob
    w.finalize()
    r = PmTilesReader(path)
    assert r.header.addressed_tiles == 200
    assert r.header.tile_contents <= 7
    got = {}
    for e in r.entries():
        for k in range(e.run_length):
            got[e.tile_id + k] = r.get_tile_decompressed(e)
    assert got == blobs
    assert r.metadata()["name"] == "rt"
    r.close()


def test_pmtiles_leaf_directories(tmp_path):
    """Archives past the root cap split into leaf directories; the
    reader resolves them transparently."""
    from mvt_wrangler_ray.sources.pmtiles import PmTilesReader, PmTilesWriter

    path = str(tmp_path / "leafy.pmtiles")
    w = PmTilesWriter(path)
    n = 6000
    for i in range(n):
        w.add_tile(i * 3, f"tile-{i}".encode())  # unique contents, gaps
    w.finalize()
    r = PmTilesReader(path)
    assert r.header.leaf_length > 0           # leaves actually used
    ents = list(r.entries())
    assert len(ents) == n
    tids = [e.tile_id for e in ents]
    assert tids == sorted(tids)
    # random access through leaves
    assert r.get_by_id(3 * 1234) == b"tile-1234"
    assert r.get_by_id(1) is None
    r.close()


def test_near_dup_recall_planted(ray_session):
    """Planted near-duplicate clusters in a 5k-doc corpus: MinHash-LSH +
    verify recovers every planted pair (recall) without false positives
    between unrelated docs (precision on a sample)."""
    import ray.data as rd
    import pyarrow as pa

    from mvt_wrangler_ray.stages.dedup import jaccard, minhash_near_dups

    rng = np.random.default_rng(23)
    vocab = [f"w{i}" for i in range(800)]
    docs, ids = [], []
    planted = []
    i = 0
    for c in range(40):                     # 40 planted clusters of 3
        words = [vocab[k] for k in rng.choice(800, 60, replace=False)]
        base = " ".join(words)
        variants = [base,
                    " ".join(words[:-3] + ["x1", "x2", "x3"]),
                    " ".join(["y0"] + words[1:])]
        for v in variants:
            docs.append(v); ids.append(i); i += 1
        planted.append((i - 3, i - 2, i - 1))
    for _ in range(4800):                   # unrelated background docs
        words = [vocab[k] for k in rng.choice(800, 60, replace=False)]
        docs.append(" ".join(words)); ids.append(i); i += 1

    t = pa.table({"doc_id": pa.array(ids, pa.int64()),
                  "text": pa.array(docs, pa.string())})
    pairs = minhash_near_dups(rd.from_arrow(t), threshold=0.55)
    found = {tuple(sorted(p)) for p in zip(pairs["id_a"], pairs["id_b"])}
    missed = 0
    for a, b, c in planted:
        for pr in [(a, b), (a, c), (b, c)]:
            if jaccard(docs[pr[0]], docs[pr[1]]) >= 0.55 and pr not in found:
                missed += 1
    assert missed == 0                       # every verifiable pair found
    # no found pair is actually below threshold (verify stage guarantees)
    for a, b in list(found)[:50]:
        assert jaccard(docs[a], docs[b]) >= 0.55


# ---- round-2 sources review fixes -------------------------------------


def test_multipoint_single_moveto_spec_encoding():
    """MVT 2.1 §4.3.4.2: POINT geometry is ONE MoveTo with count = n."""
    paths = [[(5, 5)], [(10, 10)], [(2, 8)]]
    enc = mvt.encode_geometry(paths, mvt.GEOM_POINT)
    assert enc[0] == (3 << 3) | 1          # MoveTo, count 3
    assert len(enc) == 1 + 6               # one command + 3 delta pairs
    assert mvt.decode_geometry(enc) == paths
    # byte-exact round trip of a spec-encoded multipoint
    assert mvt.encode_geometry(mvt.decode_geometry(enc), mvt.GEOM_POINT) == enc


def test_uint_value_roundtrip_preserves_field_and_value():
    import numpy as np

    big = (1 << 63) + 7                     # exceeds int64
    buf = bytearray([(5 << 3) | 0])
    mvt.write_varint(big, buf)
    v = mvt.decode_value(bytes(buf))
    assert isinstance(v, np.uint64) and int(v) == big
    assert mvt.encode_value(v) == bytes(buf)   # stays wire field 5


def test_write_varint_rejects_negative():
    with pytest.raises(ValueError, match="non-negative"):
        mvt.write_varint(-1, bytearray())


def test_truncated_buffer_raises():
    buf = bytearray()
    mvt._write_field(buf, 1, 2, b"hello")
    with pytest.raises(ValueError, match="truncated"):
        list(mvt._iter_fields(bytes(buf[:-2])))


def test_malformed_directory_offset_zero_first_entry():
    from mvt_wrangler_ray.sources.pmtiles import _decode_directory

    out = bytearray()
    mvt.write_varint(1, out)   # one entry
    mvt.write_varint(5, out)   # tile id delta
    mvt.write_varint(1, out)   # run length
    mvt.write_varint(10, out)  # length
    mvt.write_varint(0, out)   # offset 0 on FIRST entry: malformed
    with pytest.raises(ValueError, match="malformed"):
        _decode_directory(bytes(out))


def test_get_by_id_binary_search_matches_scan(tmp_path):
    """Random lookups through the bisect path agree with a linear scan
    (incl. run-length interior hits and misses), on a leaf-split archive."""
    from mvt_wrangler_ray.sources.pmtiles import PmHeader, PmTilesReader, PmTilesWriter

    path = str(tmp_path / "lookup.pmtiles")
    w = PmTilesWriter(path, PmHeader(min_zoom=0, max_zoom=12))
    blobs = {}
    tid = 0
    import random
    rnd = random.Random(7)
    for i in range(900):                   # > MAX_ROOT_ENTRIES → leaves
        tid += rnd.randint(1, 5)
        blob = f"tile-{i % 37}".encode()   # shared content → dedup + runs
        w.add_tile(tid, blob)
        blobs[tid] = blob
    w.finalize()
    r = PmTilesReader(path)
    scan = {}
    for e in r.entries():
        for k in range(e.run_length):
            scan[e.tile_id + k] = r.get_tile_decompressed(e)
    for t in list(blobs)[::17] + [0, tid + 100, tid + 1]:
        want = scan.get(t)
        assert r.get_by_id(t) == want, t
    r.close()


# ---- parity with encodings written outside this codec -----------------

# MVT 2.1 §4.3.5 example geometries: (type, command stream, paths)
_SPEC_GEOMETRIES = [
    (mvt.GEOM_POINT, [9, 50, 34], [[(25, 17)]]),
    (mvt.GEOM_POINT, [17, 10, 14, 3, 9], [[(5, 7)], [(3, 2)]]),
    (mvt.GEOM_LINESTRING, [9, 4, 4, 18, 0, 16, 16, 0],
     [[(2, 2), (2, 10), (10, 10)]]),
    (mvt.GEOM_LINESTRING, [9, 4, 4, 18, 0, 16, 16, 0, 9, 17, 17, 10, 4, 8],
     [[(2, 2), (2, 10), (10, 10)], [(1, 1), (3, 5)]]),
    (mvt.GEOM_POLYGON, [9, 6, 12, 18, 10, 12, 24, 44, 15],
     [[(3, 6), (8, 12), (20, 34), (3, 6)]]),
    (mvt.GEOM_POLYGON,
     [9, 0, 0, 26, 20, 0, 0, 20, 19, 0, 15, 9, 22, 2, 26, 18, 0, 0, 18, 17,
      0, 15, 9, 4, 13, 26, 0, 8, 8, 0, 0, 7, 15],
     [[(0, 0), (10, 0), (10, 10), (0, 10), (0, 0)],
      [(11, 11), (20, 11), (20, 20), (11, 20), (11, 11)],
      [(13, 13), (13, 17), (17, 17), (17, 13), (13, 13)]]),
]


@pytest.mark.parametrize("gtype,commands,paths", _SPEC_GEOMETRIES)
def test_geometry_matches_spec_examples(gtype, commands, paths):
    """Decode the spec's own command streams, and encode back to them."""
    assert mvt.decode_geometry(commands) == paths
    assert mvt.encode_geometry(paths, gtype) == commands


def _protobuf_tile_class():
    """vector_tile.proto (MVT 2.1) as a protobuf runtime message class."""
    from google.protobuf import descriptor_pb2, descriptor_pool, message_factory

    F = descriptor_pb2.FieldDescriptorProto
    opt, rep, req = F.LABEL_OPTIONAL, F.LABEL_REPEATED, F.LABEL_REQUIRED

    def message(name, fields):
        m = descriptor_pb2.DescriptorProto(name=name)
        for fname, number, label, ftype, type_name, packed in fields:
            f = m.field.add(name=fname, number=number, label=label, type=ftype)
            if type_name:
                f.type_name = type_name
            if packed:
                f.options.packed = True
        return m

    fdp = descriptor_pb2.FileDescriptorProto(
        name="mvt_codec_test_vector_tile.proto",
        package="mvt_codec_test", syntax="proto2")
    tile = message("Tile", [("layers", 3, rep, F.TYPE_MESSAGE,
                             ".mvt_codec_test.Tile.Layer", False)])
    tile.nested_type.extend([
        message("Value", [
            ("string_value", 1, opt, F.TYPE_STRING, None, False),
            ("float_value", 2, opt, F.TYPE_FLOAT, None, False),
            ("double_value", 3, opt, F.TYPE_DOUBLE, None, False),
            ("int_value", 4, opt, F.TYPE_INT64, None, False),
            ("uint_value", 5, opt, F.TYPE_UINT64, None, False),
            ("sint_value", 6, opt, F.TYPE_SINT64, None, False),
            ("bool_value", 7, opt, F.TYPE_BOOL, None, False)]),
        message("Feature", [
            ("id", 1, opt, F.TYPE_UINT64, None, False),
            ("tags", 2, rep, F.TYPE_UINT32, None, True),
            ("type", 3, opt, F.TYPE_UINT32, None, False),
            ("geometry", 4, rep, F.TYPE_UINT32, None, True)]),
        message("Layer", [
            ("version", 15, req, F.TYPE_UINT32, None, False),
            ("name", 1, req, F.TYPE_STRING, None, False),
            ("features", 2, rep, F.TYPE_MESSAGE,
             ".mvt_codec_test.Tile.Feature", False),
            ("keys", 3, rep, F.TYPE_STRING, None, False),
            ("values", 4, rep, F.TYPE_MESSAGE,
             ".mvt_codec_test.Tile.Value", False),
            ("extent", 5, opt, F.TYPE_UINT32, None, False)]),
    ])
    fdp.message_type.append(tile)
    pool = descriptor_pool.DescriptorPool()
    pool.Add(fdp)
    return message_factory.GetMessageClass(
        pool.FindMessageTypeByName("mvt_codec_test.Tile"))


def test_tile_codec_matches_protobuf_runtime():
    """A tile serialized by the protobuf runtime decodes to what it holds,
    and our encoding of the decoded tile parses back to the same message."""
    pytest.importorskip("google.protobuf")
    Tile = _protobuf_tile_class()
    msg = Tile()
    layer = msg.layers.add(version=2, name="pois", extent=8192)
    layer.keys.extend(["name", "name:fr", "height", "area", "pop", "big",
                       "layer", "oneway"])
    for kw in ({"string_value": "屋久島"}, {"string_value": "Yakushima"},
               {"float_value": 0.1}, {"double_value": 2.5},
               {"int_value": 1200}, {"uint_value": (1 << 63) + 7},
               {"sint_value": -1}, {"bool_value": True}):
        layer.values.add(**kw)
    for gtype, commands, _ in _SPEC_GEOMETRIES:
        layer.features.add(id=len(layer.features) + 1,
                           tags=[0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7],
                           type=gtype, geometry=commands)
    layer.features.add(type=mvt.GEOM_POINT, geometry=[9, 50, 34])  # no id/tags
    blob = msg.SerializeToString()

    got = mvt.decode_tile(blob)
    assert len(got["layers"]) == 1
    gl = got["layers"][0]
    assert (gl["name"], gl["version"], gl["extent"]) == ("pois", 2, 8192)
    assert gl["keys"] == list(layer.keys)
    assert gl["values"][:2] == ["屋久島", "Yakushima"]
    assert isinstance(gl["values"][2], np.float32)
    assert gl["values"][2] == np.float32(0.1)
    assert gl["values"][3:5] == [2.5, 1200]
    assert isinstance(gl["values"][5], np.uint64)
    assert int(gl["values"][5]) == (1 << 63) + 7
    assert gl["values"][6:] == [-1, True]
    assert len(gl["features"]) == len(layer.features)
    for fin, fout in zip(layer.features, gl["features"]):
        assert fout["id"] == (fin.id if fin.HasField("id") else None)
        assert fout["tags"] == list(fin.tags)
        assert fout["type"] == fin.type
        assert fout["geometry"] == list(fin.geometry)

    back = Tile()
    back.ParseFromString(mvt.encode_tile(got))
    assert back == msg
