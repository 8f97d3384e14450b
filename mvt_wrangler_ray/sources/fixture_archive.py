"""A deterministic PMTiles archive shaped like the reference fixture
(FIXTURES.md §2), for tests and the bench on machines that lack it.

The reference fixture is a Planetiler-built Protomaps extract of
Yakushima: every tile covering BOUNDS at z9–z15, gzip MVT, the nine
LAYERS with buildings at extent 8192, multilingual name tags. The
archive below has that shape, built with this package's own MVT encoder
and PMTiles writer, so it exercises the pipeline but not the reading of
bytes another tool wrote."""

import numpy as np

from ..geo.tilemath import assign_tile, project_to_tile, tile_id
from . import mvt
from .features import BOUNDS, LAYERS
from .pmtiles import PmHeader, PmTilesWriter

FIXTURE_ZOOMS = (9, 15)
# land is an ellipse inside BOUNDS that contains the Anbo box
# [130.63, 30.29, 130.67, 30.34] (filter 1 of the reference filter
# fixture), so every tile fully inside that box is land and carries pois
LAND_CENTER = (130.527, 30.352)
LAND_SEMI_AXES = (0.17, 0.14)
TILE_BUFFER = 64            # tile-local units past each edge (Planetiler: 4/256)
BUILDINGS_EXTENT = 8192
_LAND_RING_VERTICES = 48


def _below(rnd: np.random.PCG64, n: int) -> int:
    """A draw in [0, n) from PCG64's raw stream, which NumPy keeps stable
    across versions (Generator methods carry no such promise)."""
    return int(rnd.random_raw()) % n


def _between(rnd: np.random.PCG64, lo: int, hi: int) -> int:
    return lo + _below(rnd, hi - lo)


def _choice(rnd: np.random.PCG64, seq):
    return seq[_below(rnd, len(seq))]


def _tile_cover():
    """(z, x, y) of every tile that covers BOUNDS at z9–z15:
    1 + 4 + 9 + 25 + 81 + 272 + 1,054 = 1,446 tiles, as in the reference
    fixture."""
    w, s, e, n = BOUNDS
    cover = []
    for z in range(FIXTURE_ZOOMS[0], FIXTURE_ZOOMS[1] + 1):
        x0, y0 = assign_tile(w, n, z)
        x1, y1 = assign_tile(e, s, z)
        cover.extend((z, x, y) for x in range(int(x0), int(x1) + 1)
                     for y in range(int(y0), int(y1) + 1))
    return cover


def _ring_area2(ring) -> int:
    """Twice the surveyor's-formula area; > 0 is an MVT exterior ring."""
    return sum(x0 * y1 - x1 * y0 for (x0, y0), (x1, y1) in zip(ring, ring[1:]))


def _rect(x0: int, y0: int, w: int, h: int):
    return [(x0, y0), (x0 + w, y0), (x0 + w, y0 + h), (x0, y0 + h), (x0, y0)]


def _land_ring(z: int, x: int, y: int):
    """The land ellipse in tile-local coords, vertices clamped to the
    buffered tile; None when no land reaches the tile (an ocean tile)."""
    t = np.arange(_LAND_RING_VERTICES) * (2 * np.pi / _LAND_RING_VERTICES)
    lon = LAND_CENTER[0] + LAND_SEMI_AXES[0] * np.cos(t)
    lat = LAND_CENTER[1] + LAND_SEMI_AXES[1] * np.sin(t)
    lx, ly = project_to_tile(lon, lat, z, x, y, 4096)
    lo, hi = -TILE_BUFFER, 4096 + TILE_BUFFER
    ring = []
    for p in zip(np.clip(np.rint(lx), lo, hi).astype(int).tolist(),
                 np.clip(np.rint(ly), lo, hi).astype(int).tolist()):
        if not ring or ring[-1] != p:
            ring.append(p)
    if len(ring) > 1 and ring[-1] == ring[0]:
        ring.pop()
    ring.append(ring[0])
    area = _ring_area2(ring)
    if area == 0:           # every vertex clamped onto the buffer's edge
        return None
    return ring if area > 0 else ring[::-1]


def _names(rnd: np.random.PCG64, label: str) -> dict:
    """`name`, `name:ja/en` always; `name:fr/de/2` and `pgf:name:ja` on
    some features — the keys the language-code filter keeps or drops."""
    tags = {"name": label, "name:ja": f"屋久島 {label}",
            "name:en": f"Yakushima {label}"}
    if _below(rnd, 3) == 0:
        tags["name:fr"] = f"{label} (fr)"
    if _below(rnd, 4) == 0:
        tags["name:de"] = f"{label} (de)"
    if _below(rnd, 5) == 0:
        tags["name:2"] = f"{label} II"
    if _below(rnd, 4) == 0:
        tags["pgf:name:ja"] = f"やくしま {label}"
    return tags


def _layer(name: str, feats, extent: int = 4096) -> dict:
    """(geom_type, paths, tags, id) features → an MVT layer dict whose
    key/value pools are in first-seen order."""
    keys, values, key_idx, val_idx, out = [], [], {}, {}, []
    for gtype, paths, tags, fid in feats:
        pairs = []
        for k, v in tags.items():
            if k not in key_idx:
                key_idx[k] = len(keys)
                keys.append(k)
            vk = (type(v).__name__, v)
            if vk not in val_idx:
                val_idx[vk] = len(values)
                values.append(v)
            pairs.extend((key_idx[k], val_idx[vk]))
        out.append({"id": fid, "type": gtype, "tags": pairs,
                    "geometry": mvt.encode_geometry(paths, gtype)})
    return {"name": name, "version": 2, "extent": extent, "keys": keys,
            "values": values, "features": out}


def _ocean_tile() -> dict:
    """Open water: one buffered full-tile polygon, the same bytes at every
    zoom — the archive's runs and shared contents."""
    b, e = TILE_BUFFER, 4096 + 2 * TILE_BUFFER
    return {"layers": [_layer("water", [
        (mvt.GEOM_POLYGON, [_rect(-b, -b, e, e)], {"kind": "ocean"}, None)])]}


def _land_tile(z: int, x: int, y: int, ring, rnd: np.random.PCG64) -> dict:
    """Nine-layer land tile: earth, landcover, landuse, water, roads,
    boundaries (z ≤ 12), buildings (z ≥ 13, extent 8192), places, pois."""
    GEOM_POINT, GEOM_LINESTRING, GEOM_POLYGON = (
        mvt.GEOM_POINT, mvt.GEOM_LINESTRING, mvt.GEOM_POLYGON)
    E, B = 4096, TILE_BUFFER
    where = f"{z}/{x}/{y}"
    next_id = lambda: 1 + _below(rnd, 1 << 40)
    layers = {}

    def poly(lo, hi, size_lo, size_hi):
        w, h = _between(rnd, size_lo, size_hi), _between(rnd, size_lo, size_hi)
        return _rect(_between(rnd, lo, hi - w), _between(rnd, lo, hi - h), w, h)

    def line(n):
        return [(_between(rnd, -B, E + B), _between(rnd, -B, E + B))
                for _ in range(n)]

    def point():
        return [[(_between(rnd, B, E - B), _between(rnd, B, E - B))]]

    if z <= 12 and _below(rnd, 2) == 0:
        layers["boundaries"] = [(GEOM_LINESTRING, [line(4)],
                                 {"kind": "county", "kind_detail": 7}, None)]
    if z >= 13:
        layers["buildings"] = [
            (GEOM_POLYGON, [poly(0, BUILDINGS_EXTENT, 40, 400)],
             {"kind": "building",
              "height": np.float32(_between(rnd, 30, 600) / 10)}, next_id())
            for _ in range(_between(rnd, 2, 7))]
    layers["earth"] = [(GEOM_POLYGON, [ring], {"kind": "earth"}, None)]
    layers["landcover"] = [
        (GEOM_POLYGON, [poly(-B, E + B, 300, 2500)],
         {"kind": _choice(rnd, ["forest", "grassland", "scrub"])}, None)
        for _ in range(_between(rnd, 1, 3))]
    if _below(rnd, 2) == 0:
        outer = poly(0, E, 1200, 3000)
        (ox, oy), (ex, ey) = outer[0], outer[2]
        hole = _rect(ox + (ex - ox) // 4, oy + (ey - oy) // 4,
                     (ex - ox) // 2, (ey - oy) // 2)[::-1]
        layers["landuse"] = [(
            GEOM_POLYGON, [outer, hole],
            {"kind": "national_park", "area": (ex - ox) * (ey - oy) / 16.0,
             **_names(rnd, f"Park {where}")}, next_id())]
    if z <= 12 or _below(rnd, 3) == 0:
        layers["places"] = [(
            GEOM_POINT, point(),
            {"kind": "locality", "population": _between(rnd, 50, 5000),
             "min_zoom": z, **_names(rnd, f"Village {where}")}, next_id())]
    # points stay strictly inside the tile: a tile inside a mask then has
    # every poi inside the mask too
    layers["pois"] = [
        (GEOM_POINT, point(),
         {"kind": _choice(rnd, ["shrine", "onsen", "viewpoint", "bus_stop"]),
          "min_zoom": z, **_names(rnd, f"Poi {where}#{i}")}, next_id())
        for i in range(_between(rnd, 1, 5))]
    roads = []
    for i in range(_between(rnd, 1, 5)):
        tags = {"kind": _choice(rnd, ["major_road", "minor_road", "path"]),
                "oneway": _below(rnd, 4) == 0}
        if _below(rnd, 5) == 0:
            tags["layer"] = -1          # tunnel: a negative sint value
        if _below(rnd, 2) == 0:
            tags.update(_names(rnd, f"Road {where}#{i}"))
        paths = [line(_between(rnd, 2, 7))]
        if _below(rnd, 6) == 0:
            paths.append(line(3))       # a MultiLineString
        roads.append((GEOM_LINESTRING, paths, tags, None))
    layers["roads"] = roads
    if _below(rnd, 3) == 0:
        layers["water"] = [(
            GEOM_POLYGON, [poly(0, E, 200, 1200)],
            {"kind": "lake", **_names(rnd, f"Lake {where}")}, None)]
    return {"layers": [_layer(name, layers[name], BUILDINGS_EXTENT
                              if name == "buildings" else 4096)
                       for name in LAYERS if name in layers]}


def _fixture_metadata() -> dict:
    lo, hi = FIXTURE_ZOOMS
    return {
        "name": "Yakushima fixture",
        "description": "Deterministic stand-in for the reference fixture "
                       "(mvt_wrangler_ray.sources.fixture_archive)",
        "attribution": "synthetic data",
        "version": "3.0",
        "type": "baselayer",
        "format": "pbf",
        "minzoom": str(lo),
        "maxzoom": str(hi),
        "bounds": ",".join(str(v) for v in BOUNDS),
        "planetiler:version": "fixture",
        "planetiler:buildtime": "2024-01-01T00:00:00.000Z",
        "vector_layers": [{"id": name, "fields": {}, "minzoom": lo,
                           "maxzoom": hi} for name in LAYERS],
    }


def write_fixture_archive(path: str) -> str:
    """Write the reference-fixture-shaped PMTiles v3 archive to `path`
    (byte-identical on every call) and return `path`.

    Land tiles are unique; ocean tiles all share one content, so the
    archive has run-length entries, content dedup and (with more than
    PmTilesWriter.MAX_ROOT_ENTRIES entries) leaf directories."""
    cover = _tile_cover()
    tids = [int(tile_id(z, np.array([x]), np.array([y]))[0])
            for z, x, y in cover]
    w, s, e, n = BOUNDS
    e7 = lambda v: int(round(v * 1e7))
    header = PmHeader(min_zoom=FIXTURE_ZOOMS[0], max_zoom=FIXTURE_ZOOMS[1],
                      min_lon_e7=e7(w), min_lat_e7=e7(s),
                      max_lon_e7=e7(e), max_lat_e7=e7(n), center_zoom=12,
                      center_lon_e7=e7((w + e) / 2),
                      center_lat_e7=e7((s + n) / 2))
    ocean = mvt.encode_tile(_ocean_tile())
    with PmTilesWriter(path, header, _fixture_metadata()) as writer:
        for tid, (z, x, y) in sorted(zip(tids, cover)):
            ring = _land_ring(z, x, y)
            writer.add_tile(tid, ocean if ring is None else mvt.encode_tile(
                _land_tile(z, x, y, ring, np.random.PCG64(tid))))
        writer.finalize()
    return path
