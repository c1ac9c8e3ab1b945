//! Tile pyramid geometry.
//!
//! A layer's fixed window is subdivided per zoom level `z` into
//! `2^z × 2^z` tiles, each rasterized at `tile_px × tile_px` pixels, so
//! every zoom level covers the whole window at a resolution that doubles
//! per level — the standard slippy-map pyramid, minus the Mercator
//! projection (lsga works in planar coordinates throughout).
//!
//! The geometry here is the single source of truth for both the server
//! and the test oracles: a tile's [`GridSpec`] is a pure function of
//! `(window, tile_px, coord)`, so "the same region computed directly"
//! means calling the same KDV path on the spec returned by
//! [`tile_spec`]. Pixel centres then agree bit-for-bit by construction.

use crate::policy::TileTier;
use lsga_core::{BBox, DensityGrid, GridSpec};

/// Index of a layer registered with a
/// [`TileServer`](crate::TileServer), assigned by `add_layer` in
/// registration order.
pub type LayerId = usize;

/// Position of a tile in the pyramid: zoom level and column/row.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TileCoord {
    /// Zoom level; the window splits into `2^z × 2^z` tiles.
    pub z: u8,
    /// Tile column, `0 ≤ x < 2^z`, west to east.
    pub x: u32,
    /// Tile row, `0 ≤ y < 2^z`, south to north (min-y origin, matching
    /// the row order of [`GridSpec`]).
    pub y: u32,
}

impl TileCoord {
    /// Deepest zoom level a coordinate can name: level `z` has `2^z`
    /// tiles per axis, and `x`/`y` are `u32`. The server rejects deeper
    /// zooms whatever its configured `max_zoom`.
    pub const MAX_ZOOM: u8 = 31;

    /// Construct a coordinate. Validity against a zoom bound is checked
    /// at request time by the server, not here.
    #[must_use]
    pub fn new(z: u8, x: u32, y: u32) -> Self {
        TileCoord { z, x, y }
    }

    /// Tiles per axis at this zoom level (`z` ≤ [`Self::MAX_ZOOM`]).
    #[must_use]
    pub fn tiles_per_axis(self) -> u32 {
        1u32 << self.z
    }
}

/// Cache key: a tile coordinate qualified by its layer and, for
/// time-binned analytics (STKDV), its time bin. Spatial-only layers
/// always use `bin == 0`, so a binned key can never collide with a
/// spatial key of another layer kind: the layer id pins the kind, and
/// within an STKDV layer the bin is part of equality and the hash.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TileKey {
    pub layer: LayerId,
    pub coord: TileCoord,
    /// Time-bin index; 0 for every spatial-only analytic.
    pub bin: u32,
}

impl TileKey {
    /// Key of a spatial-only tile (`bin == 0`).
    #[must_use]
    pub fn new(layer: LayerId, coord: TileCoord) -> Self {
        TileKey {
            layer,
            coord,
            bin: 0,
        }
    }

    /// Key of a time-binned tile.
    #[must_use]
    pub fn binned(layer: LayerId, coord: TileCoord, bin: u32) -> Self {
        TileKey { layer, coord, bin }
    }
}

/// Bounding box of `coord` inside `window`.
///
/// Edges are computed as `min + extent · i / n` (not by accumulating
/// widths), so adjacent tiles share bit-identical boundary ordinates and
/// the level-0 tile reproduces `window` exactly.
#[must_use]
pub fn tile_bbox(window: &BBox, coord: TileCoord) -> BBox {
    let n = f64::from(coord.tiles_per_axis());
    let w = window.width();
    let h = window.height();
    let x = f64::from(coord.x);
    let y = f64::from(coord.y);
    BBox::new(
        window.min_x + w * x / n,
        window.min_y + h * y / n,
        window.min_x + w * (x + 1.0) / n,
        window.min_y + h * (y + 1.0) / n,
    )
}

/// Raster spec of `coord` inside `window` at `tile_px²` pixels.
#[must_use]
pub fn tile_spec(window: &BBox, tile_px: usize, coord: TileCoord) -> GridSpec {
    GridSpec::new(tile_bbox(window, coord), tile_px, tile_px)
}

/// A computed raster tile, the unit the cache stores and the server
/// hands out (behind an `Arc` — tiles are immutable once computed).
#[derive(Debug)]
pub struct Tile {
    pub key: TileKey,
    pub grid: DensityGrid,
    /// Which quality tier produced `grid` — `Exact` for bit-identical
    /// tiles, or a degraded tier carrying its ε guarantee (see
    /// [`TileTier`]). Stamped at compute time, immutable afterwards: a
    /// refinement replaces the whole tile, it never mutates one.
    pub tier: TileTier,
}

impl Tile {
    /// Resident size charged against the cache byte budget: the pixel
    /// payload plus the fixed per-tile bookkeeping.
    #[must_use]
    pub fn bytes(&self) -> usize {
        std::mem::size_of_val(self.grid.values()) + std::mem::size_of::<Tile>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window() -> BBox {
        BBox::new(-10.0, 20.0, 70.0, 100.0)
    }

    #[test]
    fn level_zero_tile_is_the_window() {
        let b = tile_bbox(&window(), TileCoord::new(0, 0, 0));
        let w = window();
        assert_eq!(b.min_x.to_bits(), w.min_x.to_bits());
        assert_eq!(b.min_y.to_bits(), w.min_y.to_bits());
        assert_eq!(b.max_x.to_bits(), w.max_x.to_bits());
        assert_eq!(b.max_y.to_bits(), w.max_y.to_bits());
    }

    #[test]
    fn adjacent_tiles_share_exact_edges() {
        for z in [1u8, 3, 6] {
            let n = 1u32 << z;
            for x in 0..n - 1 {
                let a = tile_bbox(&window(), TileCoord::new(z, x, 0));
                let b = tile_bbox(&window(), TileCoord::new(z, x + 1, 0));
                assert_eq!(a.max_x.to_bits(), b.min_x.to_bits());
            }
            let lo = tile_bbox(&window(), TileCoord::new(z, 0, 0));
            let hi = tile_bbox(&window(), TileCoord::new(z, n - 1, n - 1));
            assert_eq!(lo.min_x.to_bits(), window().min_x.to_bits());
            assert_eq!(hi.max_y.to_bits(), window().max_y.to_bits());
        }
    }

    #[test]
    fn spec_has_requested_resolution() {
        let s = tile_spec(&window(), 64, TileCoord::new(2, 1, 3));
        assert_eq!((s.nx, s.ny), (64, 64));
        assert_eq!(s.len(), 64 * 64);
    }

    #[test]
    fn tile_bytes_covers_payload() {
        let spec = tile_spec(&window(), 8, TileCoord::new(0, 0, 0));
        let t = Tile {
            key: TileKey::new(0, TileCoord::new(0, 0, 0)),
            grid: DensityGrid::zeros(spec),
            tier: TileTier::Exact,
        };
        assert!(t.bytes() >= 8 * 8 * 8);
    }
}
