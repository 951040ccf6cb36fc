//! A correct, compact perspective software rasterizer.
//!
//! One triangle at a time: viewport transform, back-face + trivial-reject
//! culling, edge-function coverage with perspective-correct attribute
//! interpolation, depth test, Gouraud shading with optional bilinear
//! texturing. Every pass updates [`RenderStats`], the ground truth for the
//! analytic timing model.
//!
//! This is the *functional* half of the GPU substrate — correctness and
//! instrumentation over speed. Tests render at small resolutions; examples
//! use moderate ones.

use crate::framebuffer::{DepthBuffer, Framebuffer, Rgba};
use crate::geometry::{Mat4, Triangle, Vec3};
use crate::stats::RenderStats;
use crate::texture::Texture;
use std::collections::HashSet;

/// Rasterizer state bound to one color + depth target pair.
#[derive(Debug)]
pub struct RasterPipeline {
    color: Framebuffer,
    depth: DepthBuffer,
    raster_tile_px: u32,
    stats: RenderStats,
    tiles: HashSet<(u32, u32)>,
}

impl RasterPipeline {
    /// Creates a pipeline with a cleared target of the given size.
    ///
    /// `raster_tile_px` is the binning tile edge used for the
    /// `tiles_touched` statistic (Table 2 uses 16×16).
    ///
    /// # Panics
    ///
    /// Panics if a dimension or the tile size is zero.
    #[must_use]
    pub fn new(width: u32, height: u32, clear: Rgba, raster_tile_px: u32) -> Self {
        assert!(raster_tile_px > 0, "tile size must be non-zero");
        RasterPipeline {
            color: Framebuffer::new(width, height, clear),
            depth: DepthBuffer::new(width, height),
            raster_tile_px,
            stats: RenderStats::default(),
            tiles: HashSet::new(),
        }
    }

    /// The bound color buffer.
    #[must_use]
    pub fn color(&self) -> &Framebuffer {
        &self.color
    }

    /// Consumes the pipeline, returning the color buffer.
    #[must_use]
    pub fn into_color(self) -> Framebuffer {
        self.color
    }

    /// Statistics accumulated so far.
    #[must_use]
    pub fn stats(&self) -> RenderStats {
        let mut s = self.stats;
        s.tiles_touched = self.tiles.len() as u64;
        s
    }

    /// Draws a batch of triangles under a model-view-projection transform,
    /// optionally textured (texture color multiplies vertex color).
    pub fn draw_batch(&mut self, mvp: &Mat4, triangles: &[Triangle], texture: Option<&Texture>) {
        self.stats.batches += 1;
        for tri in triangles {
            self.draw_triangle(mvp, tri, texture);
        }
    }

    fn draw_triangle(&mut self, mvp: &Mat4, tri: &Triangle, texture: Option<&Texture>) {
        self.stats.triangles_in += 1;

        // Transform to clip space.
        let clip = [
            mvp.transform(tri.vertices[0].position.extend(1.0)),
            mvp.transform(tri.vertices[1].position.extend(1.0)),
            mvp.transform(tri.vertices[2].position.extend(1.0)),
        ];
        // Reject triangles touching or behind the near plane (w <= 0).
        // A production pipeline clips; rejection keeps the code compact and
        // only matters for geometry grazing the camera.
        if clip.iter().any(|v| v.w <= 1e-6) {
            self.stats.triangles_clipped += 1;
            return;
        }

        let ndc: Vec<Vec3> = clip.iter().map(|v| v.project()).collect();

        // Viewport transform: NDC [-1,1] to pixel coordinates of the
        // whole target. y flips so +y NDC is up.
        let vw = self.color.width() as f32;
        let vh = self.color.height() as f32;
        let to_screen =
            |v: &Vec3| -> (f32, f32) { ((v.x + 1.0) * 0.5 * vw, (1.0 - (v.y + 1.0) * 0.5) * vh) };
        let p: Vec<(f32, f32)> = ndc.iter().map(to_screen).collect();

        // Signed area for back-face culling. Front faces are counter-
        // clockwise in world space; the viewport y-flip makes them clockwise
        // on screen, i.e. negative area under this edge function.
        let area = edge(p[0], p[1], p[2]);
        if area >= 0.0 {
            self.stats.triangles_culled += 1;
            return;
        }

        // Bounding box clamped to the target.
        let min_x = p
            .iter()
            .map(|q| q.0)
            .fold(f32::INFINITY, f32::min)
            .floor()
            .max(0.0);
        let max_x = p
            .iter()
            .map(|q| q.0)
            .fold(f32::NEG_INFINITY, f32::max)
            .ceil()
            .min(vw - 1.0);
        let min_y = p
            .iter()
            .map(|q| q.1)
            .fold(f32::INFINITY, f32::min)
            .floor()
            .max(0.0);
        let max_y = p
            .iter()
            .map(|q| q.1)
            .fold(f32::NEG_INFINITY, f32::max)
            .ceil()
            .min(vh - 1.0);
        if min_x > max_x || min_y > max_y {
            self.stats.triangles_culled += 1;
            return;
        }

        // Track binning tiles the bounding box overlaps.
        let ts = self.raster_tile_px;
        for ty in (min_y as u32 / ts)..=(max_y as u32 / ts) {
            for tx in (min_x as u32 / ts)..=(max_x as u32 / ts) {
                self.tiles.insert((tx, ty));
            }
        }

        // Perspective-correct interpolation uses attributes pre-divided by w.
        let inv_w = [1.0 / clip[0].w, 1.0 / clip[1].w, 1.0 / clip[2].w];
        let inv_area = 1.0 / area;

        for y in (min_y as u32)..=(max_y as u32) {
            for x in (min_x as u32)..=(max_x as u32) {
                let px = (x as f32 + 0.5, y as f32 + 0.5);
                let w0 = edge(p[1], p[2], px) * inv_area;
                let w1 = edge(p[2], p[0], px) * inv_area;
                let w2 = edge(p[0], p[1], px) * inv_area;
                if w0 < 0.0 || w1 < 0.0 || w2 < 0.0 {
                    continue;
                }
                // Interpolate NDC depth linearly in screen space (standard
                // z-buffer behaviour).
                let z = w0 * ndc[0].z + w1 * ndc[1].z + w2 * ndc[2].z;
                if !self.depth.test_and_set(x, y, z) {
                    self.stats.fragments_rejected += 1;
                    continue;
                }
                self.stats.fragments_shaded += 1;

                // Perspective-correct barycentrics for attributes.
                let pw = w0 * inv_w[0] + w1 * inv_w[1] + w2 * inv_w[2];
                let b0 = w0 * inv_w[0] / pw;
                let b1 = w1 * inv_w[1] / pw;
                let b2 = w2 * inv_w[2] / pw;

                let v = &tri.vertices;
                let mut color = [0.0f32; 4];
                for (i, ch) in color.iter_mut().enumerate() {
                    *ch = b0 * v[0].color[i] + b1 * v[1].color[i] + b2 * v[2].color[i];
                }
                let mut out = Rgba(color);
                if let Some(tex) = texture {
                    let u = b0 * v[0].uv[0] + b1 * v[1].uv[0] + b2 * v[2].uv[0];
                    let vv = b0 * v[0].uv[1] + b1 * v[1].uv[1] + b2 * v[2].uv[1];
                    let texel = tex.sample(u, vv);
                    self.stats.texture_samples += 1;
                    out = Rgba([
                        out.0[0] * texel.0[0],
                        out.0[1] * texel.0[1],
                        out.0[2] * texel.0[2],
                        out.0[3] * texel.0[3],
                    ]);
                }
                self.color.set_pixel(x, y, out);
            }
        }
    }
}

/// Twice the signed area of triangle `(a, b, c)`; positive when counter-
/// clockwise in screen space (y down).
fn edge(a: (f32, f32), b: (f32, f32), c: (f32, f32)) -> f32 {
    (b.0 - a.0) * (c.1 - a.1) - (b.1 - a.1) * (c.0 - a.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::{Vec3, Vertex};

    const RED: [f32; 4] = [1.0, 0.0, 0.0, 1.0];
    const GREEN: [f32; 4] = [0.0, 1.0, 0.0, 1.0];
    const BLUE: [f32; 4] = [0.0, 0.0, 1.0, 1.0];

    /// A full-viewport counter-clockwise triangle at depth `z` (camera at
    /// origin looking down -z with an identity projection).
    fn big_triangle(z: f32, color: [f32; 4]) -> Triangle {
        Triangle::new(
            Vertex::colored(Vec3::new(-3.0, -3.0, z), color),
            Vertex::colored(Vec3::new(3.0, -3.0, z), color),
            Vertex::colored(Vec3::new(0.0, 3.0, z), color),
        )
    }

    /// An orthographic-like projection: scale down so the big triangle maps
    /// into NDC, keep w = 1 by using identity and pre-scaled coordinates.
    fn identity_mvp() -> Mat4 {
        // Place geometry directly in NDC via w=1: model coords are NDC.
        // Use a perspective with the triangle at z=-1 instead for realism.
        Mat4::perspective(std::f32::consts::FRAC_PI_2, 1.0, 0.1, 10.0)
            * Mat4::translate(Vec3::new(0.0, 0.0, -3.0))
    }

    #[test]
    fn draws_center_pixel() {
        let mut rp = RasterPipeline::new(32, 32, Rgba::BLACK, 16);
        rp.draw_batch(&identity_mvp(), &[big_triangle(0.0, RED)], None);
        let c = rp.color().pixel(16, 16);
        assert!(
            c.r() > 0.9 && c.g() < 0.1,
            "center pixel should be red, got {c}"
        );
        assert!(rp.stats().fragments_shaded > 0);
    }

    #[test]
    fn back_face_is_culled() {
        let mut rp = RasterPipeline::new(32, 32, Rgba::BLACK, 16);
        let t = big_triangle(0.0, RED);
        let flipped = Triangle::new(t.vertices[1], t.vertices[0], t.vertices[2]);
        rp.draw_batch(&identity_mvp(), &[flipped], None);
        assert_eq!(rp.stats().triangles_culled, 1);
        assert_eq!(rp.stats().fragments_shaded, 0);
        assert_eq!(rp.color().pixel(16, 16), Rgba::BLACK);
    }

    #[test]
    fn behind_camera_is_clipped() {
        let mut rp = RasterPipeline::new(32, 32, Rgba::BLACK, 16);
        // Triangle behind the camera: w <= 0 after projection.
        let t = big_triangle(10.0, RED);
        rp.draw_batch(&identity_mvp(), &[t], None);
        assert_eq!(rp.stats().triangles_clipped, 1);
        assert_eq!(rp.stats().fragments_shaded, 0);
    }

    #[test]
    fn depth_test_orders_triangles() {
        let mut rp = RasterPipeline::new(32, 32, Rgba::BLACK, 16);
        let mvp = identity_mvp();
        // Far (red) then near (green): green must win.
        rp.draw_batch(&mvp, &[big_triangle(-1.0, RED)], None);
        rp.draw_batch(&mvp, &[big_triangle(1.0, GREEN)], None);
        let c = rp.color().pixel(16, 16);
        assert!(c.g() > 0.9, "near triangle must overwrite far one, got {c}");
        assert!(
            rp.stats().fragments_rejected == 0,
            "near-after-far never rejects"
        );

        // Drawing the far one again must be rejected by depth.
        rp.draw_batch(&mvp, &[big_triangle(-1.0, BLUE)], None);
        assert!(rp.stats().fragments_rejected > 0);
        assert!(rp.color().pixel(16, 16).g() > 0.9);
    }

    #[test]
    fn overdraw_statistic_reflects_depth_rejections() {
        let mut rp = RasterPipeline::new(32, 32, Rgba::BLACK, 16);
        let mvp = identity_mvp();
        // Same depth twice: the strict depth test rejects the identical
        // footprint of the second pass fragment-for-fragment.
        rp.draw_batch(&mvp, &[big_triangle(0.0, GREEN)], None);
        let shaded_once = rp.stats().fragments_shaded;
        rp.draw_batch(&mvp, &[big_triangle(0.0, RED)], None);
        let s = rp.stats();
        assert_eq!(
            s.fragments_shaded, shaded_once,
            "occluded pass shades nothing"
        );
        assert_eq!(
            s.fragments_rejected, shaded_once,
            "every occluded fragment rejected"
        );
        assert!((s.overdraw() - 2.0).abs() < 1e-9);
        assert!(
            rp.color().pixel(16, 16).g() > 0.9,
            "first write wins at equal depth"
        );
    }

    #[test]
    fn gouraud_interpolates_colors() {
        let mut rp = RasterPipeline::new(64, 64, Rgba::BLACK, 16);
        let tri = Triangle::new(
            Vertex::colored(Vec3::new(-3.0, -3.0, 0.0), RED),
            Vertex::colored(Vec3::new(3.0, -3.0, 0.0), GREEN),
            Vertex::colored(Vec3::new(0.0, 3.0, 0.0), BLUE),
        );
        rp.draw_batch(&identity_mvp(), &[tri], None);
        // Center mixes all three.
        let c = rp.color().pixel(32, 32);
        assert!(
            c.r() > 0.05 && c.g() > 0.05 && c.b() > 0.05,
            "center blends, got {c}"
        );
    }

    #[test]
    fn texture_modulates_output() {
        let mut rp = RasterPipeline::new(64, 64, Rgba::BLACK, 16);
        let tex = Texture::checkerboard(16, 2, Rgba::BLACK, Rgba::WHITE);
        let mut tri = big_triangle(0.0, [1.0, 1.0, 1.0, 1.0]);
        tri.vertices[0].uv = [0.0, 0.0];
        tri.vertices[1].uv = [1.0, 0.0];
        tri.vertices[2].uv = [0.5, 1.0];
        rp.draw_batch(&identity_mvp(), &[tri], Some(&tex));
        assert!(rp.stats().texture_samples > 0);
        // The checkerboard must produce both dark and bright fragments.
        let mut dark = 0;
        let mut bright = 0;
        for px in rp.color().iter() {
            if px.luma() > 0.7 {
                bright += 1;
            } else if px.a() > 0.5 && px.luma() < 0.3 {
                dark += 1;
            }
        }
        assert!(dark > 0 && bright > 0, "dark={dark} bright={bright}");
    }

    #[test]
    fn tiles_touched_tracks_footprint() {
        let mut rp = RasterPipeline::new(64, 64, Rgba::BLACK, 16);
        rp.draw_batch(&identity_mvp(), &[big_triangle(0.0, RED)], None);
        let tiles = rp.stats().tiles_touched;
        assert!(
            tiles >= 4,
            "full-ish screen triangle touches many tiles, got {tiles}"
        );
        assert!(tiles <= 16, "at most the whole 4x4 tile grid");
    }

    #[test]
    fn batch_counter_increments() {
        let mut rp = RasterPipeline::new(16, 16, Rgba::BLACK, 16);
        rp.draw_batch(&identity_mvp(), &[], None);
        rp.draw_batch(&identity_mvp(), &[], None);
        assert_eq!(rp.stats().batches, 2);
    }
}
