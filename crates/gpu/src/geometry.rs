//! Minimal 3D math and primitive types for the software rasterizer.
//!
//! Deliberately small: just enough linear algebra (vectors, 4×4 matrices,
//! perspective projection) to drive a correct perspective rasterizer. All
//! types are `f32` — matching GPU-native precision — and `Copy`.

use std::fmt;
use std::ops::{Add, Mul, Neg, Sub};

/// A 3-component vector.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec3 {
    /// X component.
    pub x: f32,
    /// Y component.
    pub y: f32,
    /// Z component.
    pub z: f32,
}

impl Vec3 {
    /// Creates a vector from components.
    #[must_use]
    pub const fn new(x: f32, y: f32, z: f32) -> Self {
        Vec3 { x, y, z }
    }

    /// Extends to homogeneous coordinates with the given `w`.
    #[must_use]
    pub fn extend(self, w: f32) -> Vec4 {
        Vec4 {
            x: self.x,
            y: self.y,
            z: self.z,
            w,
        }
    }
}

impl Add for Vec3 {
    type Output = Vec3;
    fn add(self, o: Vec3) -> Vec3 {
        Vec3::new(self.x + o.x, self.y + o.y, self.z + o.z)
    }
}

impl Sub for Vec3 {
    type Output = Vec3;
    fn sub(self, o: Vec3) -> Vec3 {
        Vec3::new(self.x - o.x, self.y - o.y, self.z - o.z)
    }
}

impl Mul<f32> for Vec3 {
    type Output = Vec3;
    fn mul(self, s: f32) -> Vec3 {
        Vec3::new(self.x * s, self.y * s, self.z * s)
    }
}

impl Neg for Vec3 {
    type Output = Vec3;
    fn neg(self) -> Vec3 {
        Vec3::new(-self.x, -self.y, -self.z)
    }
}

impl fmt::Display for Vec3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {}, {})", self.x, self.y, self.z)
    }
}

/// A 4-component homogeneous vector.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec4 {
    /// X component.
    pub x: f32,
    /// Y component.
    pub y: f32,
    /// Z component.
    pub z: f32,
    /// W (homogeneous) component.
    pub w: f32,
}

impl Vec4 {
    /// Creates a vector from components.
    #[must_use]
    pub const fn new(x: f32, y: f32, z: f32, w: f32) -> Self {
        Vec4 { x, y, z, w }
    }

    /// Perspective division to 3D; `w` must be non-zero.
    #[must_use]
    pub fn project(self) -> Vec3 {
        let inv = 1.0 / self.w;
        Vec3::new(self.x * inv, self.y * inv, self.z * inv)
    }
}

/// A column-major 4×4 matrix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mat4 {
    /// Column-major elements: `m[col][row]`.
    pub m: [[f32; 4]; 4],
}

impl Mat4 {
    /// The identity matrix.
    #[must_use]
    pub const fn identity() -> Self {
        let mut m = [[0.0; 4]; 4];
        m[0][0] = 1.0;
        m[1][1] = 1.0;
        m[2][2] = 1.0;
        m[3][3] = 1.0;
        Mat4 { m }
    }

    /// Translation by `t`.
    #[must_use]
    pub fn translate(t: Vec3) -> Self {
        let mut out = Mat4::identity();
        out.m[3][0] = t.x;
        out.m[3][1] = t.y;
        out.m[3][2] = t.z;
        out
    }

    /// Right-handed perspective projection.
    ///
    /// `fov_y_rad` is the vertical field of view; depth maps to `[-1, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `near >= far` or `fov_y_rad` is not in `(0, π)`.
    #[must_use]
    pub fn perspective(fov_y_rad: f32, aspect: f32, near: f32, far: f32) -> Self {
        assert!(near < far, "near plane must be in front of far plane");
        assert!(
            fov_y_rad > 0.0 && fov_y_rad < std::f32::consts::PI,
            "field of view must be in (0, pi)"
        );
        let f = 1.0 / (fov_y_rad / 2.0).tan();
        let mut m = [[0.0f32; 4]; 4];
        m[0][0] = f / aspect;
        m[1][1] = f;
        m[2][2] = (far + near) / (near - far);
        m[2][3] = -1.0;
        m[3][2] = 2.0 * far * near / (near - far);
        Mat4 { m }
    }

    /// Matrix–vector product.
    #[must_use]
    pub fn transform(&self, v: Vec4) -> Vec4 {
        let m = &self.m;
        Vec4::new(
            m[0][0] * v.x + m[1][0] * v.y + m[2][0] * v.z + m[3][0] * v.w,
            m[0][1] * v.x + m[1][1] * v.y + m[2][1] * v.z + m[3][1] * v.w,
            m[0][2] * v.x + m[1][2] * v.y + m[2][2] * v.z + m[3][2] * v.w,
            m[0][3] * v.x + m[1][3] * v.y + m[2][3] * v.z + m[3][3] * v.w,
        )
    }
}

impl Mul for Mat4 {
    type Output = Mat4;
    fn mul(self, rhs: Mat4) -> Mat4 {
        let mut out = [[0.0f32; 4]; 4];
        for (c, out_col) in out.iter_mut().enumerate() {
            for (r, out_cell) in out_col.iter_mut().enumerate() {
                *out_cell = (0..4).map(|k| self.m[k][r] * rhs.m[c][k]).sum();
            }
        }
        Mat4 { m: out }
    }
}

impl Default for Mat4 {
    fn default() -> Self {
        Mat4::identity()
    }
}

/// One vertex of a renderable triangle.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vertex {
    /// Object-space position.
    pub position: Vec3,
    /// Per-vertex RGBA color (linear, 0..1 per channel).
    pub color: [f32; 4],
    /// Texture coordinates.
    pub uv: [f32; 2],
}

impl Vertex {
    /// Creates a vertex at a position with a flat color and zero UV.
    #[must_use]
    pub fn colored(position: Vec3, color: [f32; 4]) -> Self {
        Vertex {
            position,
            color,
            uv: [0.0, 0.0],
        }
    }
}

/// A renderable triangle.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Triangle {
    /// The three vertices, counter-clockwise front face.
    pub vertices: [Vertex; 3],
}

impl Triangle {
    /// Creates a triangle from three vertices.
    #[must_use]
    pub const fn new(a: Vertex, b: Vertex, c: Vertex) -> Self {
        Triangle {
            vertices: [a, b, c],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f32 = 1e-5;

    fn close(a: f32, b: f32) -> bool {
        (a - b).abs() < EPS
    }

    #[test]
    fn vec3_arithmetic() {
        let a = Vec3::new(1.0, 2.0, 3.0);
        let b = Vec3::new(4.0, -2.0, 0.5);
        assert_eq!(a + b, Vec3::new(5.0, 0.0, 3.5));
        assert_eq!(a - b, Vec3::new(-3.0, 4.0, 2.5));
        assert_eq!(a * 2.0, Vec3::new(2.0, 4.0, 6.0));
        assert_eq!(-a, Vec3::new(-1.0, -2.0, -3.0));
    }

    #[test]
    fn identity_transform_is_noop() {
        let v = Vec4::new(1.0, -2.0, 3.0, 1.0);
        assert_eq!(Mat4::identity().transform(v), v);
    }

    #[test]
    fn translation_moves_points_not_directions() {
        let t = Mat4::translate(Vec3::new(1.0, 2.0, 3.0));
        let p = t.transform(Vec4::new(0.0, 0.0, 0.0, 1.0));
        assert_eq!(p, Vec4::new(1.0, 2.0, 3.0, 1.0));
        let d = t.transform(Vec4::new(1.0, 0.0, 0.0, 0.0));
        assert_eq!(d, Vec4::new(1.0, 0.0, 0.0, 0.0));
    }

    #[test]
    fn matrix_product_composes() {
        let t = Mat4::translate(Vec3::new(1.0, 0.0, 0.0));
        let mut s = Mat4::identity();
        for i in 0..3 {
            s.m[i][i] = 2.0;
        }
        // (t * s) applies s first, then t.
        let v = (t * s).transform(Vec4::new(1.0, 1.0, 1.0, 1.0));
        assert_eq!(v, Vec4::new(3.0, 2.0, 2.0, 1.0));
    }

    #[test]
    fn perspective_maps_center_of_frustum() {
        let p = Mat4::perspective(std::f32::consts::FRAC_PI_2, 1.0, 0.1, 100.0);
        // A point straight ahead projects to NDC origin.
        let v = p.transform(Vec4::new(0.0, 0.0, -1.0, 1.0)).project();
        assert!(close(v.x, 0.0) && close(v.y, 0.0));
    }

    #[test]
    fn perspective_depth_ordering() {
        let p = Mat4::perspective(1.0, 1.0, 0.1, 100.0);
        let near = p.transform(Vec4::new(0.0, 0.0, -0.2, 1.0)).project().z;
        let far = p.transform(Vec4::new(0.0, 0.0, -50.0, 1.0)).project().z;
        assert!(near < far, "nearer points must have smaller NDC depth");
    }

    #[test]
    #[should_panic(expected = "near plane")]
    fn perspective_rejects_bad_planes() {
        let _ = Mat4::perspective(1.0, 1.0, 10.0, 1.0);
    }
}
