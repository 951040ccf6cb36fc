//! Scene, workload, and motion-trace generation for the Q-VR reproduction.
//!
//! The paper drives its simulator with OpenGL/DirectX API traces of
//! commercial games (Table 3) and characterises five photorealistic VR apps
//! on real hardware (Table 1). Neither the traces nor the game content can
//! be redistributed, so this crate builds the closest synthetic equivalent:
//! **app profiles** whose workload statistics (triangle budget, draw
//! batches, per-fragment cost, overdraw, content detail) are calibrated to
//! the published characteristics, combined with:
//!
//! * [`motion`] — seeded 6-DoF head + gaze motion traces with calm/active
//!   segments, saccades, and interaction bursts (the "unpredictable user
//!   inputs" of Sec. 2.2);
//! * [`complexity`] — a radial scene-complexity field describing how
//!   triangle density concentrates around the gaze point, which governs how
//!   fast local rendering cost grows with the fovea radius `e1`;
//! * [`interactive`] — the pre-defined interactive-object sets the *static*
//!   collaborative baseline renders locally (Table 1's `f` ranges);
//! * [`apps`] — the profiles themselves plus [`apps::AppSession`], a
//!   deterministic per-frame generator of [`apps::FrameState`]s.
//!
//! # Example
//!
//! ```
//! use qvr_scene::{Benchmark, apps::AppSession};
//!
//! let mut session = AppSession::start(Benchmark::Grid.profile(), 42);
//! let frame = session.advance();
//! assert!(frame.triangles > 0);
//! let w = session.profile().full_workload(&frame);
//! assert_eq!(w.width(), 1920);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod apps;
pub mod complexity;
pub mod interactive;
pub mod motion;

pub use apps::{AppProfile, AppSession, Benchmark, CharacterizationApp, FrameState};
pub use complexity::{ComplexityField, RingAreas, TriangleFractionCache};
pub use interactive::InteractiveObject;
pub use motion::{MotionDelta, MotionProfile, MotionSample, MotionTrace};
