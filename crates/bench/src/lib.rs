//! # dams-bench
//!
//! Experiment harness regenerating every table and figure of the paper's
//! evaluation (§7). [`series`] runs and times each figure, [`harness`]
//! renders and shape-checks it, and `src/bin/paper_experiments.rs` is the
//! CLI that prints them.

pub mod anonymity;
pub mod harness;
pub mod selection_figure;
pub mod series;

pub use anonymity::{anonymity_figure, AnonymityFigure, FloorSweep, TierCalibration, TierRow};
pub use selection_figure::{selection_figure, FigureRow, SelectionFigure};
