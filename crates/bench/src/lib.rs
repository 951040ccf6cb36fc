//! Experiment harness: regenerates every table and figure of the paper's
//! evaluation from the simulation substrate.
//!
//! Each module corresponds to one artefact and exposes `report() -> String`
//! printing the same rows/series the paper publishes, side by side with the
//! paper's reference values. Binaries under `src/bin/` are thin wrappers;
//! `run_all` concatenates everything (this is what EXPERIMENTS.md records).
//!
//! Absolute numbers are not expected to match a physical testbed — the
//! *shape* (who wins, by what factor, where crossovers sit) is the
//! reproduction target; see DESIGN.md §2.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablations;
pub mod fig03;
pub mod fig06;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod fig_admission;
pub mod fig_churn;
pub mod fig_energy;
pub mod fig_fleet;
pub mod fig_rate;
pub mod fig_sched;
pub mod fig_shard;
pub mod overhead;
pub mod table1;
pub mod table4;

use std::fmt::Write as _;

/// Frames per run (the paper's Fig. 14 uses 300).
pub const FRAMES: usize = 300;
/// Warm-up frames excluded from steady-state statistics.
pub const WARMUP: usize = 100;
/// The workspace-wide experiment seed.
pub const SEED: u64 = 42;

/// Runs `f` over `items` on up to `std::thread::available_parallelism`
/// workers, preserving order (thin wrapper over [`qvr::sim::parallel_map`],
/// the workspace's one bounded worker pool).
pub fn parallel_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send + Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    qvr::sim::parallel_map(&items, f)
}

/// A minimal fixed-width text table.
#[derive(Debug, Clone, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with column headers.
    #[must_use]
    pub fn new<S: Into<String>>(header: Vec<S>) -> Self {
        TextTable {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row (padded/truncated to the header width).
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) {
        let mut row: Vec<String> = cells.into_iter().map(Into::into).collect();
        row.resize(self.header.len(), String::new());
        self.rows.push(row);
    }

    /// Renders with column alignment.
    #[must_use]
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths = vec![0usize; cols];
        for (i, h) in self.header.iter().enumerate() {
            widths[i] = widths[i].max(h.chars().count());
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.chars().count());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, c) in cells.iter().enumerate() {
                let pad = widths[i] - c.chars().count();
                if i == 0 {
                    let _ = write!(line, "{c}{}", " ".repeat(pad));
                } else {
                    let _ = write!(line, "  {}{c}", " ".repeat(pad));
                }
            }
            line
        };
        let _ = writeln!(out, "{}", fmt_row(&self.header, &widths));
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(row, &widths));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<u64> = (0..100).collect();
        let out = parallel_map(items, |x| x * 2);
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_empty() {
        let out: Vec<u64> = parallel_map(Vec::<u64>::new(), |x| *x);
        assert!(out.is_empty());
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = TextTable::new(vec!["name", "value"]);
        t.row(vec!["a", "1.0"]);
        t.row(vec!["longer", "2.5"]);
        let s = t.render();
        assert!(s.contains("name"));
        assert!(s.contains("longer"));
        assert!(s.lines().count() == 4);
    }

    #[test]
    fn every_report_is_nonempty_and_mentions_its_artifact() {
        // Smoke-run the fast reports (the heavy sweeps are exercised by the
        // binaries / run_all).
        let o = overhead::report();
        assert!(o.contains("LIWC") && o.contains("UCA"));
    }
}
