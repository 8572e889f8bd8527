//! The epoch time-series: periodic samples of system state for
//! plotting, dumped as CSV.
//!
//! Sampling is driven by `melreq_core::System` at exact `sample_epoch`
//! boundaries (the fast-forward kernel clamps its jumps to land on
//! them, exactly like the online-ME estimator), so rows are identical
//! between the fast-forward and tick-exact kernels.

use melreq_stats::types::Cycle;
use std::fmt::Write as _;

/// One epoch's sample. All rates are over the epoch just ended.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochRow {
    /// Cycle the epoch ended (the sample point).
    pub cycle: Cycle,
    /// Per-core committed instructions per cycle over the epoch.
    pub ipc: Vec<f64>,
    /// Per-core pending demand reads at the sample point.
    pub pending_reads: Vec<u32>,
    /// Live per-core ME values feeding the priority tables.
    pub me: Vec<f64>,
    /// Per-channel request-queue depth at the sample point.
    pub queue_depth: Vec<usize>,
    /// Per-channel data-bus utilization over the epoch (0..=1).
    pub bus_util: Vec<f64>,
    /// Per-channel reads granted during the epoch.
    pub reads: Vec<u64>,
    /// Per-channel writes granted during the epoch.
    pub writes: Vec<u64>,
    /// Per-channel row-hit fraction of the epoch's grants (0 when no
    /// grant landed in the epoch).
    pub row_hit_rate: Vec<f64>,
}

/// Render rows as CSV with a dynamic per-core/per-channel header. The
/// first line is a `# schema_version=N` comment stamping the artifact
/// with the workspace-wide schema version (`melreq_snap::SCHEMA_VERSION`).
pub fn render_csv(rows: &[EpochRow], cores: usize, channels: usize) -> String {
    let mut out = format!("# schema_version={}\n", melreq_snap::SCHEMA_VERSION);
    out.push_str("cycle");
    for i in 0..cores {
        let _ = write!(out, ",core{i}_ipc,core{i}_pending,core{i}_me");
    }
    for c in 0..channels {
        let _ = write!(
            out,
            ",ch{c}_queue_depth,ch{c}_bus_util,ch{c}_reads,ch{c}_writes,ch{c}_row_hit_rate"
        );
    }
    out.push('\n');
    for r in rows {
        let _ = write!(out, "{}", r.cycle);
        for i in 0..cores {
            let _ = write!(
                out,
                ",{:.6},{},{:.6}",
                r.ipc.get(i).copied().unwrap_or(0.0),
                r.pending_reads.get(i).copied().unwrap_or(0),
                r.me.get(i).copied().unwrap_or(0.0)
            );
        }
        for c in 0..channels {
            let _ = write!(
                out,
                ",{},{:.6},{},{},{:.6}",
                r.queue_depth.get(c).copied().unwrap_or(0),
                r.bus_util.get(c).copied().unwrap_or(0.0),
                r.reads.get(c).copied().unwrap_or(0),
                r.writes.get(c).copied().unwrap_or(0),
                r.row_hit_rate.get(c).copied().unwrap_or(0.0)
            );
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(cycle: Cycle) -> EpochRow {
        EpochRow {
            cycle,
            ipc: vec![0.5, 1.0],
            pending_reads: vec![3, 0],
            me: vec![2.0, 8.0],
            queue_depth: vec![4],
            bus_util: vec![0.25],
            reads: vec![10],
            writes: vec![2],
            row_hit_rate: vec![0.5],
        }
    }

    #[test]
    fn csv_has_schema_stamp_header_and_one_line_per_row() {
        let csv = render_csv(&[row(100), row(200)], 2, 1);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[0], format!("# schema_version={}", melreq_snap::SCHEMA_VERSION));
        assert!(lines[1].starts_with("cycle,core0_ipc"));
        assert!(lines[1].contains("ch0_row_hit_rate"));
        assert!(lines[2].starts_with("100,"));
        // header column count matches data column count
        assert_eq!(lines[1].split(',').count(), lines[2].split(',').count());
    }
}
