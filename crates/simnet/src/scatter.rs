//! Out-of-core class-grid scatter: the `P ≫ 4096` back end of the
//! decomposed sweep.
//!
//! The dense scatter ([`crate::sweep`]) materializes two `|P|²` `f64`
//! matrices — 4 GiB at `P = 16384` — even though a clustered sweep only
//! ever *measured* a handful of class values. This module scatters into a
//! [`CompressedCostModel`] instead: a `u16` pair-class grid (2 bytes per
//! cell, 512 MiB at `P = 16384`) plus per-class value tables, never
//! touching dense storage.
//!
//! The grid itself is produced **tile-at-a-time**, after measurement, in
//! tile-id order (a tile is [`SpillConfig::tile_rows`] consecutive rows),
//! so the scatter's working set beyond the final grid is bounded. A tile
//! is one buffer holding its rows' cells as little-endian `u16` — the byte
//! image of its spill run — filled in place, row-parallel, by looking each
//! cell up in the classing's map. Finished tiles stage in memory while
//! total staged bytes fit [`SpillConfig::mem_budget_bytes`]; a tile that
//! would not fit is written to `tile_NNNNN.bin` in the spill directory
//! instead. The final merge walks tile ids in ascending order and decodes
//! each tile straight into its rows of the grid — memory-staged and
//! spilled tiles interleave arbitrarily, but the merge order is the
//! production order, so the resulting grid is byte-identical regardless
//! of budget, tile size, or how many tiles spilled. A spill run is read
//! back only if its file is exactly as long as its tile, and every spill
//! file is removed when the scatter ends, however it ends.
//!
//! The class space of the grid extends the classing's:
//!
//! * pair classes `0..n_pair` (the classing's indices, verbatim),
//! * diag classes `n_pair..n_pair + n_diag`,
//! * then one appended class per *exploded* member — pairs in ascending
//!   `(i, j)` scan order, diagonals in ascending rank order — carrying
//!   that member's exact measurement.
//!
//! Diagonal cells never share a class with off-diagonal cells (diag
//! classes are a disjoint id range), which is precisely the invariant
//! [`CompressedCostModel::from_parts`] enforces so its derived
//! [`hbar_topo::DistanceMetric`] can alias the grid zero-copy.
//!
//! `CompressedCostModel::to_dense()` of the result is bit-identical to
//! the dense scatter of the same measurements — the values flowing into
//! the tables are the very `f64`s the dense path would have written.

use crate::noise::NoiseModel;
use crate::sweep::{
    measure_placement, ClassMeasurements, DescriptorExecutor, LocalExecutor, SweepConfig,
    SweepError, SweepReport,
};
use hbar_core::clustering::PairClassing;
use hbar_topo::compressed::{CompressError, CompressedCostModel, MAX_CLASSES};
use hbar_topo::machine::MachineSpec;
use hbar_topo::mapping::RankMapping;
use rayon::prelude::*;
use std::collections::HashMap;
use std::fs;
use std::io::{Read, Write};
use std::path::PathBuf;

/// Where and when scatter tiles spill to disk.
#[derive(Clone, Debug)]
pub struct SpillConfig {
    /// Spill directory; created lazily on first spill, so a run whose
    /// tiles all fit the budget never touches the filesystem.
    pub dir: PathBuf,
    /// Bytes of finished tiles allowed to stage in memory at once.
    /// Tiles that would exceed it are written to `dir` instead. The
    /// final grid allocation is *not* charged against this budget (it
    /// must exist in full for the model to be usable); the budget bounds
    /// the transient working set on top of it.
    pub mem_budget_bytes: usize,
    /// Rows per tile. Smaller tiles spill at finer granularity; larger
    /// tiles amortize i/o. The last tile may be shorter.
    pub tile_rows: usize,
}

impl SpillConfig {
    /// A configuration that stages everything in memory (no budget) —
    /// spill still available should the budget later be lowered.
    pub fn in_memory(dir: impl Into<PathBuf>) -> Self {
        SpillConfig {
            dir: dir.into(),
            mem_budget_bytes: usize::MAX,
            tile_rows: 256,
        }
    }

    /// A budgeted configuration with the default tile height.
    pub fn budgeted(dir: impl Into<PathBuf>, mem_budget_bytes: usize) -> Self {
        SpillConfig {
            mem_budget_bytes,
            ..SpillConfig::in_memory(dir)
        }
    }
}

/// What the tiled scatter did with its memory budget.
#[derive(Clone, Debug, Default)]
pub struct SpillReport {
    /// Tiles produced (== merged).
    pub tiles: usize,
    /// Tiles that overflowed the budget and went through the spill
    /// directory.
    pub spilled_tiles: usize,
    /// High-water mark of bytes staged in memory.
    pub staged_peak_bytes: usize,
    /// Total bytes written to spill files.
    pub spill_bytes: u64,
    /// Tile height the run used.
    pub tile_rows: usize,
}

/// Accepts finished tiles in production order, staging within the budget
/// and spilling the rest; then merges them back in tile-id order.
struct TileSink<'a> {
    cfg: &'a SpillConfig,
    p: usize,
    /// One entry per tile pushed, in id order: the staged bytes, or `None`
    /// for a tile that is in its spill file (or already merged).
    tiles: Vec<Option<Vec<u8>>>,
    /// Ids of the spill files created.
    spilled: Vec<usize>,
    report: SpillReport,
}

impl<'a> TileSink<'a> {
    fn new(cfg: &'a SpillConfig, p: usize) -> Self {
        TileSink {
            cfg,
            p,
            tiles: Vec::new(),
            spilled: Vec::new(),
            report: SpillReport {
                tile_rows: cfg.tile_rows.max(1),
                ..SpillReport::default()
            },
        }
    }

    fn spill_path(&self, id: usize) -> PathBuf {
        self.cfg.dir.join(format!("tile_{id:05}.bin"))
    }

    /// Bytes of tile `id`: `tile_rows` rows of `p` cells, fewer rows in
    /// the last tile.
    fn tile_bytes(&self, id: usize) -> usize {
        let rows = self.report.tile_rows;
        rows.min(self.p - id * rows) * self.p * 2
    }

    fn push(&mut self, tile: Vec<u8>) -> Result<(), SweepError> {
        let id = self.tiles.len();
        assert_eq!(tile.len(), self.tile_bytes(id), "size of tile {id}");
        self.report.tiles += 1;
        // Tiles stay staged until the merge, so the staged total only grows
        // and is its own peak.
        if self.report.staged_peak_bytes + tile.len() <= self.cfg.mem_budget_bytes {
            self.report.staged_peak_bytes += tile.len();
            self.tiles.push(Some(tile));
            return Ok(());
        }
        self.tiles.push(None);
        fs::create_dir_all(&self.cfg.dir)?;
        // Listed before it is written: a failed write leaves a file too.
        self.spilled.push(id);
        fs::File::create(self.spill_path(id))?.write_all(&tile)?;
        self.report.spilled_tiles += 1;
        self.report.spill_bytes += tile.len() as u64;
        Ok(())
    }

    /// Reassembles the full `p × p` grid. A spill run is read only once
    /// its file length has matched its tile's, so a foreign or damaged
    /// file can neither overrun the grid nor size an allocation.
    fn merge(mut self) -> Result<(Vec<u16>, SpillReport), SweepError> {
        let mut grid = vec![0u16; self.p * self.p];
        let mut rest = grid.as_mut_slice();
        let mut run = Vec::new();
        for id in 0..self.tiles.len() {
            let expected = self.tile_bytes(id);
            let staged = self.tiles[id].take();
            let bytes = match &staged {
                Some(tile) => tile,
                None => {
                    let mut file = fs::File::open(self.spill_path(id))?;
                    let len = file.metadata()?.len();
                    if len != expected as u64 {
                        return Err(SweepError::Protocol(format!(
                            "spill tile {id} holds {len} bytes, its tile {expected}"
                        )));
                    }
                    run.resize(expected, 0);
                    file.read_exact(&mut run)?;
                    &run
                }
            };
            let (cells, later) = rest.split_at_mut(expected / 2);
            for (cell, le) in cells.iter_mut().zip(bytes.chunks_exact(2)) {
                *cell = u16::from_le_bytes([le[0], le[1]]);
            }
            rest = later;
        }
        Ok((grid, std::mem::take(&mut self.report)))
    }
}

impl Drop for TileSink<'_> {
    /// Spill files are scratch: whether the scatter merged them or failed
    /// half way, none outlives it.
    fn drop(&mut self) {
        for &id in &self.spilled {
            let _ = fs::remove_file(self.spill_path(id));
        }
    }
}

/// Scatters class measurements into a [`CompressedCostModel`], producing
/// the grid tile-at-a-time under `spill`'s memory budget. Tile contents
/// are computed row-parallel; tile order (and therefore the grid, and
/// therefore the model fingerprint) is deterministic. Consumes the
/// classing: its map is needed to fill the tiles and is released before
/// they are merged into the full grid.
pub(crate) fn scatter_compressed_tiles(
    classing: PairClassing,
    m: &ClassMeasurements,
    spill: &SpillConfig,
) -> Result<(CompressedCostModel, SpillReport), SweepError> {
    let p = classing.p();
    let n_pair = classing.pair_classes.len();
    let n_diag = classing.diag_classes.len();
    let needed = n_pair + n_diag + m.exploded_pairs.len() + m.exploded_diags.len();
    if needed > MAX_CLASSES {
        return Err(SweepError::Compress(CompressError::ClassOverflow {
            needed,
        }));
    }

    // Class space: pair classes, diag classes, then exploded members in
    // deterministic (sorted) order.
    let mut table_o = Vec::with_capacity(needed);
    let mut table_l = Vec::with_capacity(needed);
    for &(o, l) in &m.pair_estimates {
        table_o.push(o);
        table_l.push(l);
    }
    for &o in &m.diag_estimates {
        table_o.push(o);
        table_l.push(0.0);
    }
    let mut exploded_pair_ids: HashMap<(usize, usize), u16> =
        HashMap::with_capacity(m.exploded_pairs.len());
    let mut pair_keys: Vec<(usize, usize)> = m.exploded_pairs.keys().copied().collect();
    pair_keys.sort_unstable();
    for key in pair_keys {
        let (o, l) = m.exploded_pairs[&key];
        exploded_pair_ids.insert(key, table_o.len() as u16);
        table_o.push(o);
        table_l.push(l);
    }
    let mut exploded_diag_ids: HashMap<usize, u16> = HashMap::with_capacity(m.exploded_diags.len());
    let mut diag_keys: Vec<usize> = m.exploded_diags.keys().copied().collect();
    diag_keys.sort_unstable();
    for key in diag_keys {
        exploded_diag_ids.insert(key, table_o.len() as u16);
        table_o.push(m.exploded_diags[&key]);
        table_l.push(0.0);
    }

    // A rank's cell is its diagonal class, a pair's its class; members of
    // exploded classes have cells of their own, keyed in the orientation
    // the classing scanned (and the sweep measured) them in.
    let diag_cell = |i: usize| -> u16 {
        let c = classing.diag_class_of(i);
        if m.explode_diag[c] {
            exploded_diag_ids[&i]
        } else {
            (n_pair + c) as u16
        }
    };
    let exploded_cell = |i: usize, j: usize| -> Option<u16> {
        m.explode_pair[classing.class_of(i, j)].then(|| {
            if classing.symmetric() {
                exploded_pair_ids[&(i.min(j), i.max(j))]
            } else {
                exploded_pair_ids[&(i, j)]
            }
        })
    };
    let mut sink = TileSink::new(spill, p);
    let tile_rows = sink.report.tile_rows;
    for start in (0..p).step_by(tile_rows) {
        // Rows are independent, so the tile's bytes do not depend on the
        // thread count.
        let mut tile = vec![0u8; tile_rows.min(p - start) * p * 2];
        tile.par_chunks_mut(p * 2).enumerate().for_each(|(r, row)| {
            let i = start + r;
            let (before, rest) = row.split_at_mut(2 * i);
            let (diag, after) = rest.split_at_mut(2);
            diag.copy_from_slice(&diag_cell(i).to_le_bytes());
            let cells = before.chunks_exact_mut(2).chain(after.chunks_exact_mut(2));
            for (cell, c) in cells.zip(classing.row_classes(i)) {
                cell.copy_from_slice(&(c as u16).to_le_bytes());
            }
            if !m.exploded_pairs.is_empty() {
                for j in (0..p).filter(|&j| j != i) {
                    if let Some(id) = exploded_cell(i, j) {
                        row[2 * j..][..2].copy_from_slice(&id.to_le_bytes());
                    }
                }
            }
        });
        sink.push(tile)?;
    }
    drop(classing);
    let (grid, report) = sink.merge()?;

    let model =
        CompressedCostModel::from_parts(p, grid, table_o, table_l).map_err(SweepError::Compress)?;
    Ok((model, report))
}

/// The decomposed sweep with a class-compressed result: same classing,
/// measurement plan, adaptive growth, and explosion semantics as
/// [`crate::sweep::measure_profile_decomposed`], but the scatter builds a
/// [`CompressedCostModel`] tile-at-a-time under `spill`'s budget instead
/// of dense `|P|²` matrices. `model.to_dense()` is bit-identical to the
/// dense sweep's profile.
///
/// # Panics
/// Panics if `p < 2` or the mapping cannot place `p` ranks.
pub fn measure_profile_compressed(
    machine: &MachineSpec,
    mapping: &RankMapping,
    p: usize,
    noise: NoiseModel,
    cfg: &SweepConfig,
    spill: &SpillConfig,
    executor: &mut dyn DescriptorExecutor,
) -> Result<(CompressedCostModel, SweepReport, SpillReport), SweepError> {
    let (classing, m, report) = measure_placement(machine, mapping, p, noise, cfg, executor)?;
    let (model, spill_report) = scatter_compressed_tiles(classing, &m, spill)?;
    Ok((model, report, spill_report))
}

/// [`measure_profile_compressed`] with local work-stealing execution —
/// the compressed sibling of
/// [`crate::sweep::measure_profile_clustered`].
///
/// # Panics
/// As [`measure_profile_compressed`].
pub fn measure_profile_clustered_compressed(
    machine: &MachineSpec,
    mapping: &RankMapping,
    p: usize,
    noise: NoiseModel,
    cfg: &SweepConfig,
    spill: &SpillConfig,
) -> Result<(CompressedCostModel, SweepReport, SpillReport), SweepError> {
    let mut executor = LocalExecutor::new(machine.clone(), noise, cfg.profiling.clone());
    measure_profile_compressed(machine, mapping, p, noise, cfg, spill, &mut executor)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::measure_profile_clustered;
    use hbar_core::clustering::{classify_pairs, ClassingConfig};
    use hbar_topo::cost::{CostMatrices, CostProvider};
    use hbar_topo::features::ExactExtractor;
    use std::sync::atomic::{AtomicU32, Ordering};

    fn bit_equal(a: &CostMatrices, b: &CostMatrices) -> bool {
        a.o.as_slice()
            .iter()
            .zip(b.o.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
            && a.l
                .as_slice()
                .iter()
                .zip(b.l.as_slice())
                .all(|(x, y)| x.to_bits() == y.to_bits())
    }

    fn scratch_dir(tag: &str) -> PathBuf {
        static NONCE: AtomicU32 = AtomicU32::new(0);
        std::env::temp_dir().join(format!(
            "hbar_scatter_{tag}_{}_{}",
            std::process::id(),
            NONCE.fetch_add(1, Ordering::Relaxed)
        ))
    }

    #[test]
    fn compressed_scatter_matches_dense_bit_for_bit() {
        let machine = MachineSpec::dual_quad_cluster(2);
        let mapping = RankMapping::Block;
        let noise = NoiseModel::realistic(5);
        let cfg = SweepConfig::fast();
        let (dense, dense_report) = measure_profile_clustered(&machine, &mapping, 16, noise, &cfg);
        let spill = SpillConfig::in_memory(scratch_dir("parity"));
        let (model, report, spill_report) =
            measure_profile_clustered_compressed(&machine, &mapping, 16, noise, &cfg, &spill)
                .unwrap();
        assert!(bit_equal(&model.to_dense(), &dense.cost));
        assert_eq!(report.measurements, dense_report.measurements);
        assert_eq!(spill_report.spilled_tiles, 0);
        assert!(!spill.dir.exists(), "no-spill run must not touch disk");
        // The whole point: 4 pair + 2 diag classes instead of 16² values.
        assert_eq!(model.classes(), 6);
        assert!(model.is_symmetric());
    }

    #[test]
    fn spilled_tiles_reassemble_identically() {
        let machine = MachineSpec::dual_hex_cluster(3);
        let mapping = RankMapping::RoundRobin;
        let noise = NoiseModel::realistic(9);
        let cfg = SweepConfig::fast();
        let unspilled = SpillConfig::in_memory(scratch_dir("nospill"));
        let (a, _, ra) =
            measure_profile_clustered_compressed(&machine, &mapping, 24, noise, &cfg, &unspilled)
                .unwrap();
        assert_eq!(ra.spilled_tiles, 0);
        // A budget below one tile (3 rows × 24 cols × 2 B = 144 B) forces
        // every tile through the spill directory.
        let spilled = SpillConfig {
            mem_budget_bytes: 100,
            tile_rows: 3,
            ..SpillConfig::in_memory(scratch_dir("allspill"))
        };
        let (b, _, rb) =
            measure_profile_clustered_compressed(&machine, &mapping, 24, noise, &cfg, &spilled)
                .unwrap();
        assert_eq!(rb.tiles, 8);
        assert_eq!(rb.spilled_tiles, 8);
        assert_eq!(rb.spill_bytes, 24 * 24 * 2);
        assert_eq!(rb.staged_peak_bytes, 0);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.grid(), b.grid());
        // Spill files are consumed by the merge.
        assert_eq!(fs::read_dir(&spilled.dir).unwrap().count(), 0);
        fs::remove_dir_all(&spilled.dir).unwrap();
    }

    /// Spills the four 2-row tiles of an 8-rank grid, damages
    /// `tile_00002.bin`, and returns what the merge made of it. Whatever
    /// the outcome, no spill file may be left behind.
    fn merge_after(tag: &str, damage: impl Fn(&std::path::Path)) -> SweepError {
        let cfg = SpillConfig {
            mem_budget_bytes: 0,
            tile_rows: 2,
            ..SpillConfig::in_memory(scratch_dir(tag))
        };
        let mut sink = TileSink::new(&cfg, 8);
        for id in 0..4 {
            sink.push(vec![id; 2 * 8 * 2]).unwrap();
        }
        assert_eq!(fs::read_dir(&cfg.dir).unwrap().count(), 4);
        damage(&cfg.dir.join("tile_00002.bin"));
        let err = sink.merge().expect_err("a damaged run must not merge");
        assert_eq!(fs::read_dir(&cfg.dir).unwrap().count(), 0);
        fs::remove_dir_all(&cfg.dir).unwrap();
        err
    }

    #[test]
    fn missing_spill_run_is_an_io_error() {
        let err = merge_after("missing", |path| fs::remove_file(path).unwrap());
        assert!(matches!(err, SweepError::Io(_)), "{err}");
    }

    #[test]
    fn truncated_spill_run_is_a_protocol_error() {
        let err = merge_after("truncated", |path| {
            fs::OpenOptions::new()
                .write(true)
                .open(path)
                .unwrap()
                .set_len(31)
                .unwrap()
        });
        assert!(matches!(err, SweepError::Protocol(_)), "{err}");
    }

    #[test]
    fn oversized_spill_run_is_a_protocol_error() {
        // Long enough to run past the end of the grid if it were trusted.
        let err = merge_after("oversized", |path| fs::write(path, vec![0; 1024]).unwrap());
        assert!(matches!(err, SweepError::Protocol(_)), "{err}");
    }

    #[test]
    fn abandoned_sink_removes_its_spill_files() {
        // What a failed `push` leaves to the sink's drop.
        let cfg = SpillConfig {
            mem_budget_bytes: 0,
            tile_rows: 2,
            ..SpillConfig::in_memory(scratch_dir("abandoned"))
        };
        let mut sink = TileSink::new(&cfg, 8);
        sink.push(vec![0; 32]).unwrap();
        sink.push(vec![1; 32]).unwrap();
        assert_eq!(fs::read_dir(&cfg.dir).unwrap().count(), 2);
        drop(sink);
        assert_eq!(fs::read_dir(&cfg.dir).unwrap().count(), 0);
        fs::remove_dir_all(&cfg.dir).unwrap();
    }

    #[test]
    fn unwritable_spill_directory_is_an_io_error() {
        let blocker = scratch_dir("blocker");
        fs::write(&blocker, b"not a directory").unwrap();
        let cfg = SpillConfig {
            mem_budget_bytes: 0,
            tile_rows: 2,
            ..SpillConfig::in_memory(blocker.join("spill"))
        };
        let err = TileSink::new(&cfg, 8).push(vec![0; 32]).unwrap_err();
        assert!(matches!(err, SweepError::Io(_)), "{err}");
        fs::remove_file(&blocker).unwrap();
    }

    #[test]
    fn partial_budget_interleaves_staged_and_spilled_tiles() {
        let machine = MachineSpec::dual_quad_cluster(4);
        let mapping = RankMapping::Block;
        let noise = NoiseModel::realistic(2);
        let cfg = SweepConfig::fast();
        // 32 ranks, 4-row tiles → 8 tiles of 256 B; budget holds 2.
        let spill = SpillConfig {
            mem_budget_bytes: 512,
            tile_rows: 4,
            ..SpillConfig::in_memory(scratch_dir("mixed"))
        };
        let (mixed, _, report) =
            measure_profile_clustered_compressed(&machine, &mapping, 32, noise, &cfg, &spill)
                .unwrap();
        assert_eq!(report.tiles, 8);
        assert_eq!(report.spilled_tiles, 6);
        assert_eq!(report.staged_peak_bytes, 512);
        let baseline = SpillConfig::in_memory(scratch_dir("mixed_base"));
        let (full, _, _) =
            measure_profile_clustered_compressed(&machine, &mapping, 32, noise, &cfg, &baseline)
                .unwrap();
        assert_eq!(mixed.fingerprint(), full.fingerprint());
        assert_eq!(mixed.grid(), full.grid());
        fs::remove_dir_all(&spill.dir).unwrap();
    }

    #[test]
    fn exploded_members_scatter_their_exact_values() {
        // explode_rel_tol = 0 explodes every class with measurable
        // scatter; the compressed scatter must then carry per-member
        // values, matching the dense sweep (which matches the exhaustive
        // sweep) bit for bit.
        let machine = MachineSpec::dual_quad_cluster(2);
        let mapping = RankMapping::Block;
        let noise = NoiseModel::realistic(13);
        let cfg = SweepConfig {
            explode_rel_tol: 0.0,
            ..SweepConfig::fast()
        };
        let (dense, _) = measure_profile_clustered(&machine, &mapping, 16, noise, &cfg);
        let spill = SpillConfig::in_memory(scratch_dir("exploded"));
        let (model, report, _) =
            measure_profile_clustered_compressed(&machine, &mapping, 16, noise, &cfg, &spill)
                .unwrap();
        assert!(report.exploded_pair_classes > 0);
        assert!(bit_equal(&model.to_dense(), &dense.cost));
        // Exploded members each occupy their own appended class.
        assert!(model.classes() > 6, "classes = {}", model.classes());
    }

    #[test]
    fn asymmetric_sweeps_compress_too() {
        let machine = MachineSpec::new(2, 2, 2);
        let mapping = RankMapping::RoundRobin;
        let noise = NoiseModel::realistic(4);
        let cfg = SweepConfig {
            profiling: crate::profiling::ProfilingConfig {
                symmetric: false,
                ..crate::profiling::ProfilingConfig::fast()
            },
            ..SweepConfig::fast()
        };
        let (dense, _) = measure_profile_clustered(&machine, &mapping, 8, noise, &cfg);
        let spill = SpillConfig::in_memory(scratch_dir("asym"));
        let (model, _, _) =
            measure_profile_clustered_compressed(&machine, &mapping, 8, noise, &cfg, &spill)
                .unwrap();
        assert!(bit_equal(&model.to_dense(), &dense.cost));
    }

    #[test]
    fn class_overflow_is_reported_not_truncated() {
        // ExactExtractor at p = 384 yields 384·383/2 = 73 536 singleton
        // pair classes — past the u16 grid's 65 536. The scatter must
        // refuse up front (before measuring would even be attempted —
        // we synthesize the measurement phase's output to keep the test
        // fast).
        let machine = MachineSpec::new(48, 2, 4);
        let p = 384;
        let cores = RankMapping::Block.place(&machine, p);
        let extractor = ExactExtractor::default();
        let classing = classify_pairs(
            &machine,
            &cores,
            p,
            &extractor,
            &ClassingConfig {
                symmetric: true,
                probes_per_class: 0,
                probe_seed: 0,
            },
        );
        let n_pair = classing.pair_classes.len();
        let n_diag = classing.diag_classes.len();
        assert!(n_pair > MAX_CLASSES);
        let m = ClassMeasurements {
            pair_estimates: vec![(1e-6, 1e-7); n_pair],
            diag_estimates: vec![1e-7; n_diag],
            explode_pair: vec![false; n_pair],
            explode_diag: vec![false; n_diag],
            exploded_pairs: HashMap::new(),
            exploded_diags: HashMap::new(),
        };
        let spill = SpillConfig::in_memory(scratch_dir("overflow"));
        let err = scatter_compressed_tiles(classing, &m, &spill).expect_err("must overflow");
        match err {
            SweepError::Compress(CompressError::ClassOverflow { needed }) => {
                assert_eq!(needed, n_pair + n_diag);
            }
            other => panic!("wrong error: {other}"),
        }
    }
}
