//! Out-of-core class-table scatter: the `P ≫ 4096` back end of the
//! decomposed sweep.
//!
//! The dense scatter ([`crate::sweep`]) materializes two `|P|²` `f64`
//! matrices — 4 GiB at `P = 16384` — even though a clustered sweep only
//! ever *measured* a handful of class values. This module scatters into a
//! [`CompressedCostModel`] instead, and stays in the space the classing
//! worked in: the model's map is `rank → kind`, a `K × K` `u16` table of
//! pair classes over kind pairs (`K = P/4` kinds on dual quad-core nodes:
//! 32 MiB at `P = 16384`, where one class id per cell is 512 MiB), a
//! diagonal class per rank, and one override per cell of an exploded
//! class — nothing of size `P²` is written or read.
//!
//! The table is produced **tile-at-a-time**, after measurement, in
//! tile-id order (a tile is [`SpillConfig::tile_rows`] consecutive kind
//! rows). A tile is one buffer holding its rows' cells as little-endian
//! `u16` — the byte image of its spill run — filled in place,
//! row-parallel, from the classing's own kind table. Finished tiles stage
//! in memory while they and that table fit
//! [`SpillConfig::mem_budget_bytes`]; a tile that would not fit is written
//! to `tile_NNNNN.bin` in the spill directory instead. The final merge
//! walks tile ids in ascending order and decodes each tile straight into
//! its rows of the table — memory-staged and spilled tiles interleave
//! arbitrarily, but the merge order is the production order, so the
//! resulting table is byte-identical regardless of budget, tile size, or
//! how many tiles spilled. A spill run is read back only if its file is
//! exactly as long as its tile, and every spill file is removed when the
//! scatter ends, however it ends.
//!
//! The class space of the model extends the classing's:
//!
//! * the classing's classes, verbatim — pair classes, then diagonal
//!   classes, which is how [`PairClassing::class_of`] numbers them,
//! * then one appended class per *exploded* member — pairs in ascending
//!   `(i, j)` scan order, diagonals in ascending rank order — carrying
//!   that member's exact measurement.
//!
//! Diagonal cells never share a class with off-diagonal cells (diag
//! classes are a disjoint id range), which is precisely the invariant
//! [`CompressedCostModel::from_kinds`] enforces so its derived
//! [`hbar_topo::DistanceMetric`] can share the map zero-copy.
//!
//! `CompressedCostModel::to_dense()` of the result is bit-identical to
//! the dense scatter of the same measurements — the values flowing into
//! the tables are the very `f64`s the dense path would have written.

use crate::noise::NoiseModel;
use crate::sweep::{
    measure_placement, ClassMeasurements, DescriptorExecutor, SweepConfig, SweepError, SweepReport,
};
use hbar_core::clustering::PairClassing;
use hbar_topo::compressed::{
    CompressError, CompressedCostModel, ModelParts, Override, MAX_CLASSES,
};
use hbar_topo::machine::MachineSpec;
use hbar_topo::mapping::RankMapping;
use rayon::prelude::*;
use std::fs;
use std::io::{Read, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};

/// Where and when scatter tiles spill to disk.
#[derive(Clone, Debug)]
pub struct SpillConfig {
    /// Spill directory; created lazily on first spill, so a run whose
    /// tiles all fit the budget never touches the filesystem.
    pub dir: PathBuf,
    /// Bytes the scatter may keep alive while it produces tiles: the
    /// classing's own `K × K` `u32` table, which it reads until the last
    /// tile is pushed, plus the finished tiles staged in memory. A tile
    /// that would exceed it is written to `dir` instead — every tile,
    /// when the budget is below the classing's table. The final table is
    /// *not* charged against this budget (it must exist in full for the
    /// model to be usable, and the classing is dropped before it is
    /// allocated); the budget bounds the transient working set on top of
    /// it.
    pub mem_budget_bytes: usize,
    /// Kind rows per tile. Smaller tiles spill at finer granularity;
    /// larger tiles amortize i/o. The last tile may be shorter.
    pub tile_rows: usize,
}

impl SpillConfig {
    /// A configuration that stages everything in memory (no budget) and
    /// so never touches the filesystem — spill still available should the
    /// budget later be lowered.
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
    /// High-water mark of bytes of tiles staged in memory (what else the
    /// budget was charged for is not counted here).
    pub staged_peak_bytes: usize,
    /// Total bytes written to spill files.
    pub spill_bytes: u64,
    /// Tile height the run used, in kind rows.
    pub tile_rows: usize,
}

/// Accepts finished tiles in production order, staging within the budget
/// and spilling the rest; then merges them back in tile-id order.
struct TileSink<'a> {
    cfg: &'a SpillConfig,
    /// Side of the table the tiles add up to.
    kinds: usize,
    /// Bytes the producer holds while it pushes, charged to the budget
    /// next to the staged tiles.
    held_bytes: usize,
    /// One entry per tile pushed, in id order: the staged bytes, or `None`
    /// for a tile that is in its spill file (or already merged).
    tiles: Vec<Option<Vec<u8>>>,
    /// Ids of the spill files created.
    spilled: Vec<usize>,
    report: SpillReport,
}

impl<'a> TileSink<'a> {
    fn new(cfg: &'a SpillConfig, kinds: usize, held_bytes: usize) -> Self {
        TileSink {
            cfg,
            kinds,
            held_bytes,
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

    /// Bytes of tile `id`: `tile_rows` rows of `kinds` cells, fewer rows
    /// in the last tile.
    fn tile_bytes(&self, id: usize) -> usize {
        let rows = self.report.tile_rows;
        rows.min(self.kinds - id * rows) * self.kinds * 2
    }

    fn push(&mut self, tile: Vec<u8>) -> Result<(), SweepError> {
        let id = self.tiles.len();
        assert_eq!(tile.len(), self.tile_bytes(id), "size of tile {id}");
        self.report.tiles += 1;
        // Tiles stay staged until the merge, so the staged total only grows
        // and is its own peak.
        let staged = self.report.staged_peak_bytes + tile.len();
        if self.held_bytes.saturating_add(staged) <= self.cfg.mem_budget_bytes {
            self.report.staged_peak_bytes = staged;
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

    /// Reassembles the full `kinds × kinds` table. A spill run is read
    /// only once its file length has matched its tile's, so a foreign or
    /// damaged file can neither overrun the table nor size an allocation.
    fn merge(mut self) -> Result<(Vec<u16>, SpillReport), SweepError> {
        let mut table = vec![0u16; self.kinds * self.kinds];
        let mut rest = table.as_mut_slice();
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
        Ok((table, std::mem::take(&mut self.report)))
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

/// Side of the square blocks a tile is filled in. A cell may have to ask
/// for its mirror image, and a walk down a column of a table whose side
/// is a power of two keeps hitting the same cache set; block by block the
/// mirrored reads run along rows too.
const BLOCK: usize = 32;

/// Fills the `kinds × kinds` table of `class(a, b)`, a tile of kind rows
/// at a time, into `sink`. With `mirror`, a cell `class` has no answer for
/// takes the answer for `(b, a)`; a cell nothing answers for is one no
/// pair of ranks reads, and is 0. Bands of rows are independent, so a
/// tile's bytes do not depend on the thread count. Stops with `false` at
/// the first tile in which a cell and its mirror image have two different
/// answers.
fn push_tiles(
    sink: &mut TileSink,
    class: impl Fn(usize, usize) -> Option<usize> + Sync,
    mirror: bool,
) -> Result<bool, SweepError> {
    let kinds = sink.kinds;
    let tile_rows = sink.report.tile_rows;
    let row_bytes = kinds * 2;
    for start in (0..kinds).step_by(tile_rows) {
        let mut tile = vec![0u8; tile_rows.min(kinds - start) * row_bytes];
        let contested = AtomicBool::new(false);
        let bands = tile.par_chunks_mut(BLOCK * row_bytes).enumerate();
        bands.for_each(|(band, bytes)| {
            let first_row = start + band * BLOCK;
            let rows = bytes.len() / row_bytes;
            let mut mirrored = [None; BLOCK * BLOCK];
            for first_column in (0..kinds).step_by(BLOCK) {
                let columns = BLOCK.min(kinds - first_column);
                if mirror {
                    for b in 0..columns {
                        for a in 0..rows {
                            mirrored[a * BLOCK + b] = class(first_column + b, first_row + a);
                        }
                    }
                }
                for (a, row) in bytes.chunks_exact_mut(row_bytes).enumerate() {
                    let cells = row[2 * first_column..][..2 * columns].chunks_exact_mut(2);
                    for (b, le) in cells.enumerate() {
                        let answers = (
                            class(first_row + a, first_column + b),
                            mirrored[a * BLOCK + b],
                        );
                        let class = match answers {
                            (Some(forward), Some(mirrored)) if forward != mirrored => {
                                contested.store(true, Ordering::Relaxed);
                                0
                            }
                            (Some(class), _) | (None, Some(class)) => class,
                            (None, None) => 0,
                        };
                        le.copy_from_slice(&(class as u16).to_le_bytes());
                    }
                }
            }
        });
        if contested.into_inner() {
            return Ok(false);
        }
        sink.push(tile)?;
    }
    Ok(true)
}

/// Scatters class measurements into a [`CompressedCostModel`], producing
/// the kind table tile-at-a-time under `spill`'s memory budget. Tile
/// order (and therefore the table, and therefore the model fingerprint)
/// is deterministic. Consumes the classing: its kind table is needed to
/// fill the tiles — and charged to the budget for as long — and is
/// released before they are merged into the model's.
pub(crate) fn scatter_compressed_tiles(
    classing: PairClassing,
    m: &ClassMeasurements,
    spill: &SpillConfig,
) -> Result<(CompressedCostModel, SpillReport), SweepError> {
    let p = classing.p();
    let needed = classing.classes.len() + m.exploded.len();
    if needed > MAX_CLASSES {
        return Err(SweepError::Compress(CompressError::ClassOverflow {
            needed,
        }));
    }

    // Class space: the classing's classes, then one per exploded member,
    // pairs before diagonals, each in ascending order. A pair's cell is
    // its kind pair's class and a rank's diagonal cell its diagonal class;
    // an exploded member has a cell of its own — an override, for a pair
    // in both orientations when the sweep measured it once for both.
    let (mut table_o, mut table_l): (Vec<f64>, Vec<f64>) = m.estimates.iter().copied().unzip();
    let mut diag: Vec<u16> = (0..p).map(|i| classing.class_of(i, i) as u16).collect();
    let mut overrides: Vec<Override> = Vec::new();
    let mut cells: Vec<(usize, usize)> = m.exploded.keys().copied().collect();
    cells.sort_unstable_by_key(|&(i, j)| (i == j, i, j));
    for cell @ (i, j) in cells {
        let class = table_o.len() as u16;
        if i == j {
            diag[i] = class;
        } else {
            overrides.push((i as u32, j as u32, class));
            if classing.symmetric() {
                overrides.push((j as u32, i as u32, class));
            }
        }
        let (o, l) = m.exploded[&cell];
        table_o.push(o);
        table_l.push(l);
    }
    overrides.sort_unstable();

    // The model's table answers for both orientations of a kind pair; a
    // symmetric classing holds only the one its classed pairs have (under
    // block placement, none of the lower triangle).
    let held_bytes = classing.kinds().pow(2) * std::mem::size_of::<u32>();
    let mut kind_of = classing.kind_of().to_vec();
    let mut sink = TileSink::new(spill, classing.kinds(), held_bytes);
    let kind_pair = |a, b| classing.kind_pair_class(a, b);
    if !push_tiles(&mut sink, kind_pair, classing.symmetric())? {
        // Features that look at rank order (the `rank_kind` contract lets
        // them) class the two orientations of some kind pair differently.
        // Then every rank is a kind of its own.
        kind_of = (0..p as u32).collect();
        sink = TileSink::new(spill, p, held_bytes);
        let pair = |i, j| (i != j).then(|| classing.class_of(i, j));
        push_tiles(&mut sink, pair, false)?;
    }
    drop(classing);
    let kinds = sink.kinds;
    let (table, report) = sink.merge()?;

    let model = CompressedCostModel::from_kinds(ModelParts {
        p,
        kinds,
        kind_of,
        table,
        diag,
        overrides,
        table_o,
        table_l,
    })
    .map_err(SweepError::Compress)?;
    Ok((model, report))
}

/// The decomposed sweep with a class-compressed result: same classing,
/// measurement plan, adaptive growth, and explosion semantics as
/// [`crate::sweep::measure_profile_decomposed`], but the scatter builds a
/// [`CompressedCostModel`] in kind space, tile-at-a-time under `spill`'s
/// budget, instead of dense `|P|²` matrices. `model.to_dense()` is
/// bit-identical to the dense sweep's profile. The exhaustive sweep
/// ([`SweepConfig::exact`]) has a class per pair, which the model's `u16`
/// class ids hold up to P ≈ 361; beyond that it is a
/// [`SweepError::Compress`], returned before anything is measured.
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
    let (classing, m, report) =
        measure_placement(machine, mapping, p, noise, cfg, executor, MAX_CLASSES)?;
    let (model, spill_report) = scatter_compressed_tiles(classing, &m, spill)?;
    Ok((model, report, spill_report))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::sweep::{measure_classes, measure_profile_decomposed, scatter_dense, LocalExecutor};
    use hbar_core::clustering::{classify_pairs, ClassingConfig};
    use hbar_topo::cost::{CostMatrices, CostProvider};
    use hbar_topo::features::{
        ExactExtractor, PairFeatureExtractor, PairFeatures, RankFeatures, TopologyExtractor,
    };
    use hbar_topo::machine::LinkClass;
    use hbar_topo::profile::TopologyProfile;
    use std::collections::HashMap;
    use std::sync::atomic::AtomicU32;

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

    /// The dense sweep under `cfg`, executed on the local thread pool.
    fn local_sweep(
        machine: &MachineSpec,
        mapping: &RankMapping,
        p: usize,
        noise: NoiseModel,
        cfg: &SweepConfig,
    ) -> (TopologyProfile, SweepReport) {
        let mut local = LocalExecutor::new(machine.clone(), noise, cfg.profiling.clone());
        measure_profile_decomposed(machine, mapping, p, noise, cfg, &mut local).unwrap()
    }

    /// The compressed sweep under `cfg`, executed on the local thread pool.
    fn local_compressed(
        machine: &MachineSpec,
        mapping: &RankMapping,
        p: usize,
        noise: NoiseModel,
        cfg: &SweepConfig,
        spill: &SpillConfig,
    ) -> (CompressedCostModel, SweepReport, SpillReport) {
        let mut local = LocalExecutor::new(machine.clone(), noise, cfg.profiling.clone());
        measure_profile_compressed(machine, mapping, p, noise, cfg, spill, &mut local).unwrap()
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
        let (dense, dense_report) = local_sweep(&machine, &mapping, 16, noise, &cfg);
        let spill = SpillConfig::in_memory(scratch_dir("parity"));
        let (model, report, spill_report) =
            local_compressed(&machine, &mapping, 16, noise, &cfg, &spill);
        assert!(bit_equal(&model.to_dense(), &dense.cost));
        assert_eq!(report.measurements, dense_report.measurements);
        assert_eq!(spill_report.spilled_tiles, 0);
        assert!(!spill.dir.exists(), "no-spill run must not touch disk");
        // The whole point: 4 pair + 2 diag classes over 4 kinds of rank
        // (two nodes of two sockets) instead of 16² values.
        assert_eq!(model.classes(), 6);
        assert_eq!(model.class_map().kinds(), 4);
        assert!(model.class_map().overrides().is_empty());
        assert!(model.is_symmetric());
    }

    #[test]
    fn spilled_tiles_reassemble_identically() {
        let machine = MachineSpec::dual_hex_cluster(3);
        let mapping = RankMapping::RoundRobin;
        let noise = NoiseModel::realistic(9);
        let cfg = SweepConfig::fast();
        let unspilled = SpillConfig::in_memory(scratch_dir("nospill"));
        let (a, _, ra) = local_compressed(&machine, &mapping, 24, noise, &cfg, &unspilled);
        assert_eq!(ra.spilled_tiles, 0);
        // Round-robin over the two nodes 24 ranks need: 4 kinds. A budget
        // below the classing's own 4 × 4 table of u32 (64 B) leaves no
        // room to stage anything next to it, so both tiles (3 kind rows
        // and 1, of 4 columns × 2 B) go through the spill directory.
        assert_eq!(a.class_map().kinds(), 4);
        let spilled = SpillConfig {
            mem_budget_bytes: 63,
            tile_rows: 3,
            ..SpillConfig::in_memory(scratch_dir("allspill"))
        };
        let (b, _, rb) = local_compressed(&machine, &mapping, 24, noise, &cfg, &spilled);
        assert_eq!(rb.tiles, 2);
        assert_eq!(rb.spilled_tiles, 2);
        assert_eq!(rb.spill_bytes, 4 * 4 * 2);
        assert_eq!(rb.staged_peak_bytes, 0);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.class_map(), b.class_map());
        // Spill files are consumed by the merge.
        assert_eq!(fs::read_dir(&spilled.dir).unwrap().count(), 0);
        fs::remove_dir_all(&spilled.dir).unwrap();
    }

    /// Spills the four 2-row tiles of an 8-kind table, damages
    /// `tile_00002.bin`, and returns what the merge made of it. Whatever
    /// the outcome, no spill file may be left behind.
    fn merge_after(tag: &str, damage: impl Fn(&std::path::Path)) -> SweepError {
        let cfg = SpillConfig {
            mem_budget_bytes: 0,
            tile_rows: 2,
            ..SpillConfig::in_memory(scratch_dir(tag))
        };
        let mut sink = TileSink::new(&cfg, 8, 0);
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
        // Long enough to run past the end of the table if it were trusted.
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
        let mut sink = TileSink::new(&cfg, 8, 0);
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
        let err = TileSink::new(&cfg, 8, 0).push(vec![0; 32]).unwrap_err();
        assert!(matches!(err, SweepError::Io(_)), "{err}");
        fs::remove_file(&blocker).unwrap();
    }

    #[test]
    fn partial_budget_interleaves_staged_and_spilled_tiles() {
        let machine = MachineSpec::dual_quad_cluster(4);
        let mapping = RankMapping::Block;
        let noise = NoiseModel::realistic(2);
        let cfg = SweepConfig::fast();
        // 32 ranks of 8 kinds, 2-row tiles → 4 tiles of 32 B; next to the
        // classing's 8 × 8 table of u32 (256 B) the budget holds 2.
        let spill = SpillConfig {
            mem_budget_bytes: 256 + 2 * 32,
            tile_rows: 2,
            ..SpillConfig::in_memory(scratch_dir("mixed"))
        };
        let (mixed, _, report) = local_compressed(&machine, &mapping, 32, noise, &cfg, &spill);
        assert_eq!(report.tiles, 4);
        assert_eq!(report.spilled_tiles, 2);
        assert_eq!(report.staged_peak_bytes, 64);
        let baseline = SpillConfig::in_memory(scratch_dir("mixed_base"));
        let (full, _, _) = local_compressed(&machine, &mapping, 32, noise, &cfg, &baseline);
        assert_eq!(mixed.fingerprint(), full.fingerprint());
        assert_eq!(mixed.class_map(), full.class_map());
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
        let (dense, _) = local_sweep(&machine, &mapping, 16, noise, &cfg);
        let spill = SpillConfig::in_memory(scratch_dir("exploded"));
        let (model, report, _) = local_compressed(&machine, &mapping, 16, noise, &cfg, &spill);
        assert!(report.exploded_pair_classes > 0);
        assert!(bit_equal(&model.to_dense(), &dense.cost));
        // Exploded members each occupy their own appended class, which an
        // override puts into both orientations of the pair's cell.
        assert!(model.classes() > 6, "classes = {}", model.classes());
        assert_eq!(model.class_map().kinds(), 4);
        assert_eq!(
            model.class_map().overrides().len(),
            2 * (model.classes() - 6 - 16)
        );
        assert!(model.is_symmetric());
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
        let (dense, _) = local_sweep(&machine, &mapping, 8, noise, &cfg);
        let spill = SpillConfig::in_memory(scratch_dir("asym"));
        let (model, _, _) = local_compressed(&machine, &mapping, 8, noise, &cfg, &spill);
        assert!(bit_equal(&model.to_dense(), &dense.cost));
    }

    /// Classes by sockets alone, and by whether the *lower* rank of the
    /// pair sits on socket 1: within the `rank_kind` contract (a symmetric
    /// sweep never swaps the rank order of a pair), yet the two
    /// orientations of kind pair (socket 0, socket 1) are two classes.
    pub(crate) struct LowerRankSocket;

    impl PairFeatureExtractor for LowerRankSocket {
        fn pair_features(
            &self,
            machine: &MachineSpec,
            (i, j): (usize, usize),
            (core_a, core_b): (usize, usize),
        ) -> PairFeatures {
            let (a, b) = (machine.core(core_a).socket, machine.core(core_b).socket);
            let lower = if i < j { a } else { b };
            PairFeatures {
                link: LinkClass::SameSocket,
                socket_relation: (a.min(b) as u16, a.max(b) as u16),
                noise_regime: 0,
                refinement: u64::from(lower == 1),
            }
        }

        fn rank_features(&self, machine: &MachineSpec, rank: usize, core: usize) -> RankFeatures {
            TopologyExtractor::default().rank_features(machine, rank, core)
        }

        fn rank_kind(&self, machine: &MachineSpec, _rank: usize, core: usize) -> u64 {
            machine.core(core).socket as u64
        }
    }

    #[test]
    fn rank_order_dependent_classes_refine_every_rank_to_a_kind() {
        let machine = MachineSpec::new(1, 2, 4);
        let p = 8;
        let noise = NoiseModel::realistic(21);
        for (mapping, kinds) in [
            // Sockets one after the other: socket 1 is never the lower rank
            // of a mixed pair, so the kind table has one orientation only.
            (RankMapping::Block, 2),
            // Sockets alternating in rank order: both orientations occur.
            (RankMapping::Custom(vec![0, 4, 1, 5, 2, 6, 3, 7]), p),
        ] {
            // Whole classes, and every class exploded into overrides.
            for explode_rel_tol in [f64::INFINITY, -1.0] {
                let cfg = SweepConfig {
                    explode_rel_tol,
                    ..SweepConfig::fast()
                };
                let cores = mapping.place(&machine, p);
                let classing = classify_pairs(
                    &machine,
                    &cores,
                    p,
                    &LowerRankSocket,
                    &ClassingConfig {
                        symmetric: true,
                        probes_per_class: cfg.probes_per_class,
                        probe_seed: cfg.probe_seed,
                    },
                );
                let mut executor =
                    LocalExecutor::new(machine.clone(), noise, cfg.profiling.clone());
                let (m, _) =
                    measure_classes(&cores, &classing, noise, &cfg, &mut executor).unwrap();
                let dense = scatter_dense(&classing, &m);
                let spill = SpillConfig {
                    mem_budget_bytes: 0,
                    tile_rows: 3,
                    ..SpillConfig::in_memory(scratch_dir("orientation"))
                };
                let (model, report) = scatter_compressed_tiles(classing, &m, &spill).unwrap();
                assert_eq!(model.class_map().kinds(), kinds);
                assert_eq!(report.tiles, kinds.div_ceil(3));
                assert!(bit_equal(&model.to_dense(), &dense));
                assert!(model.is_symmetric());
                fs::remove_dir_all(&spill.dir).unwrap();
            }
        }
    }

    /// An executor no sweep may reach.
    struct Unreachable;

    impl DescriptorExecutor for Unreachable {
        fn execute_batch(
            &mut self,
            _: &[crate::sweep::PairWorkDescriptor],
        ) -> Result<Vec<crate::sweep::PairSample>, SweepError> {
            panic!("measured a sweep whose classes the model cannot hold")
        }
    }

    #[test]
    fn class_overflow_is_refused_before_measuring() {
        // The exhaustive sweep at p = 384: 73 536 pair classes and 384
        // diagonal ones, past the u16 class id, and known from the classing.
        let machine = MachineSpec::new(48, 2, 4);
        let exact = SweepConfig::exact(crate::profiling::ProfilingConfig::fast());
        let spill = SpillConfig::in_memory(scratch_dir("early_overflow"));
        let (mapping, noise) = (RankMapping::Block, NoiseModel::none());
        let err = measure_profile_compressed(
            &machine,
            &mapping,
            384,
            noise,
            &exact,
            &spill,
            &mut Unreachable,
        )
        .expect_err("must overflow");
        assert!(
            matches!(
                err,
                SweepError::Compress(CompressError::ClassOverflow { needed: 73_920 })
            ),
            "{err}"
        );
    }

    #[test]
    fn class_overflow_is_reported_not_truncated() {
        // ExactExtractor at p = 384 yields 384·383/2 = 73 536 singleton
        // pair classes — past the u16 class id's 65 536. The scatter must
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
        let classes = classing.classes.len();
        assert!(classing.pair_classes > MAX_CLASSES);
        let m = ClassMeasurements {
            estimates: vec![(1e-6, 1e-7); classes],
            explode: vec![false; classes],
            exploded: HashMap::new(),
        };
        let spill = SpillConfig::in_memory(scratch_dir("overflow"));
        let err = scatter_compressed_tiles(classing, &m, &spill).expect_err("must overflow");
        match err {
            SweepError::Compress(CompressError::ClassOverflow { needed }) => {
                assert_eq!(needed, classes);
            }
            other => panic!("wrong error: {other}"),
        }
    }
}
