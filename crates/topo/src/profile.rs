//! On-disk topology profiles.
//!
//! The method overview (Fig. 1 of the paper) decouples profiling from
//! tuning by "storing the collected maps on disk", so candidate algorithms
//! can be costed off-line "without occupying the target machine". A
//! [`TopologyProfile`] is that stored artifact: the machine identity, the
//! placement it was measured under, and the `O`/`L` matrices.
//! [`CompactProfile`] is the same artifact with the costs kept
//! class-compressed — megabytes where the matrices are gigabytes — and
//! [`StoredProfile`] reads a file of either form.

use crate::compressed::CompressedCostModel;
use crate::cost::{CostMatrices, CostProvider};
use crate::machine::MachineSpec;
use crate::mapping::RankMapping;
use hbar_matrix::DenseMatrix;
use serde::{Deserialize, Serialize};
use std::fs;
use std::io;
use std::path::Path;

/// A measured (or analytically derived) topology profile for `P` ranks.
///
/// Predictions made from a profile are only valid for executions that use
/// the same machine and rank placement (paper §III) — the consistency that
/// affinity control enforces on real systems. [`Self::placement_matches`]
/// makes that check explicit.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TopologyProfile {
    /// The machine the profile was collected on.
    pub machine: MachineSpec,
    /// The rank→core placement in effect during collection.
    pub mapping: RankMapping,
    /// Number of ranks profiled.
    pub p: usize,
    /// The `O` and `L` matrices (seconds).
    pub cost: CostMatrices,
}

impl TopologyProfile {
    /// Builds a noise-free profile directly from the machine's ground
    /// truth. This is what an ideal, infinitely repeated benchmark run
    /// would converge to; tests and examples use it when measurement noise
    /// is irrelevant. The full system measures its profile with
    /// `hbar_simnet::measure_profile_decomposed`, which runs the paper's
    /// benchmark procedure on the simulator (`SweepConfig::exact`: every
    /// pair, as §IV-A prescribes).
    pub fn from_ground_truth(machine: &MachineSpec, mapping: &RankMapping) -> Self {
        Self::from_ground_truth_for(machine, mapping, machine.total_cores())
    }

    /// Like [`Self::from_ground_truth`] but for the first `p` ranks only.
    pub fn from_ground_truth_for(machine: &MachineSpec, mapping: &RankMapping, p: usize) -> Self {
        let cores = mapping.place(machine, p);
        let gt = &machine.ground_truth;
        let o = DenseMatrix::from_fn(p, |i, j| {
            if i == j {
                gt.effective_oii()
            } else {
                gt.effective_o(machine.link_class(cores[i], cores[j]))
            }
        });
        let l = DenseMatrix::from_fn(p, |i, j| {
            if i == j {
                0.0
            } else {
                gt.effective_l(machine.link_class(cores[i], cores[j]))
            }
        });
        TopologyProfile {
            machine: machine.clone(),
            mapping: mapping.clone(),
            p,
            cost: CostMatrices { o, l },
        }
    }

    /// True if `machine`/`mapping`/`p` match the conditions this profile
    /// was collected under, i.e. predictions from it are valid.
    pub fn placement_matches(
        &self,
        machine: &MachineSpec,
        mapping: &RankMapping,
        p: usize,
    ) -> bool {
        self.p == p && &self.machine == machine && &self.mapping == mapping
    }

    /// Restriction to the first `p` ranks (placements are prefixes, so a
    /// smaller run under the same mapping reuses the same leading cores
    /// only when the mapping is prefix-stable — true for [`RankMapping::Block`]
    /// and [`RankMapping::Custom`], *not* for round-robin, whose node count
    /// depends on `p`).
    ///
    /// # Panics
    /// Panics if `p` exceeds the profile size.
    pub fn truncate(&self, p: usize) -> Self {
        assert!(
            p <= self.p,
            "cannot truncate {}-rank profile to {p}",
            self.p
        );
        let idx: Vec<usize> = (0..p).collect();
        TopologyProfile {
            machine: self.machine.clone(),
            mapping: self.mapping.clone(),
            p,
            cost: self.cost.submatrices(&idx),
        }
    }

    /// Serializes to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("profile serialization cannot fail")
    }

    /// Deserializes from JSON.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }

    /// Writes the profile to `path` as JSON.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        fs::write(path, self.to_json())
    }

    /// Reads a profile from `path`.
    pub fn load(path: &Path) -> io::Result<Self> {
        let text = fs::read_to_string(path)?;
        Self::from_json(&text).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }
}

/// A profile whose costs stay class-compressed (what
/// `hbar profile --compressed` writes): the model's kind map and value
/// tables instead of two `p × p` matrices. Reading one validates the model
/// exactly as building it did.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CompactProfile {
    /// The machine the profile was collected on.
    pub machine: MachineSpec,
    /// The rank→core placement in effect during collection.
    pub mapping: RankMapping,
    /// Number of ranks profiled.
    pub p: usize,
    /// The cost model.
    pub model: CompressedCostModel,
}

impl CompactProfile {
    /// Writes the profile to `path` as JSON (one line: the kind table has
    /// millions of entries).
    pub fn save(&self, path: &Path) -> io::Result<()> {
        fs::write(
            path,
            serde_json::to_string(self).expect("profile serialization cannot fail"),
        )
    }
}

/// A profile file of either form.
#[derive(Clone, Debug, PartialEq)]
pub enum StoredProfile {
    Dense(TopologyProfile),
    Compact(CompactProfile),
}

impl StoredProfile {
    /// Deserializes either form from JSON; a compact profile is one with
    /// a `model`. A malformed model is an error like any other.
    pub fn from_json(json: &str) -> Result<Self, String> {
        let document: serde::Value = serde_json::from_str(json).map_err(|e| e.to_string())?;
        if document.get("model").is_none() {
            return TopologyProfile::from_value(&document).map(StoredProfile::Dense);
        }
        let profile = CompactProfile::from_value(&document)?;
        if profile.model.p() != profile.p {
            return Err(format!(
                "profile of {} ranks holds a model of {}",
                profile.p,
                profile.model.p()
            ));
        }
        Ok(StoredProfile::Compact(profile))
    }

    /// Writes the profile to `path` in the form it has.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        match self {
            StoredProfile::Dense(profile) => profile.save(path),
            StoredProfile::Compact(profile) => profile.save(path),
        }
    }

    /// Reads a profile of either form from `path`.
    pub fn load(path: &Path) -> io::Result<Self> {
        let text = fs::read_to_string(path)?;
        Self::from_json(&text).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }

    /// The machine the profile was collected on.
    pub fn machine(&self) -> &MachineSpec {
        match self {
            StoredProfile::Dense(profile) => &profile.machine,
            StoredProfile::Compact(profile) => &profile.machine,
        }
    }

    /// The rank→core placement in effect during collection.
    pub fn mapping(&self) -> &RankMapping {
        match self {
            StoredProfile::Dense(profile) => &profile.mapping,
            StoredProfile::Compact(profile) => &profile.mapping,
        }
    }

    /// Number of ranks profiled.
    pub fn p(&self) -> usize {
        match self {
            StoredProfile::Dense(profile) => profile.p,
            StoredProfile::Compact(profile) => profile.p,
        }
    }

    /// The costs, in whichever storage the file had them.
    pub fn cost(&self) -> &dyn CostProvider {
        match self {
            StoredProfile::Dense(profile) => &profile.cost,
            StoredProfile::Compact(profile) => &profile.model,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::LinkClass;

    #[test]
    fn stored_profile_reads_both_forms() {
        let m = MachineSpec::new(2, 2, 2);
        let dense = TopologyProfile::from_ground_truth(&m, &RankMapping::Block);
        let compact = CompactProfile {
            machine: m.clone(),
            mapping: RankMapping::Block,
            p: dense.p,
            model: CompressedCostModel::from_dense(&dense.cost).unwrap(),
        };
        let dir = std::env::temp_dir().join("hbar_topo_stored_profile_test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("compact.json");
        StoredProfile::Compact(compact.clone()).save(&path).unwrap();
        let back = StoredProfile::load(&path).unwrap();
        assert_eq!(back, StoredProfile::Compact(compact.clone()));
        fs::remove_file(&path).ok();
        let read = StoredProfile::from_json(&dense.to_json()).unwrap();
        assert_eq!(read, StoredProfile::Dense(dense.clone()));
        for profile in [&back, &read] {
            assert_eq!((profile.p(), profile.machine()), (8, &m));
            assert_eq!(profile.mapping(), &RankMapping::Block);
            for (i, j) in (0..8).flat_map(|i| (0..8).map(move |j| (i, j))) {
                assert_eq!(
                    profile.cost().o_at(i, j).to_bits(),
                    dense.cost.o[(i, j)].to_bits()
                );
                assert_eq!(
                    profile.cost().l_at(i, j).to_bits(),
                    dense.cost.l[(i, j)].to_bits()
                );
            }
        }
        // The rank count stated twice has to agree, and what a model
        // rejects a file cannot smuggle in.
        let short = CompactProfile { p: 7, ..compact };
        let json = serde_json::to_string(&short).unwrap();
        let err = StoredProfile::from_json(&json).unwrap_err();
        assert!(err.contains("7 ranks"), "{err}");
        let err =
            StoredProfile::from_json(&json.replace("\"kinds\":8", "\"kinds\":9")).unwrap_err();
        assert!(err.contains("expected 9x9"), "{err}");
    }

    #[test]
    fn ground_truth_profile_reflects_link_classes() {
        let m = MachineSpec::dual_quad_cluster(2);
        let prof = TopologyProfile::from_ground_truth(&m, &RankMapping::Block);
        assert_eq!(prof.p, 16);
        let gt = &m.ground_truth;
        // Ranks 0,1 share a socket; 0,4 cross sockets; 0,8 cross nodes.
        assert_eq!(prof.cost.o[(0, 1)], gt.effective_o(LinkClass::SameSocket));
        assert_eq!(prof.cost.o[(0, 4)], gt.effective_o(LinkClass::CrossSocket));
        assert_eq!(prof.cost.o[(0, 8)], gt.effective_o(LinkClass::InterNode));
        assert_eq!(prof.cost.o[(3, 3)], gt.effective_oii());
        assert_eq!(prof.cost.l[(2, 2)], 0.0);
    }

    #[test]
    fn ground_truth_profile_is_symmetric() {
        let m = MachineSpec::dual_hex_cluster(3);
        let prof = TopologyProfile::from_ground_truth(&m, &RankMapping::RoundRobin);
        assert!(prof.cost.o.is_symmetric());
        assert!(prof.cost.l.is_symmetric());
    }

    #[test]
    fn json_roundtrip() {
        let m = MachineSpec::new(2, 2, 2);
        let prof = TopologyProfile::from_ground_truth(&m, &RankMapping::RoundRobin);
        let back = TopologyProfile::from_json(&prof.to_json()).unwrap();
        assert_eq!(back, prof);
    }

    #[test]
    fn save_load_roundtrip() {
        let m = MachineSpec::new(1, 2, 2);
        let prof = TopologyProfile::from_ground_truth(&m, &RankMapping::Block);
        let dir = std::env::temp_dir().join("hbar_topo_profile_test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("profile.json");
        prof.save(&path).unwrap();
        let back = TopologyProfile::load(&path).unwrap();
        assert_eq!(back, prof);
        fs::remove_file(&path).ok();
    }

    #[test]
    fn placement_match_detects_mismatch() {
        let m = MachineSpec::new(2, 1, 2);
        let prof = TopologyProfile::from_ground_truth(&m, &RankMapping::Block);
        assert!(prof.placement_matches(&m, &RankMapping::Block, 4));
        assert!(!prof.placement_matches(&m, &RankMapping::RoundRobin, 4));
        assert!(!prof.placement_matches(&m, &RankMapping::Block, 3));
        let other = MachineSpec::new(2, 1, 3);
        assert!(!prof.placement_matches(&other, &RankMapping::Block, 4));
    }

    #[test]
    fn truncate_restricts_matrices() {
        let m = MachineSpec::new(2, 1, 2);
        let prof = TopologyProfile::from_ground_truth(&m, &RankMapping::Block);
        let small = prof.truncate(2);
        assert_eq!(small.p, 2);
        assert_eq!(small.cost.o[(0, 1)], prof.cost.o[(0, 1)]);
    }

    #[test]
    #[should_panic(expected = "cannot truncate")]
    fn truncate_beyond_size_panics() {
        let m = MachineSpec::new(1, 1, 2);
        TopologyProfile::from_ground_truth(&m, &RankMapping::Block).truncate(5);
    }
}
