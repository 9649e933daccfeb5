//! A directory-backed library of topology profiles.
//!
//! §VIII of the paper identifies the missing piece for using tuned
//! barriers from unmodified applications: "Implementing a solution which
//! stores the profile in a manner which can be efficiently indexed at
//! run-time would alleviate this problem." A [`ProfileLibrary`] is that
//! store: profiles keyed by (machine name, placement policy, rank
//! count), one JSON file each, with an in-memory index built once at
//! open time so run-time lookups are hash-map hits.

use crate::cost::Fnv;
use crate::machine::MachineSpec;
use crate::mapping::RankMapping;
use crate::profile::TopologyProfile;
use std::collections::HashMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// The lookup key of a stored profile.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct ProfileKey {
    pub machine_name: String,
    pub mapping_tag: String,
    pub p: usize,
}

impl ProfileKey {
    /// The key under which a profile would be stored.
    pub fn of(profile: &TopologyProfile) -> Self {
        ProfileKey {
            machine_name: profile.machine.name.clone(),
            mapping_tag: mapping_tag(&profile.mapping),
            p: profile.p,
        }
    }

    fn file_name(&self) -> String {
        // Machine names are generated identifiers; sanitize defensively.
        let safe: String = self
            .machine_name
            .chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() || c == '-' {
                    c
                } else {
                    '_'
                }
            })
            .collect();
        format!("{safe}__{}__{}.profile.json", self.mapping_tag, self.p)
    }
}

/// A short, stable tag per placement policy.
fn mapping_tag(mapping: &RankMapping) -> String {
    match mapping {
        RankMapping::RoundRobin => "rr".into(),
        RankMapping::Block => "block".into(),
        RankMapping::Custom(cores) => {
            // Content-derived tag so distinct custom placements don't
            // collide.
            let mut h = Fnv::default();
            for &c in cores {
                h.word(c as u64);
            }
            format!("custom{:016x}", h.0)
        }
    }
}

/// A directory of stored profiles with an in-memory index.
pub struct ProfileLibrary {
    dir: PathBuf,
    index: HashMap<ProfileKey, PathBuf>,
}

impl ProfileLibrary {
    /// Opens (creating if needed) a library at `dir` and indexes its
    /// contents. Files that fail to parse are skipped.
    pub fn open(dir: &Path) -> io::Result<Self> {
        fs::create_dir_all(dir)?;
        let mut index = HashMap::new();
        for entry in fs::read_dir(dir)? {
            let path = entry?.path();
            if path.extension().and_then(|e| e.to_str()) != Some("json") {
                continue;
            }
            if let Ok(profile) = TopologyProfile::load(&path) {
                index.insert(ProfileKey::of(&profile), path);
            }
        }
        Ok(ProfileLibrary {
            dir: dir.to_path_buf(),
            index,
        })
    }

    /// Number of indexed profiles.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True if the library holds no profiles.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Stores a profile (overwriting any existing entry with the same
    /// key) and indexes it.
    pub fn store(&mut self, profile: &TopologyProfile) -> io::Result<()> {
        let key = ProfileKey::of(profile);
        let path = self.dir.join(key.file_name());
        profile.save(&path)?;
        self.index.insert(key, path);
        Ok(())
    }

    /// Looks up the profile for an exact (machine, mapping, p) triple.
    pub fn lookup(
        &self,
        machine: &MachineSpec,
        mapping: &RankMapping,
        p: usize,
    ) -> io::Result<Option<TopologyProfile>> {
        let key = ProfileKey {
            machine_name: machine.name.clone(),
            mapping_tag: mapping_tag(mapping),
            p,
        };
        match self.index.get(&key) {
            None => Ok(None),
            Some(path) => TopologyProfile::load(path).map(Some),
        }
    }

    /// All indexed keys (unordered).
    pub fn keys(&self) -> impl Iterator<Item = &ProfileKey> {
        self.index.keys()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("hbar_profile_lib_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// A custom placement's file name, pinned: it names files on disk.
    #[test]
    fn custom_mapping_file_name_is_pinned() {
        let machine = MachineSpec::dual_quad_cluster(2);
        let mapping = RankMapping::Custom(vec![3, 0, 9, 14]);
        let prof = TopologyProfile::from_ground_truth_for(&machine, &mapping, 4);
        assert_eq!(
            ProfileKey::of(&prof).file_name(),
            "dual-quad-2n__customed3eae87f41dbbf9__4.profile.json"
        );
    }

    #[test]
    fn store_and_lookup_roundtrip() {
        let dir = tmpdir("roundtrip");
        let mut lib = ProfileLibrary::open(&dir).unwrap();
        assert!(lib.is_empty());
        let machine = MachineSpec::dual_quad_cluster(2);
        let prof = TopologyProfile::from_ground_truth(&machine, &RankMapping::RoundRobin);
        lib.store(&prof).unwrap();
        assert_eq!(lib.len(), 1);
        let hit = lib.lookup(&machine, &RankMapping::RoundRobin, 16).unwrap();
        assert_eq!(hit, Some(prof));
        // Different mapping or size misses.
        assert!(lib
            .lookup(&machine, &RankMapping::Block, 16)
            .unwrap()
            .is_none());
        assert!(lib
            .lookup(&machine, &RankMapping::RoundRobin, 8)
            .unwrap()
            .is_none());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reopening_rebuilds_index() {
        let dir = tmpdir("reopen");
        let machine = MachineSpec::dual_hex_cluster(1);
        {
            let mut lib = ProfileLibrary::open(&dir).unwrap();
            for p in [4usize, 8, 12] {
                let prof = TopologyProfile::from_ground_truth_for(&machine, &RankMapping::Block, p);
                lib.store(&prof).unwrap();
            }
        }
        let lib = ProfileLibrary::open(&dir).unwrap();
        assert_eq!(lib.len(), 3);
        let hit = lib.lookup(&machine, &RankMapping::Block, 8).unwrap();
        assert!(hit.is_some());
        assert_eq!(hit.unwrap().p, 8);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn custom_mappings_do_not_collide() {
        let dir = tmpdir("custom");
        let mut lib = ProfileLibrary::open(&dir).unwrap();
        let machine = MachineSpec::new(1, 1, 4);
        let m1 = RankMapping::Custom(vec![0, 1]);
        let m2 = RankMapping::Custom(vec![2, 3]);
        let p1 = TopologyProfile::from_ground_truth_for(&machine, &m1, 2);
        let p2 = TopologyProfile::from_ground_truth_for(&machine, &m2, 2);
        lib.store(&p1).unwrap();
        lib.store(&p2).unwrap();
        assert_eq!(lib.len(), 2);
        assert_eq!(lib.lookup(&machine, &m1, 2).unwrap(), Some(p1));
        assert_eq!(lib.lookup(&machine, &m2, 2).unwrap(), Some(p2));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn store_overwrites_same_key() {
        let dir = tmpdir("overwrite");
        let mut lib = ProfileLibrary::open(&dir).unwrap();
        let machine = MachineSpec::new(1, 1, 2);
        let mut prof = TopologyProfile::from_ground_truth(&machine, &RankMapping::Block);
        lib.store(&prof).unwrap();
        prof.cost.o[(0, 1)] *= 2.0;
        lib.store(&prof).unwrap();
        assert_eq!(lib.len(), 1);
        let hit = lib
            .lookup(&machine, &RankMapping::Block, 2)
            .unwrap()
            .unwrap();
        assert_eq!(hit.cost.o[(0, 1)], prof.cost.o[(0, 1)]);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unparseable_files_are_skipped() {
        let dir = tmpdir("garbage");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("junk.profile.json"), "not json").unwrap();
        let lib = ProfileLibrary::open(&dir).unwrap();
        assert!(lib.is_empty());
        fs::remove_dir_all(&dir).ok();
    }
}
