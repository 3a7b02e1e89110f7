//! VLIW machine configurations.
//!
//! The paper evaluates ten machine sizes (Figure 5.1), written
//! `<issue>-<ALUs>-<mem accesses>-<branches>`: the number of parcels a
//! tree instruction may hold in total, how many may be ALU operations,
//! how many may be memory accesses, and how many conditional branches
//! the tree may contain. The flagship machine is configuration 10
//! (24-16-8-7) with at most 8 stores; Table 5.5 re-measures on the
//! 8-issue machine (8-8-4-3).

use std::fmt;

/// Resource class of a parcel for machine accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResClass {
    /// ALU / fixed-point operation (includes commit copies).
    Alu,
    /// Memory load.
    Load,
    /// Memory store.
    Store,
}

/// Resource usage of one tree instruction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResCounts {
    /// ALU parcels.
    pub alu: u32,
    /// Load parcels.
    pub loads: u32,
    /// Store parcels.
    pub stores: u32,
    /// Conditional branches in the tree.
    pub branches: u32,
}

impl ResCounts {
    /// Total issue parcels (branches are accounted separately, as in the
    /// paper: "7 conditional branches ... in addition").
    #[inline]
    pub fn issue(&self) -> u32 {
        self.alu + self.loads + self.stores
    }

    /// Memory parcels.
    #[inline]
    pub fn mem(&self) -> u32 {
        self.loads + self.stores
    }
}

/// A VLIW machine size.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MachineConfig {
    /// Display name, e.g. `"24-16-8-7"`.
    pub name: String,
    /// Maximum parcels per tree instruction (ALU + memory).
    pub issue: u32,
    /// Maximum ALU parcels.
    pub alu: u32,
    /// Maximum memory parcels (loads + stores).
    pub mem: u32,
    /// Maximum conditional branches per tree.
    pub branch: u32,
    /// Maximum store parcels.
    pub stores: u32,
}

impl MachineConfig {
    /// Builds a configuration in the paper's `issue-alu-mem-branch`
    /// notation, with an explicit store cap.
    pub fn new(issue: u32, alu: u32, mem: u32, branch: u32, stores: u32) -> MachineConfig {
        MachineConfig {
            name: format!("{issue}-{alu}-{mem}-{branch}"),
            issue,
            alu,
            mem,
            branch,
            stores,
        }
    }

    /// The paper's flagship machine: 24 issue, 16 ALUs, 8 memory
    /// accesses of which 8 may be stores, 7 branches (8-way branching).
    pub fn big() -> MachineConfig {
        MachineConfig::new(24, 16, 8, 7, 8)
    }

    /// The 8-issue machine of Table 5.5: 8 ALU/mem of which at most 4
    /// memory, plus 3 conditional branches.
    pub fn eight_issue() -> MachineConfig {
        MachineConfig::new(8, 8, 4, 3, 4)
    }

    /// The ten configurations of Figure 5.1, in the paper's order
    /// (configuration number = index + 1).
    pub fn paper_configs() -> Vec<MachineConfig> {
        vec![
            MachineConfig::new(4, 2, 2, 1, 2),
            MachineConfig::new(4, 4, 2, 2, 2),
            MachineConfig::new(4, 4, 4, 3, 4),
            MachineConfig::new(6, 6, 3, 3, 3),
            MachineConfig::new(8, 8, 4, 3, 4),
            MachineConfig::new(8, 8, 4, 7, 4),
            MachineConfig::new(8, 8, 8, 7, 8),
            MachineConfig::new(12, 12, 8, 7, 8),
            MachineConfig::new(16, 16, 8, 7, 8),
            MachineConfig::new(24, 16, 8, 7, 8),
        ]
    }

    /// Whether a tree with `counts` can accept one more parcel of
    /// `class`.
    #[inline]
    pub fn has_room(&self, counts: &ResCounts, class: ResClass) -> bool {
        if counts.issue() >= self.issue {
            return false;
        }
        match class {
            ResClass::Alu => counts.alu < self.alu,
            ResClass::Load => counts.mem() < self.mem,
            ResClass::Store => counts.mem() < self.mem && counts.stores < self.stores,
        }
    }

    /// Whether a tree with `counts` can accept one more conditional
    /// branch.
    #[inline]
    pub fn has_branch_room(&self, counts: &ResCounts) -> bool {
        counts.branches < self.branch
    }
}

impl fmt::Display for MachineConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_configs_match_figure_5_1() {
        let cfgs = MachineConfig::paper_configs();
        assert_eq!(cfgs.len(), 10);
        assert_eq!(cfgs[0].name, "4-2-2-1");
        assert_eq!(cfgs[9].name, "24-16-8-7");
        assert_eq!(cfgs[4].name, "8-8-4-3");
    }

    #[test]
    fn room_checks() {
        let cfg = MachineConfig::new(4, 2, 2, 1, 1);
        let mut c = ResCounts::default();
        assert!(cfg.has_room(&c, ResClass::Alu));
        c.alu = 2;
        assert!(!cfg.has_room(&c, ResClass::Alu));
        assert!(cfg.has_room(&c, ResClass::Load));
        c.loads = 1;
        c.stores = 1;
        assert!(!cfg.has_room(&c, ResClass::Load));
        assert_eq!(c.issue(), 4);
        // Issue cap binds even when the class has room.
        let cfg2 = MachineConfig::new(4, 4, 4, 1, 4);
        assert!(!cfg2.has_room(&c, ResClass::Alu));
    }

    #[test]
    fn store_cap_separate_from_mem_cap() {
        let cfg = MachineConfig::big();
        let mut c = ResCounts { stores: 8, ..ResCounts::default() };
        assert!(!cfg.has_room(&c, ResClass::Store));
        assert!(!cfg.has_room(&c, ResClass::Load)); // mem cap = 8 reached too
        c.stores = 4;
        assert!(cfg.has_room(&c, ResClass::Load));
        assert!(cfg.has_room(&c, ResClass::Store));
    }
}
