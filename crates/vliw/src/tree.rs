//! VLIW tree instructions and groups.
//!
//! "VLIW instructions are trees of operations with multiple conditional
//! branches allowed in each VLIW. All the branch conditions are
//! evaluated prior to execution of the VLIW, and ALU/Memory operations
//! from the resulting path in the VLIW are executed in parallel"
//! (paper §2). A *group* is the tree of VLIWs created for one entry
//! point of a page (`CreateVLIWGroupForEntry`).

use crate::machine::{MachineConfig, ResClass, ResCounts};
use crate::op::{OpKind, Operation};
use crate::reg::Reg;
use std::fmt;

/// Index of a VLIW within its [`Group`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VliwId(pub u32);

/// Index of a node within its [`Vliw`] tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

/// Root node of every tree.
pub const ROOT: NodeId = NodeId(0);

/// A branch condition: test one bit of a 4-bit condition value held in
/// `src` (an architected CR field or a renamed register).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cond {
    /// Register holding the 4-bit condition field value.
    pub src: Reg,
    /// Mask selecting the bit within the field (LT = 0b1000 … SO = 0b0001).
    pub mask: u32,
    /// Branch taken when the masked bit equals this.
    pub want_set: bool,
    /// `Some(T)`: this split is an indirect-branch specialization check
    /// (`if reg == T continue at T`, paper Ch. 6); the *fall* side
    /// continues at base address `T`. Needed by exception recovery.
    pub spec_target: Option<u32>,
    /// Base-architecture address of the branch instruction this split
    /// was scheduled for. Pure provenance: never consulted on the
    /// execution fast path, only at retirement/sampling points so
    /// branch-resolution work can be attributed to the guest PC that
    /// caused it (`daisy::profile`).
    pub origin: u32,
}

impl Cond {
    /// Evaluates the condition over the field's runtime value.
    pub fn holds(&self, field_value: u32) -> bool {
        (field_value & self.mask != 0) == self.want_set
    }
}

/// Which register an indirect branch goes through — used for the
/// cross-page branch statistics of Table 5.6.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IndirectVia {
    /// Through the link register.
    Lr,
    /// Through the count register.
    Ctr,
}

/// How control leaves a tree path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Exit {
    /// Fall into another VLIW of the same group (the `b VLIW2` arrows
    /// of paper Fig. 2.2). Free: not a "branch" resource.
    Goto(VliwId),
    /// Direct branch to a base-architecture address; the VMM dispatcher
    /// resolves it to an entry point (same page) or a cross-page branch.
    Branch {
        /// Base-architecture target address.
        target: u32,
    },
    /// Indirect branch through a (possibly renamed) register — the
    /// paper's `GO_ACROSS_PAGE offset(reg)`.
    Indirect {
        /// Register read for the target address.
        src: Reg,
        /// Which architected register this stands for.
        via: IndirectVia,
    },
    /// Hand the instruction at `addr` to the VMM for interpretation
    /// (`sc`, `rfi`, privileged SPR access, unsupported encodings).
    Interp {
        /// Base-architecture address of the instruction to interpret.
        addr: u32,
    },
}

/// What a tree node is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeKind {
    /// Still being extended by the scheduler; becomes `Branch` or `Exit`.
    Open,
    /// Conditional split: all conditions evaluate against VLIW-entry state.
    Branch {
        /// The tested condition.
        cond: Cond,
        /// Child when the condition holds.
        taken: NodeId,
        /// Child when it does not.
        fall: NodeId,
    },
    /// Leaf continuation.
    Exit(Exit),
}

/// One node of a tree instruction: operations executed when the taken
/// path passes through it, plus its continuation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Node {
    /// Parcels on this node.
    pub ops: Vec<Operation>,
    /// Structure.
    pub kind: NodeKind,
}

/// One VLIW tree instruction.
pub struct Vliw {
    nodes: Vec<Node>,
    /// Open, empty nodes kept from an earlier tree for their parcel
    /// lists' capacity (see [`Vliw::reset`]). Not part of the tree:
    /// equality, cloning and `Debug` ignore it.
    spare: Vec<Node>,
    counts: ResCounts,
    /// Base-architecture address corresponding to this VLIW's entry —
    /// the anchor for precise-exception recovery (paper §3.5).
    pub base_entry: u32,
}

impl Vliw {
    /// Creates an empty tree (a single open root) anchored at
    /// base-architecture address `base_entry`.
    pub fn new(base_entry: u32) -> Vliw {
        let mut v =
            Vliw { nodes: Vec::new(), spare: Vec::new(), counts: ResCounts::default(), base_entry };
        v.open_node();
        v
    }

    /// Empties the tree back to a single open root anchored at
    /// `base_entry`, as [`Vliw::new`] builds it, but keeps every node's
    /// parcel list for reuse.
    fn reset(&mut self, base_entry: u32) {
        for mut n in self.nodes.drain(..) {
            n.ops.clear();
            n.kind = NodeKind::Open;
            self.spare.push(n);
        }
        self.counts = ResCounts::default();
        self.base_entry = base_entry;
        self.open_node();
    }

    /// Appends an open node, reusing a spare one if there is one.
    #[inline]
    fn open_node(&mut self) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        let node = self.spare.pop().unwrap_or(Node { ops: Vec::new(), kind: NodeKind::Open });
        self.nodes.push(node);
        id
    }

    /// The node table.
    #[inline]
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// A node by id.
    #[inline]
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0 as usize]
    }

    /// Resource usage over the whole tree.
    #[inline]
    pub fn counts(&self) -> &ResCounts {
        &self.counts
    }

    /// Resource class of an operation for accounting.
    #[inline]
    pub fn class_of(op: &Operation) -> ResClass {
        match op.kind {
            OpKind::Load { .. } => ResClass::Load,
            OpKind::Store { .. } => ResClass::Store,
            _ => ResClass::Alu,
        }
    }

    /// True if the machine allows adding `op` to this tree.
    #[inline]
    pub fn has_room(&self, cfg: &MachineConfig, op: &Operation) -> bool {
        cfg.has_room(&self.counts, Vliw::class_of(op))
    }

    /// True if the machine allows one more conditional branch.
    #[inline]
    pub fn has_branch_room(&self, cfg: &MachineConfig) -> bool {
        cfg.has_branch_room(&self.counts)
    }

    /// Appends an operation to a node (the "tip" of some path).
    ///
    /// Ops may be added even after the node has been split or sealed:
    /// parcels on a node always execute before its branch condition or
    /// exit takes effect, so later out-of-order placements into an
    /// earlier VLIW of a path are well defined.
    #[inline]
    pub fn add_op(&mut self, node: NodeId, op: Operation) {
        match Vliw::class_of(&op) {
            ResClass::Alu => self.counts.alu += 1,
            ResClass::Load => self.counts.loads += 1,
            ResClass::Store => self.counts.stores += 1,
        }
        self.nodes[node.0 as usize].ops.push(op);
    }

    /// Splits an open node with a conditional branch, returning the
    /// `(taken, fall)` children (both open).
    ///
    /// # Panics
    ///
    /// Panics if the node is not open.
    #[inline]
    pub fn split(&mut self, node: NodeId, cond: Cond) -> (NodeId, NodeId) {
        assert!(
            matches!(self.nodes[node.0 as usize].kind, NodeKind::Open),
            "can only split an open node"
        );
        let taken = self.open_node();
        let fall = self.open_node();
        self.nodes[node.0 as usize].kind = NodeKind::Branch { cond, taken, fall };
        self.counts.branches += 1;
        (taken, fall)
    }

    /// Seals an open node with an exit.
    ///
    /// # Panics
    ///
    /// Panics if the node is not open.
    #[inline]
    pub fn seal(&mut self, node: NodeId, exit: Exit) {
        assert!(
            matches!(self.nodes[node.0 as usize].kind, NodeKind::Open),
            "can only seal an open node"
        );
        self.nodes[node.0 as usize].kind = NodeKind::Exit(exit);
    }

    /// Estimated binary size in bytes: one word per parcel, one per
    /// branch, one per exit, one header word. This stands in for the
    /// paper's generated binary VLIW code when measuring code explosion
    /// (Table 5.1, Fig. 5.4).
    pub fn code_bytes(&self) -> u32 {
        let exits =
            self.nodes.iter().filter(|n| matches!(n.kind, NodeKind::Exit(_))).count() as u32;
        4 * (1 + self.counts.issue() + self.counts.branches + exits)
    }

    /// Total parcels (ops) in the tree.
    pub fn num_ops(&self) -> u32 {
        self.counts.issue()
    }
}

// The spare nodes are not part of the tree, so the tree traits are
// written out to leave them out.
impl Clone for Vliw {
    fn clone(&self) -> Vliw {
        Vliw {
            nodes: self.nodes.clone(),
            spare: Vec::new(),
            counts: self.counts,
            base_entry: self.base_entry,
        }
    }
}

impl PartialEq for Vliw {
    fn eq(&self, other: &Vliw) -> bool {
        self.nodes == other.nodes
            && self.counts == other.counts
            && self.base_entry == other.base_entry
    }
}

impl Eq for Vliw {}

impl fmt::Debug for Vliw {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Vliw")
            .field("nodes", &self.nodes)
            .field("counts", &self.counts)
            .field("base_entry", &self.base_entry)
            .finish()
    }
}

impl fmt::Display for Vliw {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "VLIW @{:#x}:", self.base_entry)?;
        for (i, n) in self.nodes.iter().enumerate() {
            write!(f, "  n{i}:")?;
            for op in &n.ops {
                write!(f, " [{op}]")?;
            }
            match &n.kind {
                NodeKind::Open => writeln!(f, " <open>")?,
                NodeKind::Branch { cond, taken, fall } => writeln!(
                    f,
                    " if {}&{:#x}=={} -> n{} else n{}",
                    cond.src, cond.mask, cond.want_set, taken.0, fall.0
                )?,
                NodeKind::Exit(e) => writeln!(f, " exit {e:?}")?,
            }
        }
        Ok(())
    }
}

/// A group of VLIWs translated from one entry point (the unit the
/// Pathlist algorithm produces, laid out from the entry offset in the
/// translated code page).
pub struct Group {
    /// Base-architecture address of the group's entry instruction.
    pub entry: u32,
    /// The tree instructions, `vliws[0]` being the root.
    pub vliws: Vec<Vliw>,
    /// Dynamic count of base-architecture instructions covered (for
    /// diagnostics; paths overlap so this is not a code-size measure).
    pub base_instrs: u32,
    /// VLIWs of an earlier group kept for their buffers (see
    /// [`Group::reset`]); [`Group::push_vliw`] resets one before reuse.
    /// Not part of the group: equality, cloning and `Debug` ignore it.
    spare: Vec<Vliw>,
}

impl Group {
    /// Creates a group with a single empty root VLIW.
    pub fn new(entry: u32) -> Group {
        let mut g = Group { entry, vliws: Vec::new(), base_instrs: 0, spare: Vec::new() };
        g.push_vliw(entry);
        g
    }

    /// Empties the group back to a single open root VLIW at `entry`,
    /// as [`Group::new`] builds it, but keeps its VLIWs, nodes and
    /// parcel lists for reuse: a scheduler that translates into one
    /// recycled group allocates nothing once the buffers have grown.
    pub fn reset(&mut self, entry: u32) {
        self.spare.append(&mut self.vliws);
        self.entry = entry;
        self.base_instrs = 0;
        self.push_vliw(entry);
    }

    /// The VLIW with the given id.
    #[inline]
    pub fn vliw(&self, id: VliwId) -> &Vliw {
        &self.vliws[id.0 as usize]
    }

    /// Mutable access to a VLIW.
    #[inline]
    pub fn vliw_mut(&mut self, id: VliwId) -> &mut Vliw {
        &mut self.vliws[id.0 as usize]
    }

    /// Appends a new empty VLIW anchored at `base_entry`, returning its id.
    #[inline]
    pub fn push_vliw(&mut self, base_entry: u32) -> VliwId {
        let id = VliwId(self.vliws.len() as u32);
        let v = match self.spare.pop() {
            Some(mut v) => {
                v.reset(base_entry);
                v
            }
            None => Vliw::new(base_entry),
        };
        self.vliws.push(v);
        id
    }

    /// Number of VLIWs.
    #[inline]
    pub fn len(&self) -> usize {
        self.vliws.len()
    }

    /// True when the group has no VLIWs (never after construction).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.vliws.is_empty()
    }

    /// Total estimated binary size of the group in bytes.
    pub fn code_bytes(&self) -> u32 {
        self.vliws.iter().map(Vliw::code_bytes).sum()
    }

    /// Checks the structural invariants a finished translation must
    /// satisfy; returns the first violation.
    ///
    /// * no node is left `Open` (every path was sealed),
    /// * every `Goto` targets a later VLIW of the group, so the group
    ///   is acyclic: one entry visits each VLIW at most once (a loop's
    ///   back edge leaves the group, and the loop re-dispatches),
    /// * branch and child node ids are in range,
    /// * commit parcels write architected registers from renamed ones.
    ///
    /// # Errors
    ///
    /// Returns a description of the violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        for (vi, v) in self.vliws.iter().enumerate() {
            for (ni, n) in v.nodes().iter().enumerate() {
                for op in &n.ops {
                    if op.is_commit {
                        let d =
                            op.dest.ok_or_else(|| format!("v{vi}/n{ni}: commit without dest"))?;
                        if !d.is_architected() {
                            return Err(format!("v{vi}/n{ni}: commit into rename reg {d}"));
                        }
                        if !op.srcs().first().is_some_and(|s| s.is_rename()) {
                            return Err(format!("v{vi}/n{ni}: commit not from a rename reg"));
                        }
                    }
                    if op.speculative {
                        for d in [op.dest, op.dest2].into_iter().flatten() {
                            if d.is_architected() {
                                return Err(format!(
                                    "v{vi}/n{ni}: speculative op writes architected {d}"
                                ));
                            }
                        }
                    }
                }
                match &n.kind {
                    NodeKind::Open => return Err(format!("v{vi}/n{ni}: node left open")),
                    NodeKind::Branch { taken, fall, .. } => {
                        if taken.0 as usize >= v.nodes().len() || fall.0 as usize >= v.nodes().len()
                        {
                            return Err(format!("v{vi}/n{ni}: branch child out of range"));
                        }
                    }
                    NodeKind::Exit(Exit::Goto(t)) => {
                        if t.0 as usize >= self.vliws.len() {
                            return Err(format!("v{vi}/n{ni}: goto out of range"));
                        }
                        if t.0 as usize <= vi {
                            return Err(format!("v{vi}/n{ni}: backward goto to v{}", t.0));
                        }
                    }
                    NodeKind::Exit(_) => {}
                }
            }
        }
        Ok(())
    }
}

// The spare VLIWs are not part of the group, so the tree traits are
// written out to leave them out.
impl Clone for Group {
    fn clone(&self) -> Group {
        Group {
            entry: self.entry,
            vliws: self.vliws.clone(),
            base_instrs: self.base_instrs,
            spare: Vec::new(),
        }
    }
}

impl PartialEq for Group {
    fn eq(&self, other: &Group) -> bool {
        self.entry == other.entry
            && self.vliws == other.vliws
            && self.base_instrs == other.base_instrs
    }
}

impl Eq for Group {}

impl fmt::Debug for Group {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Group")
            .field("entry", &self.entry)
            .field("vliws", &self.vliws)
            .field("base_instrs", &self.base_instrs)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::MemWidth;

    fn alu_op() -> Operation {
        Operation::new(OpKind::Add, 0).dst(Reg(32)).src(Reg(1)).src(Reg(2))
    }

    #[test]
    fn build_a_tree() {
        let mut v = Vliw::new(0x1000);
        v.add_op(ROOT, alu_op());
        let cond =
            Cond { src: Reg(64), mask: 0b0010, want_set: true, spec_target: None, origin: 0x1000 };
        let (t, fall) = v.split(ROOT, cond);
        v.seal(t, Exit::Branch { target: 0x2000 });
        v.add_op(fall, alu_op());
        v.seal(fall, Exit::Goto(VliwId(1)));

        assert_eq!(v.counts().alu, 2);
        assert_eq!(v.counts().branches, 1);
        assert_eq!(v.nodes().len(), 3);
        match v.node(ROOT).kind {
            NodeKind::Branch { taken, fall: f2, .. } => {
                assert_eq!(taken, t);
                assert_eq!(f2, fall);
            }
            _ => panic!("root should be a branch"),
        }
    }

    #[test]
    fn ops_may_follow_a_seal() {
        // Out-of-order placement into an earlier, already-sealed VLIW.
        let mut v = Vliw::new(0);
        v.seal(ROOT, Exit::Goto(VliwId(1)));
        v.add_op(ROOT, alu_op());
        assert_eq!(v.counts().alu, 1);
    }

    #[test]
    fn resource_counting_by_class() {
        let mut v = Vliw::new(0);
        v.add_op(ROOT, alu_op());
        v.add_op(
            ROOT,
            Operation::new(OpKind::Load { width: MemWidth::Word, algebraic: false }, 0)
                .dst(Reg(33))
                .src(Reg(1)),
        );
        v.add_op(
            ROOT,
            Operation::new(OpKind::Store { width: MemWidth::Byte }, 0).src(Reg(2)).src(Reg(1)),
        );
        assert_eq!(v.counts().alu, 1);
        assert_eq!(v.counts().loads, 1);
        assert_eq!(v.counts().stores, 1);
        assert_eq!(v.counts().issue(), 3);
        assert_eq!(v.num_ops(), 3);
    }

    #[test]
    fn cond_evaluation() {
        let c =
            Cond { src: Reg(64), mask: 0b0010, want_set: true, spec_target: None, origin: 0x1000 };
        assert!(c.holds(0b0010));
        assert!(!c.holds(0b1000));
        let c =
            Cond { src: Reg(64), mask: 0b0010, want_set: false, spec_target: None, origin: 0x1000 };
        assert!(!c.holds(0b0010));
        assert!(c.holds(0b0100));
    }

    #[test]
    fn validate_catches_structural_violations() {
        // Open node.
        let g = Group::new(0x1000);
        assert!(g.validate().unwrap_err().contains("open"));

        // A goto to the same VLIW or an earlier one would make a cycle.
        let mut g = Group::new(0x1000);
        g.vliw_mut(VliwId(0)).seal(ROOT, Exit::Goto(VliwId(0)));
        assert!(g.validate().unwrap_err().contains("backward goto to v0"));
        let mut g = Group::new(0x1000);
        let next = g.push_vliw(0x1004);
        g.vliw_mut(VliwId(0)).seal(ROOT, Exit::Goto(next));
        g.vliw_mut(next).seal(ROOT, Exit::Goto(VliwId(0)));
        assert!(g.validate().unwrap_err().contains("v1/n0: backward goto to v0"));

        // Out of range.
        let mut g = Group::new(0x1000);
        g.vliw_mut(VliwId(0)).seal(ROOT, Exit::Goto(VliwId(7)));
        assert!(g.validate().unwrap_err().contains("range"));

        // Speculative op writing an architected register.
        let mut g = Group::new(0x1000);
        let mut op = Operation::new(OpKind::Add, 0).dst(Reg(3)).src(Reg(1)).src(Reg(2));
        op.speculative = true;
        g.vliw_mut(VliwId(0)).add_op(ROOT, op);
        g.vliw_mut(VliwId(0)).seal(ROOT, Exit::Interp { addr: 0 });
        assert!(g.validate().unwrap_err().contains("architected"));

        // Commit from an architected (non-rename) source.
        let mut g = Group::new(0x1000);
        let mut op = Operation::new(OpKind::Copy, 0).dst(Reg(3)).src(Reg(4));
        op.is_commit = true;
        g.vliw_mut(VliwId(0)).add_op(ROOT, op);
        g.vliw_mut(VliwId(0)).seal(ROOT, Exit::Interp { addr: 0 });
        assert!(g.validate().unwrap_err().contains("rename"));

        // A well-formed group passes.
        let mut g = Group::new(0x1000);
        let next = g.push_vliw(0x1004);
        g.vliw_mut(VliwId(0)).seal(ROOT, Exit::Goto(next));
        g.vliw_mut(next).seal(ROOT, Exit::Branch { target: 0x2000 });
        assert_eq!(g.validate(), Ok(()));
    }

    /// Builds a two-VLIW tree with a split and parcels on every node.
    fn build_two_vliws(g: &mut Group) {
        let next = g.push_vliw(0x1004);
        let cond =
            Cond { src: Reg(64), mask: 0b0010, want_set: true, spec_target: None, origin: 0x1000 };
        let root = g.vliw_mut(VliwId(0));
        root.add_op(ROOT, alu_op());
        let (t, f) = root.split(ROOT, cond);
        root.add_op(t, alu_op());
        root.add_op(f, alu_op());
        root.seal(t, Exit::Goto(next));
        root.seal(f, Exit::Branch { target: 0x2000 });
        g.vliw_mut(next).add_op(ROOT, alu_op());
        g.vliw_mut(next).seal(ROOT, Exit::Interp { addr: 0x1008 });
        g.base_instrs = 3;
    }

    #[test]
    fn a_reset_group_is_a_new_group() {
        let mut g = Group::new(0x1000);
        build_two_vliws(&mut g);
        let built = g.clone();
        assert_eq!(built.vliw(VliwId(0)).nodes().len(), 3);

        // Every recycled VLIW and node comes back empty and open, and
        // the spare buffers show in neither equality nor `Debug`.
        g.reset(0x3000);
        assert_eq!(g, Group::new(0x3000));
        assert_eq!(format!("{g:?}"), format!("{:?}", Group::new(0x3000)));
        let v = g.push_vliw(0x3004);
        assert_eq!(*g.vliw(v), Vliw::new(0x3004));

        // Rebuilding the tree in the recycled group gives it back.
        g.reset(0x1000);
        build_two_vliws(&mut g);
        assert_eq!(g, built);
        assert_eq!(format!("{g:?}"), format!("{built:?}"));
    }

    #[test]
    fn group_growth_and_size() {
        let mut g = Group::new(0x1000);
        assert_eq!(g.len(), 1);
        let v2 = g.push_vliw(0x1008);
        assert_eq!(v2, VliwId(1));
        g.vliw_mut(v2).add_op(ROOT, alu_op());
        g.vliw_mut(v2).seal(ROOT, Exit::Branch { target: 0x1010 });
        g.vliw_mut(VliwId(0)).seal(ROOT, Exit::Goto(v2));
        // vliw0: header + exit = 8; vliw1: header + op + exit = 12.
        assert_eq!(g.code_bytes(), 20);
    }
}
