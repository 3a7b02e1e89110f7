//! The deterministic translation pin the `pins` binary writes.
//!
//! `BENCH_translate.json` ([`translate_json`]) holds, per paper workload
//! and translator configuration, the groups translated, their summed
//! [`XlateCost`] and a 64-bit FNV-1a digest over an explicit byte
//! encoding of every group. Static configurations translate every word
//! address of the program; the interpretive one runs the workload and
//! hashes the packed form of every live translation. Any scheduler
//! change that moves one operand of one group changes the digest.
//!
//! Every figure is a simulated count or a digest, so a regenerated copy
//! must match the committed one byte for byte (`scripts/ci.sh` `cmp`s
//! it, and `tests/translate_pin.rs` checks [`translate_json`] inside
//! the test suite). The work counts of whole runs are pinned by
//! `BENCH_health.json` (see [`crate::health`]); host time is measured
//! by `daisybench`, not here.

use daisy::prelude::*;
use daisy::sched::{translate_group, XlateCost};
use daisy_baseline::{profile, trad};
use daisy_ppc::mem::Memory;
use daisy_ppc::PpcIsa;
use daisy_vliw::machine::MachineConfig;
use daisy_vliw::op::{CrOp, MemWidth, OpKind, Operation};
use daisy_vliw::packed::{PackedCtrl, PackedGroup};
use daisy_vliw::reg::Reg;
use daisy_vliw::tree::{Cond, Exit, Group, IndirectVia, NodeKind};
use daisy_workloads::Workload;

/// Runs `w` to completion on a system from `builder` and checks its
/// result.
fn run(w: &Workload, builder: DaisySystemBuilder<PpcIsa>) -> DaisySystem<PpcIsa> {
    let mut sys = builder.mem_size(w.mem_size).build();
    sys.load(&w.program()).expect("workload fits in memory");
    sys.run(10 * w.max_instrs).expect("DAISY run");
    w.check(&sys.cpu, &sys.mem).unwrap_or_else(|e| panic!("{}: wrong guest result: {e}", w.name));
    sys
}

/// The static translator configurations of [`translate_json`], by
/// column name. `whole_program` is the traditional-compiler baseline
/// (Table 5.2), profiled on the workload itself.
fn static_configs(w: &Workload) -> Vec<(&'static str, TranslatorConfig)> {
    let base = TranslatorConfig::default;
    let mut pmem = Memory::new(w.mem_size);
    let prog = w.program();
    prog.load_into(&mut pmem).expect("workload fits in memory");
    let prof = profile::collect(&mut pmem, prog.entry, w.max_instrs);
    vec![
        ("default", base()),
        ("page256", TranslatorConfig { page_size: 256, ..base() }),
        ("no_spec", TranslatorConfig { speculate_loads: false, ..base() }),
        ("whole_program", trad::traditional_config(MachineConfig::big(), prof)),
    ]
}

/// One cell of [`translate_json`].
fn translate_cell(groups: u64, cost: &XlateCost, digest: u64) -> String {
    format!(
        concat!(
            "{{\"groups\": {}, \"instrs_scheduled\": {}, \"ops_placed\": {}, ",
            "\"paths\": {}, \"digest\": \"{:016x}\"}}"
        ),
        groups, cost.instrs_scheduled, cost.ops_placed, cost.paths, digest
    )
}

/// The translation digest document (see the [module docs](self)).
pub fn translate_json() -> String {
    let rows: Vec<String> = daisy_workloads::all()
        .iter()
        .map(|w| {
            let prog = w.program();
            let mut mem = Memory::new(w.mem_size);
            prog.load_into(&mut mem).expect("workload fits in memory");
            let mut cells: Vec<String> = static_configs(w)
                .iter()
                .map(|(name, cfg)| {
                    let (mut h, mut cost) = (Fnv::new(), XlateCost::default());
                    let words = prog.code_size() / 4;
                    for addr in (0..words).map(|i| prog.base + 4 * i) {
                        let (group, c) = translate_group::<PpcIsa>(cfg, &mem, addr);
                        h.group(&group);
                        h.cost(&c);
                        cost.add(&c);
                    }
                    format!("\"{name}\": {}", translate_cell(u64::from(words), &cost, h.0))
                })
                .collect();
            let interpretive =
                TranslatorConfig { interpretive: true, ..TranslatorConfig::default() };
            let sys = run(w, DaisySystem::builder().translator(interpretive));
            let mut h = Fnv::new();
            for entry in sys.vmm.live_entries() {
                let code = sys.vmm.lookup(entry).expect("live entries have translations");
                h.u32(entry);
                h.packed(&code.packed);
            }
            h.cost(&sys.vmm.cost);
            let groups = sys.vmm.stats.groups_translated;
            cells.push(format!("\"interpretive\": {}", translate_cell(groups, &sys.vmm.cost, h.0)));
            format!("    {{\"name\": \"{}\", {}}}", w.name, cells.join(", "))
        })
        .collect();
    format!("{{\n  \"bench\": \"translate\",\n  \"workloads\": [\n{}\n  ]\n}}\n", rows.join(",\n"))
}

/// 64-bit FNV-1a over an explicit little-endian encoding of translator
/// output. Every field is written by hand (no `Debug` text), so the
/// digest moves only when a translation does, not when a type is
/// reshaped or renamed.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u8(&mut self, b: u8) {
        self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }

    fn u32(&mut self, v: u32) {
        v.to_le_bytes().into_iter().for_each(|b| self.u8(b));
    }

    fn u64(&mut self, v: u64) {
        v.to_le_bytes().into_iter().for_each(|b| self.u8(b));
    }

    fn reg(&mut self, r: Reg) {
        self.u8(r.0);
    }

    fn opt_reg(&mut self, r: Option<Reg>) {
        match r {
            Some(r) => {
                self.u8(1);
                self.reg(r);
            }
            None => self.u8(0),
        }
    }

    fn cost(&mut self, c: &XlateCost) {
        self.u64(c.instrs_scheduled);
        self.u64(c.ops_placed);
        self.u64(c.paths);
    }

    fn width(&mut self, w: MemWidth) {
        self.u8(match w {
            MemWidth::Byte => 1,
            MemWidth::Half => 2,
            MemWidth::Word => 4,
        });
    }

    fn kind(&mut self, k: OpKind) {
        use OpKind::*;
        let code = match k {
            Nop => 0,
            Li => 1,
            Copy => 2,
            Add => 3,
            Subf => 4,
            AddImm => 5,
            Mul => 6,
            MulImm => 7,
            Mulh => 8,
            Mulhu => 9,
            Div => 10,
            Divu => 11,
            Neg => 12,
            AddC => 13,
            AddE => 14,
            SubfC => 15,
            SubfE => 16,
            AddZe => 17,
            AddMe => 18,
            SubfZe => 19,
            SubfMe => 20,
            AddImmC => 21,
            SubfImmC => 22,
            And => 23,
            Or => 24,
            Xor => 25,
            Nand => 26,
            Nor => 27,
            Andc => 28,
            Orc => 29,
            Eqv => 30,
            AndImm => 31,
            OrImm => 32,
            XorImm => 33,
            Sll => 34,
            Srl => 35,
            Sra => 36,
            SraImm => 37,
            RotlImmMask => 38,
            RotlRegMask => 39,
            RotlImmInsert => 40,
            Cntlz => 41,
            Extsb => 42,
            Exts => 43,
            CmpS => 44,
            CmpU => 45,
            CmpSImm => 46,
            CmpUImm => 47,
            CrBit { .. } => 48,
            ExtractField => 49,
            InsertField => 50,
            XerCompose => 51,
            XerExtract => 52,
            TrapIf { .. } => 53,
            Load { .. } => 54,
            Store { .. } => 55,
        };
        self.u8(code);
        match k {
            CrBit { op, bt, ba, bb } => {
                self.u8(match op {
                    CrOp::And => 0,
                    CrOp::Or => 1,
                    CrOp::Xor => 2,
                    CrOp::Nand => 3,
                    CrOp::Nor => 4,
                    CrOp::Eqv => 5,
                    CrOp::Andc => 6,
                    CrOp::Orc => 7,
                });
                [bt, ba, bb].into_iter().for_each(|b| self.u8(b));
            }
            TrapIf { to } => self.u8(to),
            Load { width, algebraic } => {
                self.width(width);
                self.u8(u8::from(algebraic));
            }
            Store { width } => self.width(width),
            _ => {}
        }
    }

    fn op(&mut self, op: &Operation) {
        self.kind(op.kind);
        self.opt_reg(op.dest);
        self.opt_reg(op.dest2);
        self.u8(op.srcs().len() as u8);
        op.srcs().iter().for_each(|&r| self.reg(r));
        self.u32(op.imm as u32);
        self.u32(op.imm2);
        self.u8(u8::from(op.speculative)
            | u8::from(op.bypassed_store) << 1
            | u8::from(op.is_commit) << 2);
        self.u32(op.base_addr);
    }

    fn cond(&mut self, c: &Cond) {
        self.reg(c.src);
        self.u32(c.mask);
        self.u8(u8::from(c.want_set));
        match c.spec_target {
            Some(t) => {
                self.u8(1);
                self.u32(t);
            }
            None => self.u8(0),
        }
        self.u32(c.origin);
    }

    fn via(&mut self, via: IndirectVia) {
        self.u8(match via {
            IndirectVia::Lr => 0,
            IndirectVia::Ctr => 1,
        });
    }

    fn group(&mut self, g: &Group) {
        self.u32(g.entry);
        self.u32(g.base_instrs);
        self.u32(g.len() as u32);
        for v in &g.vliws {
            self.u32(v.base_entry);
            self.u32(v.nodes().len() as u32);
            for n in v.nodes() {
                self.u32(n.ops.len() as u32);
                n.ops.iter().for_each(|op| self.op(op));
                match &n.kind {
                    NodeKind::Open => self.u8(0),
                    NodeKind::Branch { cond, taken, fall } => {
                        self.u8(1);
                        self.cond(cond);
                        self.u32(taken.0);
                        self.u32(fall.0);
                    }
                    NodeKind::Exit(e) => {
                        self.u8(2);
                        match *e {
                            Exit::Goto(t) => {
                                self.u8(0);
                                self.u32(t.0);
                            }
                            Exit::Branch { target } => {
                                self.u8(1);
                                self.u32(target);
                            }
                            Exit::Indirect { src, via } => {
                                self.u8(2);
                                self.reg(src);
                                self.via(via);
                            }
                            Exit::Interp { addr } => {
                                self.u8(3);
                                self.u32(addr);
                            }
                        }
                    }
                }
            }
        }
    }

    fn packed(&mut self, p: &PackedGroup) {
        self.u32(p.roots.len() as u32);
        for (v, &root) in p.roots.iter().enumerate() {
            self.u32(root);
            self.u32(p.anchor(v));
        }
        self.u32(p.ops.len() as u32);
        p.ops.iter().for_each(|op| self.op(op));
        self.u32(p.nodes.len() as u32);
        for n in &p.nodes {
            self.u32(n.start);
            self.u32(n.len);
            match n.ctrl {
                PackedCtrl::Cond { cond, taken, fall } => {
                    self.u8(0);
                    self.cond(&cond);
                    self.u32(taken);
                    self.u32(fall);
                }
                PackedCtrl::Next { vliw } => {
                    self.u8(1);
                    self.u32(vliw);
                }
                PackedCtrl::Leave { target, slot } => {
                    self.u8(2);
                    self.u32(target);
                    self.u32(slot);
                }
                PackedCtrl::Indirect { src, via } => {
                    self.u8(3);
                    self.reg(src);
                    self.via(via);
                }
                PackedCtrl::Interp { addr } => {
                    self.u8(4);
                    self.u32(addr);
                }
            }
        }
    }
}
