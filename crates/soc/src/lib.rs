//! A modeled SoC for the DAISY reproduction: the MMIO device tree that
//! interrupt-driven firmware workloads run against.
//!
//! The paper's compatibility claim covers *operating-system* code —
//! interrupt delivery, context switching, device access (§3.5, §3.7) —
//! but user-style kernels never exercise that surface. This crate
//! supplies the missing system half: a [`Soc`] device tree implementing
//! [`daisy_isa::mem::Bus`], carrying
//!
//! * a **programmable interval timer** — compare register against the
//!   retired-instruction clock, auto-reload on a fixed grid, raise/ack;
//! * a **UART** — TX bytes accumulate in a transcript the harness reads
//!   back (and diffs bit-for-bit against the oracle run), RX bytes are
//!   injectable by the harness;
//! * an **IRQ controller** — per-line pending/enable/claim registers
//!   whose aggregated output level feeds the core's external-interrupt
//!   delivery.
//!
//! # Device time
//!
//! Devices are clocked by **retired guest instructions**, not host time
//! and not VLIW cycles: it is the only clock that every execution tier
//! (interpreter, packed, native) and the interpreter oracle agree
//! on bit-for-bit. All device state is a pure function of (`now`, the
//! history of MMIO writes with their times) — sampling the IRQ line
//! mutates nothing — which is what lets the preemption-fuzz harness
//! replay a translated run's interrupt deliveries on the oracle and
//! demand identical device state back.
//!
//! # Register map
//!
//! The window is [`SOC_BASE`]`..`[`SOC_BASE`]` + `[`SOC_LEN`], placed
//! above RAM so translated code's bounds guards bail for free. All
//! registers are 32-bit and respond identically at any access width
//! (no byte-lane decoding).
//!
//! | offset | name | access | function |
//! |---|---|---|---|
//! | `0x00` | `TIMER_COUNT` | R | low 32 bits of the retired-instruction clock |
//! | `0x04` | `TIMER_PERIOD` | R/W | tick period; a write re-anchors the next tick to `now + period` |
//! | `0x08` | `TIMER_CTRL` | R/W | bit 0 enables the timer (enabling re-anchors) |
//! | `0x0C` | `TIMER_ACK` | W | acknowledge: advance the tick on its fixed grid past `now` |
//! | `0x40` | `UART_TX` | W | append the low byte to the transcript |
//! | `0x44` | `UART_RX` | R | pop the next injected byte (0 when empty) |
//! | `0x48` | `UART_STATUS` | R | bit 0: RX non-empty; bit 1: TX ready (always set) |
//! | `0x80` | `IRQ_PENDING` | R | level of each source line ([`IRQ_TIMER`], [`IRQ_UART_RX`]) |
//! | `0x84` | `IRQ_ENABLE` | R/W | per-line enable mask |
//! | `0x88` | `IRQ_CLAIM` | R | lowest pending-and-enabled line + 1, or 0 |
//!
//! The timer is **level-triggered**: once `now` reaches the compare
//! value the line stays asserted until the firmware writes `TIMER_ACK`,
//! which steps the compare value along the fixed `period` grid until it
//! passes `now` — a late acknowledgment therefore never produces a
//! burst of catch-up interrupts, but the grid itself never drifts.
//!
//! See `docs/soc.md` for the firmware walkthrough.

#![warn(missing_docs)]

use daisy_isa::mem::Bus;
use std::collections::VecDeque;

/// Guest-physical base of the SoC's MMIO window. Above every
/// workload's RAM size, so device accesses fail the RAM bounds check
/// (and thereby bail out of translated code) on every tier.
pub const SOC_BASE: u32 = 0x4000_0000;

/// Length of the MMIO window in bytes.
pub const SOC_LEN: u32 = 0x100;

/// Register offsets within the window.
pub mod reg {
    /// Low 32 bits of the retired-instruction clock (read-only).
    pub const TIMER_COUNT: u32 = 0x00;
    /// Tick period in retired instructions (read/write; write re-anchors).
    pub const TIMER_PERIOD: u32 = 0x04;
    /// Control: bit 0 enables (read/write; enabling re-anchors).
    pub const TIMER_CTRL: u32 = 0x08;
    /// Acknowledge: advance the tick along its fixed grid (write-only).
    pub const TIMER_ACK: u32 = 0x0C;
    /// Transmit a byte to the harness-visible transcript (write-only).
    pub const UART_TX: u32 = 0x40;
    /// Pop the next harness-injected byte, 0 when empty (read-only).
    pub const UART_RX: u32 = 0x44;
    /// Bit 0: RX non-empty. Bit 1: TX ready (always). (read-only)
    pub const UART_STATUS: u32 = 0x48;
    /// Current level of each interrupt source line (read-only).
    pub const IRQ_PENDING: u32 = 0x80;
    /// Per-line interrupt enable mask (read/write).
    pub const IRQ_ENABLE: u32 = 0x84;
    /// Lowest pending-and-enabled line number + 1, or 0 (read-only).
    pub const IRQ_CLAIM: u32 = 0x88;
}

/// IRQ controller line number of the interval timer.
pub const IRQ_TIMER: u32 = 0;

/// IRQ controller line number of UART RX-available.
pub const IRQ_UART_RX: u32 = 1;

/// The programmable interval timer.
///
/// `next_fire` is the compare value: the line is asserted whenever the
/// timer is enabled, `period` is nonzero, and `now >= next_fire`.
/// Acknowledgment advances `next_fire` along the fixed grid anchored at
/// the last `TIMER_PERIOD`/enable write — cadence never drifts with
/// delivery latency, and a very late ack catches up in one step rather
/// than bursting (one `+= period` per missed tick, all at ack time).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Timer {
    /// Tick period in retired guest instructions (0 = never fires).
    pub period: u32,
    /// Compare value on the retired-instruction clock.
    pub next_fire: u64,
    /// Bit 0: enabled.
    pub ctrl: u32,
}

impl Timer {
    fn new() -> Timer {
        Timer { period: 0, next_fire: 0, ctrl: 0 }
    }

    fn enabled(&self) -> bool {
        self.ctrl & 1 != 0 && self.period != 0
    }

    /// Level of the timer's interrupt line at `now`.
    pub fn line(&self, now: u64) -> bool {
        self.enabled() && now >= self.next_fire
    }

    fn ack(&mut self, now: u64) {
        if self.period == 0 {
            return;
        }
        while self.next_fire <= now {
            self.next_fire += self.period as u64;
        }
    }
}

/// The UART: a TX transcript plus an injectable RX queue.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Uart {
    /// Every byte the guest ever wrote to `UART_TX`, in order. The
    /// harness reads this back and diffs it against the oracle run.
    pub tx: Vec<u8>,
    /// Bytes waiting for the guest to read from `UART_RX`.
    pub rx: VecDeque<u8>,
}

/// The full device tree: timer + UART + IRQ controller, implementing
/// [`Bus`]. Attach with [`daisy_isa::mem::Memory::attach_bus`] at
/// [`SOC_BASE`] (see [`standard_bus`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Soc {
    /// The interval timer (IRQ line [`IRQ_TIMER`]).
    pub timer: Timer,
    /// The UART (IRQ line [`IRQ_UART_RX`]).
    pub uart: Uart,
    /// IRQ controller enable mask.
    pub irq_enable: u32,
}

impl Default for Soc {
    fn default() -> Soc {
        Soc::new()
    }
}

impl Soc {
    /// A quiescent SoC: timer disabled, queues empty, all IRQ lines
    /// masked.
    pub fn new() -> Soc {
        Soc { timer: Timer::new(), uart: Uart::default(), irq_enable: 0 }
    }

    /// Level of each source line at `now`, as the `IRQ_PENDING` mask.
    /// Level-triggered: computed fresh from device state, never
    /// latched.
    pub fn pending(&self, now: u64) -> u32 {
        (self.timer.line(now) as u32) << IRQ_TIMER
            | (!self.uart.rx.is_empty() as u32) << IRQ_UART_RX
    }

    /// Queues a byte for the guest to read from `UART_RX`.
    pub fn inject_rx(&mut self, byte: u8) {
        self.uart.rx.push_back(byte);
    }

    /// The TX transcript so far.
    pub fn transcript(&self) -> &[u8] {
        &self.uart.tx
    }
}

impl Bus for Soc {
    fn read(&mut self, now: u64, offset: u32, _width: u32) -> u32 {
        match offset & !3 {
            reg::TIMER_COUNT => now as u32,
            reg::TIMER_PERIOD => self.timer.period,
            reg::TIMER_CTRL => self.timer.ctrl,
            reg::UART_RX => self.uart.rx.pop_front().map_or(0, u32::from),
            reg::UART_STATUS => (!self.uart.rx.is_empty() as u32) | 0b10,
            reg::IRQ_PENDING => self.pending(now),
            reg::IRQ_ENABLE => self.irq_enable,
            reg::IRQ_CLAIM => {
                let live = self.pending(now) & self.irq_enable;
                if live == 0 {
                    0
                } else {
                    live.trailing_zeros() + 1
                }
            }
            _ => 0,
        }
    }

    fn write(&mut self, now: u64, offset: u32, _width: u32, value: u32) {
        match offset & !3 {
            reg::TIMER_PERIOD => {
                self.timer.period = value;
                self.timer.next_fire = now + value as u64;
            }
            reg::TIMER_CTRL => {
                let was = self.timer.ctrl & 1;
                self.timer.ctrl = value & 1;
                if was == 0 && value & 1 != 0 {
                    self.timer.next_fire = now + self.timer.period as u64;
                }
            }
            reg::TIMER_ACK => self.timer.ack(now),
            reg::UART_TX => self.uart.tx.push(value as u8),
            reg::IRQ_ENABLE => self.irq_enable = value,
            _ => {}
        }
    }

    fn irq_level(&mut self, now: u64) -> bool {
        self.pending(now) & self.irq_enable != 0
    }

    fn snapshot(&mut self, now: u64) -> Vec<u8> {
        let mut s = Vec::new();
        s.extend_from_slice(&self.timer.period.to_be_bytes());
        s.extend_from_slice(&self.timer.next_fire.to_be_bytes());
        s.extend_from_slice(&self.timer.ctrl.to_be_bytes());
        s.extend_from_slice(&self.irq_enable.to_be_bytes());
        s.extend_from_slice(&self.pending(now).to_be_bytes());
        s.extend_from_slice(&(self.uart.tx.len() as u32).to_be_bytes());
        s.extend_from_slice(&self.uart.tx);
        s.extend_from_slice(&(self.uart.rx.len() as u32).to_be_bytes());
        s.extend(self.uart.rx.iter());
        s
    }

    fn clone_box(&self) -> Box<dyn Bus> {
        Box::new(self.clone())
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn host_inject(&mut self, _now: u64, data: u32) {
        self.inject_rx(data as u8);
    }
}

/// The standard attachment: `(base, len, device tree)` for
/// [`daisy_isa::mem::Memory::attach_bus`]. Harness code passes this
/// factory around as a `fn()` so the guest-agnostic core never names
/// the concrete device types.
pub fn standard_bus() -> (u32, u32, Box<dyn Bus>) {
    (SOC_BASE, SOC_LEN, Box::new(Soc::new()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rd(s: &mut Soc, now: u64, off: u32) -> u32 {
        s.read(now, off, 4)
    }

    fn wr(s: &mut Soc, now: u64, off: u32, v: u32) {
        s.write(now, off, 4, v);
    }

    #[test]
    fn timer_fixed_cadence() {
        let mut s = Soc::new();
        wr(&mut s, 100, reg::TIMER_PERIOD, 50);
        wr(&mut s, 100, reg::TIMER_CTRL, 1);
        wr(&mut s, 100, reg::IRQ_ENABLE, 1 << IRQ_TIMER);
        assert!(!s.irq_level(149));
        assert!(s.irq_level(150));
        assert!(s.irq_level(173)); // level-triggered: stays up until ack

        // Ack 23 instructions late: the next tick still lands on the
        // original grid (200), not 173 + 50.
        wr(&mut s, 173, reg::TIMER_ACK, 0);
        assert!(!s.irq_level(199));
        assert!(s.irq_level(200));

        // Ack three whole periods late: exactly one catch-up to the
        // next grid point, no burst.
        wr(&mut s, 360, reg::TIMER_ACK, 0);
        assert_eq!(s.timer.next_fire, 400);
        assert!(!s.irq_level(399));
        assert!(s.irq_level(400));
    }

    #[test]
    fn timer_disabled_or_masked_is_silent() {
        let mut s = Soc::new();
        wr(&mut s, 0, reg::TIMER_PERIOD, 10);
        assert!(!s.irq_level(1000)); // not enabled
        wr(&mut s, 0, reg::TIMER_CTRL, 1);
        assert!(s.pending(1000) & (1 << IRQ_TIMER) != 0);
        assert!(!s.irq_level(1000)); // pending but masked
        wr(&mut s, 0, reg::IRQ_ENABLE, 1 << IRQ_TIMER);
        assert!(s.irq_level(1000));
        wr(&mut s, 1000, reg::TIMER_CTRL, 0);
        assert!(!s.irq_level(2000)); // disabled again
    }

    #[test]
    fn uart_roundtrip_and_claim() {
        let mut s = Soc::new();
        for &b in b"ok" {
            wr(&mut s, 5, reg::UART_TX, b as u32);
        }
        assert_eq!(s.transcript(), b"ok");

        assert_eq!(rd(&mut s, 6, reg::UART_STATUS), 0b10);
        assert_eq!(rd(&mut s, 6, reg::UART_RX), 0);
        s.inject_rx(b'x');
        assert_eq!(rd(&mut s, 7, reg::UART_STATUS), 0b11);
        assert_eq!(s.pending(7), 1 << IRQ_UART_RX);
        assert_eq!(rd(&mut s, 7, reg::IRQ_CLAIM), 0); // masked
        wr(&mut s, 7, reg::IRQ_ENABLE, 1 << IRQ_UART_RX);
        assert_eq!(rd(&mut s, 7, reg::IRQ_CLAIM), IRQ_UART_RX + 1);
        assert_eq!(rd(&mut s, 8, reg::UART_RX), u32::from(b'x'));
        assert_eq!(rd(&mut s, 8, reg::IRQ_CLAIM), 0); // line dropped
    }

    #[test]
    fn claim_prefers_lowest_line() {
        let mut s = Soc::new();
        wr(&mut s, 0, reg::TIMER_PERIOD, 1);
        wr(&mut s, 0, reg::TIMER_CTRL, 1);
        s.inject_rx(1);
        wr(&mut s, 0, reg::IRQ_ENABLE, 0b11);
        assert_eq!(rd(&mut s, 10, reg::IRQ_CLAIM), IRQ_TIMER + 1);
    }

    #[test]
    fn snapshot_captures_everything() {
        let mut a = Soc::new();
        let mut b = Soc::new();
        assert_eq!(a.snapshot(9), b.snapshot(9));
        wr(&mut a, 3, reg::UART_TX, 0x41);
        assert_ne!(a.snapshot(9), b.snapshot(9));
        wr(&mut b, 3, reg::UART_TX, 0x41);
        assert_eq!(a.snapshot(9), b.snapshot(9));
        // Same write at a different time diverges (timer anchor).
        wr(&mut a, 10, reg::TIMER_PERIOD, 4);
        wr(&mut b, 11, reg::TIMER_PERIOD, 4);
        assert_ne!(a.snapshot(20), b.snapshot(20));
    }

    #[test]
    fn count_register_tracks_clock() {
        let mut s = Soc::new();
        assert_eq!(rd(&mut s, 1234, reg::TIMER_COUNT), 1234);
        assert_eq!(rd(&mut s, 0x1_0000_0005, reg::TIMER_COUNT), 5);
    }
}
