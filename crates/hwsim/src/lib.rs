//! A small simulated-machine substrate for driver experiments.
//!
//! The Devil paper evaluates generated hardware-operating code against
//! real ISA/PCI devices. This crate provides the laptop-scale stand-in:
//! a [`Bus`] with port-I/O and memory-mapped address claims, an
//! operation [`Ledger`] and a simulated clock with a calibrated
//! [`CostModel`], interrupt lines, and shared system memory for DMA —
//! enough to reproduce the *shape* of the paper's performance tables
//! (who wins, by what factor) deterministically.
//!
//! # Examples
//!
//! ```
//! use hwsim::{Bus, Device, Width};
//!
//! struct Echo(u8);
//! impl Device for Echo {
//!     fn name(&self) -> &str { "echo" }
//!     fn io_read(&mut self, _o: u64, _w: Width) -> u64 { self.0 as u64 }
//!     fn io_write(&mut self, _o: u64, v: u64, _w: Width) { self.0 = v as u8 }
//! }
//!
//! let mut bus = Bus::default();
//! bus.attach_io(Box::new(Echo(0)), 0x60, 1);
//! bus.outb(0x60, 0x2a);
//! assert_eq!(bus.inb(0x60), 0x2a);
//! assert_eq!(bus.ledger().io_ops(), 2);
//! ```

#![forbid(unsafe_code)]

pub mod bus;
pub mod clock;
pub mod device;
pub mod ledger;
pub mod mmr;
pub mod width;

pub use bus::{Bus, DeviceId};
pub use clock::{rate_per_s, throughput_mb_s, CostModel, SimClock};
pub use device::{Device, IrqLine, SharedMem};
pub use ledger::{Checkpoint, Ledger};
pub use mmr::{bisect_divergence, Hash, Mmr, MmrForest, MmrLog, Segment};
pub use width::Width;
