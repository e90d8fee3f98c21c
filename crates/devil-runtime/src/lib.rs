//! Runtime support for Devil-generated device interfaces.
//!
//! Provides two things:
//!
//! 1. the [`DeviceAccess`] abstraction generated stubs (and the
//!    runtime) use to reach hardware, with a [`PortMap`] adapter to
//!    the `hwsim` simulated bus, and
//! 2. [`DeviceInstance`], an executor of `devil-ir` access plans that
//!    implements the exact stub semantics of the paper (masking,
//!    pre/post actions, caching, triggers, structures, serialization,
//!    block transfer, and optional debug-mode run-time checks).
//!
//! [`reference::ReferenceInstance`] interprets the same semantics
//! straight from the IR's orders and actions: the oracle the
//! differential tests compare the plans against.
//!
//! # Examples
//!
//! ```
//! use devil_runtime::{DeviceInstance, FakeAccess};
//!
//! let model = devil_sema::check_source(
//!     r#"device demo (base : bit[8] port @ {0..0}) {
//!          register r = base @ 0 : bit[8];
//!          variable v = r : int(8);
//!        }"#,
//!     &[],
//! )
//! .unwrap();
//! let mut instance = DeviceInstance::new(devil_ir::lower(&model));
//! let mut dev = FakeAccess::new();
//! instance.write(&mut dev, "v", 0x42).unwrap();
//! assert_eq!(instance.read(&mut dev, "v").unwrap(), 0x42);
//! ```

#![forbid(unsafe_code)]

pub mod access;
pub mod error;
pub mod interp;
pub mod reference;

pub use access::{DeviceAccess, FakeAccess, MappedPort, PortMap, Space};
pub use devil_ir::AccessRef;
pub use error::{RtError, RtResult};
pub use interp::{sign_extend, DeviceInstance, InstanceSnapshot, PlanStats};
pub use reference::ReferenceInstance;
