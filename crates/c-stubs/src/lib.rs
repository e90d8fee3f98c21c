//! The emitted C stubs of the spec library, linked into Rust: each
//! committed header (`tests/goldens/<spec>.h`) with its generated glue
//! (`tests/goldens/glue/<spec>.c`, `devil_fuzz::compiled::c_glue`),
//! compiled by this crate's build script with `cc -Wall -Werror`.
//!
//! [`LINKED_IN`] lists each spec's name and a constructor of its stubs
//! behind [`Surface`], which the compiled oracle drives through
//! `devil_fuzz::drive` like every other engine. The glue binds the port
//! primitives to one Rust callback that reaches the caller's
//! [`DeviceAccess`], so the stubs run on the same logging fake bus as
//! the plan executor. A spec's cache is a C global: a constructed
//! instance holds the spec's lock until it is dropped, so one replay
//! runs at a time per spec. Where the build found no `cc`, the table is
//! empty.

#![cfg_attr(no_cc, allow(dead_code, unused_imports))]

use devil_fuzz::compiled::{Fresh, PORT_SHIFT};
use devil_fuzz::Surface;
use devil_runtime::{DeviceAccess, RtError, RtResult};
use devil_sema::model::{StructId, VarId};
use std::ffi::{c_char, c_int, c_uint, c_ulong, c_void, CStr};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// A glue file's exported table, field for field as
/// `devil_fuzz::compiled::c_glue` declares `struct devil_glue`.
#[repr(C)]
struct Glue {
    slots: c_uint,
    cells: c_uint,
    vars: *const *const c_char,
    read_var: unsafe extern "C" fn(*mut c_void, c_uint, *const u64, c_ulong, *mut u64) -> c_int,
    write_var: unsafe extern "C" fn(*mut c_void, c_uint, *const u64, c_ulong, u64) -> c_int,
    read_struct: unsafe extern "C" fn(*mut c_void, c_uint) -> c_int,
    get_field: unsafe extern "C" fn(c_uint, *mut u64) -> c_int,
    set_field: unsafe extern "C" fn(c_uint, u64) -> c_int,
    write_struct: unsafe extern "C" fn(*mut c_void, c_uint) -> c_int,
    superplan: unsafe extern "C" fn(
        *mut c_void,
        c_uint,
        *const u64,
        c_ulong,
        *const u64,
        c_ulong,
        *mut u64,
        c_ulong,
        *mut u64,
        c_ulong,
    ) -> c_int,
    reset: unsafe extern "C" fn(),
    dump: unsafe extern "C" fn(*mut u64, *mut u8, *mut u64),
}

/// Declares each listed spec's glue table and [`LINKED_IN`] over them.
macro_rules! linked_in {
    ($($spec:ident)*) => {
        #[cfg(not(no_cc))]
        extern "C" {
            $(
                #[link_name = concat!(stringify!($spec), "_glue")]
                static $spec: Glue;
            )*
        }

        /// The linked-in stubs: each spec's name and a cold instance of
        /// its emitted interface.
        #[cfg(not(no_cc))]
        pub const LINKED_IN: &[(&str, Fresh)] = &[$((stringify!($spec), || {
            static REPLAY: Mutex<()> = Mutex::new(());
            // SAFETY: the table is an immutable C object that lives as
            // long as the program.
            CStubs::cold(unsafe { &$spec }, &REPLAY)
        })),*];
    };
}

linked_in!(
    busmouse cs4236b dma8237 ide ne2000 permedia2 pic8259 piix4ide
    selfw memw nestedc nestede selfact
    privfield fam2
);

/// Without `cc`, no stubs are linked in.
#[cfg(no_cc)]
pub const LINKED_IN: &[(&str, Fresh)] = &[];

/// The bus every glue file calls for a port access: the
/// `&mut dyn DeviceAccess` that [`on_bus`] lends the running entry point.
#[no_mangle]
extern "C" fn devil_bus(
    dev: *mut c_void,
    write: c_int,
    width: c_uint,
    addr: u64,
    value: u64,
) -> u64 {
    // SAFETY: the glue calls this only while an entry point runs, with
    // the pointer `on_bus` passed that entry point.
    let dev = unsafe { &mut **dev.cast::<&mut dyn DeviceAccess>() };
    let (port, offset) = ((addr >> PORT_SHIFT) as usize, addr & ((1 << PORT_SHIFT) - 1));
    if write != 0 {
        dev.write(port, offset, width, value);
        0
    } else {
        dev.read(port, offset, width)
    }
}

/// Calls `entry` with a pointer through which `devil_bus` reaches `dev`.
fn on_bus<R>(mut dev: &mut dyn DeviceAccess, entry: impl FnOnce(*mut c_void) -> R) -> R {
    entry((&raw mut dev).cast())
}

/// One spec's linked-in stubs, holding the spec's lock, which
/// serializes all use of the spec's C cache.
///
/// The glue's entry points (`c_glue`) read `n` arguments through the
/// argument pointer only after checking `n`, write the outputs only
/// after checking their count, touch the block buffers only up to the
/// lengths passed with them, and write one value through a result
/// pointer. So a call is sound when each pointer comes from a live
/// slice or local passed with its length, as every call below does.
struct CStubs {
    glue: &'static Glue,
    _replay: MutexGuard<'static, ()>,
}

impl CStubs {
    /// Waits for the spec's lock, then resets its cache to cold. A
    /// replay that panicked left the lock poisoned, which the reset
    /// makes harmless.
    fn cold(glue: &'static Glue, lock: &'static Mutex<()>) -> Box<dyn Surface> {
        let replay = lock.lock().unwrap_or_else(PoisonError::into_inner);
        // SAFETY: the lock is held, so no other replay uses the cache.
        unsafe { (glue.reset)() };
        Box::new(CStubs { glue, _replay: replay })
    }

    /// The verdict of a variable access: a positive status `k + 1`
    /// names its bad argument `k`.
    fn access(&self, status: c_int, vid: VarId, args: &[u64]) -> RtResult<()> {
        let Ok(bad) = usize::try_from(status - 1) else {
            return done(status, vid);
        };
        // SAFETY: `vars` holds a NUL-terminated name per variable id,
        // and the glue has a stub only for ids it names.
        let var = unsafe { CStr::from_ptr(*self.glue.vars.add(vid.0 as usize)) };
        Err(RtError::ArgOutOfRange { var: var.to_string_lossy().into_owned(), value: args[bad] })
    }
}

/// The verdict of a call that has no bad argument: -1 means the glue
/// has no stub for `what`, which the oracle never replays.
fn done(status: c_int, what: impl std::fmt::Debug) -> RtResult<()> {
    assert_eq!(status, 0, "no compiled C stub for {what:?}");
    Ok(())
}

impl Surface for CStubs {
    fn read_var(&mut self, dev: &mut dyn DeviceAccess, vid: VarId, args: &[u64]) -> RtResult<u64> {
        let mut v = 0;
        // SAFETY: `args` and `v` outlive the call; see `CStubs`.
        let status = on_bus(dev, |bus| unsafe {
            (self.glue.read_var)(bus, vid.0, args.as_ptr(), args.len() as c_ulong, &raw mut v)
        });
        self.access(status, vid, args).map(|()| v)
    }

    fn write_var(
        &mut self,
        dev: &mut dyn DeviceAccess,
        vid: VarId,
        args: &[u64],
        value: u64,
    ) -> RtResult<()> {
        // SAFETY: `args` outlives the call; see `CStubs`.
        let status = on_bus(dev, |bus| unsafe {
            (self.glue.write_var)(bus, vid.0, args.as_ptr(), args.len() as c_ulong, value)
        });
        self.access(status, vid, args)
    }

    fn read_struct(&mut self, dev: &mut dyn DeviceAccess, sid: StructId) -> RtResult<()> {
        // SAFETY: the call takes no pointer but the bus; see `CStubs`.
        done(on_bus(dev, |bus| unsafe { (self.glue.read_struct)(bus, sid.0) }), sid)
    }

    fn get_field(&mut self, fid: VarId) -> RtResult<u64> {
        let mut v = 0;
        // SAFETY: `v` outlives the call; see `CStubs`.
        done(unsafe { (self.glue.get_field)(fid.0, &raw mut v) }, fid).map(|()| v)
    }

    fn set_field(&mut self, fid: VarId, value: u64) -> RtResult<()> {
        // SAFETY: the call takes no pointer; see `CStubs`.
        done(unsafe { (self.glue.set_field)(fid.0, value) }, fid)
    }

    fn write_struct(&mut self, dev: &mut dyn DeviceAccess, sid: StructId) -> RtResult<()> {
        // SAFETY: the call takes no pointer but the bus; see `CStubs`.
        done(on_bus(dev, |bus| unsafe { (self.glue.write_struct)(bus, sid.0) }), sid)
    }

    fn read_block(&mut self, _: &mut dyn DeviceAccess, vid: VarId, _: &mut [u64]) -> RtResult<()> {
        unreachable!("plain block transfers have no stub: {vid:?}")
    }

    fn write_block(&mut self, _: &mut dyn DeviceAccess, vid: VarId, _: &[u64]) -> RtResult<()> {
        unreachable!("plain block transfers have no stub: {vid:?}")
    }

    fn superplan(
        &mut self,
        dev: &mut dyn DeviceAccess,
        k: usize,
        args: &[u64],
        block_out: &[u64],
        block_in: &mut [u64],
        outs: &mut [u64],
    ) -> RtResult<()> {
        let k = c_uint::try_from(k).expect("a superplan index fits a C `unsigned`");
        // SAFETY: the four slices outlive the call and go with their
        // lengths; see `CStubs`.
        let status = on_bus(dev, |bus| unsafe {
            (self.glue.superplan)(
                bus,
                k,
                args.as_ptr(),
                args.len() as c_ulong,
                block_out.as_ptr(),
                block_out.len() as c_ulong,
                block_in.as_mut_ptr(),
                block_in.len() as c_ulong,
                outs.as_mut_ptr(),
                outs.len() as c_ulong,
            )
        });
        done(status, k)
    }

    fn cache(&self) -> (Vec<u64>, Vec<bool>, Vec<u64>) {
        let (slots, cells) = (self.glue.slots as usize, self.glue.cells as usize);
        let (mut raw, mut valid, mut mem) = (vec![0; slots], vec![0u8; slots], vec![0; cells]);
        // SAFETY: the dump writes `slots` slots and validity flags and
        // `cells` cells, the lengths the table gives and the vectors have.
        unsafe { (self.glue.dump)(raw.as_mut_ptr(), valid.as_mut_ptr(), mem.as_mut_ptr()) };
        (raw, valid.into_iter().map(|v| v != 0).collect(), mem)
    }
}
