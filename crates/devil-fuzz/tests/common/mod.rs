//! Test-side rig wrappers shared by the integration tests.

use devil_fuzz::{Op, Rig, Trace};

/// A rig replaying an edited copy of the stream: `edit(i, op)` maps op
/// `i` to its replacement, or drops it. The sensitivity tests skew one
/// side of a compare with it.
pub struct Skewed<'a, F> {
    inner: &'a dyn Rig,
    edit: F,
}

impl<'a, F: Fn(u64, Op) -> Option<Op>> Skewed<'a, F> {
    /// `inner` replaying the stream as `edit` rewrites it.
    pub fn new(inner: &'a dyn Rig, edit: F) -> Self {
        Skewed { inner, edit }
    }
}

impl<F: Fn(u64, Op) -> Option<Op>> Rig for Skewed<'_, F> {
    fn name(&self) -> String {
        format!("skewed {}", self.inner.name())
    }

    fn replay(&self, ops: &mut dyn Iterator<Item = Op>, trace: &mut Trace) -> Result<(), String> {
        let mut edited = ops.enumerate().filter_map(|(i, op)| (self.edit)(i as u64, op));
        self.inner.replay(&mut edited, trace)
    }
}
