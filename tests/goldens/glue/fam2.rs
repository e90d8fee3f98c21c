// Surface glue for the emitted `fam2` module. Generated by devil-fuzz; do not edit.
use devil_fuzz::Surface;
use devil_runtime::{DeviceAccess, RtError};
use devil_sema::model::{StructId, VarId};

#[path = "../fam2.rs"]
mod stubs;

/// A cold `Fam2` behind its id-keyed surface.
pub fn fresh() -> Box<dyn Surface> {
    Box::new(stubs::Fam2::new())
}

impl Surface for stubs::Fam2 {
    fn read_var(&mut self, dev: &mut dyn DeviceAccess, vid: VarId, args: &[u64]) -> Result<u64, RtError> {
        Ok(match vid.0 {
            0 => self.get_w(dev, args[0])?,
            1 => self.get_u(dev, args[0], args[1])?,
            _ => unreachable!("no stub for {vid:?}"),
        })
    }

    fn write_var(&mut self, dev: &mut dyn DeviceAccess, vid: VarId, args: &[u64], v: u64) -> Result<(), RtError> {
        match vid.0 {
            0 => self.set_w(dev, args[0], v)?,
            1 => self.set_u(dev, args[0], args[1], v)?,
            _ => unreachable!("no stub for {vid:?}"),
        }
        Ok(())
    }

    fn read_struct(&mut self, _: &mut dyn DeviceAccess, sid: StructId) -> Result<(), RtError> {
        unreachable!("no stub for {sid:?}")
    }

    fn get_field(&mut self, fid: VarId) -> Result<u64, RtError> {
        unreachable!("no stub for {fid:?}")
    }

    fn set_field(&mut self, fid: VarId, _: u64) -> Result<(), RtError> {
        unreachable!("no stub for {fid:?}")
    }

    fn write_struct(&mut self, _: &mut dyn DeviceAccess, sid: StructId) -> Result<(), RtError> {
        unreachable!("no stub for {sid:?}")
    }

    fn read_block(&mut self, _: &mut dyn DeviceAccess, vid: VarId, _: &mut [u64]) -> Result<(), RtError> {
        unreachable!("no stub for {vid:?}")
    }

    fn write_block(&mut self, _: &mut dyn DeviceAccess, vid: VarId, _: &[u64]) -> Result<(), RtError> {
        unreachable!("no stub for {vid:?}")
    }

    fn superplan(&mut self, _: &mut dyn DeviceAccess, k: usize, _: &[u64], _: &[u64], _: &mut [u64], _: &mut [u64]) -> Result<(), RtError> {
        unreachable!("no stub for {k:?}")
    }

    fn cache(&self) -> (Vec<u64>, Vec<bool>, Vec<u64>) {
        let slots: [&[u64]; 1] = [&self.cache_g];
        let valid: [&[bool]; 1] = [&self.valid_g];
        let mem = vec![];
        (slots.concat(), valid.concat(), mem)
    }
}
