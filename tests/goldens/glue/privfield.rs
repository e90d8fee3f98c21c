// Surface glue for the emitted `privfield` module. Generated by devil-fuzz; do not edit.
use devil_fuzz::Surface;
use devil_runtime::{DeviceAccess, RtError};
use devil_sema::model::{StructId, VarId};

#[path = "../privfield.rs"]
mod stubs;

/// A cold `Privfield` behind its id-keyed surface.
pub fn fresh() -> Box<dyn Surface> {
    Box::new(stubs::Privfield::new())
}

impl Surface for stubs::Privfield {
    fn read_var(&mut self, dev: &mut dyn DeviceAccess, vid: VarId, _: &[u64]) -> Result<u64, RtError> {
        Ok(match vid.0 {
            0 => self.get_pm(),
            1 => self.read_fa(dev),
            _ => unreachable!("no stub for {vid:?}"),
        })
    }

    fn write_var(&mut self, dev: &mut dyn DeviceAccess, vid: VarId, _: &[u64], v: u64) -> Result<(), RtError> {
        match vid.0 {
            0 => self.set_pm(v),
            1 => self.set_fa(dev, v),
            _ => unreachable!("no stub for {vid:?}"),
        }
        Ok(())
    }

    fn read_struct(&mut self, dev: &mut dyn DeviceAccess, sid: StructId) -> Result<(), RtError> {
        match sid.0 {
            0 => self.get_s(dev),
            _ => unreachable!("no stub for {sid:?}"),
        }
        Ok(())
    }

    fn get_field(&mut self, fid: VarId) -> Result<u64, RtError> {
        Ok(match fid.0 {
            0 => self.get_pm(),
            1 => self.get_fa(),
            _ => unreachable!("no stub for {fid:?}"),
        })
    }

    fn set_field(&mut self, fid: VarId, v: u64) -> Result<(), RtError> {
        match fid.0 {
            0 => self.stage_pm(v),
            1 => self.stage_fa(v),
            _ => unreachable!("no stub for {fid:?}"),
        }
        Ok(())
    }

    fn write_struct(&mut self, dev: &mut dyn DeviceAccess, sid: StructId) -> Result<(), RtError> {
        match sid.0 {
            0 => self.put_s(dev),
            _ => unreachable!("no stub for {sid:?}"),
        }
        Ok(())
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
        let slots: [&[u64]; 1] = [&[self.cache_a]];
        let valid: [&[bool]; 1] = [&[self.valid_a]];
        let mem = vec![self.mem_pm];
        (slots.concat(), valid.concat(), mem)
    }
}
