// Surface glue for the emitted `cs4236b` module. Generated by devil-fuzz; do not edit.
use devil_fuzz::Surface;
use devil_runtime::{DeviceAccess, RtError};
use devil_sema::model::{StructId, VarId};

#[path = "../cs4236b.rs"]
mod stubs;

/// A cold `Cs4236b` behind its id-keyed surface.
pub fn fresh() -> Box<dyn Surface> {
    Box::new(stubs::Cs4236b::new())
}

impl Surface for stubs::Cs4236b {
    fn read_var(&mut self, dev: &mut dyn DeviceAccess, vid: VarId, args: &[u64]) -> Result<u64, RtError> {
        Ok(match vid.0 {
            0 => self.get_xm(),
            1 => self.get_IA(dev),
            2 => self.get_ID(dev, args[0])?,
            3 => self.get_XD(dev, args[0])?,
            _ => unreachable!("no stub for {vid:?}"),
        })
    }

    fn write_var(&mut self, dev: &mut dyn DeviceAccess, vid: VarId, args: &[u64], v: u64) -> Result<(), RtError> {
        match vid.0 {
            0 => self.set_xm(v),
            1 => self.set_IA(dev, v),
            2 => self.set_ID(dev, args[0], v)?,
            3 => self.set_XD(dev, args[0], v)?,
            4 => self.set_XA(dev, v),
            5 => self.set_XRAE(dev, v),
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

    fn set_field(&mut self, fid: VarId, v: u64) -> Result<(), RtError> {
        match fid.0 {
            4 => self.stage_XA(v),
            5 => self.stage_XRAE(v),
            _ => unreachable!("no stub for {fid:?}"),
        }
        Ok(())
    }

    fn write_struct(&mut self, dev: &mut dyn DeviceAccess, sid: StructId) -> Result<(), RtError> {
        match sid.0 {
            0 => self.put_XS(dev),
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
        let slots: [&[u64]; 4] = [&[self.cache_control], &self.cache_I, &[self.cache_gw], &self.cache_X];
        let valid: [&[bool]; 4] = [&[self.valid_control], &self.valid_I, &[self.valid_gw], &self.valid_X];
        let mem = vec![self.mem_xm];
        (slots.concat(), valid.concat(), mem)
    }
}
