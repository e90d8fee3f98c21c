// Surface glue for the emitted `nestedc` module. Generated by devil-fuzz; do not edit.
use devil_fuzz::Surface;
use devil_runtime::{DeviceAccess, RtError};
use devil_sema::model::{StructId, VarId};

#[path = "../nestedc.rs"]
mod stubs;

/// A cold `Nestedc` behind its id-keyed surface.
pub fn fresh() -> Box<dyn Surface> {
    Box::new(stubs::Nestedc::new())
}

impl Surface for stubs::Nestedc {
    fn read_var(&mut self, dev: &mut dyn DeviceAccess, vid: VarId, _: &[u64]) -> Result<u64, RtError> {
        Ok(match vid.0 {
            0 => self.get_payload(dev),
            _ => unreachable!("no stub for {vid:?}"),
        })
    }

    fn write_var(&mut self, dev: &mut dyn DeviceAccess, vid: VarId, _: &[u64], v: u64) -> Result<(), RtError> {
        match vid.0 {
            1 => self.set_sel(dev, v),
            2 => self.set_rest(dev, v),
            3 => self.set_v(dev, v),
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
            1 => self.stage_sel(v),
            2 => self.stage_rest(v),
            3 => self.stage_v(v),
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

    fn superplan(&mut self, dev: &mut dyn DeviceAccess, k: usize, _: &[u64], _: &[u64], _: &mut [u64], outs: &mut [u64]) -> Result<(), RtError> {
        match k {
            0 => self.sp_probe(dev, outs),
            _ => unreachable!("no stub for {k:?}"),
        }
        Ok(())
    }

    fn cache(&self) -> (Vec<u64>, Vec<bool>, Vec<u64>) {
        let slots: [&[u64]; 3] = [&[self.cache_a], &[self.cache_c], &[self.cache_data]];
        let valid: [&[bool]; 3] = [&[self.valid_a], &[self.valid_c], &[self.valid_data]];
        let mem = vec![];
        (slots.concat(), valid.concat(), mem)
    }
}
