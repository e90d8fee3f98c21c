// Surface glue for the emitted `piix4ide` module. Generated by devil-fuzz; do not edit.
use devil_fuzz::Surface;
use devil_runtime::{DeviceAccess, RtError};
use devil_sema::model::{StructId, VarId};

#[path = "../piix4ide.rs"]
mod stubs;

/// A cold `Piix4ide` behind its id-keyed surface.
pub fn fresh() -> Box<dyn Surface> {
    Box::new(stubs::Piix4ide::new())
}

impl Surface for stubs::Piix4ide {
    fn read_var(&mut self, dev: &mut dyn DeviceAccess, vid: VarId, _: &[u64]) -> Result<u64, RtError> {
        Ok(match vid.0 {
            2 => self.get_bm_intr(dev),
            _ => unreachable!("no stub for {vid:?}"),
        })
    }

    fn write_var(&mut self, dev: &mut dyn DeviceAccess, vid: VarId, _: &[u64], v: u64) -> Result<(), RtError> {
        match vid.0 {
            0 => self.set_bm_dir(dev, v),
            1 => self.set_bm_start(dev, v),
            2 => self.set_bm_intr(dev, v),
            3 => self.set_prd_addr(dev, v),
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
        let slots: [&[u64]; 3] = [&[self.cache_bmcmd], &[self.cache_bmstatus], &[self.cache_prd_reg]];
        let valid: [&[bool]; 3] = [&[self.valid_bmcmd], &[self.valid_bmstatus], &[self.valid_prd_reg]];
        let mem = vec![];
        (slots.concat(), valid.concat(), mem)
    }
}
