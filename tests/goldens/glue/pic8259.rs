// Surface glue for the emitted `pic8259` module. Generated by devil-fuzz; do not edit.
use devil_fuzz::Surface;
use devil_runtime::{DeviceAccess, RtError};
use devil_sema::model::{StructId, VarId};

#[path = "../pic8259.rs"]
mod stubs;

/// A cold `Pic8259` behind its id-keyed surface.
pub fn fresh() -> Box<dyn Surface> {
    Box::new(stubs::Pic8259::new())
}

impl Surface for stubs::Pic8259 {
    fn read_var(&mut self, _: &mut dyn DeviceAccess, vid: VarId, _: &[u64]) -> Result<u64, RtError> {
        unreachable!("no stub for {vid:?}")
    }

    fn write_var(&mut self, dev: &mut dyn DeviceAccess, vid: VarId, _: &[u64], v: u64) -> Result<(), RtError> {
        match vid.0 {
            0 => self.set_ic4(dev, v),
            1 => self.set_sngl(dev, v),
            2 => self.set_adi(dev, v),
            3 => self.set_ltim(dev, v),
            4 => self.set_vector_base(dev, v),
            5 => self.set_cascade_map(dev, v),
            6 => self.set_sfnm(dev, v),
            7 => self.set_buffered(dev, v),
            8 => self.set_aeoi(dev, v),
            9 => self.set_microprocessor(dev, v),
            10 => self.set_irq_mask(dev, v),
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
            0 => self.stage_ic4(v),
            1 => self.stage_sngl(v),
            2 => self.stage_adi(v),
            3 => self.stage_ltim(v),
            4 => self.stage_vector_base(v),
            5 => self.stage_cascade_map(v),
            6 => self.stage_sfnm(v),
            7 => self.stage_buffered(v),
            8 => self.stage_aeoi(v),
            9 => self.stage_microprocessor(v),
            10 => self.stage_irq_mask(v),
            _ => unreachable!("no stub for {fid:?}"),
        }
        Ok(())
    }

    fn write_struct(&mut self, dev: &mut dyn DeviceAccess, sid: StructId) -> Result<(), RtError> {
        match sid.0 {
            0 => self.put_init(dev),
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

    fn superplan(&mut self, dev: &mut dyn DeviceAccess, k: usize, args: &[u64], _: &[u64], _: &mut [u64], _: &mut [u64]) -> Result<(), RtError> {
        match k {
            0 => self.sp_icw_init(dev, args[0], args[1], args[2], args[3], args[4], args[5], args[6]),
            _ => unreachable!("no stub for {k:?}"),
        }
        Ok(())
    }

    fn cache(&self) -> (Vec<u64>, Vec<bool>, Vec<u64>) {
        let slots: [&[u64]; 5] = [&[self.cache_icw1], &[self.cache_icw2], &[self.cache_icw3], &[self.cache_icw4], &[self.cache_ocw1]];
        let valid: [&[bool]; 5] = [&[self.valid_icw1], &[self.valid_icw2], &[self.valid_icw3], &[self.valid_icw4], &[self.valid_ocw1]];
        let mem = vec![];
        (slots.concat(), valid.concat(), mem)
    }
}
