// Surface glue for the emitted `dma8237` module. Generated by devil-fuzz; do not edit.
use devil_fuzz::Surface;
use devil_runtime::{DeviceAccess, RtError};
use devil_sema::model::{StructId, VarId};

#[path = "../dma8237.rs"]
mod stubs;

/// A cold `Dma8237` behind its id-keyed surface.
pub fn fresh() -> Box<dyn Surface> {
    Box::new(stubs::Dma8237::new())
}

impl Surface for stubs::Dma8237 {
    fn read_var(&mut self, dev: &mut dyn DeviceAccess, vid: VarId, _: &[u64]) -> Result<u64, RtError> {
        Ok(match vid.0 {
            1 => self.get_addr0(dev),
            2 => self.get_count0(dev),
            3 => self.get_addr1(dev),
            4 => self.get_count1(dev),
            5 => self.get_addr2(dev),
            6 => self.get_count2(dev),
            7 => self.get_addr3(dev),
            8 => self.get_count3(dev),
            10 => self.get_tc_status(dev),
            _ => unreachable!("no stub for {vid:?}"),
        })
    }

    fn write_var(&mut self, dev: &mut dyn DeviceAccess, vid: VarId, _: &[u64], v: u64) -> Result<(), RtError> {
        match vid.0 {
            0 => self.set_flip_flop(dev, v),
            1 => self.set_addr0(dev, v),
            2 => self.set_count0(dev, v),
            3 => self.set_addr1(dev, v),
            4 => self.set_count1(dev, v),
            5 => self.set_addr2(dev, v),
            6 => self.set_count2(dev, v),
            7 => self.set_addr3(dev, v),
            8 => self.set_count3(dev, v),
            9 => self.set_command(dev, v),
            11 => self.set_request(dev, v),
            12 => self.set_single_mask(dev, v),
            13 => self.set_mode(dev, v),
            14 => self.set_master_clear(dev, v),
            15 => self.set_all_mask(dev, v),
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
        let slots: [&[u64]; 24] = [&[self.cache_ff_reg], &[self.cache_addr0_low], &[self.cache_addr0_high], &[self.cache_count0_low], &[self.cache_count0_high], &[self.cache_addr1_low], &[self.cache_addr1_high], &[self.cache_count1_low], &[self.cache_count1_high], &[self.cache_addr2_low], &[self.cache_addr2_high], &[self.cache_count2_low], &[self.cache_count2_high], &[self.cache_addr3_low], &[self.cache_addr3_high], &[self.cache_count3_low], &[self.cache_count3_high], &[self.cache_command_reg], &[self.cache_status_reg], &[self.cache_request_reg], &[self.cache_single_mask_reg], &[self.cache_mode_reg], &[self.cache_master_clear_reg], &[self.cache_all_mask_reg]];
        let valid: [&[bool]; 24] = [&[self.valid_ff_reg], &[self.valid_addr0_low], &[self.valid_addr0_high], &[self.valid_count0_low], &[self.valid_count0_high], &[self.valid_addr1_low], &[self.valid_addr1_high], &[self.valid_count1_low], &[self.valid_count1_high], &[self.valid_addr2_low], &[self.valid_addr2_high], &[self.valid_count2_low], &[self.valid_count2_high], &[self.valid_addr3_low], &[self.valid_addr3_high], &[self.valid_count3_low], &[self.valid_count3_high], &[self.valid_command_reg], &[self.valid_status_reg], &[self.valid_request_reg], &[self.valid_single_mask_reg], &[self.valid_mode_reg], &[self.valid_master_clear_reg], &[self.valid_all_mask_reg]];
        let mem = vec![];
        (slots.concat(), valid.concat(), mem)
    }
}
