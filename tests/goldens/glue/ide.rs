// Surface glue for the emitted `ide` module. Generated by devil-fuzz; do not edit.
use devil_fuzz::Surface;
use devil_runtime::{DeviceAccess, RtError};
use devil_sema::model::{StructId, VarId};

#[path = "../ide.rs"]
mod stubs;

/// A cold `Ide` behind its id-keyed surface.
pub fn fresh() -> Box<dyn Surface> {
    Box::new(stubs::Ide::new())
}

impl Surface for stubs::Ide {
    fn read_var(&mut self, dev: &mut dyn DeviceAccess, vid: VarId, _: &[u64]) -> Result<u64, RtError> {
        Ok(match vid.0 {
            0 => self.get_Ide_data(dev),
            1 => self.get_Ide_data32(dev),
            9 => self.get_bsy(dev),
            10 => self.get_drdy(dev),
            11 => self.get_drq(dev),
            12 => self.get_err(dev),
            _ => unreachable!("no stub for {vid:?}"),
        })
    }

    fn write_var(&mut self, dev: &mut dyn DeviceAccess, vid: VarId, _: &[u64], v: u64) -> Result<(), RtError> {
        match vid.0 {
            0 => self.set_Ide_data(dev, v),
            1 => self.set_Ide_data32(dev, v),
            2 => self.set_features(dev, v),
            3 => self.set_sector_count(dev, v),
            4 => self.set_lba_low(dev, v),
            5 => self.set_lba_mid(dev, v),
            6 => self.set_lba_high(dev, v),
            7 => self.set_drive(dev, v),
            8 => self.set_lba_top(dev, v),
            13 => self.set_command(dev, v),
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

    fn superplan(&mut self, dev: &mut dyn DeviceAccess, k: usize, _: &[u64], _: &[u64], block_in: &mut [u64], outs: &mut [u64]) -> Result<(), RtError> {
        match k {
            0 => self.sp_pio_irq16(dev, outs, block_in),
            1 => self.sp_pio_irq32(dev, outs, block_in),
            _ => unreachable!("no stub for {k:?}"),
        }
        Ok(())
    }

    fn cache(&self) -> (Vec<u64>, Vec<bool>, Vec<u64>) {
        let slots: [&[u64]; 10] = [&[self.cache_dr], &[self.cache_dr32], &[self.cache_features_reg], &[self.cache_sc_reg], &[self.cache_lba_low_reg], &[self.cache_lba_mid_reg], &[self.cache_lba_high_reg], &[self.cache_device_reg], &[self.cache_status_reg], &[self.cache_command_reg]];
        let valid: [&[bool]; 10] = [&[self.valid_dr], &[self.valid_dr32], &[self.valid_features_reg], &[self.valid_sc_reg], &[self.valid_lba_low_reg], &[self.valid_lba_mid_reg], &[self.valid_lba_high_reg], &[self.valid_device_reg], &[self.valid_status_reg], &[self.valid_command_reg]];
        let mem = vec![];
        (slots.concat(), valid.concat(), mem)
    }
}
