// Surface glue for the emitted `ne2000` module. Generated by devil-fuzz; do not edit.
use devil_fuzz::Surface;
use devil_runtime::{DeviceAccess, RtError};
use devil_sema::model::{StructId, VarId};

#[path = "../ne2000.rs"]
mod stubs;

/// A cold `Ne2000` behind its id-keyed surface.
pub fn fresh() -> Box<dyn Surface> {
    Box::new(stubs::Ne2000::new())
}

impl Surface for stubs::Ne2000 {
    fn read_var(&mut self, dev: &mut dyn DeviceAccess, vid: VarId, _: &[u64]) -> Result<u64, RtError> {
        Ok(match vid.0 {
            0 => self.get_st(dev),
            1 => self.get_txp(dev),
            2 => self.get_rd(dev),
            3 => self.get_page(dev),
            6 => self.get_bnry(dev),
            9 => self.get_prx(dev),
            10 => self.get_ptx(dev),
            11 => self.get_rdc(dev),
            16 => self.get_remote_data(dev),
            _ => unreachable!("no stub for {vid:?}"),
        })
    }

    fn write_var(&mut self, dev: &mut dyn DeviceAccess, vid: VarId, _: &[u64], v: u64) -> Result<(), RtError> {
        match vid.0 {
            0 => self.set_st(dev, v),
            1 => self.set_txp(dev, v),
            2 => self.set_rd(dev, v),
            3 => self.set_page(dev, v),
            4 => self.set_pstart(dev, v),
            5 => self.set_pstop(dev, v),
            6 => self.set_bnry(dev, v),
            7 => self.set_tpsr(dev, v),
            8 => self.set_tbcr(dev, v),
            9 => self.set_prx(dev, v),
            10 => self.set_ptx(dev, v),
            11 => self.set_rdc(dev, v),
            12 => self.set_rsar(dev, v),
            13 => self.set_rbcr(dev, v),
            14 => self.set_data_config(dev, v),
            15 => self.set_int_mask(dev, v),
            16 => self.set_remote_data(dev, v),
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

    fn superplan(&mut self, dev: &mut dyn DeviceAccess, k: usize, args: &[u64], block_out: &[u64], _: &mut [u64], _: &mut [u64]) -> Result<(), RtError> {
        match k {
            0 => self.sp_tx(dev, args[0], args[1], args[2], block_out),
            _ => unreachable!("no stub for {k:?}"),
        }
        Ok(())
    }

    fn cache(&self) -> (Vec<u64>, Vec<bool>, Vec<u64>) {
        let slots: [&[u64]; 15] = [&[self.cache_cr], &[self.cache_pstart_reg], &[self.cache_pstop_reg], &[self.cache_bnry_reg], &[self.cache_tpsr_reg], &[self.cache_tbcr0], &[self.cache_tbcr1], &[self.cache_isr_reg], &[self.cache_rsar0], &[self.cache_rsar1], &[self.cache_rbcr0], &[self.cache_rbcr1], &[self.cache_dcr], &[self.cache_imr_reg], &[self.cache_dr]];
        let valid: [&[bool]; 15] = [&[self.valid_cr], &[self.valid_pstart_reg], &[self.valid_pstop_reg], &[self.valid_bnry_reg], &[self.valid_tpsr_reg], &[self.valid_tbcr0], &[self.valid_tbcr1], &[self.valid_isr_reg], &[self.valid_rsar0], &[self.valid_rsar1], &[self.valid_rbcr0], &[self.valid_rbcr1], &[self.valid_dcr], &[self.valid_imr_reg], &[self.valid_dr]];
        let mem = vec![];
        (slots.concat(), valid.concat(), mem)
    }
}
