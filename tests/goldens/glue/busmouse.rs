// Surface glue for the emitted `logitech_busmouse` module. Generated by devil-fuzz; do not edit.
use devil_fuzz::Surface;
use devil_runtime::{DeviceAccess, RtError};
use devil_sema::model::{StructId, VarId};

#[path = "../busmouse.rs"]
mod stubs;

/// A cold `LogitechBusmouse` behind its id-keyed surface.
pub fn fresh() -> Box<dyn Surface> {
    Box::new(stubs::LogitechBusmouse::new())
}

impl Surface for stubs::LogitechBusmouse {
    fn read_var(&mut self, dev: &mut dyn DeviceAccess, vid: VarId, _: &[u64]) -> Result<u64, RtError> {
        Ok(match vid.0 {
            0 => self.get_signature(dev),
            4 => (self.read_dx(dev) as u64) & 0xff,
            5 => (self.read_dy(dev) as u64) & 0xff,
            6 => self.read_buttons(dev),
            _ => unreachable!("no stub for {vid:?}"),
        })
    }

    fn write_var(&mut self, dev: &mut dyn DeviceAccess, vid: VarId, _: &[u64], v: u64) -> Result<(), RtError> {
        match vid.0 {
            0 => self.set_signature(dev, v),
            1 => self.set_config(dev, v),
            2 => self.set_interrupt(dev, v),
            3 => self.set_index(dev, v),
            _ => unreachable!("no stub for {vid:?}"),
        }
        Ok(())
    }

    fn read_struct(&mut self, dev: &mut dyn DeviceAccess, sid: StructId) -> Result<(), RtError> {
        match sid.0 {
            0 => self.get_mouse_state(dev),
            _ => unreachable!("no stub for {sid:?}"),
        }
        Ok(())
    }

    fn get_field(&mut self, fid: VarId) -> Result<u64, RtError> {
        Ok(match fid.0 {
            4 => (self.get_dx() as u64) & 0xff,
            5 => (self.get_dy() as u64) & 0xff,
            6 => self.get_buttons(),
            _ => unreachable!("no stub for {fid:?}"),
        })
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
        let slots: [&[u64]; 8] = [&[self.cache_sig_reg], &[self.cache_cr], &[self.cache_interrupt_reg], &[self.cache_index_reg], &[self.cache_x_low], &[self.cache_x_high], &[self.cache_y_low], &[self.cache_y_high]];
        let valid: [&[bool]; 8] = [&[self.valid_sig_reg], &[self.valid_cr], &[self.valid_interrupt_reg], &[self.valid_index_reg], &[self.valid_x_low], &[self.valid_x_high], &[self.valid_y_low], &[self.valid_y_high]];
        let mem = vec![];
        (slots.concat(), valid.concat(), mem)
    }
}
