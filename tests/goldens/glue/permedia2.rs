// Surface glue for the emitted `permedia2` module. Generated by devil-fuzz; do not edit.
use devil_fuzz::Surface;
use devil_runtime::{DeviceAccess, RtError};
use devil_sema::model::{StructId, VarId};

#[path = "../permedia2.rs"]
mod stubs;

/// A cold `Permedia2` behind its id-keyed surface.
pub fn fresh() -> Box<dyn Surface> {
    Box::new(stubs::Permedia2::new())
}

impl Surface for stubs::Permedia2 {
    fn read_var(&mut self, dev: &mut dyn DeviceAccess, vid: VarId, _: &[u64]) -> Result<u64, RtError> {
        Ok(match vid.0 {
            0 => self.get_fifo_space(dev),
            _ => unreachable!("no stub for {vid:?}"),
        })
    }

    fn write_var(&mut self, dev: &mut dyn DeviceAccess, vid: VarId, _: &[u64], v: u64) -> Result<(), RtError> {
        match vid.0 {
            1 => self.set_dst_x(dev, v),
            2 => self.set_dst_y(dev, v),
            3 => self.set_rect_w(dev, v),
            4 => self.set_rect_h(dev, v),
            5 => self.set_fill_color(dev, v),
            6 => self.set_render_op(dev, v),
            7 => self.set_src_x(dev, v),
            8 => self.set_src_y(dev, v),
            9 => self.set_depth(dev, v),
            10 => self.set_logical_op(dev, v),
            11 => self.set_write_mask(dev, v),
            12 => self.set_span_mode(dev, v),
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

    fn superplan(&mut self, dev: &mut dyn DeviceAccess, k: usize, args: &[u64], _: &[u64], _: &mut [u64], _: &mut [u64]) -> Result<(), RtError> {
        match k {
            0 => self.sp_fill24_burst(dev, args[0], args[1], args[2], args[3], args[4]),
            1 => self.sp_fill_std_setup(dev, args[0], args[1], args[2], args[3]),
            2 => self.sp_fill_std_finish(dev, args[0]),
            _ => unreachable!("no stub for {k:?}"),
        }
        Ok(())
    }

    fn cache(&self) -> (Vec<u64>, Vec<bool>, Vec<u64>) {
        let slots: [&[u64]; 10] = [&[self.cache_fifo], &[self.cache_rect_pos], &[self.cache_rect_size], &[self.cache_block_color], &[self.cache_render], &[self.cache_copy_src], &[self.cache_config], &[self.cache_scratch0], &[self.cache_scratch1], &[self.cache_scratch2]];
        let valid: [&[bool]; 10] = [&[self.valid_fifo], &[self.valid_rect_pos], &[self.valid_rect_size], &[self.valid_block_color], &[self.valid_render], &[self.valid_copy_src], &[self.valid_config], &[self.valid_scratch0], &[self.valid_scratch1], &[self.valid_scratch2]];
        let mem = vec![];
        (slots.concat(), valid.concat(), mem)
    }
}
