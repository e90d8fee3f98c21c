/* Generated by devilc from device `dma8237`. Do not edit. */
#ifndef DMA_DIL_H
#define DMA_DIL_H

/* Define DEVIL_NO_SYS_IO to supply your own in/out primitives
 * (the compiled-stub test harness does). */
#ifndef DEVIL_NO_SYS_IO
#include <sys/io.h> /* inb/outb/inw/outw/inl/outl */
#endif

struct dma_cache_t {
    unsigned long __dil_base__[1];
    unsigned long long cache_ff_reg;
    unsigned char valid_ff_reg;
    unsigned long long cache_addr0_low;
    unsigned char valid_addr0_low;
    unsigned long long cache_addr0_high;
    unsigned char valid_addr0_high;
    unsigned long long cache_count0_low;
    unsigned char valid_count0_low;
    unsigned long long cache_count0_high;
    unsigned char valid_count0_high;
    unsigned long long cache_addr1_low;
    unsigned char valid_addr1_low;
    unsigned long long cache_addr1_high;
    unsigned char valid_addr1_high;
    unsigned long long cache_count1_low;
    unsigned char valid_count1_low;
    unsigned long long cache_count1_high;
    unsigned char valid_count1_high;
    unsigned long long cache_addr2_low;
    unsigned char valid_addr2_low;
    unsigned long long cache_addr2_high;
    unsigned char valid_addr2_high;
    unsigned long long cache_count2_low;
    unsigned char valid_count2_low;
    unsigned long long cache_count2_high;
    unsigned char valid_count2_high;
    unsigned long long cache_addr3_low;
    unsigned char valid_addr3_low;
    unsigned long long cache_addr3_high;
    unsigned char valid_addr3_high;
    unsigned long long cache_count3_low;
    unsigned char valid_count3_low;
    unsigned long long cache_count3_high;
    unsigned char valid_count3_high;
    unsigned long long cache_command_reg;
    unsigned char valid_command_reg;
    unsigned long long cache_status_reg;
    unsigned char valid_status_reg;
    unsigned long long cache_request_reg;
    unsigned char valid_request_reg;
    unsigned long long cache_single_mask_reg;
    unsigned char valid_single_mask_reg;
    unsigned long long cache_mode_reg;
    unsigned char valid_mode_reg;
    unsigned long long cache_master_clear_reg;
    unsigned char valid_master_clear_reg;
    unsigned long long cache_all_mask_reg;
    unsigned char valid_all_mask_reg;
};
extern struct dma_cache_t dma_cache;


#define dma__write_ff_reg(v) (outb((((v) & 0x1ull) | 0x0ull), dma_cache.__dil_base__[0] + 12))
#define dma__read_addr0_low() (inb(dma_cache.__dil_base__[0] + 0))
#define dma__write_addr0_low(v) (outb((((v) & 0xffull) | 0x0ull), dma_cache.__dil_base__[0] + 0))
#define dma__read_addr0_high() (inb(dma_cache.__dil_base__[0] + 0))
#define dma__write_addr0_high(v) (outb((((v) & 0xffull) | 0x0ull), dma_cache.__dil_base__[0] + 0))
#define dma__read_count0_low() (inb(dma_cache.__dil_base__[0] + 1))
#define dma__write_count0_low(v) (outb((((v) & 0xffull) | 0x0ull), dma_cache.__dil_base__[0] + 1))
#define dma__read_count0_high() (inb(dma_cache.__dil_base__[0] + 1))
#define dma__write_count0_high(v) (outb((((v) & 0xffull) | 0x0ull), dma_cache.__dil_base__[0] + 1))
#define dma__read_addr1_low() (inb(dma_cache.__dil_base__[0] + 2))
#define dma__write_addr1_low(v) (outb((((v) & 0xffull) | 0x0ull), dma_cache.__dil_base__[0] + 2))
#define dma__read_addr1_high() (inb(dma_cache.__dil_base__[0] + 2))
#define dma__write_addr1_high(v) (outb((((v) & 0xffull) | 0x0ull), dma_cache.__dil_base__[0] + 2))
#define dma__read_count1_low() (inb(dma_cache.__dil_base__[0] + 3))
#define dma__write_count1_low(v) (outb((((v) & 0xffull) | 0x0ull), dma_cache.__dil_base__[0] + 3))
#define dma__read_count1_high() (inb(dma_cache.__dil_base__[0] + 3))
#define dma__write_count1_high(v) (outb((((v) & 0xffull) | 0x0ull), dma_cache.__dil_base__[0] + 3))
#define dma__read_addr2_low() (inb(dma_cache.__dil_base__[0] + 4))
#define dma__write_addr2_low(v) (outb((((v) & 0xffull) | 0x0ull), dma_cache.__dil_base__[0] + 4))
#define dma__read_addr2_high() (inb(dma_cache.__dil_base__[0] + 4))
#define dma__write_addr2_high(v) (outb((((v) & 0xffull) | 0x0ull), dma_cache.__dil_base__[0] + 4))
#define dma__read_count2_low() (inb(dma_cache.__dil_base__[0] + 5))
#define dma__write_count2_low(v) (outb((((v) & 0xffull) | 0x0ull), dma_cache.__dil_base__[0] + 5))
#define dma__read_count2_high() (inb(dma_cache.__dil_base__[0] + 5))
#define dma__write_count2_high(v) (outb((((v) & 0xffull) | 0x0ull), dma_cache.__dil_base__[0] + 5))
#define dma__read_addr3_low() (inb(dma_cache.__dil_base__[0] + 6))
#define dma__write_addr3_low(v) (outb((((v) & 0xffull) | 0x0ull), dma_cache.__dil_base__[0] + 6))
#define dma__read_addr3_high() (inb(dma_cache.__dil_base__[0] + 6))
#define dma__write_addr3_high(v) (outb((((v) & 0xffull) | 0x0ull), dma_cache.__dil_base__[0] + 6))
#define dma__read_count3_low() (inb(dma_cache.__dil_base__[0] + 7))
#define dma__write_count3_low(v) (outb((((v) & 0xffull) | 0x0ull), dma_cache.__dil_base__[0] + 7))
#define dma__read_count3_high() (inb(dma_cache.__dil_base__[0] + 7))
#define dma__write_count3_high(v) (outb((((v) & 0xffull) | 0x0ull), dma_cache.__dil_base__[0] + 7))
#define dma__write_command_reg(v) (outb((((v) & 0xffull) | 0x0ull), dma_cache.__dil_base__[0] + 8))
#define dma__read_status_reg() (inb(dma_cache.__dil_base__[0] + 8))
#define dma__write_request_reg(v) (outb((((v) & 0x7ull) | 0x0ull), dma_cache.__dil_base__[0] + 9))
#define dma__write_single_mask_reg(v) (outb((((v) & 0x7ull) | 0x0ull), dma_cache.__dil_base__[0] + 10))
#define dma__write_mode_reg(v) (outb((((v) & 0xffull) | 0x0ull), dma_cache.__dil_base__[0] + 11))
#define dma__write_master_clear_reg(v) (outb((((v) & 0x1ull) | 0x0ull), dma_cache.__dil_base__[0] + 13))
#define dma__write_all_mask_reg(v) (outb((((v) & 0xfull) | 0x0ull), dma_cache.__dil_base__[0] + 15))

#define dma_set_flip_flop(v) ( \
    (void)(dma_cache.cache_ff_reg = (dma_cache.cache_ff_reg & 0xfffffffffffffffeull) | ((v) & 0x1ull), dma_cache.valid_ff_reg = 1, dma__write_ff_reg(dma_cache.cache_ff_reg)) )
#define dma_get_addr0() ( \
    ((dma_cache.valid_addr0_high && dma_cache.valid_addr0_low) ? (void)0 : \
    (void)(dma_cache.cache_ff_reg = (dma_cache.cache_ff_reg & 0xfffffffffffffffeull), dma_cache.valid_ff_reg = 1, dma__write_ff_reg(dma_cache.cache_ff_reg), \
    dma_cache.cache_addr0_low = dma__read_addr0_low(), dma_cache.valid_addr0_low = 1, \
    dma_cache.cache_addr0_high = dma__read_addr0_high(), dma_cache.valid_addr0_high = 1)), \
    ((dma_cache.cache_addr0_high & 0xffull) << 8) | (dma_cache.cache_addr0_low & 0xffull) )
#define dma_set_addr0(v) ( \
    (void)(dma_cache.cache_ff_reg = (dma_cache.cache_ff_reg & 0xfffffffffffffffeull), dma_cache.valid_ff_reg = 1, dma__write_ff_reg(dma_cache.cache_ff_reg), \
    dma_cache.cache_addr0_low = (dma_cache.cache_addr0_low & 0xffffffffffffff00ull) | ((v) & 0xffull), dma_cache.valid_addr0_low = 1, dma__write_addr0_low(dma_cache.cache_addr0_low), \
    dma_cache.cache_addr0_high = (dma_cache.cache_addr0_high & 0xffffffffffffff00ull) | (((v) >> 8) & 0xffull), dma_cache.valid_addr0_high = 1, dma__write_addr0_high(dma_cache.cache_addr0_high)) )
#define dma_get_count0() ( \
    ((dma_cache.valid_count0_high && dma_cache.valid_count0_low) ? (void)0 : \
    (void)(dma_cache.cache_ff_reg = (dma_cache.cache_ff_reg & 0xfffffffffffffffeull), dma_cache.valid_ff_reg = 1, dma__write_ff_reg(dma_cache.cache_ff_reg), \
    dma_cache.cache_count0_low = dma__read_count0_low(), dma_cache.valid_count0_low = 1, \
    dma_cache.cache_count0_high = dma__read_count0_high(), dma_cache.valid_count0_high = 1)), \
    ((dma_cache.cache_count0_high & 0xffull) << 8) | (dma_cache.cache_count0_low & 0xffull) )
#define dma_set_count0(v) ( \
    (void)(dma_cache.cache_ff_reg = (dma_cache.cache_ff_reg & 0xfffffffffffffffeull), dma_cache.valid_ff_reg = 1, dma__write_ff_reg(dma_cache.cache_ff_reg), \
    dma_cache.cache_count0_low = (dma_cache.cache_count0_low & 0xffffffffffffff00ull) | ((v) & 0xffull), dma_cache.valid_count0_low = 1, dma__write_count0_low(dma_cache.cache_count0_low), \
    dma_cache.cache_count0_high = (dma_cache.cache_count0_high & 0xffffffffffffff00ull) | (((v) >> 8) & 0xffull), dma_cache.valid_count0_high = 1, dma__write_count0_high(dma_cache.cache_count0_high)) )
#define dma_get_addr1() ( \
    ((dma_cache.valid_addr1_high && dma_cache.valid_addr1_low) ? (void)0 : \
    (void)(dma_cache.cache_ff_reg = (dma_cache.cache_ff_reg & 0xfffffffffffffffeull), dma_cache.valid_ff_reg = 1, dma__write_ff_reg(dma_cache.cache_ff_reg), \
    dma_cache.cache_addr1_low = dma__read_addr1_low(), dma_cache.valid_addr1_low = 1, \
    dma_cache.cache_addr1_high = dma__read_addr1_high(), dma_cache.valid_addr1_high = 1)), \
    ((dma_cache.cache_addr1_high & 0xffull) << 8) | (dma_cache.cache_addr1_low & 0xffull) )
#define dma_set_addr1(v) ( \
    (void)(dma_cache.cache_ff_reg = (dma_cache.cache_ff_reg & 0xfffffffffffffffeull), dma_cache.valid_ff_reg = 1, dma__write_ff_reg(dma_cache.cache_ff_reg), \
    dma_cache.cache_addr1_low = (dma_cache.cache_addr1_low & 0xffffffffffffff00ull) | ((v) & 0xffull), dma_cache.valid_addr1_low = 1, dma__write_addr1_low(dma_cache.cache_addr1_low), \
    dma_cache.cache_addr1_high = (dma_cache.cache_addr1_high & 0xffffffffffffff00ull) | (((v) >> 8) & 0xffull), dma_cache.valid_addr1_high = 1, dma__write_addr1_high(dma_cache.cache_addr1_high)) )
#define dma_get_count1() ( \
    ((dma_cache.valid_count1_high && dma_cache.valid_count1_low) ? (void)0 : \
    (void)(dma_cache.cache_ff_reg = (dma_cache.cache_ff_reg & 0xfffffffffffffffeull), dma_cache.valid_ff_reg = 1, dma__write_ff_reg(dma_cache.cache_ff_reg), \
    dma_cache.cache_count1_low = dma__read_count1_low(), dma_cache.valid_count1_low = 1, \
    dma_cache.cache_count1_high = dma__read_count1_high(), dma_cache.valid_count1_high = 1)), \
    ((dma_cache.cache_count1_high & 0xffull) << 8) | (dma_cache.cache_count1_low & 0xffull) )
#define dma_set_count1(v) ( \
    (void)(dma_cache.cache_ff_reg = (dma_cache.cache_ff_reg & 0xfffffffffffffffeull), dma_cache.valid_ff_reg = 1, dma__write_ff_reg(dma_cache.cache_ff_reg), \
    dma_cache.cache_count1_low = (dma_cache.cache_count1_low & 0xffffffffffffff00ull) | ((v) & 0xffull), dma_cache.valid_count1_low = 1, dma__write_count1_low(dma_cache.cache_count1_low), \
    dma_cache.cache_count1_high = (dma_cache.cache_count1_high & 0xffffffffffffff00ull) | (((v) >> 8) & 0xffull), dma_cache.valid_count1_high = 1, dma__write_count1_high(dma_cache.cache_count1_high)) )
#define dma_get_addr2() ( \
    ((dma_cache.valid_addr2_high && dma_cache.valid_addr2_low) ? (void)0 : \
    (void)(dma_cache.cache_ff_reg = (dma_cache.cache_ff_reg & 0xfffffffffffffffeull), dma_cache.valid_ff_reg = 1, dma__write_ff_reg(dma_cache.cache_ff_reg), \
    dma_cache.cache_addr2_low = dma__read_addr2_low(), dma_cache.valid_addr2_low = 1, \
    dma_cache.cache_addr2_high = dma__read_addr2_high(), dma_cache.valid_addr2_high = 1)), \
    ((dma_cache.cache_addr2_high & 0xffull) << 8) | (dma_cache.cache_addr2_low & 0xffull) )
#define dma_set_addr2(v) ( \
    (void)(dma_cache.cache_ff_reg = (dma_cache.cache_ff_reg & 0xfffffffffffffffeull), dma_cache.valid_ff_reg = 1, dma__write_ff_reg(dma_cache.cache_ff_reg), \
    dma_cache.cache_addr2_low = (dma_cache.cache_addr2_low & 0xffffffffffffff00ull) | ((v) & 0xffull), dma_cache.valid_addr2_low = 1, dma__write_addr2_low(dma_cache.cache_addr2_low), \
    dma_cache.cache_addr2_high = (dma_cache.cache_addr2_high & 0xffffffffffffff00ull) | (((v) >> 8) & 0xffull), dma_cache.valid_addr2_high = 1, dma__write_addr2_high(dma_cache.cache_addr2_high)) )
#define dma_get_count2() ( \
    ((dma_cache.valid_count2_high && dma_cache.valid_count2_low) ? (void)0 : \
    (void)(dma_cache.cache_ff_reg = (dma_cache.cache_ff_reg & 0xfffffffffffffffeull), dma_cache.valid_ff_reg = 1, dma__write_ff_reg(dma_cache.cache_ff_reg), \
    dma_cache.cache_count2_low = dma__read_count2_low(), dma_cache.valid_count2_low = 1, \
    dma_cache.cache_count2_high = dma__read_count2_high(), dma_cache.valid_count2_high = 1)), \
    ((dma_cache.cache_count2_high & 0xffull) << 8) | (dma_cache.cache_count2_low & 0xffull) )
#define dma_set_count2(v) ( \
    (void)(dma_cache.cache_ff_reg = (dma_cache.cache_ff_reg & 0xfffffffffffffffeull), dma_cache.valid_ff_reg = 1, dma__write_ff_reg(dma_cache.cache_ff_reg), \
    dma_cache.cache_count2_low = (dma_cache.cache_count2_low & 0xffffffffffffff00ull) | ((v) & 0xffull), dma_cache.valid_count2_low = 1, dma__write_count2_low(dma_cache.cache_count2_low), \
    dma_cache.cache_count2_high = (dma_cache.cache_count2_high & 0xffffffffffffff00ull) | (((v) >> 8) & 0xffull), dma_cache.valid_count2_high = 1, dma__write_count2_high(dma_cache.cache_count2_high)) )
#define dma_get_addr3() ( \
    ((dma_cache.valid_addr3_high && dma_cache.valid_addr3_low) ? (void)0 : \
    (void)(dma_cache.cache_ff_reg = (dma_cache.cache_ff_reg & 0xfffffffffffffffeull), dma_cache.valid_ff_reg = 1, dma__write_ff_reg(dma_cache.cache_ff_reg), \
    dma_cache.cache_addr3_low = dma__read_addr3_low(), dma_cache.valid_addr3_low = 1, \
    dma_cache.cache_addr3_high = dma__read_addr3_high(), dma_cache.valid_addr3_high = 1)), \
    ((dma_cache.cache_addr3_high & 0xffull) << 8) | (dma_cache.cache_addr3_low & 0xffull) )
#define dma_set_addr3(v) ( \
    (void)(dma_cache.cache_ff_reg = (dma_cache.cache_ff_reg & 0xfffffffffffffffeull), dma_cache.valid_ff_reg = 1, dma__write_ff_reg(dma_cache.cache_ff_reg), \
    dma_cache.cache_addr3_low = (dma_cache.cache_addr3_low & 0xffffffffffffff00ull) | ((v) & 0xffull), dma_cache.valid_addr3_low = 1, dma__write_addr3_low(dma_cache.cache_addr3_low), \
    dma_cache.cache_addr3_high = (dma_cache.cache_addr3_high & 0xffffffffffffff00ull) | (((v) >> 8) & 0xffull), dma_cache.valid_addr3_high = 1, dma__write_addr3_high(dma_cache.cache_addr3_high)) )
#define dma_get_count3() ( \
    ((dma_cache.valid_count3_high && dma_cache.valid_count3_low) ? (void)0 : \
    (void)(dma_cache.cache_ff_reg = (dma_cache.cache_ff_reg & 0xfffffffffffffffeull), dma_cache.valid_ff_reg = 1, dma__write_ff_reg(dma_cache.cache_ff_reg), \
    dma_cache.cache_count3_low = dma__read_count3_low(), dma_cache.valid_count3_low = 1, \
    dma_cache.cache_count3_high = dma__read_count3_high(), dma_cache.valid_count3_high = 1)), \
    ((dma_cache.cache_count3_high & 0xffull) << 8) | (dma_cache.cache_count3_low & 0xffull) )
#define dma_set_count3(v) ( \
    (void)(dma_cache.cache_ff_reg = (dma_cache.cache_ff_reg & 0xfffffffffffffffeull), dma_cache.valid_ff_reg = 1, dma__write_ff_reg(dma_cache.cache_ff_reg), \
    dma_cache.cache_count3_low = (dma_cache.cache_count3_low & 0xffffffffffffff00ull) | ((v) & 0xffull), dma_cache.valid_count3_low = 1, dma__write_count3_low(dma_cache.cache_count3_low), \
    dma_cache.cache_count3_high = (dma_cache.cache_count3_high & 0xffffffffffffff00ull) | (((v) >> 8) & 0xffull), dma_cache.valid_count3_high = 1, dma__write_count3_high(dma_cache.cache_count3_high)) )
#define dma_set_command(v) ( \
    (void)(dma_cache.cache_command_reg = (dma_cache.cache_command_reg & 0xffffffffffffff00ull) | ((v) & 0xffull), dma_cache.valid_command_reg = 1, dma__write_command_reg(dma_cache.cache_command_reg)) )
#define dma_get_tc_status() ( \
    (void)(dma_cache.cache_status_reg = dma__read_status_reg(), dma_cache.valid_status_reg = 1), \
    (dma_cache.cache_status_reg & 0xfull) )
#define dma_set_request(v) ( \
    (void)(dma_cache.cache_request_reg = (dma_cache.cache_request_reg & 0xfffffffffffffff8ull) | ((v) & 0x7ull), dma_cache.valid_request_reg = 1, dma__write_request_reg(dma_cache.cache_request_reg)) )
#define dma_set_single_mask(v) ( \
    (void)(dma_cache.cache_single_mask_reg = (dma_cache.cache_single_mask_reg & 0xfffffffffffffff8ull) | ((v) & 0x7ull), dma_cache.valid_single_mask_reg = 1, dma__write_single_mask_reg(dma_cache.cache_single_mask_reg)) )
#define dma_set_mode(v) ( \
    (void)(dma_cache.cache_mode_reg = (dma_cache.cache_mode_reg & 0xffffffffffffff00ull) | ((v) & 0xffull), dma_cache.valid_mode_reg = 1, dma__write_mode_reg(dma_cache.cache_mode_reg)) )
#define dma_set_master_clear(v) ( \
    (void)(dma_cache.cache_master_clear_reg = (dma_cache.cache_master_clear_reg & 0xfffffffffffffffeull) | ((v) & 0x1ull), dma_cache.valid_master_clear_reg = 1, dma__write_master_clear_reg(dma_cache.cache_master_clear_reg)) )
#define dma_set_all_mask(v) ( \
    (void)(dma_cache.cache_all_mask_reg = (dma_cache.cache_all_mask_reg & 0xfffffffffffffff0ull) | ((v) & 0xfull), dma_cache.valid_all_mask_reg = 1, dma__write_all_mask_reg(dma_cache.cache_all_mask_reg)) )

#endif /* DMA_DIL_H */
