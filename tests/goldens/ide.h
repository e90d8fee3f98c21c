/* Generated by devilc from device `ide`. Do not edit. */
#ifndef IDE_DIL_H
#define IDE_DIL_H

/* Define DEVIL_NO_SYS_IO to supply your own in/out primitives
 * (the compiled-stub test harness does). */
#ifndef DEVIL_NO_SYS_IO
#include <sys/io.h> /* inb/outb/inw/outw/inl/outl */
#endif

struct ide_cache_t {
    unsigned long __dil_base__[3];
    unsigned long long cache_dr;
    unsigned char valid_dr;
    unsigned long long cache_dr32;
    unsigned char valid_dr32;
    unsigned long long cache_features_reg;
    unsigned char valid_features_reg;
    unsigned long long cache_sc_reg;
    unsigned char valid_sc_reg;
    unsigned long long cache_lba_low_reg;
    unsigned char valid_lba_low_reg;
    unsigned long long cache_lba_mid_reg;
    unsigned char valid_lba_mid_reg;
    unsigned long long cache_lba_high_reg;
    unsigned char valid_lba_high_reg;
    unsigned long long cache_device_reg;
    unsigned char valid_device_reg;
    unsigned long long cache_status_reg;
    unsigned char valid_status_reg;
    unsigned long long cache_command_reg;
    unsigned char valid_command_reg;
};
extern struct ide_cache_t ide_cache;

#define ide_DRIVE_MASTER 0x0u
#define ide_DRIVE_SLAVE 0x1u
#define ide_COMMAND_READ_SECTORS 0x20u
#define ide_COMMAND_WRITE_SECTORS 0x30u
#define ide_COMMAND_READ_MULTIPLE 0xc4u
#define ide_COMMAND_SET_MULTIPLE 0xc6u
#define ide_COMMAND_READ_DMA 0xc8u
#define ide_COMMAND_IDENTIFY 0xecu

#define ide__read_dr() (inw(ide_cache.__dil_base__[0] + 0))
#define ide__write_dr(v) (outw((((v) & 0xffffull) | 0x0ull), ide_cache.__dil_base__[0] + 0))
#define ide__read_dr32() (inl(ide_cache.__dil_base__[1] + 0))
#define ide__write_dr32(v) (outl((((v) & 0xffffffffull) | 0x0ull), ide_cache.__dil_base__[1] + 0))
#define ide__write_features_reg(v) (outb((((v) & 0xffull) | 0x0ull), ide_cache.__dil_base__[2] + 1))
#define ide__write_sc_reg(v) (outb((((v) & 0xffull) | 0x0ull), ide_cache.__dil_base__[2] + 2))
#define ide__write_lba_low_reg(v) (outb((((v) & 0xffull) | 0x0ull), ide_cache.__dil_base__[2] + 3))
#define ide__write_lba_mid_reg(v) (outb((((v) & 0xffull) | 0x0ull), ide_cache.__dil_base__[2] + 4))
#define ide__write_lba_high_reg(v) (outb((((v) & 0xffull) | 0x0ull), ide_cache.__dil_base__[2] + 5))
#define ide__write_device_reg(v) (outb((((v) & 0x5full) | 0x40ull), ide_cache.__dil_base__[2] + 6))
#define ide__read_status_reg() (inb(ide_cache.__dil_base__[2] + 7))
#define ide__write_command_reg(v) (outb((((v) & 0xffull) | 0x0ull), ide_cache.__dil_base__[2] + 7))

#define ide_get_Ide_data() ( \
    (void)(ide_cache.cache_dr = ide__read_dr(), ide_cache.valid_dr = 1), \
    (ide_cache.cache_dr & 0xffffull) )
#define ide_set_Ide_data(v) ( \
    (void)(ide_cache.cache_dr = (ide_cache.cache_dr & 0xffffffffffff0000ull) | ((v) & 0xffffull), ide_cache.valid_dr = 1, ide__write_dr(ide_cache.cache_dr)) )
#define ide_get_Ide_data32() ( \
    (void)(ide_cache.cache_dr32 = ide__read_dr32(), ide_cache.valid_dr32 = 1), \
    (ide_cache.cache_dr32 & 0xffffffffull) )
#define ide_set_Ide_data32(v) ( \
    (void)(ide_cache.cache_dr32 = (ide_cache.cache_dr32 & 0xffffffff00000000ull) | ((v) & 0xffffffffull), ide_cache.valid_dr32 = 1, ide__write_dr32(ide_cache.cache_dr32)) )
#define ide_set_features(v) ( \
    (void)(ide_cache.cache_features_reg = (ide_cache.cache_features_reg & 0xffffffffffffff00ull) | ((v) & 0xffull), ide_cache.valid_features_reg = 1, ide__write_features_reg(ide_cache.cache_features_reg)) )
#define ide_set_sector_count(v) ( \
    (void)(ide_cache.cache_sc_reg = (ide_cache.cache_sc_reg & 0xffffffffffffff00ull) | ((v) & 0xffull), ide_cache.valid_sc_reg = 1, ide__write_sc_reg(ide_cache.cache_sc_reg)) )
#define ide_set_lba_low(v) ( \
    (void)(ide_cache.cache_lba_low_reg = (ide_cache.cache_lba_low_reg & 0xffffffffffffff00ull) | ((v) & 0xffull), ide_cache.valid_lba_low_reg = 1, ide__write_lba_low_reg(ide_cache.cache_lba_low_reg)) )
#define ide_set_lba_mid(v) ( \
    (void)(ide_cache.cache_lba_mid_reg = (ide_cache.cache_lba_mid_reg & 0xffffffffffffff00ull) | ((v) & 0xffull), ide_cache.valid_lba_mid_reg = 1, ide__write_lba_mid_reg(ide_cache.cache_lba_mid_reg)) )
#define ide_set_lba_high(v) ( \
    (void)(ide_cache.cache_lba_high_reg = (ide_cache.cache_lba_high_reg & 0xffffffffffffff00ull) | ((v) & 0xffull), ide_cache.valid_lba_high_reg = 1, ide__write_lba_high_reg(ide_cache.cache_lba_high_reg)) )
#define ide_set_drive(v) ( \
    (void)(ide_cache.cache_device_reg = (ide_cache.cache_device_reg & 0xffffffffffffffefull) | (((v) << 4) & 0x10ull), ide_cache.valid_device_reg = 1, ide__write_device_reg(ide_cache.cache_device_reg)) )
#define ide_set_lba_top(v) ( \
    (void)(ide_cache.cache_device_reg = (ide_cache.cache_device_reg & 0xfffffffffffffff0ull) | ((v) & 0xfull), ide_cache.valid_device_reg = 1, ide__write_device_reg(ide_cache.cache_device_reg)) )
#define ide_get_bsy() ( \
    (void)(ide_cache.cache_status_reg = ide__read_status_reg(), ide_cache.valid_status_reg = 1), \
    ((ide_cache.cache_status_reg & 0x80ull) >> 7) )
#define ide_get_drdy() ( \
    (void)(ide_cache.cache_status_reg = ide__read_status_reg(), ide_cache.valid_status_reg = 1), \
    ((ide_cache.cache_status_reg & 0x40ull) >> 6) )
#define ide_get_drq() ( \
    (void)(ide_cache.cache_status_reg = ide__read_status_reg(), ide_cache.valid_status_reg = 1), \
    ((ide_cache.cache_status_reg & 0x8ull) >> 3) )
#define ide_get_err() ( \
    (void)(ide_cache.cache_status_reg = ide__read_status_reg(), ide_cache.valid_status_reg = 1), \
    (ide_cache.cache_status_reg & 0x1ull) )
#define ide_set_command(v) ( \
    (void)(ide_cache.cache_command_reg = (ide_cache.cache_command_reg & 0xffffffffffffff00ull) | ((v) & 0xffull), ide_cache.valid_command_reg = 1, ide__write_command_reg(ide_cache.cache_command_reg)) )

/* Block-transfer primitives: one burst transaction per call.
 * The DEVIL_NO_SYS_IO harness supplies its own. */
#ifndef DEVIL_NO_SYS_IO
#define devil_ins16(p, b, n) do { unsigned long __i; \
    for (__i = 0; __i < (unsigned long)(n); ++__i) (b)[__i] = inw(p); } while (0)
#define devil_outs16(p, b, n) do { unsigned long __i; \
    for (__i = 0; __i < (unsigned long)(n); ++__i) outw((b)[__i], (p)); } while (0)
#define devil_ins32(p, b, n) do { unsigned long __i; \
    for (__i = 0; __i < (unsigned long)(n); ++__i) (b)[__i] = inl(p); } while (0)
#define devil_outs32(p, b, n) do { unsigned long __i; \
    for (__i = 0; __i < (unsigned long)(n); ++__i) outl((b)[__i], (p)); } while (0)
#endif
/* fused superplan `pio_irq16`: one guard evaluation, batched I/O. */
static inline void ide_sp_pio_irq16(unsigned long long *outs, unsigned long long *blk_in, unsigned long blk_in_n)
{
    ide_cache.cache_status_reg = ide__read_status_reg(), ide_cache.valid_status_reg = 1;
    outs[0] = ((ide_cache.cache_status_reg & 0x8ull) >> 3);
    ide_cache.cache_status_reg = ide__read_status_reg(), ide_cache.valid_status_reg = 1;
    outs[1] = (ide_cache.cache_status_reg & 0x1ull);
    ide_cache.cache_status_reg = ide__read_status_reg(), ide_cache.valid_status_reg = 1;
    outs[2] = ((ide_cache.cache_status_reg & 0x80ull) >> 7);
    devil_ins16(ide_cache.__dil_base__[0] + 0, blk_in, blk_in_n);
}
/* fused superplan `pio_irq32`: one guard evaluation, batched I/O. */
static inline void ide_sp_pio_irq32(unsigned long long *outs, unsigned long long *blk_in, unsigned long blk_in_n)
{
    ide_cache.cache_status_reg = ide__read_status_reg(), ide_cache.valid_status_reg = 1;
    outs[0] = ((ide_cache.cache_status_reg & 0x8ull) >> 3);
    ide_cache.cache_status_reg = ide__read_status_reg(), ide_cache.valid_status_reg = 1;
    outs[1] = (ide_cache.cache_status_reg & 0x1ull);
    ide_cache.cache_status_reg = ide__read_status_reg(), ide_cache.valid_status_reg = 1;
    outs[2] = ((ide_cache.cache_status_reg & 0x80ull) >> 7);
    devil_ins32(ide_cache.__dil_base__[1] + 0, blk_in, blk_in_n);
}

#endif /* IDE_DIL_H */
