/* Generated by devilc from device `piix4ide`. Do not edit. */
#ifndef PIIX4IDE_DIL_H
#define PIIX4IDE_DIL_H

/* Define DEVIL_NO_SYS_IO to supply your own in/out primitives
 * (the compiled-stub test harness does). */
#ifndef DEVIL_NO_SYS_IO
#include <sys/io.h> /* inb/outb/inw/outw/inl/outl */
#endif

struct piix4ide_cache_t {
    unsigned long __dil_base__[2];
    unsigned long long cache_bmcmd;
    unsigned char valid_bmcmd;
    unsigned long long cache_bmstatus;
    unsigned char valid_bmstatus;
    unsigned long long cache_prd_reg;
    unsigned char valid_prd_reg;
};
extern struct piix4ide_cache_t piix4ide_cache;

#define piix4ide_BM_DIR_TO_MEMORY 0x1u
#define piix4ide_BM_DIR_FROM_MEMORY 0x0u

#define piix4ide__write_bmcmd(v) (outb((((v) & 0x9ull) | 0x0ull), piix4ide_cache.__dil_base__[0] + 0))
#define piix4ide__read_bmstatus() (inb(piix4ide_cache.__dil_base__[0] + 2))
#define piix4ide__write_bmstatus(v) (outb((((v) & 0x4ull) | 0x0ull), piix4ide_cache.__dil_base__[0] + 2))
#define piix4ide__write_prd_reg(v) (outl((((v) & 0xffffffffull) | 0x0ull), piix4ide_cache.__dil_base__[1] + 4))

#define piix4ide_set_bm_dir(v) ( \
    (void)(piix4ide_cache.cache_bmcmd = (piix4ide_cache.cache_bmcmd & 0xfffffffffffffff7ull) | (((v) << 3) & 0x8ull), piix4ide_cache.valid_bmcmd = 1, piix4ide__write_bmcmd(piix4ide_cache.cache_bmcmd)) )
#define piix4ide_set_bm_start(v) ( \
    (void)(piix4ide_cache.cache_bmcmd = (piix4ide_cache.cache_bmcmd & 0xfffffffffffffffeull) | ((v) & 0x1ull), piix4ide_cache.valid_bmcmd = 1, piix4ide__write_bmcmd(piix4ide_cache.cache_bmcmd)) )
#define piix4ide_get_bm_intr() ( \
    (void)(piix4ide_cache.cache_bmstatus = piix4ide__read_bmstatus(), piix4ide_cache.valid_bmstatus = 1), \
    ((piix4ide_cache.cache_bmstatus & 0x4ull) >> 2) )
#define piix4ide_set_bm_intr(v) ( \
    (void)(piix4ide_cache.cache_bmstatus = (piix4ide_cache.cache_bmstatus & 0xfffffffffffffffbull) | (((v) << 2) & 0x4ull), piix4ide_cache.valid_bmstatus = 1, piix4ide__write_bmstatus(piix4ide_cache.cache_bmstatus)) )
#define piix4ide_set_prd_addr(v) ( \
    (void)(piix4ide_cache.cache_prd_reg = (piix4ide_cache.cache_prd_reg & 0xffffffff00000000ull) | ((v) & 0xffffffffull), piix4ide_cache.valid_prd_reg = 1, piix4ide__write_prd_reg(piix4ide_cache.cache_prd_reg)) )

#endif /* PIIX4IDE_DIL_H */
