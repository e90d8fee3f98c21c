/* Generated by devilc from device `ne2000`. Do not edit. */
#ifndef NE2000_DIL_H
#define NE2000_DIL_H

/* Define DEVIL_NO_SYS_IO to supply your own in/out primitives
 * (the compiled-stub test harness does). */
#ifndef DEVIL_NO_SYS_IO
#include <sys/io.h> /* inb/outb/inw/outw/inl/outl */
#endif

struct ne2000_cache_t {
    unsigned long __dil_base__[2];
    unsigned long long cache_cr;
    unsigned char valid_cr;
    unsigned long long cache_pstart_reg;
    unsigned char valid_pstart_reg;
    unsigned long long cache_pstop_reg;
    unsigned char valid_pstop_reg;
    unsigned long long cache_bnry_reg;
    unsigned char valid_bnry_reg;
    unsigned long long cache_tpsr_reg;
    unsigned char valid_tpsr_reg;
    unsigned long long cache_tbcr0;
    unsigned char valid_tbcr0;
    unsigned long long cache_tbcr1;
    unsigned char valid_tbcr1;
    unsigned long long cache_isr_reg;
    unsigned char valid_isr_reg;
    unsigned long long cache_rsar0;
    unsigned char valid_rsar0;
    unsigned long long cache_rsar1;
    unsigned char valid_rsar1;
    unsigned long long cache_rbcr0;
    unsigned char valid_rbcr0;
    unsigned long long cache_rbcr1;
    unsigned char valid_rbcr1;
    unsigned long long cache_dcr;
    unsigned char valid_dcr;
    unsigned long long cache_imr_reg;
    unsigned char valid_imr_reg;
    unsigned long long cache_dr;
    unsigned char valid_dr;
};
extern struct ne2000_cache_t ne2000_cache;

#define ne2000_ST_STP 0x1u
#define ne2000_ST_STA 0x2u
#define ne2000_ST_IDLE 0x0u
#define ne2000_ST_BOTH 0x3u
#define ne2000_TXP_SEND 0x1u
#define ne2000_TXP_NOP 0x0u
#define ne2000_RD_RREAD 0x1u
#define ne2000_RD_RWRITE 0x2u
#define ne2000_RD_NODMA 0x4u
#define ne2000_RD_R0 0x0u
#define ne2000_RD_R3 0x3u
#define ne2000_RD_R5 0x5u
#define ne2000_RD_R6 0x6u
#define ne2000_RD_R7 0x7u

#define ne2000__read_cr() (inb(ne2000_cache.__dil_base__[0] + 0))
#define ne2000__write_cr(v) (outb((((v) & 0xffull) | 0x0ull), ne2000_cache.__dil_base__[0] + 0))
#define ne2000__write_pstart_reg(v) (outb((((v) & 0xffull) | 0x0ull), ne2000_cache.__dil_base__[0] + 1))
#define ne2000__write_pstop_reg(v) (outb((((v) & 0xffull) | 0x0ull), ne2000_cache.__dil_base__[0] + 2))
#define ne2000__read_bnry_reg() (inb(ne2000_cache.__dil_base__[0] + 3))
#define ne2000__write_bnry_reg(v) (outb((((v) & 0xffull) | 0x0ull), ne2000_cache.__dil_base__[0] + 3))
#define ne2000__write_tpsr_reg(v) (outb((((v) & 0xffull) | 0x0ull), ne2000_cache.__dil_base__[0] + 4))
#define ne2000__write_tbcr0(v) (outb((((v) & 0xffull) | 0x0ull), ne2000_cache.__dil_base__[0] + 5))
#define ne2000__write_tbcr1(v) (outb((((v) & 0xffull) | 0x0ull), ne2000_cache.__dil_base__[0] + 6))
#define ne2000__read_isr_reg() (inb(ne2000_cache.__dil_base__[0] + 7))
#define ne2000__write_isr_reg(v) (outb((((v) & 0xffull) | 0x0ull), ne2000_cache.__dil_base__[0] + 7))
#define ne2000__write_rsar0(v) (outb((((v) & 0xffull) | 0x0ull), ne2000_cache.__dil_base__[0] + 8))
#define ne2000__write_rsar1(v) (outb((((v) & 0xffull) | 0x0ull), ne2000_cache.__dil_base__[0] + 9))
#define ne2000__write_rbcr0(v) (outb((((v) & 0xffull) | 0x0ull), ne2000_cache.__dil_base__[0] + 10))
#define ne2000__write_rbcr1(v) (outb((((v) & 0xffull) | 0x0ull), ne2000_cache.__dil_base__[0] + 11))
#define ne2000__write_dcr(v) (outb((((v) & 0xffull) | 0x0ull), ne2000_cache.__dil_base__[0] + 14))
#define ne2000__write_imr_reg(v) (outb((((v) & 0xffull) | 0x0ull), ne2000_cache.__dil_base__[0] + 15))
#define ne2000__read_dr() (inw(ne2000_cache.__dil_base__[1] + 16))
#define ne2000__write_dr(v) (outw((((v) & 0xffffull) | 0x0ull), ne2000_cache.__dil_base__[1] + 16))

#define ne2000_get_st() ( \
    ((ne2000_cache.valid_cr) ? (void)0 : \
    (void)(ne2000_cache.cache_cr = ne2000__read_cr(), ne2000_cache.valid_cr = 1)), \
    (ne2000_cache.cache_cr & 0x3ull) )
#define ne2000_set_st(v) ( \
    (void)(ne2000_cache.cache_cr = (ne2000_cache.cache_cr & 0xffffffffffffffc0ull) | 0x20ull | ((v) & 0x3ull), ne2000_cache.valid_cr = 1, ne2000__write_cr(ne2000_cache.cache_cr)) )
#define ne2000_get_txp() ( \
    ((ne2000_cache.valid_cr) ? (void)0 : \
    (void)(ne2000_cache.cache_cr = ne2000__read_cr(), ne2000_cache.valid_cr = 1)), \
    ((ne2000_cache.cache_cr & 0x4ull) >> 2) )
#define ne2000_set_txp(v) ( \
    (void)(ne2000_cache.cache_cr = (ne2000_cache.cache_cr & 0xffffffffffffffc3ull) | 0x20ull | (((v) << 2) & 0x4ull), ne2000_cache.valid_cr = 1, ne2000__write_cr(ne2000_cache.cache_cr)) )
#define ne2000_get_rd() ( \
    ((ne2000_cache.valid_cr) ? (void)0 : \
    (void)(ne2000_cache.cache_cr = ne2000__read_cr(), ne2000_cache.valid_cr = 1)), \
    ((ne2000_cache.cache_cr & 0x38ull) >> 3) )
#define ne2000_set_rd(v) ( \
    (void)(ne2000_cache.cache_cr = (ne2000_cache.cache_cr & 0xffffffffffffffc3ull) | (((v) << 3) & 0x38ull), ne2000_cache.valid_cr = 1, ne2000__write_cr(ne2000_cache.cache_cr)) )
#define ne2000_get_page() ( \
    ((ne2000_cache.valid_cr) ? (void)0 : \
    (void)(ne2000_cache.cache_cr = ne2000__read_cr(), ne2000_cache.valid_cr = 1)), \
    ((ne2000_cache.cache_cr & 0xc0ull) >> 6) )
#define ne2000_set_page(v) ( \
    (void)(ne2000_cache.cache_cr = (ne2000_cache.cache_cr & 0xffffffffffffff03ull) | 0x20ull | (((v) << 6) & 0xc0ull), ne2000_cache.valid_cr = 1, ne2000__write_cr(ne2000_cache.cache_cr)) )
#define ne2000_set_pstart(v) ( \
    (void)(ne2000_cache.cache_pstart_reg = (ne2000_cache.cache_pstart_reg & 0xffffffffffffff00ull) | ((v) & 0xffull), ne2000_cache.valid_pstart_reg = 1, ne2000__write_pstart_reg(ne2000_cache.cache_pstart_reg)) )
#define ne2000_set_pstop(v) ( \
    (void)(ne2000_cache.cache_pstop_reg = (ne2000_cache.cache_pstop_reg & 0xffffffffffffff00ull) | ((v) & 0xffull), ne2000_cache.valid_pstop_reg = 1, ne2000__write_pstop_reg(ne2000_cache.cache_pstop_reg)) )
#define ne2000_get_bnry() ( \
    (void)(ne2000_cache.cache_bnry_reg = ne2000__read_bnry_reg(), ne2000_cache.valid_bnry_reg = 1), \
    (ne2000_cache.cache_bnry_reg & 0xffull) )
#define ne2000_set_bnry(v) ( \
    (void)(ne2000_cache.cache_bnry_reg = (ne2000_cache.cache_bnry_reg & 0xffffffffffffff00ull) | ((v) & 0xffull), ne2000_cache.valid_bnry_reg = 1, ne2000__write_bnry_reg(ne2000_cache.cache_bnry_reg)) )
#define ne2000_set_tpsr(v) ( \
    (void)(ne2000_cache.cache_tpsr_reg = (ne2000_cache.cache_tpsr_reg & 0xffffffffffffff00ull) | ((v) & 0xffull), ne2000_cache.valid_tpsr_reg = 1, ne2000__write_tpsr_reg(ne2000_cache.cache_tpsr_reg)) )
#define ne2000_set_tbcr(v) ( \
    (void)(ne2000_cache.cache_tbcr1 = (ne2000_cache.cache_tbcr1 & 0xffffffffffffff00ull) | (((v) >> 8) & 0xffull), ne2000_cache.valid_tbcr1 = 1, ne2000__write_tbcr1(ne2000_cache.cache_tbcr1), \
    ne2000_cache.cache_tbcr0 = (ne2000_cache.cache_tbcr0 & 0xffffffffffffff00ull) | ((v) & 0xffull), ne2000_cache.valid_tbcr0 = 1, ne2000__write_tbcr0(ne2000_cache.cache_tbcr0)) )
#define ne2000_get_prx() ( \
    (void)(ne2000_cache.cache_isr_reg = ne2000__read_isr_reg(), ne2000_cache.valid_isr_reg = 1), \
    (ne2000_cache.cache_isr_reg & 0x1ull) )
#define ne2000_set_prx(v) ( \
    (void)(ne2000_cache.cache_isr_reg = (ne2000_cache.cache_isr_reg & 0xffffffffffffffbcull) | ((v) & 0x1ull), ne2000_cache.valid_isr_reg = 1, ne2000__write_isr_reg(ne2000_cache.cache_isr_reg)) )
#define ne2000_get_ptx() ( \
    (void)(ne2000_cache.cache_isr_reg = ne2000__read_isr_reg(), ne2000_cache.valid_isr_reg = 1), \
    ((ne2000_cache.cache_isr_reg & 0x2ull) >> 1) )
#define ne2000_set_ptx(v) ( \
    (void)(ne2000_cache.cache_isr_reg = (ne2000_cache.cache_isr_reg & 0xffffffffffffffbcull) | (((v) << 1) & 0x2ull), ne2000_cache.valid_isr_reg = 1, ne2000__write_isr_reg(ne2000_cache.cache_isr_reg)) )
#define ne2000_get_rdc() ( \
    (void)(ne2000_cache.cache_isr_reg = ne2000__read_isr_reg(), ne2000_cache.valid_isr_reg = 1), \
    ((ne2000_cache.cache_isr_reg & 0x40ull) >> 6) )
#define ne2000_set_rdc(v) ( \
    (void)(ne2000_cache.cache_isr_reg = (ne2000_cache.cache_isr_reg & 0xffffffffffffffbcull) | (((v) << 6) & 0x40ull), ne2000_cache.valid_isr_reg = 1, ne2000__write_isr_reg(ne2000_cache.cache_isr_reg)) )
#define ne2000_set_rsar(v) ( \
    (void)(ne2000_cache.cache_rsar1 = (ne2000_cache.cache_rsar1 & 0xffffffffffffff00ull) | (((v) >> 8) & 0xffull), ne2000_cache.valid_rsar1 = 1, ne2000__write_rsar1(ne2000_cache.cache_rsar1), \
    ne2000_cache.cache_rsar0 = (ne2000_cache.cache_rsar0 & 0xffffffffffffff00ull) | ((v) & 0xffull), ne2000_cache.valid_rsar0 = 1, ne2000__write_rsar0(ne2000_cache.cache_rsar0)) )
#define ne2000_set_rbcr(v) ( \
    (void)(ne2000_cache.cache_rbcr1 = (ne2000_cache.cache_rbcr1 & 0xffffffffffffff00ull) | (((v) >> 8) & 0xffull), ne2000_cache.valid_rbcr1 = 1, ne2000__write_rbcr1(ne2000_cache.cache_rbcr1), \
    ne2000_cache.cache_rbcr0 = (ne2000_cache.cache_rbcr0 & 0xffffffffffffff00ull) | ((v) & 0xffull), ne2000_cache.valid_rbcr0 = 1, ne2000__write_rbcr0(ne2000_cache.cache_rbcr0)) )
#define ne2000_set_data_config(v) ( \
    (void)(ne2000_cache.cache_dcr = (ne2000_cache.cache_dcr & 0xffffffffffffff00ull) | ((v) & 0xffull), ne2000_cache.valid_dcr = 1, ne2000__write_dcr(ne2000_cache.cache_dcr)) )
#define ne2000_set_int_mask(v) ( \
    (void)(ne2000_cache.cache_imr_reg = (ne2000_cache.cache_imr_reg & 0xffffffffffffff00ull) | ((v) & 0xffull), ne2000_cache.valid_imr_reg = 1, ne2000__write_imr_reg(ne2000_cache.cache_imr_reg)) )
#define ne2000_get_remote_data() ( \
    (void)(ne2000_cache.cache_dr = ne2000__read_dr(), ne2000_cache.valid_dr = 1), \
    (ne2000_cache.cache_dr & 0xffffull) )
#define ne2000_set_remote_data(v) ( \
    (void)(ne2000_cache.cache_dr = (ne2000_cache.cache_dr & 0xffffffffffff0000ull) | ((v) & 0xffffull), ne2000_cache.valid_dr = 1, ne2000__write_dr(ne2000_cache.cache_dr)) )

/* Block-transfer primitives: one burst transaction per call.
 * The DEVIL_NO_SYS_IO harness supplies its own. */
#ifndef DEVIL_NO_SYS_IO
#define devil_ins16(p, b, n) do { unsigned long __i; \
    for (__i = 0; __i < (unsigned long)(n); ++__i) (b)[__i] = inw(p); } while (0)
#define devil_outs16(p, b, n) do { unsigned long __i; \
    for (__i = 0; __i < (unsigned long)(n); ++__i) outw((b)[__i], (p)); } while (0)
#endif
/* fused superplan `tx`: one guard evaluation, batched I/O. */
static inline void ne2000_sp_tx(unsigned long long a0, unsigned long long a1, unsigned long long a2, const unsigned long long *blk_out, unsigned long blk_out_n)
{
    ne2000_cache.cache_rsar1 = (ne2000_cache.cache_rsar1 & 0xffffffffffffff00ull) | (((a0) >> 8) & 0xffull), ne2000_cache.valid_rsar1 = 1, ne2000__write_rsar1(ne2000_cache.cache_rsar1);
    ne2000_cache.cache_rsar0 = (ne2000_cache.cache_rsar0 & 0xffffffffffffff00ull) | ((a0) & 0xffull), ne2000_cache.valid_rsar0 = 1, ne2000__write_rsar0(ne2000_cache.cache_rsar0);
    ne2000_cache.cache_rbcr1 = (ne2000_cache.cache_rbcr1 & 0xffffffffffffff00ull) | (((a1) >> 8) & 0xffull), ne2000_cache.valid_rbcr1 = 1, ne2000__write_rbcr1(ne2000_cache.cache_rbcr1);
    ne2000_cache.cache_rbcr0 = (ne2000_cache.cache_rbcr0 & 0xffffffffffffff00ull) | ((a1) & 0xffull), ne2000_cache.valid_rbcr0 = 1, ne2000__write_rbcr0(ne2000_cache.cache_rbcr0);
    ne2000_cache.cache_cr = (ne2000_cache.cache_cr & 0xffffffffffffffc3ull) | 0x10ull, ne2000_cache.valid_cr = 1, ne2000__write_cr(ne2000_cache.cache_cr);
    devil_outs16(ne2000_cache.__dil_base__[1] + 16, blk_out, blk_out_n);
    ne2000_cache.cache_isr_reg = (ne2000_cache.cache_isr_reg & 0xffffffffffffffbcull) | 0x40ull, ne2000_cache.valid_isr_reg = 1, ne2000__write_isr_reg(ne2000_cache.cache_isr_reg);
    ne2000_cache.cache_tpsr_reg = (ne2000_cache.cache_tpsr_reg & 0xffffffffffffff00ull) | 0x40ull, ne2000_cache.valid_tpsr_reg = 1, ne2000__write_tpsr_reg(ne2000_cache.cache_tpsr_reg);
    ne2000_cache.cache_tbcr1 = (ne2000_cache.cache_tbcr1 & 0xffffffffffffff00ull) | (((a2) >> 8) & 0xffull), ne2000_cache.valid_tbcr1 = 1, ne2000__write_tbcr1(ne2000_cache.cache_tbcr1);
    ne2000_cache.cache_tbcr0 = (ne2000_cache.cache_tbcr0 & 0xffffffffffffff00ull) | ((a2) & 0xffull), ne2000_cache.valid_tbcr0 = 1, ne2000__write_tbcr0(ne2000_cache.cache_tbcr0);
    ne2000_cache.cache_cr = (ne2000_cache.cache_cr & 0xffffffffffffffc3ull) | 0x24ull, ne2000_cache.valid_cr = 1, ne2000__write_cr(ne2000_cache.cache_cr);
}

#endif /* NE2000_DIL_H */
