/* Generated by devilc from device `logitech_busmouse`. Do not edit. */
#ifndef BM_DIL_H
#define BM_DIL_H

/* Define DEVIL_NO_SYS_IO to supply your own in/out primitives
 * (the compiled-stub test harness does). */
#ifndef DEVIL_NO_SYS_IO
#include <sys/io.h> /* inb/outb/inw/outw/inl/outl */
#endif

struct bm_cache_t {
    unsigned long __dil_base__[1];
    unsigned long long cache_sig_reg;
    unsigned char valid_sig_reg;
    unsigned long long cache_cr;
    unsigned char valid_cr;
    unsigned long long cache_interrupt_reg;
    unsigned char valid_interrupt_reg;
    unsigned long long cache_index_reg;
    unsigned char valid_index_reg;
    unsigned long long cache_x_low;
    unsigned char valid_x_low;
    unsigned long long cache_x_high;
    unsigned char valid_x_high;
    unsigned long long cache_y_low;
    unsigned char valid_y_low;
    unsigned long long cache_y_high;
    unsigned char valid_y_high;
};
extern struct bm_cache_t bm_cache;

#define bm_CONFIG_CONFIGURATION 0x1u
#define bm_CONFIG_DEFAULT_MODE 0x0u
#define bm_INTERRUPT_ENABLE 0x0u
#define bm_INTERRUPT_DISABLE 0x1u

#define bm__read_sig_reg() (inb(bm_cache.__dil_base__[0] + 1))
#define bm__write_sig_reg(v) (outb((((v) & 0xffull) | 0x0ull), bm_cache.__dil_base__[0] + 1))
#define bm__write_cr(v) (outb((((v) & 0x91ull) | 0x90ull), bm_cache.__dil_base__[0] + 3))
#define bm__write_interrupt_reg(v) (outb((((v) & 0x10ull) | 0x0ull), bm_cache.__dil_base__[0] + 2))
#define bm__write_index_reg(v) (outb((((v) & 0xe0ull) | 0x80ull), bm_cache.__dil_base__[0] + 2))
#define bm__read_x_low() (inb(bm_cache.__dil_base__[0] + 0))
#define bm__read_x_high() (inb(bm_cache.__dil_base__[0] + 0))
#define bm__read_y_low() (inb(bm_cache.__dil_base__[0] + 0))
#define bm__read_y_high() (inb(bm_cache.__dil_base__[0] + 0))

#define bm_get_signature() ( \
    (void)(bm_cache.cache_sig_reg = bm__read_sig_reg(), bm_cache.valid_sig_reg = 1), \
    (bm_cache.cache_sig_reg & 0xffull) )
#define bm_set_signature(v) ( \
    (void)(bm_cache.cache_sig_reg = (bm_cache.cache_sig_reg & 0xffffffffffffff00ull) | ((v) & 0xffull), bm_cache.valid_sig_reg = 1, bm__write_sig_reg(bm_cache.cache_sig_reg)) )
#define bm_set_config(v) ( \
    (void)(bm_cache.cache_cr = (bm_cache.cache_cr & 0xfffffffffffffffeull) | ((v) & 0x1ull), bm_cache.valid_cr = 1, bm__write_cr(bm_cache.cache_cr)) )
#define bm_set_interrupt(v) ( \
    (void)(bm_cache.cache_interrupt_reg = (bm_cache.cache_interrupt_reg & 0xffffffffffffffefull) | (((v) << 4) & 0x10ull), bm_cache.valid_interrupt_reg = 1, bm__write_interrupt_reg(bm_cache.cache_interrupt_reg)) )
#define bm_set_index(v) ( \
    (void)(bm_cache.cache_index_reg = (bm_cache.cache_index_reg & 0xffffffffffffff9full) | (((v) << 5) & 0x60ull), bm_cache.valid_index_reg = 1, bm__write_index_reg(bm_cache.cache_index_reg)) )
#define bm_getf_dx() (((bm_cache.cache_x_high & 0xfull) << 4) | (bm_cache.cache_x_low & 0xfull))
#define bm_get_dx() (((bm_cache.cache_x_high & 0xfull) << 4) | (bm_cache.cache_x_low & 0xfull))
#define bm_setf_dx(v) ( \
    bm_cache.cache_x_high = (bm_cache.cache_x_high & ~0xfull) | (((v) >> 4) & 0xfull), bm_cache.valid_x_high = 1, \
    bm_cache.cache_x_low = (bm_cache.cache_x_low & ~0xfull) | ((v) & 0xfull), bm_cache.valid_x_low = 1 )
#define bm_read_dx() ( \
    (void)(bm_cache.cache_index_reg = (bm_cache.cache_index_reg & 0xffffffffffffff9full) | 0x20ull, bm_cache.valid_index_reg = 1, bm__write_index_reg(bm_cache.cache_index_reg), \
    bm_cache.cache_x_high = bm__read_x_high(), bm_cache.valid_x_high = 1, \
    bm_cache.cache_index_reg = (bm_cache.cache_index_reg & 0xffffffffffffff9full), bm_cache.valid_index_reg = 1, bm__write_index_reg(bm_cache.cache_index_reg), \
    bm_cache.cache_x_low = bm__read_x_low(), bm_cache.valid_x_low = 1), \
    ((bm_cache.cache_x_high & 0xfull) << 4) | (bm_cache.cache_x_low & 0xfull) )
#define bm_getf_dy() (((bm_cache.cache_y_high & 0xfull) << 4) | (bm_cache.cache_y_low & 0xfull))
#define bm_get_dy() (((bm_cache.cache_y_high & 0xfull) << 4) | (bm_cache.cache_y_low & 0xfull))
#define bm_setf_dy(v) ( \
    bm_cache.cache_y_high = (bm_cache.cache_y_high & ~0xfull) | (((v) >> 4) & 0xfull), bm_cache.valid_y_high = 1, \
    bm_cache.cache_y_low = (bm_cache.cache_y_low & ~0xfull) | ((v) & 0xfull), bm_cache.valid_y_low = 1 )
#define bm_read_dy() ( \
    (void)(bm_cache.cache_index_reg = (bm_cache.cache_index_reg & 0xffffffffffffff9full) | 0x60ull, bm_cache.valid_index_reg = 1, bm__write_index_reg(bm_cache.cache_index_reg), \
    bm_cache.cache_y_high = bm__read_y_high(), bm_cache.valid_y_high = 1, \
    bm_cache.cache_index_reg = (bm_cache.cache_index_reg & 0xffffffffffffff9full) | 0x40ull, bm_cache.valid_index_reg = 1, bm__write_index_reg(bm_cache.cache_index_reg), \
    bm_cache.cache_y_low = bm__read_y_low(), bm_cache.valid_y_low = 1), \
    ((bm_cache.cache_y_high & 0xfull) << 4) | (bm_cache.cache_y_low & 0xfull) )
#define bm_getf_buttons() (((bm_cache.cache_y_high & 0xe0ull) >> 5))
#define bm_get_buttons() (((bm_cache.cache_y_high & 0xe0ull) >> 5))
#define bm_setf_buttons(v) ( \
    bm_cache.cache_y_high = (bm_cache.cache_y_high & ~0xe0ull) | (((v) << 5) & 0xe0ull), bm_cache.valid_y_high = 1 )
#define bm_read_buttons() ( \
    (void)(bm_cache.cache_index_reg = (bm_cache.cache_index_reg & 0xffffffffffffff9full) | 0x60ull, bm_cache.valid_index_reg = 1, bm__write_index_reg(bm_cache.cache_index_reg), \
    bm_cache.cache_y_high = bm__read_y_high(), bm_cache.valid_y_high = 1), \
    ((bm_cache.cache_y_high & 0xe0ull) >> 5) )
#define bm_get_mouse_state() ( \
    (void)(bm_cache.cache_index_reg = (bm_cache.cache_index_reg & 0xffffffffffffff9full) | 0x20ull, bm_cache.valid_index_reg = 1, bm__write_index_reg(bm_cache.cache_index_reg), \
    bm_cache.cache_x_high = bm__read_x_high(), bm_cache.valid_x_high = 1, \
    bm_cache.cache_index_reg = (bm_cache.cache_index_reg & 0xffffffffffffff9full), bm_cache.valid_index_reg = 1, bm__write_index_reg(bm_cache.cache_index_reg), \
    bm_cache.cache_x_low = bm__read_x_low(), bm_cache.valid_x_low = 1, \
    bm_cache.cache_index_reg = (bm_cache.cache_index_reg & 0xffffffffffffff9full) | 0x60ull, bm_cache.valid_index_reg = 1, bm__write_index_reg(bm_cache.cache_index_reg), \
    bm_cache.cache_y_high = bm__read_y_high(), bm_cache.valid_y_high = 1, \
    bm_cache.cache_index_reg = (bm_cache.cache_index_reg & 0xffffffffffffff9full) | 0x40ull, bm_cache.valid_index_reg = 1, bm__write_index_reg(bm_cache.cache_index_reg), \
    bm_cache.cache_y_low = bm__read_y_low(), bm_cache.valid_y_low = 1) )

#endif /* BM_DIL_H */
