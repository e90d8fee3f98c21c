/* Generated by devilc from device `logitech_busmouse`. Do not edit. */
#ifndef BUSMOUSE_DIL_H
#define BUSMOUSE_DIL_H

/* Define DEVIL_NO_SYS_IO to supply your own in/out primitives
 * (the compiled-stub test harness does). */
#ifndef DEVIL_NO_SYS_IO
#include <sys/io.h> /* inb/outb/inw/outw/inl/outl */
#endif

struct busmouse_cache_t {
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
extern struct busmouse_cache_t busmouse_cache;

#define busmouse_CONFIG_CONFIGURATION 0x1u
#define busmouse_CONFIG_DEFAULT_MODE 0x0u
#define busmouse_INTERRUPT_ENABLE 0x0u
#define busmouse_INTERRUPT_DISABLE 0x1u

#define busmouse__read_sig_reg() (inb(busmouse_cache.__dil_base__[0] + 1))
#define busmouse__write_sig_reg(v) (outb((((v) & 0xffull) | 0x0ull), busmouse_cache.__dil_base__[0] + 1))
#define busmouse__write_cr(v) (outb((((v) & 0x91ull) | 0x90ull), busmouse_cache.__dil_base__[0] + 3))
#define busmouse__write_interrupt_reg(v) (outb((((v) & 0x10ull) | 0x0ull), busmouse_cache.__dil_base__[0] + 2))
#define busmouse__write_index_reg(v) (outb((((v) & 0xe0ull) | 0x80ull), busmouse_cache.__dil_base__[0] + 2))
#define busmouse__read_x_low() (inb(busmouse_cache.__dil_base__[0] + 0))
#define busmouse__read_x_high() (inb(busmouse_cache.__dil_base__[0] + 0))
#define busmouse__read_y_low() (inb(busmouse_cache.__dil_base__[0] + 0))
#define busmouse__read_y_high() (inb(busmouse_cache.__dil_base__[0] + 0))

#define busmouse_get_signature() ( \
    (void)(busmouse_cache.cache_sig_reg = busmouse__read_sig_reg(), busmouse_cache.valid_sig_reg = 1), \
    (busmouse_cache.cache_sig_reg & 0xffull) )
#define busmouse_set_signature(v) ( \
    (void)(busmouse_cache.cache_sig_reg = (busmouse_cache.cache_sig_reg & 0xffffffffffffff00ull) | ((v) & 0xffull), busmouse_cache.valid_sig_reg = 1, busmouse__write_sig_reg(busmouse_cache.cache_sig_reg)) )
#define busmouse_set_config(v) ( \
    (void)(busmouse_cache.cache_cr = (busmouse_cache.cache_cr & 0xfffffffffffffffeull) | ((v) & 0x1ull), busmouse_cache.valid_cr = 1, busmouse__write_cr(busmouse_cache.cache_cr)) )
#define busmouse_set_interrupt(v) ( \
    (void)(busmouse_cache.cache_interrupt_reg = (busmouse_cache.cache_interrupt_reg & 0xffffffffffffffefull) | (((v) << 4) & 0x10ull), busmouse_cache.valid_interrupt_reg = 1, busmouse__write_interrupt_reg(busmouse_cache.cache_interrupt_reg)) )
#define busmouse_set_index(v) ( \
    (void)(busmouse_cache.cache_index_reg = (busmouse_cache.cache_index_reg & 0xffffffffffffff9full) | (((v) << 5) & 0x60ull), busmouse_cache.valid_index_reg = 1, busmouse__write_index_reg(busmouse_cache.cache_index_reg)) )
#define busmouse_getf_dx() (((busmouse_cache.cache_x_high & 0xfull) << 4) | (busmouse_cache.cache_x_low & 0xfull))
#define busmouse_get_dx() (((busmouse_cache.cache_x_high & 0xfull) << 4) | (busmouse_cache.cache_x_low & 0xfull))
#define busmouse_setf_dx(v) ( \
    busmouse_cache.cache_x_high = (busmouse_cache.cache_x_high & ~0xfull) | (((v) >> 4) & 0xfull), busmouse_cache.valid_x_high = 1, \
    busmouse_cache.cache_x_low = (busmouse_cache.cache_x_low & ~0xfull) | ((v) & 0xfull), busmouse_cache.valid_x_low = 1 )
#define busmouse_read_dx() ( \
    (void)(busmouse_cache.cache_index_reg = (busmouse_cache.cache_index_reg & 0xffffffffffffff9full) | 0x20ull, busmouse_cache.valid_index_reg = 1, busmouse__write_index_reg(busmouse_cache.cache_index_reg), \
    busmouse_cache.cache_x_high = busmouse__read_x_high(), busmouse_cache.valid_x_high = 1, \
    busmouse_cache.cache_index_reg = (busmouse_cache.cache_index_reg & 0xffffffffffffff9full), busmouse_cache.valid_index_reg = 1, busmouse__write_index_reg(busmouse_cache.cache_index_reg), \
    busmouse_cache.cache_x_low = busmouse__read_x_low(), busmouse_cache.valid_x_low = 1), \
    ((busmouse_cache.cache_x_high & 0xfull) << 4) | (busmouse_cache.cache_x_low & 0xfull) )
#define busmouse_getf_dy() (((busmouse_cache.cache_y_high & 0xfull) << 4) | (busmouse_cache.cache_y_low & 0xfull))
#define busmouse_get_dy() (((busmouse_cache.cache_y_high & 0xfull) << 4) | (busmouse_cache.cache_y_low & 0xfull))
#define busmouse_setf_dy(v) ( \
    busmouse_cache.cache_y_high = (busmouse_cache.cache_y_high & ~0xfull) | (((v) >> 4) & 0xfull), busmouse_cache.valid_y_high = 1, \
    busmouse_cache.cache_y_low = (busmouse_cache.cache_y_low & ~0xfull) | ((v) & 0xfull), busmouse_cache.valid_y_low = 1 )
#define busmouse_read_dy() ( \
    (void)(busmouse_cache.cache_index_reg = (busmouse_cache.cache_index_reg & 0xffffffffffffff9full) | 0x60ull, busmouse_cache.valid_index_reg = 1, busmouse__write_index_reg(busmouse_cache.cache_index_reg), \
    busmouse_cache.cache_y_high = busmouse__read_y_high(), busmouse_cache.valid_y_high = 1, \
    busmouse_cache.cache_index_reg = (busmouse_cache.cache_index_reg & 0xffffffffffffff9full) | 0x40ull, busmouse_cache.valid_index_reg = 1, busmouse__write_index_reg(busmouse_cache.cache_index_reg), \
    busmouse_cache.cache_y_low = busmouse__read_y_low(), busmouse_cache.valid_y_low = 1), \
    ((busmouse_cache.cache_y_high & 0xfull) << 4) | (busmouse_cache.cache_y_low & 0xfull) )
#define busmouse_getf_buttons() (((busmouse_cache.cache_y_high & 0xe0ull) >> 5))
#define busmouse_get_buttons() (((busmouse_cache.cache_y_high & 0xe0ull) >> 5))
#define busmouse_setf_buttons(v) ( \
    busmouse_cache.cache_y_high = (busmouse_cache.cache_y_high & ~0xe0ull) | (((v) << 5) & 0xe0ull), busmouse_cache.valid_y_high = 1 )
#define busmouse_read_buttons() ( \
    (void)(busmouse_cache.cache_index_reg = (busmouse_cache.cache_index_reg & 0xffffffffffffff9full) | 0x60ull, busmouse_cache.valid_index_reg = 1, busmouse__write_index_reg(busmouse_cache.cache_index_reg), \
    busmouse_cache.cache_y_high = busmouse__read_y_high(), busmouse_cache.valid_y_high = 1), \
    ((busmouse_cache.cache_y_high & 0xe0ull) >> 5) )
#define busmouse_get_mouse_state() ( \
    (void)(busmouse_cache.cache_index_reg = (busmouse_cache.cache_index_reg & 0xffffffffffffff9full) | 0x20ull, busmouse_cache.valid_index_reg = 1, busmouse__write_index_reg(busmouse_cache.cache_index_reg), \
    busmouse_cache.cache_x_high = busmouse__read_x_high(), busmouse_cache.valid_x_high = 1, \
    busmouse_cache.cache_index_reg = (busmouse_cache.cache_index_reg & 0xffffffffffffff9full), busmouse_cache.valid_index_reg = 1, busmouse__write_index_reg(busmouse_cache.cache_index_reg), \
    busmouse_cache.cache_x_low = busmouse__read_x_low(), busmouse_cache.valid_x_low = 1, \
    busmouse_cache.cache_index_reg = (busmouse_cache.cache_index_reg & 0xffffffffffffff9full) | 0x60ull, busmouse_cache.valid_index_reg = 1, busmouse__write_index_reg(busmouse_cache.cache_index_reg), \
    busmouse_cache.cache_y_high = busmouse__read_y_high(), busmouse_cache.valid_y_high = 1, \
    busmouse_cache.cache_index_reg = (busmouse_cache.cache_index_reg & 0xffffffffffffff9full) | 0x40ull, busmouse_cache.valid_index_reg = 1, busmouse__write_index_reg(busmouse_cache.cache_index_reg), \
    busmouse_cache.cache_y_low = busmouse__read_y_low(), busmouse_cache.valid_y_low = 1) )

#endif /* BUSMOUSE_DIL_H */
