/* Generated by devilc from device `cs4236b`. Do not edit. */
#ifndef CS4236B_DIL_H
#define CS4236B_DIL_H

/* Define DEVIL_NO_SYS_IO to supply your own in/out primitives
 * (the compiled-stub test harness does). */
#ifndef DEVIL_NO_SYS_IO
#include <sys/io.h> /* inb/outb/inw/outw/inl/outl */
#endif

struct cs4236b_cache_t {
    unsigned long __dil_base__[1];
    unsigned long long cache_control;
    unsigned char valid_control;
    unsigned long long cache_gw;
    unsigned char valid_gw;
    unsigned long long mem_xm;
};
extern struct cs4236b_cache_t cs4236b_cache;


#define cs4236b__read_control() (inb(cs4236b_cache.__dil_base__[0] + 0))
#define cs4236b__write_control(v) (outb((((v) & 0x1full) | 0x0ull), cs4236b_cache.__dil_base__[0] + 0))
/* register family `I`: use the generated function API. */
#define cs4236b__write_gw(v) (outb((((v) & 0xfcull) | 0x0ull), cs4236b_cache.__dil_base__[0] + 1))
/* register family `X`: use the generated function API. */

#define cs4236b_get_xm() (cs4236b_cache.mem_xm)
#define cs4236b_set_xm(v) (cs4236b_cache.mem_xm = ((v) & 0x1ull))
#define cs4236b_get_IA() ( \
    ((cs4236b_cache.valid_control) ? 0 : \
    (cs4236b_cache.cache_control = cs4236b__read_control(), cs4236b_cache.valid_control = 1, \
    cs4236b_cache.mem_xm = 0x0ull, 0)), \
    (cs4236b_cache.cache_control & 0x1full) )
#define cs4236b_set_IA(v) ( \
    (cs4236b_cache.cache_control = (cs4236b_cache.cache_control & 0xffffffffffffffe0ull) | ((v) & 0x1full), cs4236b_cache.valid_control = 1, cs4236b__write_control(cs4236b_cache.cache_control), \
    cs4236b_cache.mem_xm = 0x0ull, 0) )
/* parameterized variable `ID`: use the generated function API. */
/* parameterized variable `XD`: use the generated function API. */
#define cs4236b_getf_XA() (((cs4236b_cache.cache_gw & 0x4ull) << 2) | ((cs4236b_cache.cache_gw & 0xf0ull) >> 4))
#define cs4236b_setf_XA(v) ( \
    cs4236b_cache.cache_gw = (cs4236b_cache.cache_gw & ~0x4ull) | (((v) >> 2) & 0x4ull), cs4236b_cache.valid_gw = 1, \
    cs4236b_cache.cache_gw = (cs4236b_cache.cache_gw & ~0xf0ull) | (((v) << 4) & 0xf0ull), cs4236b_cache.valid_gw = 1 )
#define cs4236b_set_XA(v) ( \
    (cs4236b_cache.cache_control = (cs4236b_cache.cache_control & 0xffffffffffffffe0ull) | 0x17ull, cs4236b_cache.valid_control = 1, cs4236b__write_control(cs4236b_cache.cache_control), \
    cs4236b_cache.mem_xm = 0x0ull, \
    cs4236b_cache.cache_gw = (cs4236b_cache.cache_gw & 0xffffffffffffff03ull) | (((v) >> 2) & 0x4ull) | (((v) << 4) & 0xf0ull), cs4236b_cache.valid_gw = 1, cs4236b__write_gw(cs4236b_cache.cache_gw), \
    cs4236b_cache.mem_xm = 0x1ull, 0) )
#define cs4236b_getf_XRAE() (((cs4236b_cache.cache_gw & 0x8ull) >> 3))
#define cs4236b_setf_XRAE(v) ( \
    cs4236b_cache.cache_gw = (cs4236b_cache.cache_gw & ~0x8ull) | (((v) << 3) & 0x8ull), cs4236b_cache.valid_gw = 1 )
#define cs4236b_set_XRAE(v) ( \
    (cs4236b_cache.cache_control = (cs4236b_cache.cache_control & 0xffffffffffffffe0ull) | 0x17ull, cs4236b_cache.valid_control = 1, cs4236b__write_control(cs4236b_cache.cache_control), \
    cs4236b_cache.mem_xm = 0x0ull, \
    cs4236b_cache.cache_gw = (cs4236b_cache.cache_gw & 0xfffffffffffffff7ull) | (((v) << 3) & 0x8ull), cs4236b_cache.valid_gw = 1, cs4236b__write_gw(cs4236b_cache.cache_gw), \
    cs4236b_cache.mem_xm = 0x1ull, 0) )
#define cs4236b_put_XS() ( \
    (cs4236b_cache.cache_control = (cs4236b_cache.cache_control & 0xffffffffffffffe0ull) | 0x17ull, cs4236b_cache.valid_control = 1, cs4236b__write_control(cs4236b_cache.cache_control), \
    cs4236b_cache.mem_xm = 0x0ull, \
    cs4236b_cache.valid_gw = 1, cs4236b__write_gw(cs4236b_cache.cache_gw), \
    cs4236b_cache.mem_xm = 0x1ull, 0) )

#endif /* CS4236B_DIL_H */
