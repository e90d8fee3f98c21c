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
    unsigned long long cache_I[32];
    unsigned char valid_I[32];
    unsigned long long cache_gw;
    unsigned char valid_gw;
    unsigned long long cache_X[19];
    unsigned char valid_X[19];
    unsigned long long mem_xm;
    int bad_arg; /* family stubs: 0, or k + 1 for a bad argument k */
};
extern struct cs4236b_cache_t cs4236b_cache;


#define cs4236b__read_control() (inb(cs4236b_cache.__dil_base__[0] + 0))
#define cs4236b__write_control(v) (outb((((v) & 0x1full) | 0x0ull), cs4236b_cache.__dil_base__[0] + 0))
#define cs4236b__read_I(o) (inb(cs4236b_cache.__dil_base__[0] + (o)))
#define cs4236b__write_I(o, v) (outb((((v) & 0xffull) | 0x0ull), cs4236b_cache.__dil_base__[0] + (o)))
#define cs4236b__write_gw(v) (outb((((v) & 0xfcull) | 0x0ull), cs4236b_cache.__dil_base__[0] + 1))
#define cs4236b__read_X(o) (inb(cs4236b_cache.__dil_base__[0] + (o)))
#define cs4236b__write_X(o, v) (outb((((v) & 0xffull) | 0x0ull), cs4236b_cache.__dil_base__[0] + (o)))
#define cs4236b__ix_I(v0) ((v0))
#define cs4236b__ix_X(v0) ((v0) <= 0x11ull ? (v0) : 18 + ((v0) - 0x19ull))

#define cs4236b_get_xm() (cs4236b_cache.mem_xm)
#define cs4236b_set_xm(v) (cs4236b_cache.mem_xm = ((v) & 0x1ull))
#define cs4236b_get_IA() ( \
    ((cs4236b_cache.valid_control) ? (void)0 : \
    (void)(cs4236b_cache.cache_control = cs4236b__read_control(), cs4236b_cache.valid_control = 1, \
    cs4236b_cache.mem_xm = 0x0ull)), \
    (cs4236b_cache.cache_control & 0x1full) )
#define cs4236b_set_IA(v) ( \
    (void)(cs4236b_cache.cache_control = (cs4236b_cache.cache_control & 0xffffffffffffffe0ull) | ((v) & 0x1full), cs4236b_cache.valid_control = 1, cs4236b__write_control(cs4236b_cache.cache_control), \
    cs4236b_cache.mem_xm = 0x0ull) )
#define cs4236b_get_ID(a0) ( \
    (cs4236b_cache.bad_arg = !((a0) <= 0x1full) ? 1 : 0) ? 0 : \
    ((void)(cs4236b_cache.cache_control = (cs4236b_cache.cache_control & 0xffffffffffffffe0ull) | ((a0) & 0x1full), cs4236b_cache.valid_control = 1, cs4236b__write_control(cs4236b_cache.cache_control), \
    cs4236b_cache.mem_xm = 0x0ull, \
    cs4236b_cache.cache_I[cs4236b__ix_I(a0)] = cs4236b__read_I(0x1ull), cs4236b_cache.valid_I[cs4236b__ix_I(a0)] = 1), \
    (cs4236b_cache.cache_I[cs4236b__ix_I(a0)] & 0xffull)) )
#define cs4236b_set_ID(a0, v) ( \
    (cs4236b_cache.bad_arg = !((a0) <= 0x1full) ? 1 : 0) ? (void)0 : \
    (void)(cs4236b_cache.cache_control = (cs4236b_cache.cache_control & 0xffffffffffffffe0ull) | ((a0) & 0x1full), cs4236b_cache.valid_control = 1, cs4236b__write_control(cs4236b_cache.cache_control), \
    cs4236b_cache.mem_xm = 0x0ull, \
    cs4236b_cache.cache_I[cs4236b__ix_I(a0)] = (cs4236b_cache.cache_I[cs4236b__ix_I(a0)] & 0xffffffffffffff00ull) | ((v) & 0xffull), cs4236b_cache.valid_I[cs4236b__ix_I(a0)] = 1, cs4236b__write_I(0x1ull, cs4236b_cache.cache_I[cs4236b__ix_I(a0)])) )
#define cs4236b_get_XD(a0) ( \
    (cs4236b_cache.bad_arg = !((a0) <= 0x11ull || (a0) == 0x19ull) ? 1 : 0) ? 0 : \
    ((void)(cs4236b_cache.cache_control = (cs4236b_cache.cache_control & 0xffffffffffffffe0ull) | 0x17ull, cs4236b_cache.valid_control = 1, cs4236b__write_control(cs4236b_cache.cache_control), \
    cs4236b_cache.mem_xm = 0x0ull, \
    cs4236b_cache.cache_gw = (cs4236b_cache.cache_gw & 0xffffffffffffff03ull) | 0x8ull | (((a0) >> 2) & 0x4ull) | (((a0) << 4) & 0xf0ull), cs4236b_cache.valid_gw = 1, cs4236b__write_gw(cs4236b_cache.cache_gw), \
    cs4236b_cache.mem_xm = 0x1ull, \
    cs4236b_cache.cache_X[cs4236b__ix_X(a0)] = cs4236b__read_X(0x1ull), cs4236b_cache.valid_X[cs4236b__ix_X(a0)] = 1), \
    (cs4236b_cache.cache_X[cs4236b__ix_X(a0)] & 0xffull)) )
#define cs4236b_set_XD(a0, v) ( \
    (cs4236b_cache.bad_arg = !((a0) <= 0x11ull || (a0) == 0x19ull) ? 1 : 0) ? (void)0 : \
    (void)(cs4236b_cache.cache_control = (cs4236b_cache.cache_control & 0xffffffffffffffe0ull) | 0x17ull, cs4236b_cache.valid_control = 1, cs4236b__write_control(cs4236b_cache.cache_control), \
    cs4236b_cache.mem_xm = 0x0ull, \
    cs4236b_cache.cache_gw = (cs4236b_cache.cache_gw & 0xffffffffffffff03ull) | 0x8ull | (((a0) >> 2) & 0x4ull) | (((a0) << 4) & 0xf0ull), cs4236b_cache.valid_gw = 1, cs4236b__write_gw(cs4236b_cache.cache_gw), \
    cs4236b_cache.mem_xm = 0x1ull, \
    cs4236b_cache.cache_X[cs4236b__ix_X(a0)] = (cs4236b_cache.cache_X[cs4236b__ix_X(a0)] & 0xffffffffffffff00ull) | ((v) & 0xffull), cs4236b_cache.valid_X[cs4236b__ix_X(a0)] = 1, cs4236b__write_X(0x1ull, cs4236b_cache.cache_X[cs4236b__ix_X(a0)])) )
#define cs4236b_getf_XA() (((cs4236b_cache.cache_gw & 0x4ull) << 2) | ((cs4236b_cache.cache_gw & 0xf0ull) >> 4))
#define cs4236b_setf_XA(v) ( \
    cs4236b_cache.cache_gw = (cs4236b_cache.cache_gw & ~0x4ull) | (((v) >> 2) & 0x4ull), cs4236b_cache.valid_gw = 1, \
    cs4236b_cache.cache_gw = (cs4236b_cache.cache_gw & ~0xf0ull) | (((v) << 4) & 0xf0ull), cs4236b_cache.valid_gw = 1 )
#define cs4236b_set_XA(v) ( \
    (void)(cs4236b_cache.cache_control = (cs4236b_cache.cache_control & 0xffffffffffffffe0ull) | 0x17ull, cs4236b_cache.valid_control = 1, cs4236b__write_control(cs4236b_cache.cache_control), \
    cs4236b_cache.mem_xm = 0x0ull, \
    cs4236b_cache.cache_gw = (cs4236b_cache.cache_gw & 0xffffffffffffff03ull) | (((v) >> 2) & 0x4ull) | (((v) << 4) & 0xf0ull), cs4236b_cache.valid_gw = 1, cs4236b__write_gw(cs4236b_cache.cache_gw), \
    cs4236b_cache.mem_xm = 0x1ull) )
#define cs4236b_getf_XRAE() (((cs4236b_cache.cache_gw & 0x8ull) >> 3))
#define cs4236b_setf_XRAE(v) ( \
    cs4236b_cache.cache_gw = (cs4236b_cache.cache_gw & ~0x8ull) | (((v) << 3) & 0x8ull), cs4236b_cache.valid_gw = 1 )
#define cs4236b_set_XRAE(v) ( \
    (void)(cs4236b_cache.cache_control = (cs4236b_cache.cache_control & 0xffffffffffffffe0ull) | 0x17ull, cs4236b_cache.valid_control = 1, cs4236b__write_control(cs4236b_cache.cache_control), \
    cs4236b_cache.mem_xm = 0x0ull, \
    cs4236b_cache.cache_gw = (cs4236b_cache.cache_gw & 0xfffffffffffffff7ull) | (((v) << 3) & 0x8ull), cs4236b_cache.valid_gw = 1, cs4236b__write_gw(cs4236b_cache.cache_gw), \
    cs4236b_cache.mem_xm = 0x1ull) )
#define cs4236b_put_XS() ( \
    (void)(cs4236b_cache.cache_control = (cs4236b_cache.cache_control & 0xffffffffffffffe0ull) | 0x17ull, cs4236b_cache.valid_control = 1, cs4236b__write_control(cs4236b_cache.cache_control), \
    cs4236b_cache.mem_xm = 0x0ull, \
    cs4236b_cache.valid_gw = 1, cs4236b__write_gw(cs4236b_cache.cache_gw), \
    cs4236b_cache.mem_xm = 0x1ull) )

#endif /* CS4236B_DIL_H */
