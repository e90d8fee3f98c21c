/* Generated by devilc from device `fam2`. Do not edit. */
#ifndef FAM2_DIL_H
#define FAM2_DIL_H

/* Define DEVIL_NO_SYS_IO to supply your own in/out primitives
 * (the compiled-stub test harness does). */
#ifndef DEVIL_NO_SYS_IO
#include <sys/io.h> /* inb/outb/inw/outw/inl/outl */
#endif

struct fam2_cache_t {
    unsigned long __dil_base__[1];
    unsigned long long cache_g[6];
    unsigned char valid_g[6];
    int bad_arg; /* family stubs: 0, or k + 1 for a bad argument k */
};
extern struct fam2_cache_t fam2_cache;


#define fam2__read_g(o) (inb(fam2_cache.__dil_base__[0] + (o)))
#define fam2__write_g(o, v) (outb((((v) & 0xffull) | 0x0ull), fam2_cache.__dil_base__[0] + (o)))
#define fam2__ix_g(v0, v1) (((v0)) * 3 + (((v1) >= 0x2ull && (v1) <= 0x3ull) ? 0 + ((v1) - 0x2ull) : 2 + ((v1) - 0x7ull)) * 1)

#define fam2_get_w(a0) ( \
    (fam2_cache.bad_arg = !(((a0) >= 0x2ull && (a0) <= 0x3ull) || (a0) == 0x7ull) ? 1 : 0) ? 0 : \
    ((void)(fam2_cache.cache_g[fam2__ix_g(0x1ull, a0)] = fam2__read_g(0x1ull), fam2_cache.valid_g[fam2__ix_g(0x1ull, a0)] = 1), \
    (fam2_cache.cache_g[fam2__ix_g(0x1ull, a0)] & 0xfull)) )
#define fam2_set_w(a0, v) ( \
    (fam2_cache.bad_arg = !(((a0) >= 0x2ull && (a0) <= 0x3ull) || (a0) == 0x7ull) ? 1 : 0) ? (void)0 : \
    (void)(fam2_cache.cache_g[fam2__ix_g(0x1ull, a0)] = (fam2_cache.cache_g[fam2__ix_g(0x1ull, a0)] & 0xfffffffffffffff0ull) | ((v) & 0xfull), fam2_cache.valid_g[fam2__ix_g(0x1ull, a0)] = 1, fam2__write_g(0x1ull, fam2_cache.cache_g[fam2__ix_g(0x1ull, a0)])) )
#define fam2_get_u(a0, a1) ( \
    (fam2_cache.bad_arg = !((a0) <= 0x1ull) ? 1 : !(((a1) >= 0x2ull && (a1) <= 0x3ull) || (a1) == 0x7ull) ? 2 : 0) ? 0 : \
    (((fam2_cache.valid_g[fam2__ix_g(a0, a1)]) ? (void)0 : \
    (void)(fam2_cache.cache_g[fam2__ix_g(a0, a1)] = fam2__read_g((a0)), fam2_cache.valid_g[fam2__ix_g(a0, a1)] = 1)), \
    ((fam2_cache.cache_g[fam2__ix_g(a0, a1)] & 0xf0ull) >> 4)) )
#define fam2_set_u(a0, a1, v) ( \
    (fam2_cache.bad_arg = !((a0) <= 0x1ull) ? 1 : !(((a1) >= 0x2ull && (a1) <= 0x3ull) || (a1) == 0x7ull) ? 2 : 0) ? (void)0 : \
    (void)(fam2_cache.cache_g[fam2__ix_g(a0, a1)] = (fam2_cache.cache_g[fam2__ix_g(a0, a1)] & 0xffffffffffffff0full) | (((v) << 4) & 0xf0ull), fam2_cache.valid_g[fam2__ix_g(a0, a1)] = 1, fam2__write_g((a0), fam2_cache.cache_g[fam2__ix_g(a0, a1)])) )

#endif /* FAM2_DIL_H */
