/* Generated by devilc from device `selfact`. Do not edit. */
#ifndef SELFACT_DIL_H
#define SELFACT_DIL_H

/* Define DEVIL_NO_SYS_IO to supply your own in/out primitives
 * (the compiled-stub test harness does). */
#ifndef DEVIL_NO_SYS_IO
#include <sys/io.h> /* inb/outb/inw/outw/inl/outl */
#endif

struct selfact_cache_t {
    unsigned long __dil_base__[1];
    unsigned long long cache_a;
    unsigned char valid_a;
    unsigned long long cache_c;
    unsigned char valid_c;
};
extern struct selfact_cache_t selfact_cache;


#define selfact__write_a(v) (outb((((v) & 0xffull) | 0x0ull), selfact_cache.__dil_base__[0] + 0))
#define selfact__write_c(v) (outb((((v) & 0xffull) | 0x0ull), selfact_cache.__dil_base__[0] + 1))

#define selfact_getf_w() ((selfact_cache.cache_a & 0x1ull))
#define selfact_setf_w(v) ( \
    selfact_cache.cache_a = (selfact_cache.cache_a & ~0x1ull) | ((v) & 0x1ull), selfact_cache.valid_a = 1 )
#define selfact_set_w(v) ( \
    ((((v)) & 0x1ull) == 0x0ull ? \
    (void)(selfact_cache.cache_a = (selfact_cache.cache_a & 0xfffffffffffffffeull) | ((v) & 0x1ull), selfact_cache.valid_a = 1, selfact__write_a(selfact_cache.cache_a), \
    selfact_cache.cache_c = (selfact_cache.cache_c & 0xffffffffffffff00ull) | 0x5ull, selfact_cache.valid_c = 1) : \
    (void)(selfact_cache.cache_a = (selfact_cache.cache_a & 0xfffffffffffffffeull) | ((v) & 0x1ull), selfact_cache.valid_a = 1, selfact__write_a(selfact_cache.cache_a), \
    selfact_cache.cache_c = (selfact_cache.cache_c & 0xffffffffffffff00ull) | 0x5ull, selfact_cache.valid_c = 1, selfact__write_c(selfact_cache.cache_c))) )
#define selfact_getf_rest() (((selfact_cache.cache_a & 0xfeull) >> 1))
#define selfact_setf_rest(v) ( \
    selfact_cache.cache_a = (selfact_cache.cache_a & ~0xfeull) | (((v) << 1) & 0xfeull), selfact_cache.valid_a = 1 )
#define selfact_set_rest(v) ( \
    ((selfact_cache.cache_a & 0x1ull) == 0x0ull ? \
    (void)(selfact_cache.cache_a = (selfact_cache.cache_a & 0xffffffffffffff01ull) | (((v) << 1) & 0xfeull), selfact_cache.valid_a = 1, selfact__write_a(selfact_cache.cache_a), \
    selfact_cache.cache_c = (selfact_cache.cache_c & 0xffffffffffffff00ull) | 0x5ull, selfact_cache.valid_c = 1) : \
    (void)(selfact_cache.cache_a = (selfact_cache.cache_a & 0xffffffffffffff01ull) | (((v) << 1) & 0xfeull), selfact_cache.valid_a = 1, selfact__write_a(selfact_cache.cache_a), \
    selfact_cache.cache_c = (selfact_cache.cache_c & 0xffffffffffffff00ull) | 0x5ull, selfact_cache.valid_c = 1, selfact__write_c(selfact_cache.cache_c))) )
#define selfact_getf_v() ((selfact_cache.cache_c & 0xffull))
#define selfact_setf_v(v) ( \
    selfact_cache.cache_c = (selfact_cache.cache_c & ~0xffull) | ((v) & 0xffull), selfact_cache.valid_c = 1 )
#define selfact_set_v(v) ( \
    (void)(selfact_cache.cache_c = (selfact_cache.cache_c & 0xffffffffffffff00ull) | ((v) & 0xffull), selfact_cache.valid_c = 1, selfact__write_c(selfact_cache.cache_c)) )
#define selfact_put_s() ( \
    ((selfact_cache.cache_a & 0x1ull) == 0x0ull ? \
    (void)0 : \
    (void)(selfact_cache.valid_c = 1, selfact__write_c(selfact_cache.cache_c))) )
/* fused superplan `burst`: one guard evaluation, batched I/O. */
static inline void selfact_sp_burst(unsigned long long a0)
{
    if ((selfact_cache.cache_a & 0x1ull) == 0x0ull) {
        selfact_cache.cache_a = (selfact_cache.cache_a & 0xffffffffffffff01ull) | (((a0) << 1) & 0xfeull), selfact_cache.valid_a = 1, selfact__write_a(selfact_cache.cache_a);
        selfact_cache.cache_c = (selfact_cache.cache_c & 0xffffffffffffff00ull) | 0x5ull, selfact_cache.valid_c = 1;
        selfact_cache.cache_a = (selfact_cache.cache_a & 0xfffffffffffffffeull) | 0x1ull, selfact_cache.valid_a = 1, selfact__write_a(selfact_cache.cache_a);
        selfact_cache.cache_c = (selfact_cache.cache_c & 0xffffffffffffff00ull) | 0x5ull, selfact_cache.valid_c = 1, selfact__write_c(selfact_cache.cache_c);
    } else {
        selfact_cache.cache_a = (selfact_cache.cache_a & 0xffffffffffffff01ull) | (((a0) << 1) & 0xfeull), selfact_cache.valid_a = 1, selfact__write_a(selfact_cache.cache_a);
        selfact_cache.cache_c = (selfact_cache.cache_c & 0xffffffffffffff00ull) | 0x5ull, selfact_cache.valid_c = 1, selfact__write_c(selfact_cache.cache_c);
        selfact_cache.cache_a = (selfact_cache.cache_a & 0xfffffffffffffffeull) | 0x1ull, selfact_cache.valid_a = 1, selfact__write_a(selfact_cache.cache_a);
        selfact_cache.cache_c = (selfact_cache.cache_c & 0xffffffffffffff00ull) | 0x5ull, selfact_cache.valid_c = 1, selfact__write_c(selfact_cache.cache_c);
    }
}

#endif /* SELFACT_DIL_H */
