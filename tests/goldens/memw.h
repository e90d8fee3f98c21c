/* Generated by devilc from device `memw`. Do not edit. */
#ifndef MEMW_DIL_H
#define MEMW_DIL_H

/* Define DEVIL_NO_SYS_IO to supply your own in/out primitives
 * (the compiled-stub test harness does). */
#ifndef DEVIL_NO_SYS_IO
#include <sys/io.h> /* inb/outb/inw/outw/inl/outl */
#endif

struct memw_cache_t {
    unsigned long __dil_base__[1];
    unsigned long long cache_a;
    unsigned char valid_a;
    unsigned long long cache_c;
    unsigned char valid_c;
    unsigned long long mem_m;
};
extern struct memw_cache_t memw_cache;


#define memw__write_a(v) (outb((((v) & 0xffull) | 0x0ull), memw_cache.__dil_base__[0] + 0))
#define memw__write_c(v) (outb((((v) & 0xffull) | 0x0ull), memw_cache.__dil_base__[0] + 1))

#define memw_get_m() (memw_cache.mem_m)
#define memw_set_m(v) (memw_cache.mem_m = ((v) & 0x1ull))
#define memw_set_resta(v) ( \
    (void)(memw_cache.cache_a = (memw_cache.cache_a & 0xffffffffffffff01ull) | (((v) << 1) & 0xfeull), memw_cache.valid_a = 1, memw__write_a(memw_cache.cache_a)) )
#define memw_set_restc(v) ( \
    (void)(memw_cache.cache_c = (memw_cache.cache_c & 0xffffffffffffff01ull) | (((v) << 1) & 0xfeull), memw_cache.valid_c = 1, memw__write_c(memw_cache.cache_c)) )
#define memw_set_w(v) ( \
    (memw_cache.mem_m == 0x0ull ? \
    (void)(memw_cache.cache_c = (memw_cache.cache_c & 0xfffffffffffffffeull) | (((v) >> 1) & 0x1ull), memw_cache.valid_c = 1, \
    memw_cache.cache_a = (memw_cache.cache_a & 0xfffffffffffffffeull) | ((v) & 0x1ull), memw_cache.valid_a = 1, memw__write_a(memw_cache.cache_a)) : \
    (void)(memw_cache.cache_a = (memw_cache.cache_a & 0xfffffffffffffffeull) | ((v) & 0x1ull), memw_cache.valid_a = 1, memw__write_a(memw_cache.cache_a), \
    memw_cache.cache_c = (memw_cache.cache_c & 0xfffffffffffffffeull) | (((v) >> 1) & 0x1ull), memw_cache.valid_c = 1, memw__write_c(memw_cache.cache_c))) )
/* fused superplan `burst`: one guard evaluation, batched I/O. */
static inline void memw_sp_burst(unsigned long long a0, unsigned long long a1)
{
    if (memw_cache.mem_m == 0x0ull) {
        memw_cache.cache_a = (memw_cache.cache_a & 0xffffffffffffff01ull) | (((a0) << 1) & 0xfeull), memw_cache.valid_a = 1, memw__write_a(memw_cache.cache_a);
        memw_cache.cache_c = (memw_cache.cache_c & 0xfffffffffffffffeull) | (((a1) >> 1) & 0x1ull), memw_cache.valid_c = 1;
        memw_cache.cache_a = (memw_cache.cache_a & 0xfffffffffffffffeull) | ((a1) & 0x1ull), memw_cache.valid_a = 1, memw__write_a(memw_cache.cache_a);
    } else {
        memw_cache.cache_a = (memw_cache.cache_a & 0xffffffffffffff01ull) | (((a0) << 1) & 0xfeull), memw_cache.valid_a = 1, memw__write_a(memw_cache.cache_a);
        memw_cache.cache_a = (memw_cache.cache_a & 0xfffffffffffffffeull) | ((a1) & 0x1ull), memw_cache.valid_a = 1, memw__write_a(memw_cache.cache_a);
        memw_cache.cache_c = (memw_cache.cache_c & 0xfffffffffffffffeull) | (((a1) >> 1) & 0x1ull), memw_cache.valid_c = 1, memw__write_c(memw_cache.cache_c);
    }
}

#endif /* MEMW_DIL_H */
