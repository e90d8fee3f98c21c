/* Generated by devilc from device `selfw`. Do not edit. */
#ifndef SELFW_DIL_H
#define SELFW_DIL_H

/* Define DEVIL_NO_SYS_IO to supply your own in/out primitives
 * (the compiled-stub test harness does). */
#ifndef DEVIL_NO_SYS_IO
#include <sys/io.h> /* inb/outb/inw/outw/inl/outl */
#endif

struct selfw_cache_t {
    unsigned long __dil_base__[1];
    unsigned long long cache_a;
    unsigned char valid_a;
};
extern struct selfw_cache_t selfw_cache;


#define selfw__write_a(v) (outb((((v) & 0xffull) | 0x0ull), selfw_cache.__dil_base__[0] + 0))

#define selfw_set_rest(v) ( \
    (void)(selfw_cache.cache_a = (selfw_cache.cache_a & 0xffffffffffffff01ull) | (((v) << 1) & 0xfeull), selfw_cache.valid_a = 1, selfw__write_a(selfw_cache.cache_a)) )
#define selfw_set_w(v) ( \
    ((((v)) & 0x1ull) == 0x0ull ? \
    (void)(selfw_cache.cache_a = (selfw_cache.cache_a & 0xfffffffffffffffeull) | ((v) & 0x1ull), selfw_cache.valid_a = 1) : \
    (void)(selfw_cache.cache_a = (selfw_cache.cache_a & 0xfffffffffffffffeull) | ((v) & 0x1ull), selfw_cache.valid_a = 1, selfw__write_a(selfw_cache.cache_a))) )
/* fused superplan `burst`: one guard evaluation, batched I/O. */
static inline void selfw_sp_burst(unsigned long long a0)
{
    selfw_cache.cache_a = (selfw_cache.cache_a & 0xffffffffffffff01ull) | (((a0) << 1) & 0xfeull), selfw_cache.valid_a = 1, selfw__write_a(selfw_cache.cache_a);
    selfw_cache.cache_a = (selfw_cache.cache_a & 0xfffffffffffffffeull) | 0x1ull, selfw_cache.valid_a = 1, selfw__write_a(selfw_cache.cache_a);
}

#endif /* SELFW_DIL_H */
