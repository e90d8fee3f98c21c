/* Generated by devilc from device `nestedc`. Do not edit. */
#ifndef NESTEDC_DIL_H
#define NESTEDC_DIL_H

/* Define DEVIL_NO_SYS_IO to supply your own in/out primitives
 * (the compiled-stub test harness does). */
#ifndef DEVIL_NO_SYS_IO
#include <sys/io.h> /* inb/outb/inw/outw/inl/outl */
#endif

struct nestedc_cache_t {
    unsigned long __dil_base__[1];
    unsigned long long cache_a;
    unsigned char valid_a;
    unsigned long long cache_c;
    unsigned char valid_c;
    unsigned long long cache_data;
    unsigned char valid_data;
};
extern struct nestedc_cache_t nestedc_cache;


#define nestedc__write_a(v) (outb((((v) & 0xffull) | 0x0ull), nestedc_cache.__dil_base__[0] + 0))
#define nestedc__write_c(v) (outb((((v) & 0xffull) | 0x0ull), nestedc_cache.__dil_base__[0] + 1))
#define nestedc__read_data() (inb(nestedc_cache.__dil_base__[0] + 2))

#define nestedc_get_payload() ( \
    (void)(nestedc_cache.cache_a = (nestedc_cache.cache_a & 0xffffffffffffff00ull) | 0x3ull, nestedc_cache.valid_a = 1, nestedc__write_a(nestedc_cache.cache_a), \
    nestedc_cache.cache_c = (nestedc_cache.cache_c & 0xffffffffffffff00ull) | 0x2ull, nestedc_cache.valid_c = 1, nestedc__write_c(nestedc_cache.cache_c), \
    nestedc_cache.cache_data = nestedc__read_data(), nestedc_cache.valid_data = 1), \
    (nestedc_cache.cache_data & 0xffull) )
#define nestedc_getf_sel() ((nestedc_cache.cache_a & 0x1ull))
#define nestedc_setf_sel(v) ( \
    nestedc_cache.cache_a = (nestedc_cache.cache_a & ~0x1ull) | ((v) & 0x1ull), nestedc_cache.valid_a = 1 )
#define nestedc_set_sel(v) ( \
    (void)(nestedc_cache.cache_a = (nestedc_cache.cache_a & 0xfffffffffffffffeull) | ((v) & 0x1ull), nestedc_cache.valid_a = 1, nestedc__write_a(nestedc_cache.cache_a)) )
#define nestedc_getf_rest() (((nestedc_cache.cache_a & 0xfeull) >> 1))
#define nestedc_setf_rest(v) ( \
    nestedc_cache.cache_a = (nestedc_cache.cache_a & ~0xfeull) | (((v) << 1) & 0xfeull), nestedc_cache.valid_a = 1 )
#define nestedc_set_rest(v) ( \
    (void)(nestedc_cache.cache_a = (nestedc_cache.cache_a & 0xffffffffffffff01ull) | (((v) << 1) & 0xfeull), nestedc_cache.valid_a = 1, nestedc__write_a(nestedc_cache.cache_a)) )
#define nestedc_getf_v() ((nestedc_cache.cache_c & 0xffull))
#define nestedc_setf_v(v) ( \
    nestedc_cache.cache_c = (nestedc_cache.cache_c & ~0xffull) | ((v) & 0xffull), nestedc_cache.valid_c = 1 )
#define nestedc_set_v(v) ( \
    (void)(nestedc_cache.cache_c = (nestedc_cache.cache_c & 0xffffffffffffff00ull) | ((v) & 0xffull), nestedc_cache.valid_c = 1, nestedc__write_c(nestedc_cache.cache_c)) )
#define nestedc_put_s() ( \
    ((nestedc_cache.cache_a & 0x1ull) == 0x0ull ? \
    (void)(nestedc_cache.valid_a = 1, nestedc__write_a(nestedc_cache.cache_a)) : \
    (void)(nestedc_cache.valid_a = 1, nestedc__write_a(nestedc_cache.cache_a), \
    nestedc_cache.valid_c = 1, nestedc__write_c(nestedc_cache.cache_c))) )
/* fused superplan `probe`: one guard evaluation, batched I/O. */
static inline void nestedc_sp_probe(unsigned long long *outs)
{
    nestedc_cache.cache_a = (nestedc_cache.cache_a & 0xffffffffffffff00ull) | 0x3ull, nestedc_cache.valid_a = 1, nestedc__write_a(nestedc_cache.cache_a);
    nestedc_cache.cache_c = (nestedc_cache.cache_c & 0xffffffffffffff00ull) | 0x2ull, nestedc_cache.valid_c = 1, nestedc__write_c(nestedc_cache.cache_c);
    nestedc_cache.cache_data = nestedc__read_data(), nestedc_cache.valid_data = 1;
    outs[0] = (nestedc_cache.cache_data & 0xffull);
}

#endif /* NESTEDC_DIL_H */
