/* Generated by devilc from device `nestede`. Do not edit. */
#ifndef NESTEDE_DIL_H
#define NESTEDE_DIL_H

/* Define DEVIL_NO_SYS_IO to supply your own in/out primitives
 * (the compiled-stub test harness does). */
#ifndef DEVIL_NO_SYS_IO
#include <sys/io.h> /* inb/outb/inw/outw/inl/outl */
#endif

struct nestede_cache_t {
    unsigned long __dil_base__[1];
    unsigned long long cache_a;
    unsigned char valid_a;
    unsigned long long cache_c;
    unsigned char valid_c;
    unsigned long long cache_data;
    unsigned char valid_data;
};
extern struct nestede_cache_t nestede_cache;


#define nestede__write_a(v) (outb((((v) & 0xffull) | 0x0ull), nestede_cache.__dil_base__[0] + 0))
#define nestede__write_c(v) (outb((((v) & 0xffull) | 0x0ull), nestede_cache.__dil_base__[0] + 1))
#define nestede__read_data() (inb(nestede_cache.__dil_base__[0] + 2))

#define nestede_get_payload() ( \
    ((nestede_cache.cache_a & 0x1ull) == 0x0ull ? \
    (void)(nestede_cache.cache_c = (nestede_cache.cache_c & 0xffffffffffffff00ull) | 0x2ull, nestede_cache.valid_c = 1, \
    nestede_cache.cache_a = (nestede_cache.cache_a & 0xffffffffffffff01ull) | 0x2ull, nestede_cache.valid_a = 1, nestede__write_a(nestede_cache.cache_a), \
    nestede_cache.cache_data = nestede__read_data(), nestede_cache.valid_data = 1) : \
    (void)(nestede_cache.cache_a = (nestede_cache.cache_a & 0xffffffffffffff01ull) | 0x2ull, nestede_cache.valid_a = 1, nestede__write_a(nestede_cache.cache_a), \
    nestede_cache.cache_c = (nestede_cache.cache_c & 0xffffffffffffff00ull) | 0x2ull, nestede_cache.valid_c = 1, nestede__write_c(nestede_cache.cache_c), \
    nestede_cache.cache_data = nestede__read_data(), nestede_cache.valid_data = 1)), \
    (nestede_cache.cache_data & 0xffull) )
#define nestede_getf_sel() ((nestede_cache.cache_a & 0x1ull))
#define nestede_setf_sel(v) ( \
    nestede_cache.cache_a = (nestede_cache.cache_a & ~0x1ull) | ((v) & 0x1ull), nestede_cache.valid_a = 1 )
#define nestede_set_sel(v) ( \
    (void)(nestede_cache.cache_a = (nestede_cache.cache_a & 0xfffffffffffffffeull) | ((v) & 0x1ull), nestede_cache.valid_a = 1, nestede__write_a(nestede_cache.cache_a)) )
#define nestede_getf_rest() (((nestede_cache.cache_a & 0xfeull) >> 1))
#define nestede_setf_rest(v) ( \
    nestede_cache.cache_a = (nestede_cache.cache_a & ~0xfeull) | (((v) << 1) & 0xfeull), nestede_cache.valid_a = 1 )
#define nestede_set_rest(v) ( \
    (void)(nestede_cache.cache_a = (nestede_cache.cache_a & 0xffffffffffffff01ull) | (((v) << 1) & 0xfeull), nestede_cache.valid_a = 1, nestede__write_a(nestede_cache.cache_a)) )
#define nestede_getf_v() ((nestede_cache.cache_c & 0xffull))
#define nestede_setf_v(v) ( \
    nestede_cache.cache_c = (nestede_cache.cache_c & ~0xffull) | ((v) & 0xffull), nestede_cache.valid_c = 1 )
#define nestede_set_v(v) ( \
    (void)(nestede_cache.cache_c = (nestede_cache.cache_c & 0xffffffffffffff00ull) | ((v) & 0xffull), nestede_cache.valid_c = 1, nestede__write_c(nestede_cache.cache_c)) )
#define nestede_put_s() ( \
    ((nestede_cache.cache_a & 0x1ull) == 0x0ull ? \
    (void)(nestede_cache.valid_a = 1, nestede__write_a(nestede_cache.cache_a)) : \
    (void)(nestede_cache.valid_a = 1, nestede__write_a(nestede_cache.cache_a), \
    nestede_cache.valid_c = 1, nestede__write_c(nestede_cache.cache_c))) )
/* fused superplan `probe`: one guard evaluation, batched I/O. */
static inline void nestede_sp_probe(unsigned long long *outs)
{
    if ((nestede_cache.cache_a & 0x1ull) == 0x0ull) {
        nestede_cache.cache_c = (nestede_cache.cache_c & 0xffffffffffffff00ull) | 0x2ull, nestede_cache.valid_c = 1;
        nestede_cache.cache_a = (nestede_cache.cache_a & 0xffffffffffffff01ull) | 0x2ull, nestede_cache.valid_a = 1, nestede__write_a(nestede_cache.cache_a);
        nestede_cache.cache_data = nestede__read_data(), nestede_cache.valid_data = 1;
        outs[0] = (nestede_cache.cache_data & 0xffull);
    } else {
        nestede_cache.cache_a = (nestede_cache.cache_a & 0xffffffffffffff01ull) | 0x2ull, nestede_cache.valid_a = 1, nestede__write_a(nestede_cache.cache_a);
        nestede_cache.cache_c = (nestede_cache.cache_c & 0xffffffffffffff00ull) | 0x2ull, nestede_cache.valid_c = 1, nestede__write_c(nestede_cache.cache_c);
        nestede_cache.cache_data = nestede__read_data(), nestede_cache.valid_data = 1;
        outs[0] = (nestede_cache.cache_data & 0xffull);
    }
}

#endif /* NESTEDE_DIL_H */
