/* Generated by devilc from device `privfield`. Do not edit. */
#ifndef PRIVFIELD_DIL_H
#define PRIVFIELD_DIL_H

/* Define DEVIL_NO_SYS_IO to supply your own in/out primitives
 * (the compiled-stub test harness does). */
#ifndef DEVIL_NO_SYS_IO
#include <sys/io.h> /* inb/outb/inw/outw/inl/outl */
#endif

struct privfield_cache_t {
    unsigned long __dil_base__[1];
    unsigned long long cache_a;
    unsigned char valid_a;
    unsigned long long mem_pm;
};
extern struct privfield_cache_t privfield_cache;


#define privfield__read_a() (inb(privfield_cache.__dil_base__[0] + 0))
#define privfield__write_a(v) (outb((((v) & 0xffull) | 0x0ull), privfield_cache.__dil_base__[0] + 0))

#define privfield_get_pm() (privfield_cache.mem_pm)
#define privfield_getf_pm() (privfield_cache.mem_pm)
#define privfield_setf_pm(v) (privfield_cache.mem_pm = ((v) & 0x1ull))
#define privfield_set_pm(v) (privfield_cache.mem_pm = ((v) & 0x1ull))
#define privfield_getf_fa() ((privfield_cache.cache_a & 0xffull))
#define privfield_get_fa() ((privfield_cache.cache_a & 0xffull))
#define privfield_setf_fa(v) ( \
    privfield_cache.cache_a = (privfield_cache.cache_a & ~0xffull) | ((v) & 0xffull), privfield_cache.valid_a = 1 )
#define privfield_read_fa() ( \
    ((privfield_cache.valid_a) ? (void)0 : \
    (void)(privfield_cache.cache_a = privfield__read_a(), privfield_cache.valid_a = 1, \
    privfield_cache.mem_pm = 0x1ull)), \
    (privfield_cache.cache_a & 0xffull) )
#define privfield_set_fa(v) ( \
    (void)(privfield_cache.cache_a = (privfield_cache.cache_a & 0xffffffffffffff00ull) | ((v) & 0xffull), privfield_cache.valid_a = 1, privfield__write_a(privfield_cache.cache_a), \
    privfield_cache.mem_pm = 0x1ull) )
#define privfield_get_s() ( \
    (void)(privfield_cache.cache_a = privfield__read_a(), privfield_cache.valid_a = 1, \
    privfield_cache.mem_pm = 0x1ull) )
#define privfield_put_s() ( \
    (void)(privfield_cache.valid_a = 1, privfield__write_a(privfield_cache.cache_a), \
    privfield_cache.mem_pm = 0x1ull) )

#endif /* PRIVFIELD_DIL_H */
