/* Generated by devilc from device `pic8259`. Do not edit. */
#ifndef PIC_DIL_H
#define PIC_DIL_H

/* Define DEVIL_NO_SYS_IO to supply your own in/out primitives
 * (the compiled-stub test harness does). */
#ifndef DEVIL_NO_SYS_IO
#include <sys/io.h> /* inb/outb/inw/outw/inl/outl */
#endif

struct pic_cache_t {
    unsigned long __dil_base__[1];
    unsigned long long cache_icw1;
    unsigned char valid_icw1;
    unsigned long long cache_icw2;
    unsigned char valid_icw2;
    unsigned long long cache_icw3;
    unsigned char valid_icw3;
    unsigned long long cache_icw4;
    unsigned char valid_icw4;
    unsigned long long cache_ocw1;
    unsigned char valid_ocw1;
};
extern struct pic_cache_t pic_cache;

#define pic_IC4_YES 0x1u
#define pic_IC4_NO 0x0u
#define pic_SNGL_SINGLE 0x1u
#define pic_SNGL_CASCADED 0x0u
#define pic_MICROPROCESSOR_X8086 0x1u
#define pic_MICROPROCESSOR_MCS80 0x0u

#define pic__write_icw1(v) (outb((((v) & 0x1full) | 0x10ull), pic_cache.__dil_base__[0] + 0))
#define pic__write_icw2(v) (outb((((v) & 0xf8ull) | 0x0ull), pic_cache.__dil_base__[0] + 1))
#define pic__write_icw3(v) (outb((((v) & 0xffull) | 0x0ull), pic_cache.__dil_base__[0] + 1))
#define pic__write_icw4(v) (outb((((v) & 0x1full) | 0x0ull), pic_cache.__dil_base__[0] + 1))
#define pic__write_ocw1(v) (outb((((v) & 0xffull) | 0x0ull), pic_cache.__dil_base__[0] + 1))

#define pic_getf_ic4() ((pic_cache.cache_icw1 & 0x1ull))
#define pic_setf_ic4(v) ( \
    pic_cache.cache_icw1 = (pic_cache.cache_icw1 & ~0x1ull) | ((v) & 0x1ull), pic_cache.valid_icw1 = 1 )
#define pic_set_ic4(v) ( \
    (void)(pic_cache.cache_icw1 = (pic_cache.cache_icw1 & 0xfffffffffffffffeull) | ((v) & 0x1ull), pic_cache.valid_icw1 = 1, pic__write_icw1(pic_cache.cache_icw1)) )
#define pic_getf_sngl() (((pic_cache.cache_icw1 & 0x2ull) >> 1))
#define pic_setf_sngl(v) ( \
    pic_cache.cache_icw1 = (pic_cache.cache_icw1 & ~0x2ull) | (((v) << 1) & 0x2ull), pic_cache.valid_icw1 = 1 )
#define pic_set_sngl(v) ( \
    (void)(pic_cache.cache_icw1 = (pic_cache.cache_icw1 & 0xfffffffffffffffdull) | (((v) << 1) & 0x2ull), pic_cache.valid_icw1 = 1, pic__write_icw1(pic_cache.cache_icw1)) )
#define pic_getf_adi() (((pic_cache.cache_icw1 & 0x4ull) >> 2))
#define pic_setf_adi(v) ( \
    pic_cache.cache_icw1 = (pic_cache.cache_icw1 & ~0x4ull) | (((v) << 2) & 0x4ull), pic_cache.valid_icw1 = 1 )
#define pic_set_adi(v) ( \
    (void)(pic_cache.cache_icw1 = (pic_cache.cache_icw1 & 0xfffffffffffffffbull) | (((v) << 2) & 0x4ull), pic_cache.valid_icw1 = 1, pic__write_icw1(pic_cache.cache_icw1)) )
#define pic_getf_ltim() (((pic_cache.cache_icw1 & 0x8ull) >> 3))
#define pic_setf_ltim(v) ( \
    pic_cache.cache_icw1 = (pic_cache.cache_icw1 & ~0x8ull) | (((v) << 3) & 0x8ull), pic_cache.valid_icw1 = 1 )
#define pic_set_ltim(v) ( \
    (void)(pic_cache.cache_icw1 = (pic_cache.cache_icw1 & 0xfffffffffffffff7ull) | (((v) << 3) & 0x8ull), pic_cache.valid_icw1 = 1, pic__write_icw1(pic_cache.cache_icw1)) )
#define pic_getf_vector_base() (((pic_cache.cache_icw2 & 0xf8ull) >> 3))
#define pic_setf_vector_base(v) ( \
    pic_cache.cache_icw2 = (pic_cache.cache_icw2 & ~0xf8ull) | (((v) << 3) & 0xf8ull), pic_cache.valid_icw2 = 1 )
#define pic_set_vector_base(v) ( \
    (void)(pic_cache.cache_icw2 = (pic_cache.cache_icw2 & 0xffffffffffffff07ull) | (((v) << 3) & 0xf8ull), pic_cache.valid_icw2 = 1, pic__write_icw2(pic_cache.cache_icw2)) )
#define pic_getf_cascade_map() ((pic_cache.cache_icw3 & 0xffull))
#define pic_setf_cascade_map(v) ( \
    pic_cache.cache_icw3 = (pic_cache.cache_icw3 & ~0xffull) | ((v) & 0xffull), pic_cache.valid_icw3 = 1 )
#define pic_set_cascade_map(v) ( \
    (void)(pic_cache.cache_icw3 = (pic_cache.cache_icw3 & 0xffffffffffffff00ull) | ((v) & 0xffull), pic_cache.valid_icw3 = 1, pic__write_icw3(pic_cache.cache_icw3)) )
#define pic_getf_sfnm() (((pic_cache.cache_icw4 & 0x10ull) >> 4))
#define pic_setf_sfnm(v) ( \
    pic_cache.cache_icw4 = (pic_cache.cache_icw4 & ~0x10ull) | (((v) << 4) & 0x10ull), pic_cache.valid_icw4 = 1 )
#define pic_set_sfnm(v) ( \
    (void)(pic_cache.cache_icw4 = (pic_cache.cache_icw4 & 0xffffffffffffffefull) | (((v) << 4) & 0x10ull), pic_cache.valid_icw4 = 1, pic__write_icw4(pic_cache.cache_icw4)) )
#define pic_getf_buffered() (((pic_cache.cache_icw4 & 0xcull) >> 2))
#define pic_setf_buffered(v) ( \
    pic_cache.cache_icw4 = (pic_cache.cache_icw4 & ~0xcull) | (((v) << 2) & 0xcull), pic_cache.valid_icw4 = 1 )
#define pic_set_buffered(v) ( \
    (void)(pic_cache.cache_icw4 = (pic_cache.cache_icw4 & 0xfffffffffffffff3ull) | (((v) << 2) & 0xcull), pic_cache.valid_icw4 = 1, pic__write_icw4(pic_cache.cache_icw4)) )
#define pic_getf_aeoi() (((pic_cache.cache_icw4 & 0x2ull) >> 1))
#define pic_setf_aeoi(v) ( \
    pic_cache.cache_icw4 = (pic_cache.cache_icw4 & ~0x2ull) | (((v) << 1) & 0x2ull), pic_cache.valid_icw4 = 1 )
#define pic_set_aeoi(v) ( \
    (void)(pic_cache.cache_icw4 = (pic_cache.cache_icw4 & 0xfffffffffffffffdull) | (((v) << 1) & 0x2ull), pic_cache.valid_icw4 = 1, pic__write_icw4(pic_cache.cache_icw4)) )
#define pic_getf_microprocessor() ((pic_cache.cache_icw4 & 0x1ull))
#define pic_setf_microprocessor(v) ( \
    pic_cache.cache_icw4 = (pic_cache.cache_icw4 & ~0x1ull) | ((v) & 0x1ull), pic_cache.valid_icw4 = 1 )
#define pic_set_microprocessor(v) ( \
    (void)(pic_cache.cache_icw4 = (pic_cache.cache_icw4 & 0xfffffffffffffffeull) | ((v) & 0x1ull), pic_cache.valid_icw4 = 1, pic__write_icw4(pic_cache.cache_icw4)) )
#define pic_getf_irq_mask() ((pic_cache.cache_ocw1 & 0xffull))
#define pic_setf_irq_mask(v) ( \
    pic_cache.cache_ocw1 = (pic_cache.cache_ocw1 & ~0xffull) | ((v) & 0xffull), pic_cache.valid_ocw1 = 1 )
#define pic_set_irq_mask(v) ( \
    (void)(pic_cache.cache_ocw1 = (pic_cache.cache_ocw1 & 0xffffffffffffff00ull) | ((v) & 0xffull), pic_cache.valid_ocw1 = 1, pic__write_ocw1(pic_cache.cache_ocw1)) )
#define pic_put_init() ( \
    ((pic_cache.cache_icw1 & 0x2ull) == 0x0ull && (pic_cache.cache_icw1 & 0x1ull) == 0x0ull ? \
    (void)(pic_cache.valid_icw1 = 1, pic__write_icw1(pic_cache.cache_icw1), \
    pic_cache.valid_icw2 = 1, pic__write_icw2(pic_cache.cache_icw2), \
    pic_cache.valid_icw3 = 1, pic__write_icw3(pic_cache.cache_icw3), \
    pic_cache.valid_ocw1 = 1, pic__write_ocw1(pic_cache.cache_ocw1)) : \
    (pic_cache.cache_icw1 & 0x2ull) == 0x0ull && (pic_cache.cache_icw1 & 0x1ull) == 0x1ull ? \
    (void)(pic_cache.valid_icw1 = 1, pic__write_icw1(pic_cache.cache_icw1), \
    pic_cache.valid_icw2 = 1, pic__write_icw2(pic_cache.cache_icw2), \
    pic_cache.valid_icw3 = 1, pic__write_icw3(pic_cache.cache_icw3), \
    pic_cache.valid_icw4 = 1, pic__write_icw4(pic_cache.cache_icw4), \
    pic_cache.valid_ocw1 = 1, pic__write_ocw1(pic_cache.cache_ocw1)) : \
    (pic_cache.cache_icw1 & 0x2ull) == 0x2ull && (pic_cache.cache_icw1 & 0x1ull) == 0x0ull ? \
    (void)(pic_cache.valid_icw1 = 1, pic__write_icw1(pic_cache.cache_icw1), \
    pic_cache.valid_icw2 = 1, pic__write_icw2(pic_cache.cache_icw2), \
    pic_cache.valid_ocw1 = 1, pic__write_ocw1(pic_cache.cache_ocw1)) : \
    (void)(pic_cache.valid_icw1 = 1, pic__write_icw1(pic_cache.cache_icw1), \
    pic_cache.valid_icw2 = 1, pic__write_icw2(pic_cache.cache_icw2), \
    pic_cache.valid_icw4 = 1, pic__write_icw4(pic_cache.cache_icw4), \
    pic_cache.valid_ocw1 = 1, pic__write_ocw1(pic_cache.cache_ocw1))) )

#endif /* PIC_DIL_H */
