/* Generated by devilc from device `pic8259`. Do not edit. */
#ifndef PIC8259_DIL_H
#define PIC8259_DIL_H

/* Define DEVIL_NO_SYS_IO to supply your own in/out primitives
 * (the compiled-stub test harness does). */
#ifndef DEVIL_NO_SYS_IO
#include <sys/io.h> /* inb/outb/inw/outw/inl/outl */
#endif

struct pic8259_cache_t {
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
extern struct pic8259_cache_t pic8259_cache;

#define pic8259_IC4_YES 0x1u
#define pic8259_IC4_NO 0x0u
#define pic8259_SNGL_SINGLE 0x1u
#define pic8259_SNGL_CASCADED 0x0u
#define pic8259_MICROPROCESSOR_X8086 0x1u
#define pic8259_MICROPROCESSOR_MCS80 0x0u

#define pic8259__write_icw1(v) (outb((((v) & 0x1full) | 0x10ull), pic8259_cache.__dil_base__[0] + 0))
#define pic8259__write_icw2(v) (outb((((v) & 0xf8ull) | 0x0ull), pic8259_cache.__dil_base__[0] + 1))
#define pic8259__write_icw3(v) (outb((((v) & 0xffull) | 0x0ull), pic8259_cache.__dil_base__[0] + 1))
#define pic8259__write_icw4(v) (outb((((v) & 0x1full) | 0x0ull), pic8259_cache.__dil_base__[0] + 1))
#define pic8259__write_ocw1(v) (outb((((v) & 0xffull) | 0x0ull), pic8259_cache.__dil_base__[0] + 1))

#define pic8259_getf_ic4() ((pic8259_cache.cache_icw1 & 0x1ull))
#define pic8259_setf_ic4(v) ( \
    pic8259_cache.cache_icw1 = (pic8259_cache.cache_icw1 & ~0x1ull) | ((v) & 0x1ull), pic8259_cache.valid_icw1 = 1 )
#define pic8259_set_ic4(v) ( \
    (void)(pic8259_cache.cache_icw1 = (pic8259_cache.cache_icw1 & 0xfffffffffffffffeull) | ((v) & 0x1ull), pic8259_cache.valid_icw1 = 1, pic8259__write_icw1(pic8259_cache.cache_icw1)) )
#define pic8259_getf_sngl() (((pic8259_cache.cache_icw1 & 0x2ull) >> 1))
#define pic8259_setf_sngl(v) ( \
    pic8259_cache.cache_icw1 = (pic8259_cache.cache_icw1 & ~0x2ull) | (((v) << 1) & 0x2ull), pic8259_cache.valid_icw1 = 1 )
#define pic8259_set_sngl(v) ( \
    (void)(pic8259_cache.cache_icw1 = (pic8259_cache.cache_icw1 & 0xfffffffffffffffdull) | (((v) << 1) & 0x2ull), pic8259_cache.valid_icw1 = 1, pic8259__write_icw1(pic8259_cache.cache_icw1)) )
#define pic8259_getf_adi() (((pic8259_cache.cache_icw1 & 0x4ull) >> 2))
#define pic8259_setf_adi(v) ( \
    pic8259_cache.cache_icw1 = (pic8259_cache.cache_icw1 & ~0x4ull) | (((v) << 2) & 0x4ull), pic8259_cache.valid_icw1 = 1 )
#define pic8259_set_adi(v) ( \
    (void)(pic8259_cache.cache_icw1 = (pic8259_cache.cache_icw1 & 0xfffffffffffffffbull) | (((v) << 2) & 0x4ull), pic8259_cache.valid_icw1 = 1, pic8259__write_icw1(pic8259_cache.cache_icw1)) )
#define pic8259_getf_ltim() (((pic8259_cache.cache_icw1 & 0x8ull) >> 3))
#define pic8259_setf_ltim(v) ( \
    pic8259_cache.cache_icw1 = (pic8259_cache.cache_icw1 & ~0x8ull) | (((v) << 3) & 0x8ull), pic8259_cache.valid_icw1 = 1 )
#define pic8259_set_ltim(v) ( \
    (void)(pic8259_cache.cache_icw1 = (pic8259_cache.cache_icw1 & 0xfffffffffffffff7ull) | (((v) << 3) & 0x8ull), pic8259_cache.valid_icw1 = 1, pic8259__write_icw1(pic8259_cache.cache_icw1)) )
#define pic8259_getf_vector_base() (((pic8259_cache.cache_icw2 & 0xf8ull) >> 3))
#define pic8259_setf_vector_base(v) ( \
    pic8259_cache.cache_icw2 = (pic8259_cache.cache_icw2 & ~0xf8ull) | (((v) << 3) & 0xf8ull), pic8259_cache.valid_icw2 = 1 )
#define pic8259_set_vector_base(v) ( \
    (void)(pic8259_cache.cache_icw2 = (pic8259_cache.cache_icw2 & 0xffffffffffffff07ull) | (((v) << 3) & 0xf8ull), pic8259_cache.valid_icw2 = 1, pic8259__write_icw2(pic8259_cache.cache_icw2)) )
#define pic8259_getf_cascade_map() ((pic8259_cache.cache_icw3 & 0xffull))
#define pic8259_setf_cascade_map(v) ( \
    pic8259_cache.cache_icw3 = (pic8259_cache.cache_icw3 & ~0xffull) | ((v) & 0xffull), pic8259_cache.valid_icw3 = 1 )
#define pic8259_set_cascade_map(v) ( \
    (void)(pic8259_cache.cache_icw3 = (pic8259_cache.cache_icw3 & 0xffffffffffffff00ull) | ((v) & 0xffull), pic8259_cache.valid_icw3 = 1, pic8259__write_icw3(pic8259_cache.cache_icw3)) )
#define pic8259_getf_sfnm() (((pic8259_cache.cache_icw4 & 0x10ull) >> 4))
#define pic8259_setf_sfnm(v) ( \
    pic8259_cache.cache_icw4 = (pic8259_cache.cache_icw4 & ~0x10ull) | (((v) << 4) & 0x10ull), pic8259_cache.valid_icw4 = 1 )
#define pic8259_set_sfnm(v) ( \
    (void)(pic8259_cache.cache_icw4 = (pic8259_cache.cache_icw4 & 0xffffffffffffffefull) | (((v) << 4) & 0x10ull), pic8259_cache.valid_icw4 = 1, pic8259__write_icw4(pic8259_cache.cache_icw4)) )
#define pic8259_getf_buffered() (((pic8259_cache.cache_icw4 & 0xcull) >> 2))
#define pic8259_setf_buffered(v) ( \
    pic8259_cache.cache_icw4 = (pic8259_cache.cache_icw4 & ~0xcull) | (((v) << 2) & 0xcull), pic8259_cache.valid_icw4 = 1 )
#define pic8259_set_buffered(v) ( \
    (void)(pic8259_cache.cache_icw4 = (pic8259_cache.cache_icw4 & 0xfffffffffffffff3ull) | (((v) << 2) & 0xcull), pic8259_cache.valid_icw4 = 1, pic8259__write_icw4(pic8259_cache.cache_icw4)) )
#define pic8259_getf_aeoi() (((pic8259_cache.cache_icw4 & 0x2ull) >> 1))
#define pic8259_setf_aeoi(v) ( \
    pic8259_cache.cache_icw4 = (pic8259_cache.cache_icw4 & ~0x2ull) | (((v) << 1) & 0x2ull), pic8259_cache.valid_icw4 = 1 )
#define pic8259_set_aeoi(v) ( \
    (void)(pic8259_cache.cache_icw4 = (pic8259_cache.cache_icw4 & 0xfffffffffffffffdull) | (((v) << 1) & 0x2ull), pic8259_cache.valid_icw4 = 1, pic8259__write_icw4(pic8259_cache.cache_icw4)) )
#define pic8259_getf_microprocessor() ((pic8259_cache.cache_icw4 & 0x1ull))
#define pic8259_setf_microprocessor(v) ( \
    pic8259_cache.cache_icw4 = (pic8259_cache.cache_icw4 & ~0x1ull) | ((v) & 0x1ull), pic8259_cache.valid_icw4 = 1 )
#define pic8259_set_microprocessor(v) ( \
    (void)(pic8259_cache.cache_icw4 = (pic8259_cache.cache_icw4 & 0xfffffffffffffffeull) | ((v) & 0x1ull), pic8259_cache.valid_icw4 = 1, pic8259__write_icw4(pic8259_cache.cache_icw4)) )
#define pic8259_getf_irq_mask() ((pic8259_cache.cache_ocw1 & 0xffull))
#define pic8259_setf_irq_mask(v) ( \
    pic8259_cache.cache_ocw1 = (pic8259_cache.cache_ocw1 & ~0xffull) | ((v) & 0xffull), pic8259_cache.valid_ocw1 = 1 )
#define pic8259_set_irq_mask(v) ( \
    (void)(pic8259_cache.cache_ocw1 = (pic8259_cache.cache_ocw1 & 0xffffffffffffff00ull) | ((v) & 0xffull), pic8259_cache.valid_ocw1 = 1, pic8259__write_ocw1(pic8259_cache.cache_ocw1)) )
#define pic8259_put_init() ( \
    ((pic8259_cache.cache_icw1 & 0x2ull) == 0x0ull && (pic8259_cache.cache_icw1 & 0x1ull) == 0x0ull ? \
    (void)(pic8259_cache.valid_icw1 = 1, pic8259__write_icw1(pic8259_cache.cache_icw1), \
    pic8259_cache.valid_icw2 = 1, pic8259__write_icw2(pic8259_cache.cache_icw2), \
    pic8259_cache.valid_icw3 = 1, pic8259__write_icw3(pic8259_cache.cache_icw3), \
    pic8259_cache.valid_ocw1 = 1, pic8259__write_ocw1(pic8259_cache.cache_ocw1)) : \
    (pic8259_cache.cache_icw1 & 0x2ull) == 0x0ull && (pic8259_cache.cache_icw1 & 0x1ull) == 0x1ull ? \
    (void)(pic8259_cache.valid_icw1 = 1, pic8259__write_icw1(pic8259_cache.cache_icw1), \
    pic8259_cache.valid_icw2 = 1, pic8259__write_icw2(pic8259_cache.cache_icw2), \
    pic8259_cache.valid_icw3 = 1, pic8259__write_icw3(pic8259_cache.cache_icw3), \
    pic8259_cache.valid_icw4 = 1, pic8259__write_icw4(pic8259_cache.cache_icw4), \
    pic8259_cache.valid_ocw1 = 1, pic8259__write_ocw1(pic8259_cache.cache_ocw1)) : \
    (pic8259_cache.cache_icw1 & 0x2ull) == 0x2ull && (pic8259_cache.cache_icw1 & 0x1ull) == 0x0ull ? \
    (void)(pic8259_cache.valid_icw1 = 1, pic8259__write_icw1(pic8259_cache.cache_icw1), \
    pic8259_cache.valid_icw2 = 1, pic8259__write_icw2(pic8259_cache.cache_icw2), \
    pic8259_cache.valid_ocw1 = 1, pic8259__write_ocw1(pic8259_cache.cache_ocw1)) : \
    (void)(pic8259_cache.valid_icw1 = 1, pic8259__write_icw1(pic8259_cache.cache_icw1), \
    pic8259_cache.valid_icw2 = 1, pic8259__write_icw2(pic8259_cache.cache_icw2), \
    pic8259_cache.valid_icw4 = 1, pic8259__write_icw4(pic8259_cache.cache_icw4), \
    pic8259_cache.valid_ocw1 = 1, pic8259__write_ocw1(pic8259_cache.cache_ocw1))) )
/* fused superplan `icw_init`: one guard evaluation, batched I/O. */
static inline void pic8259_sp_icw_init(unsigned long long a0, unsigned long long a1, unsigned long long a2, unsigned long long a3, unsigned long long a4, unsigned long long a5, unsigned long long a6)
{
    pic8259_cache.cache_icw1 = (pic8259_cache.cache_icw1 & 0xfffffffffffffffeull) | ((a0) & 0x1ull), pic8259_cache.valid_icw1 = 1;
    pic8259_cache.cache_icw1 = (pic8259_cache.cache_icw1 & 0xfffffffffffffffdull) | (((a1) << 1) & 0x2ull), pic8259_cache.valid_icw1 = 1;
    pic8259_cache.cache_icw1 = (pic8259_cache.cache_icw1 & 0xfffffffffffffffbull), pic8259_cache.valid_icw1 = 1;
    pic8259_cache.cache_icw1 = (pic8259_cache.cache_icw1 & 0xfffffffffffffff7ull), pic8259_cache.valid_icw1 = 1;
    pic8259_cache.cache_icw2 = (pic8259_cache.cache_icw2 & 0xffffffffffffff07ull) | (((a2) << 3) & 0xf8ull), pic8259_cache.valid_icw2 = 1;
    pic8259_cache.cache_icw3 = (pic8259_cache.cache_icw3 & 0xffffffffffffff00ull) | ((a3) & 0xffull), pic8259_cache.valid_icw3 = 1;
    pic8259_cache.cache_icw4 = (pic8259_cache.cache_icw4 & 0xffffffffffffffefull), pic8259_cache.valid_icw4 = 1;
    pic8259_cache.cache_icw4 = (pic8259_cache.cache_icw4 & 0xfffffffffffffff3ull), pic8259_cache.valid_icw4 = 1;
    pic8259_cache.cache_icw4 = (pic8259_cache.cache_icw4 & 0xfffffffffffffffdull) | (((a4) << 1) & 0x2ull), pic8259_cache.valid_icw4 = 1;
    pic8259_cache.cache_icw4 = (pic8259_cache.cache_icw4 & 0xfffffffffffffffeull) | ((a5) & 0x1ull), pic8259_cache.valid_icw4 = 1;
    pic8259_cache.cache_ocw1 = (pic8259_cache.cache_ocw1 & 0xffffffffffffff00ull) | ((a6) & 0xffull), pic8259_cache.valid_ocw1 = 1;
    if ((pic8259_cache.cache_icw1 & 0x2ull) == 0x0ull && (pic8259_cache.cache_icw1 & 0x1ull) == 0x0ull) {
        pic8259_cache.valid_icw1 = 1, pic8259__write_icw1(pic8259_cache.cache_icw1);
        pic8259_cache.valid_icw2 = 1, pic8259__write_icw2(pic8259_cache.cache_icw2);
        pic8259_cache.valid_icw3 = 1, pic8259__write_icw3(pic8259_cache.cache_icw3);
        pic8259_cache.valid_ocw1 = 1, pic8259__write_ocw1(pic8259_cache.cache_ocw1);
    } else if ((pic8259_cache.cache_icw1 & 0x2ull) == 0x0ull && (pic8259_cache.cache_icw1 & 0x1ull) == 0x1ull) {
        pic8259_cache.valid_icw1 = 1, pic8259__write_icw1(pic8259_cache.cache_icw1);
        pic8259_cache.valid_icw2 = 1, pic8259__write_icw2(pic8259_cache.cache_icw2);
        pic8259_cache.valid_icw3 = 1, pic8259__write_icw3(pic8259_cache.cache_icw3);
        pic8259_cache.valid_icw4 = 1, pic8259__write_icw4(pic8259_cache.cache_icw4);
        pic8259_cache.valid_ocw1 = 1, pic8259__write_ocw1(pic8259_cache.cache_ocw1);
    } else if ((pic8259_cache.cache_icw1 & 0x2ull) == 0x2ull && (pic8259_cache.cache_icw1 & 0x1ull) == 0x0ull) {
        pic8259_cache.valid_icw1 = 1, pic8259__write_icw1(pic8259_cache.cache_icw1);
        pic8259_cache.valid_icw2 = 1, pic8259__write_icw2(pic8259_cache.cache_icw2);
        pic8259_cache.valid_ocw1 = 1, pic8259__write_ocw1(pic8259_cache.cache_ocw1);
    } else {
        pic8259_cache.valid_icw1 = 1, pic8259__write_icw1(pic8259_cache.cache_icw1);
        pic8259_cache.valid_icw2 = 1, pic8259__write_icw2(pic8259_cache.cache_icw2);
        pic8259_cache.valid_icw4 = 1, pic8259__write_icw4(pic8259_cache.cache_icw4);
        pic8259_cache.valid_ocw1 = 1, pic8259__write_ocw1(pic8259_cache.cache_ocw1);
    }
}

#endif /* PIC8259_DIL_H */
