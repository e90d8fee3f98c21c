/* Surface glue for the emitted `pic8259` header. Generated by devil-fuzz; do not edit. */
extern unsigned long long devil_bus(void *dev, int write, unsigned width,
                                    unsigned long long addr, unsigned long long value);
static void *bus;

#define DEVIL_NO_SYS_IO 1
#define inb(a) devil_bus(bus, 0, 8, (a), 0)
#define inw(a) devil_bus(bus, 0, 16, (a), 0)
#define inl(a) devil_bus(bus, 0, 32, (a), 0)
#define outb(v, a) ((void)devil_bus(bus, 1, 8, (a), (v)))
#define outw(v, a) ((void)devil_bus(bus, 1, 16, (a), (v)))
#define outl(v, a) ((void)devil_bus(bus, 1, 32, (a), (v)))
#define devil_ins(w, a, b, n) do { unsigned long i_; \
    for (i_ = 0; i_ < (unsigned long)(n); ++i_) (b)[i_] = devil_bus(bus, 0, (w), (a), 0); } while (0)
#define devil_outs(w, a, b, n) do { unsigned long i_; \
    for (i_ = 0; i_ < (unsigned long)(n); ++i_) (void)devil_bus(bus, 1, (w), (a), (b)[i_]); } while (0)
#define devil_ins8(a, b, n) devil_ins(8, a, b, n)
#define devil_ins16(a, b, n) devil_ins(16, a, b, n)
#define devil_ins32(a, b, n) devil_ins(32, a, b, n)
#define devil_outs8(a, b, n) devil_outs(8, a, b, n)
#define devil_outs16(a, b, n) devil_outs(16, a, b, n)
#define devil_outs32(a, b, n) devil_outs(32, a, b, n)

#include "../pic8259.h"

struct pic8259_cache_t pic8259_cache;

struct devil_glue {
    unsigned slots, cells;
    const char *const *vars;
    int (*read_var)(void *dev, unsigned id, const unsigned long long *a, unsigned long n, unsigned long long *v);
    int (*write_var)(void *dev, unsigned id, const unsigned long long *a, unsigned long n, unsigned long long v);
    int (*read_struct)(void *dev, unsigned id);
    int (*get_field)(unsigned id, unsigned long long *v);
    int (*set_field)(unsigned id, unsigned long long v);
    int (*write_struct)(void *dev, unsigned id);
    int (*superplan)(void *dev, unsigned id, const unsigned long long *a, unsigned long n, const unsigned long long *bo, unsigned long bon, unsigned long long *bi, unsigned long bin, unsigned long long *outs, unsigned long no);
    void (*reset)(void);
    void (*dump)(unsigned long long *slots, unsigned char *valid, unsigned long long *mem);
};

static int read_var(void *dev, unsigned id, const unsigned long long *a, unsigned long n, unsigned long long *v)
{
    bus = dev;
    return -1;
}

static int write_var(void *dev, unsigned id, const unsigned long long *a, unsigned long n, unsigned long long v)
{
    bus = dev;
    switch (id) {
    case 0:
        pic8259_set_ic4(v);
        return 0;
    case 1:
        pic8259_set_sngl(v);
        return 0;
    case 2:
        pic8259_set_adi(v);
        return 0;
    case 3:
        pic8259_set_ltim(v);
        return 0;
    case 4:
        pic8259_set_vector_base(v);
        return 0;
    case 5:
        pic8259_set_cascade_map(v);
        return 0;
    case 6:
        pic8259_set_sfnm(v);
        return 0;
    case 7:
        pic8259_set_buffered(v);
        return 0;
    case 8:
        pic8259_set_aeoi(v);
        return 0;
    case 9:
        pic8259_set_microprocessor(v);
        return 0;
    case 10:
        pic8259_set_irq_mask(v);
        return 0;
    }
    return -1;
}

static int read_struct(void *dev, unsigned id)
{
    bus = dev;
    return -1;
}

static int get_field(unsigned id, unsigned long long *v)
{
    return -1;
}

static int set_field(unsigned id, unsigned long long v)
{
    switch (id) {
    case 0:
        pic8259_setf_ic4(v);
        return 0;
    case 1:
        pic8259_setf_sngl(v);
        return 0;
    case 2:
        pic8259_setf_adi(v);
        return 0;
    case 3:
        pic8259_setf_ltim(v);
        return 0;
    case 4:
        pic8259_setf_vector_base(v);
        return 0;
    case 5:
        pic8259_setf_cascade_map(v);
        return 0;
    case 6:
        pic8259_setf_sfnm(v);
        return 0;
    case 7:
        pic8259_setf_buffered(v);
        return 0;
    case 8:
        pic8259_setf_aeoi(v);
        return 0;
    case 9:
        pic8259_setf_microprocessor(v);
        return 0;
    case 10:
        pic8259_setf_irq_mask(v);
        return 0;
    }
    return -1;
}

static int write_struct(void *dev, unsigned id)
{
    bus = dev;
    switch (id) {
    case 0:
        pic8259_put_init();
        return 0;
    }
    return -1;
}

static int superplan(void *dev, unsigned id, const unsigned long long *a, unsigned long n, const unsigned long long *bo, unsigned long bon, unsigned long long *bi, unsigned long bin, unsigned long long *outs, unsigned long no)
{
    bus = dev;
    switch (id) {
    case 0:
        if (n != 7 || no != 0) break;
        pic8259_sp_icw_init(a[0], a[1], a[2], a[3], a[4], a[5], a[6]);
        return 0;
    }
    return -1;
}

static void reset(void)
{
    static const struct pic8259_cache_t cold;
    pic8259_cache = cold;
    for (unsigned long i = 0; i < 1; i++)
        pic8259_cache.__dil_base__[i] = i << 40;
}

static void dump(unsigned long long *slots, unsigned char *valid, unsigned long long *mem)
{
    slots[0] = pic8259_cache.cache_icw1;
    valid[0] = pic8259_cache.valid_icw1;
    slots[1] = pic8259_cache.cache_icw2;
    valid[1] = pic8259_cache.valid_icw2;
    slots[2] = pic8259_cache.cache_icw3;
    valid[2] = pic8259_cache.valid_icw3;
    slots[3] = pic8259_cache.cache_icw4;
    valid[3] = pic8259_cache.valid_icw4;
    slots[4] = pic8259_cache.cache_ocw1;
    valid[4] = pic8259_cache.valid_ocw1;
}

static const char *const vars[] = {"ic4", "sngl", "adi", "ltim", "vector_base", "cascade_map", "sfnm", "buffered", "aeoi", "microprocessor", "irq_mask"};

const struct devil_glue pic8259_glue = {
    5, 0, vars,
    read_var, write_var, read_struct, get_field, set_field, write_struct, superplan, reset, dump,
};
