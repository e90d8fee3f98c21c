/* Surface glue for the emitted `cs4236b` header. Generated by devil-fuzz; do not edit. */
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

#include "../cs4236b.h"

struct cs4236b_cache_t cs4236b_cache;

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
    switch (id) {
    case 0:
        *v = cs4236b_get_xm();
        return 0;
    case 1:
        *v = cs4236b_get_IA();
        return 0;
    case 2:
        if (n != 1) break;
        *v = cs4236b_get_ID(a[0]);
        return cs4236b_cache.bad_arg;
    case 3:
        if (n != 1) break;
        *v = cs4236b_get_XD(a[0]);
        return cs4236b_cache.bad_arg;
    }
    return -1;
}

static int write_var(void *dev, unsigned id, const unsigned long long *a, unsigned long n, unsigned long long v)
{
    bus = dev;
    switch (id) {
    case 0:
        cs4236b_set_xm(v);
        return 0;
    case 1:
        cs4236b_set_IA(v);
        return 0;
    case 2:
        if (n != 1) break;
        cs4236b_set_ID(a[0], v);
        return cs4236b_cache.bad_arg;
    case 3:
        if (n != 1) break;
        cs4236b_set_XD(a[0], v);
        return cs4236b_cache.bad_arg;
    case 4:
        cs4236b_set_XA(v);
        return 0;
    case 5:
        cs4236b_set_XRAE(v);
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
    case 4:
        cs4236b_setf_XA(v);
        return 0;
    case 5:
        cs4236b_setf_XRAE(v);
        return 0;
    }
    return -1;
}

static int write_struct(void *dev, unsigned id)
{
    bus = dev;
    switch (id) {
    case 0:
        cs4236b_put_XS();
        return 0;
    }
    return -1;
}

static int superplan(void *dev, unsigned id, const unsigned long long *a, unsigned long n, const unsigned long long *bo, unsigned long bon, unsigned long long *bi, unsigned long bin, unsigned long long *outs, unsigned long no)
{
    bus = dev;
    return -1;
}

static void reset(void)
{
    static const struct cs4236b_cache_t cold;
    cs4236b_cache = cold;
    for (unsigned long i = 0; i < 1; i++)
        cs4236b_cache.__dil_base__[i] = i << 40;
}

static void dump(unsigned long long *slots, unsigned char *valid, unsigned long long *mem)
{
    slots[0] = cs4236b_cache.cache_control;
    valid[0] = cs4236b_cache.valid_control;
    for (int i = 0; i < 32; i++) {
        slots[1 + i] = cs4236b_cache.cache_I[i];
        valid[1 + i] = cs4236b_cache.valid_I[i];
    }
    slots[33] = cs4236b_cache.cache_gw;
    valid[33] = cs4236b_cache.valid_gw;
    for (int i = 0; i < 19; i++) {
        slots[34 + i] = cs4236b_cache.cache_X[i];
        valid[34 + i] = cs4236b_cache.valid_X[i];
    }
    mem[0] = cs4236b_cache.mem_xm;
}

static const char *const vars[] = {"xm", "IA", "ID", "XD", "XA", "XRAE"};

const struct devil_glue cs4236b_glue = {
    53, 1, vars,
    read_var, write_var, read_struct, get_field, set_field, write_struct, superplan, reset, dump,
};
