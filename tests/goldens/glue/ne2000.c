/* Surface glue for the emitted `ne2000` header. Generated by devil-fuzz; do not edit. */
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

#include "../ne2000.h"

struct ne2000_cache_t ne2000_cache;

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
        *v = ne2000_get_st();
        return 0;
    case 1:
        *v = ne2000_get_txp();
        return 0;
    case 2:
        *v = ne2000_get_rd();
        return 0;
    case 3:
        *v = ne2000_get_page();
        return 0;
    case 6:
        *v = ne2000_get_bnry();
        return 0;
    case 9:
        *v = ne2000_get_prx();
        return 0;
    case 10:
        *v = ne2000_get_ptx();
        return 0;
    case 11:
        *v = ne2000_get_rdc();
        return 0;
    case 16:
        *v = ne2000_get_remote_data();
        return 0;
    }
    return -1;
}

static int write_var(void *dev, unsigned id, const unsigned long long *a, unsigned long n, unsigned long long v)
{
    bus = dev;
    switch (id) {
    case 0:
        ne2000_set_st(v);
        return 0;
    case 1:
        ne2000_set_txp(v);
        return 0;
    case 2:
        ne2000_set_rd(v);
        return 0;
    case 3:
        ne2000_set_page(v);
        return 0;
    case 4:
        ne2000_set_pstart(v);
        return 0;
    case 5:
        ne2000_set_pstop(v);
        return 0;
    case 6:
        ne2000_set_bnry(v);
        return 0;
    case 7:
        ne2000_set_tpsr(v);
        return 0;
    case 8:
        ne2000_set_tbcr(v);
        return 0;
    case 9:
        ne2000_set_prx(v);
        return 0;
    case 10:
        ne2000_set_ptx(v);
        return 0;
    case 11:
        ne2000_set_rdc(v);
        return 0;
    case 12:
        ne2000_set_rsar(v);
        return 0;
    case 13:
        ne2000_set_rbcr(v);
        return 0;
    case 14:
        ne2000_set_data_config(v);
        return 0;
    case 15:
        ne2000_set_int_mask(v);
        return 0;
    case 16:
        ne2000_set_remote_data(v);
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
    return -1;
}

static int write_struct(void *dev, unsigned id)
{
    bus = dev;
    return -1;
}

static int superplan(void *dev, unsigned id, const unsigned long long *a, unsigned long n, const unsigned long long *bo, unsigned long bon, unsigned long long *bi, unsigned long bin, unsigned long long *outs, unsigned long no)
{
    bus = dev;
    switch (id) {
    case 0:
        if (n != 3 || no != 0) break;
        ne2000_sp_tx(a[0], a[1], a[2], bo, bon);
        return 0;
    }
    return -1;
}

static void reset(void)
{
    static const struct ne2000_cache_t cold;
    ne2000_cache = cold;
    for (unsigned long i = 0; i < 2; i++)
        ne2000_cache.__dil_base__[i] = i << 40;
}

static void dump(unsigned long long *slots, unsigned char *valid, unsigned long long *mem)
{
    slots[0] = ne2000_cache.cache_cr;
    valid[0] = ne2000_cache.valid_cr;
    slots[1] = ne2000_cache.cache_pstart_reg;
    valid[1] = ne2000_cache.valid_pstart_reg;
    slots[2] = ne2000_cache.cache_pstop_reg;
    valid[2] = ne2000_cache.valid_pstop_reg;
    slots[3] = ne2000_cache.cache_bnry_reg;
    valid[3] = ne2000_cache.valid_bnry_reg;
    slots[4] = ne2000_cache.cache_tpsr_reg;
    valid[4] = ne2000_cache.valid_tpsr_reg;
    slots[5] = ne2000_cache.cache_tbcr0;
    valid[5] = ne2000_cache.valid_tbcr0;
    slots[6] = ne2000_cache.cache_tbcr1;
    valid[6] = ne2000_cache.valid_tbcr1;
    slots[7] = ne2000_cache.cache_isr_reg;
    valid[7] = ne2000_cache.valid_isr_reg;
    slots[8] = ne2000_cache.cache_rsar0;
    valid[8] = ne2000_cache.valid_rsar0;
    slots[9] = ne2000_cache.cache_rsar1;
    valid[9] = ne2000_cache.valid_rsar1;
    slots[10] = ne2000_cache.cache_rbcr0;
    valid[10] = ne2000_cache.valid_rbcr0;
    slots[11] = ne2000_cache.cache_rbcr1;
    valid[11] = ne2000_cache.valid_rbcr1;
    slots[12] = ne2000_cache.cache_dcr;
    valid[12] = ne2000_cache.valid_dcr;
    slots[13] = ne2000_cache.cache_imr_reg;
    valid[13] = ne2000_cache.valid_imr_reg;
    slots[14] = ne2000_cache.cache_dr;
    valid[14] = ne2000_cache.valid_dr;
}

static const char *const vars[] = {"st", "txp", "rd", "page", "pstart", "pstop", "bnry", "tpsr", "tbcr", "prx", "ptx", "rdc", "rsar", "rbcr", "data_config", "int_mask", "remote_data"};

const struct devil_glue ne2000_glue = {
    15, 0, vars,
    read_var, write_var, read_struct, get_field, set_field, write_struct, superplan, reset, dump,
};
