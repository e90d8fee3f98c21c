/* Surface glue for the emitted `dma8237` header. Generated by devil-fuzz; do not edit. */
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

#include "../dma8237.h"

struct dma8237_cache_t dma8237_cache;

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
    case 1:
        *v = dma8237_get_addr0();
        return 0;
    case 2:
        *v = dma8237_get_count0();
        return 0;
    case 3:
        *v = dma8237_get_addr1();
        return 0;
    case 4:
        *v = dma8237_get_count1();
        return 0;
    case 5:
        *v = dma8237_get_addr2();
        return 0;
    case 6:
        *v = dma8237_get_count2();
        return 0;
    case 7:
        *v = dma8237_get_addr3();
        return 0;
    case 8:
        *v = dma8237_get_count3();
        return 0;
    case 10:
        *v = dma8237_get_tc_status();
        return 0;
    }
    return -1;
}

static int write_var(void *dev, unsigned id, const unsigned long long *a, unsigned long n, unsigned long long v)
{
    bus = dev;
    switch (id) {
    case 0:
        dma8237_set_flip_flop(v);
        return 0;
    case 1:
        dma8237_set_addr0(v);
        return 0;
    case 2:
        dma8237_set_count0(v);
        return 0;
    case 3:
        dma8237_set_addr1(v);
        return 0;
    case 4:
        dma8237_set_count1(v);
        return 0;
    case 5:
        dma8237_set_addr2(v);
        return 0;
    case 6:
        dma8237_set_count2(v);
        return 0;
    case 7:
        dma8237_set_addr3(v);
        return 0;
    case 8:
        dma8237_set_count3(v);
        return 0;
    case 9:
        dma8237_set_command(v);
        return 0;
    case 11:
        dma8237_set_request(v);
        return 0;
    case 12:
        dma8237_set_single_mask(v);
        return 0;
    case 13:
        dma8237_set_mode(v);
        return 0;
    case 14:
        dma8237_set_master_clear(v);
        return 0;
    case 15:
        dma8237_set_all_mask(v);
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
    return -1;
}

static void reset(void)
{
    static const struct dma8237_cache_t cold;
    dma8237_cache = cold;
    for (unsigned long i = 0; i < 1; i++)
        dma8237_cache.__dil_base__[i] = i << 40;
}

static void dump(unsigned long long *slots, unsigned char *valid, unsigned long long *mem)
{
    slots[0] = dma8237_cache.cache_ff_reg;
    valid[0] = dma8237_cache.valid_ff_reg;
    slots[1] = dma8237_cache.cache_addr0_low;
    valid[1] = dma8237_cache.valid_addr0_low;
    slots[2] = dma8237_cache.cache_addr0_high;
    valid[2] = dma8237_cache.valid_addr0_high;
    slots[3] = dma8237_cache.cache_count0_low;
    valid[3] = dma8237_cache.valid_count0_low;
    slots[4] = dma8237_cache.cache_count0_high;
    valid[4] = dma8237_cache.valid_count0_high;
    slots[5] = dma8237_cache.cache_addr1_low;
    valid[5] = dma8237_cache.valid_addr1_low;
    slots[6] = dma8237_cache.cache_addr1_high;
    valid[6] = dma8237_cache.valid_addr1_high;
    slots[7] = dma8237_cache.cache_count1_low;
    valid[7] = dma8237_cache.valid_count1_low;
    slots[8] = dma8237_cache.cache_count1_high;
    valid[8] = dma8237_cache.valid_count1_high;
    slots[9] = dma8237_cache.cache_addr2_low;
    valid[9] = dma8237_cache.valid_addr2_low;
    slots[10] = dma8237_cache.cache_addr2_high;
    valid[10] = dma8237_cache.valid_addr2_high;
    slots[11] = dma8237_cache.cache_count2_low;
    valid[11] = dma8237_cache.valid_count2_low;
    slots[12] = dma8237_cache.cache_count2_high;
    valid[12] = dma8237_cache.valid_count2_high;
    slots[13] = dma8237_cache.cache_addr3_low;
    valid[13] = dma8237_cache.valid_addr3_low;
    slots[14] = dma8237_cache.cache_addr3_high;
    valid[14] = dma8237_cache.valid_addr3_high;
    slots[15] = dma8237_cache.cache_count3_low;
    valid[15] = dma8237_cache.valid_count3_low;
    slots[16] = dma8237_cache.cache_count3_high;
    valid[16] = dma8237_cache.valid_count3_high;
    slots[17] = dma8237_cache.cache_command_reg;
    valid[17] = dma8237_cache.valid_command_reg;
    slots[18] = dma8237_cache.cache_status_reg;
    valid[18] = dma8237_cache.valid_status_reg;
    slots[19] = dma8237_cache.cache_request_reg;
    valid[19] = dma8237_cache.valid_request_reg;
    slots[20] = dma8237_cache.cache_single_mask_reg;
    valid[20] = dma8237_cache.valid_single_mask_reg;
    slots[21] = dma8237_cache.cache_mode_reg;
    valid[21] = dma8237_cache.valid_mode_reg;
    slots[22] = dma8237_cache.cache_master_clear_reg;
    valid[22] = dma8237_cache.valid_master_clear_reg;
    slots[23] = dma8237_cache.cache_all_mask_reg;
    valid[23] = dma8237_cache.valid_all_mask_reg;
}

static const char *const vars[] = {"flip_flop", "addr0", "count0", "addr1", "count1", "addr2", "count2", "addr3", "count3", "command", "tc_status", "request", "single_mask", "mode", "master_clear", "all_mask"};

const struct devil_glue dma8237_glue = {
    24, 0, vars,
    read_var, write_var, read_struct, get_field, set_field, write_struct, superplan, reset, dump,
};
