/* Surface glue for the emitted `ide` header. Generated by devil-fuzz; do not edit. */
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

#include "../ide.h"

struct ide_cache_t ide_cache;

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
        *v = ide_get_Ide_data();
        return 0;
    case 1:
        *v = ide_get_Ide_data32();
        return 0;
    case 9:
        *v = ide_get_bsy();
        return 0;
    case 10:
        *v = ide_get_drdy();
        return 0;
    case 11:
        *v = ide_get_drq();
        return 0;
    case 12:
        *v = ide_get_err();
        return 0;
    }
    return -1;
}

static int write_var(void *dev, unsigned id, const unsigned long long *a, unsigned long n, unsigned long long v)
{
    bus = dev;
    switch (id) {
    case 0:
        ide_set_Ide_data(v);
        return 0;
    case 1:
        ide_set_Ide_data32(v);
        return 0;
    case 2:
        ide_set_features(v);
        return 0;
    case 3:
        ide_set_sector_count(v);
        return 0;
    case 4:
        ide_set_lba_low(v);
        return 0;
    case 5:
        ide_set_lba_mid(v);
        return 0;
    case 6:
        ide_set_lba_high(v);
        return 0;
    case 7:
        ide_set_drive(v);
        return 0;
    case 8:
        ide_set_lba_top(v);
        return 0;
    case 13:
        ide_set_command(v);
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
        if (n != 0 || no != 3) break;
        ide_sp_pio_irq16(outs, bi, bin);
        return 0;
    case 1:
        if (n != 0 || no != 3) break;
        ide_sp_pio_irq32(outs, bi, bin);
        return 0;
    }
    return -1;
}

static void reset(void)
{
    static const struct ide_cache_t cold;
    ide_cache = cold;
    for (unsigned long i = 0; i < 3; i++)
        ide_cache.__dil_base__[i] = i << 40;
}

static void dump(unsigned long long *slots, unsigned char *valid, unsigned long long *mem)
{
    slots[0] = ide_cache.cache_dr;
    valid[0] = ide_cache.valid_dr;
    slots[1] = ide_cache.cache_dr32;
    valid[1] = ide_cache.valid_dr32;
    slots[2] = ide_cache.cache_features_reg;
    valid[2] = ide_cache.valid_features_reg;
    slots[3] = ide_cache.cache_sc_reg;
    valid[3] = ide_cache.valid_sc_reg;
    slots[4] = ide_cache.cache_lba_low_reg;
    valid[4] = ide_cache.valid_lba_low_reg;
    slots[5] = ide_cache.cache_lba_mid_reg;
    valid[5] = ide_cache.valid_lba_mid_reg;
    slots[6] = ide_cache.cache_lba_high_reg;
    valid[6] = ide_cache.valid_lba_high_reg;
    slots[7] = ide_cache.cache_device_reg;
    valid[7] = ide_cache.valid_device_reg;
    slots[8] = ide_cache.cache_status_reg;
    valid[8] = ide_cache.valid_status_reg;
    slots[9] = ide_cache.cache_command_reg;
    valid[9] = ide_cache.valid_command_reg;
}

static const char *const vars[] = {"Ide_data", "Ide_data32", "features", "sector_count", "lba_low", "lba_mid", "lba_high", "drive", "lba_top", "bsy", "drdy", "drq", "err", "command"};

const struct devil_glue ide_glue = {
    10, 0, vars,
    read_var, write_var, read_struct, get_field, set_field, write_struct, superplan, reset, dump,
};
