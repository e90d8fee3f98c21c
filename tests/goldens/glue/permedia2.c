/* Surface glue for the emitted `permedia2` header. Generated by devil-fuzz; do not edit. */
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

#include "../permedia2.h"

struct permedia2_cache_t permedia2_cache;

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
        *v = permedia2_get_fifo_space();
        return 0;
    }
    return -1;
}

static int write_var(void *dev, unsigned id, const unsigned long long *a, unsigned long n, unsigned long long v)
{
    bus = dev;
    switch (id) {
    case 1:
        permedia2_set_dst_x(v);
        return 0;
    case 2:
        permedia2_set_dst_y(v);
        return 0;
    case 3:
        permedia2_set_rect_w(v);
        return 0;
    case 4:
        permedia2_set_rect_h(v);
        return 0;
    case 5:
        permedia2_set_fill_color(v);
        return 0;
    case 6:
        permedia2_set_render_op(v);
        return 0;
    case 7:
        permedia2_set_src_x(v);
        return 0;
    case 8:
        permedia2_set_src_y(v);
        return 0;
    case 9:
        permedia2_set_depth(v);
        return 0;
    case 10:
        permedia2_set_logical_op(v);
        return 0;
    case 11:
        permedia2_set_write_mask(v);
        return 0;
    case 12:
        permedia2_set_span_mode(v);
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
        if (n != 5 || no != 0) break;
        permedia2_sp_fill24_burst(a[0], a[1], a[2], a[3], a[4]);
        return 0;
    case 1:
        if (n != 4 || no != 0) break;
        permedia2_sp_fill_std_setup(a[0], a[1], a[2], a[3]);
        return 0;
    case 2:
        if (n != 1 || no != 0) break;
        permedia2_sp_fill_std_finish(a[0]);
        return 0;
    }
    return -1;
}

static void reset(void)
{
    static const struct permedia2_cache_t cold;
    permedia2_cache = cold;
    for (unsigned long i = 0; i < 1; i++)
        permedia2_cache.__dil_base__[i] = i << 40;
}

static void dump(unsigned long long *slots, unsigned char *valid, unsigned long long *mem)
{
    slots[0] = permedia2_cache.cache_fifo;
    valid[0] = permedia2_cache.valid_fifo;
    slots[1] = permedia2_cache.cache_rect_pos;
    valid[1] = permedia2_cache.valid_rect_pos;
    slots[2] = permedia2_cache.cache_rect_size;
    valid[2] = permedia2_cache.valid_rect_size;
    slots[3] = permedia2_cache.cache_block_color;
    valid[3] = permedia2_cache.valid_block_color;
    slots[4] = permedia2_cache.cache_render;
    valid[4] = permedia2_cache.valid_render;
    slots[5] = permedia2_cache.cache_copy_src;
    valid[5] = permedia2_cache.valid_copy_src;
    slots[6] = permedia2_cache.cache_config;
    valid[6] = permedia2_cache.valid_config;
    slots[7] = permedia2_cache.cache_scratch0;
    valid[7] = permedia2_cache.valid_scratch0;
    slots[8] = permedia2_cache.cache_scratch1;
    valid[8] = permedia2_cache.valid_scratch1;
    slots[9] = permedia2_cache.cache_scratch2;
    valid[9] = permedia2_cache.valid_scratch2;
}

static const char *const vars[] = {"fifo_space", "dst_x", "dst_y", "rect_w", "rect_h", "fill_color", "render_op", "src_x", "src_y", "depth", "logical_op", "write_mask", "span_mode"};

const struct devil_glue permedia2_glue = {
    10, 0, vars,
    read_var, write_var, read_struct, get_field, set_field, write_struct, superplan, reset, dump,
};
