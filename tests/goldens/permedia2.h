/* Generated by devilc from device `permedia2`. Do not edit. */
#ifndef PERMEDIA2_DIL_H
#define PERMEDIA2_DIL_H

/* Define DEVIL_NO_SYS_IO to supply your own in/out primitives
 * (the compiled-stub test harness does). */
#ifndef DEVIL_NO_SYS_IO
#include <sys/io.h> /* inb/outb/inw/outw/inl/outl */
#endif

struct permedia2_cache_t {
    unsigned long __dil_base__[1];
    unsigned long long cache_fifo;
    unsigned char valid_fifo;
    unsigned long long cache_rect_pos;
    unsigned char valid_rect_pos;
    unsigned long long cache_rect_size;
    unsigned char valid_rect_size;
    unsigned long long cache_block_color;
    unsigned char valid_block_color;
    unsigned long long cache_render;
    unsigned char valid_render;
    unsigned long long cache_copy_src;
    unsigned char valid_copy_src;
    unsigned long long cache_config;
    unsigned char valid_config;
    unsigned long long cache_scratch0;
    unsigned char valid_scratch0;
    unsigned long long cache_scratch1;
    unsigned char valid_scratch1;
    unsigned long long cache_scratch2;
    unsigned char valid_scratch2;
};
extern struct permedia2_cache_t permedia2_cache;

#define permedia2_RENDER_OP_FILL 0x1u
#define permedia2_RENDER_OP_COPY 0x2u
#define permedia2_DEPTH_BPP8 0x0u
#define permedia2_DEPTH_BPP16 0x1u
#define permedia2_DEPTH_BPP24 0x2u
#define permedia2_DEPTH_BPP32 0x3u

#define permedia2__read_fifo() (inl(permedia2_cache.__dil_base__[0] + 0))
#define permedia2__write_rect_pos(v) (outl((((v) & 0xffffffffull) | 0x0ull), permedia2_cache.__dil_base__[0] + 1))
#define permedia2__write_rect_size(v) (outl((((v) & 0xffffffffull) | 0x0ull), permedia2_cache.__dil_base__[0] + 2))
#define permedia2__write_block_color(v) (outl((((v) & 0xffffffffull) | 0x0ull), permedia2_cache.__dil_base__[0] + 3))
#define permedia2__write_render(v) (outl((((v) & 0x3ull) | 0x0ull), permedia2_cache.__dil_base__[0] + 4))
#define permedia2__write_copy_src(v) (outl((((v) & 0xffffffffull) | 0x0ull), permedia2_cache.__dil_base__[0] + 5))
#define permedia2__write_config(v) (outl((((v) & 0x3ull) | 0x0ull), permedia2_cache.__dil_base__[0] + 6))
#define permedia2__write_scratch0(v) (outl((((v) & 0xffffffffull) | 0x0ull), permedia2_cache.__dil_base__[0] + 7))
#define permedia2__write_scratch1(v) (outl((((v) & 0xffffffffull) | 0x0ull), permedia2_cache.__dil_base__[0] + 8))
#define permedia2__write_scratch2(v) (outl((((v) & 0xffffffffull) | 0x0ull), permedia2_cache.__dil_base__[0] + 9))

#define permedia2_get_fifo_space() ( \
    (void)(permedia2_cache.cache_fifo = permedia2__read_fifo(), permedia2_cache.valid_fifo = 1), \
    (permedia2_cache.cache_fifo & 0xffffffffull) )
#define permedia2_set_dst_x(v) ( \
    (void)(permedia2_cache.cache_rect_pos = (permedia2_cache.cache_rect_pos & 0xffffffffffff0000ull) | ((v) & 0xffffull), permedia2_cache.valid_rect_pos = 1, permedia2__write_rect_pos(permedia2_cache.cache_rect_pos)) )
#define permedia2_set_dst_y(v) ( \
    (void)(permedia2_cache.cache_rect_pos = (permedia2_cache.cache_rect_pos & 0xffffffff0000ffffull) | (((v) << 16) & 0xffff0000ull), permedia2_cache.valid_rect_pos = 1, permedia2__write_rect_pos(permedia2_cache.cache_rect_pos)) )
#define permedia2_set_rect_w(v) ( \
    (void)(permedia2_cache.cache_rect_size = (permedia2_cache.cache_rect_size & 0xffffffffffff0000ull) | ((v) & 0xffffull), permedia2_cache.valid_rect_size = 1, permedia2__write_rect_size(permedia2_cache.cache_rect_size)) )
#define permedia2_set_rect_h(v) ( \
    (void)(permedia2_cache.cache_rect_size = (permedia2_cache.cache_rect_size & 0xffffffff0000ffffull) | (((v) << 16) & 0xffff0000ull), permedia2_cache.valid_rect_size = 1, permedia2__write_rect_size(permedia2_cache.cache_rect_size)) )
#define permedia2_set_fill_color(v) ( \
    (void)(permedia2_cache.cache_block_color = (permedia2_cache.cache_block_color & 0xffffffff00000000ull) | ((v) & 0xffffffffull), permedia2_cache.valid_block_color = 1, permedia2__write_block_color(permedia2_cache.cache_block_color)) )
#define permedia2_set_render_op(v) ( \
    (void)(permedia2_cache.cache_render = (permedia2_cache.cache_render & 0xfffffffffffffffcull) | ((v) & 0x3ull), permedia2_cache.valid_render = 1, permedia2__write_render(permedia2_cache.cache_render)) )
#define permedia2_set_src_x(v) ( \
    (void)(permedia2_cache.cache_copy_src = (permedia2_cache.cache_copy_src & 0xffffffffffff0000ull) | ((v) & 0xffffull), permedia2_cache.valid_copy_src = 1, permedia2__write_copy_src(permedia2_cache.cache_copy_src)) )
#define permedia2_set_src_y(v) ( \
    (void)(permedia2_cache.cache_copy_src = (permedia2_cache.cache_copy_src & 0xffffffff0000ffffull) | (((v) << 16) & 0xffff0000ull), permedia2_cache.valid_copy_src = 1, permedia2__write_copy_src(permedia2_cache.cache_copy_src)) )
#define permedia2_set_depth(v) ( \
    (void)(permedia2_cache.cache_config = (permedia2_cache.cache_config & 0xfffffffffffffffcull) | ((v) & 0x3ull), permedia2_cache.valid_config = 1, permedia2__write_config(permedia2_cache.cache_config)) )
#define permedia2_set_logical_op(v) ( \
    (void)(permedia2_cache.cache_scratch0 = (permedia2_cache.cache_scratch0 & 0xffffffff00000000ull) | ((v) & 0xffffffffull), permedia2_cache.valid_scratch0 = 1, permedia2__write_scratch0(permedia2_cache.cache_scratch0)) )
#define permedia2_set_write_mask(v) ( \
    (void)(permedia2_cache.cache_scratch1 = (permedia2_cache.cache_scratch1 & 0xffffffff00000000ull) | ((v) & 0xffffffffull), permedia2_cache.valid_scratch1 = 1, permedia2__write_scratch1(permedia2_cache.cache_scratch1)) )
#define permedia2_set_span_mode(v) ( \
    (void)(permedia2_cache.cache_scratch2 = (permedia2_cache.cache_scratch2 & 0xffffffff00000000ull) | ((v) & 0xffffffffull), permedia2_cache.valid_scratch2 = 1, permedia2__write_scratch2(permedia2_cache.cache_scratch2)) )
/* fused superplan `fill24_burst`: one guard evaluation, batched I/O. */
static inline void permedia2_sp_fill24_burst(unsigned long long a0, unsigned long long a1, unsigned long long a2, unsigned long long a3, unsigned long long a4)
{
    permedia2_cache.cache_scratch0 = (permedia2_cache.cache_scratch0 & 0xffffffff00000000ull) | 0x3ull, permedia2_cache.valid_scratch0 = 1, permedia2__write_scratch0(permedia2_cache.cache_scratch0);
    permedia2_cache.cache_scratch1 = (permedia2_cache.cache_scratch1 & 0xffffffff00000000ull), permedia2_cache.valid_scratch1 = 1, permedia2__write_scratch1(permedia2_cache.cache_scratch1);
    permedia2_cache.cache_scratch2 = (permedia2_cache.cache_scratch2 & 0xffffffff00000000ull), permedia2_cache.valid_scratch2 = 1, permedia2__write_scratch2(permedia2_cache.cache_scratch2);
    permedia2_cache.cache_scratch0 = (permedia2_cache.cache_scratch0 & 0xffffffff00000000ull), permedia2_cache.valid_scratch0 = 1, permedia2__write_scratch0(permedia2_cache.cache_scratch0);
    permedia2_cache.cache_rect_pos = (permedia2_cache.cache_rect_pos & 0xffffffffffff0000ull) | ((a0) & 0xffffull), permedia2_cache.valid_rect_pos = 1, permedia2__write_rect_pos(permedia2_cache.cache_rect_pos);
    permedia2_cache.cache_rect_pos = (permedia2_cache.cache_rect_pos & 0xffffffff0000ffffull) | (((a1) << 16) & 0xffff0000ull), permedia2_cache.valid_rect_pos = 1, permedia2__write_rect_pos(permedia2_cache.cache_rect_pos);
    permedia2_cache.cache_rect_size = (permedia2_cache.cache_rect_size & 0xffffffffffff0000ull) | ((a2) & 0xffffull), permedia2_cache.valid_rect_size = 1, permedia2__write_rect_size(permedia2_cache.cache_rect_size);
    permedia2_cache.cache_rect_size = (permedia2_cache.cache_rect_size & 0xffffffff0000ffffull) | (((a3) << 16) & 0xffff0000ull), permedia2_cache.valid_rect_size = 1, permedia2__write_rect_size(permedia2_cache.cache_rect_size);
    permedia2_cache.cache_block_color = (permedia2_cache.cache_block_color & 0xffffffff00000000ull) | ((a4) & 0xffffffffull), permedia2_cache.valid_block_color = 1, permedia2__write_block_color(permedia2_cache.cache_block_color);
}
/* fused superplan `fill_std_setup`: one guard evaluation, batched I/O. */
static inline void permedia2_sp_fill_std_setup(unsigned long long a0, unsigned long long a1, unsigned long long a2, unsigned long long a3)
{
    permedia2_cache.cache_scratch0 = (permedia2_cache.cache_scratch0 & 0xffffffff00000000ull) | 0x3ull, permedia2_cache.valid_scratch0 = 1, permedia2__write_scratch0(permedia2_cache.cache_scratch0);
    permedia2_cache.cache_scratch1 = (permedia2_cache.cache_scratch1 & 0xffffffff00000000ull) | 0xffffffffull, permedia2_cache.valid_scratch1 = 1, permedia2__write_scratch1(permedia2_cache.cache_scratch1);
    permedia2_cache.cache_scratch2 = (permedia2_cache.cache_scratch2 & 0xffffffff00000000ull) | 0x3ull, permedia2_cache.valid_scratch2 = 1, permedia2__write_scratch2(permedia2_cache.cache_scratch2);
    permedia2_cache.cache_scratch0 = (permedia2_cache.cache_scratch0 & 0xffffffff00000000ull) | 0xffffffffull, permedia2_cache.valid_scratch0 = 1, permedia2__write_scratch0(permedia2_cache.cache_scratch0);
    permedia2_cache.cache_scratch1 = (permedia2_cache.cache_scratch1 & 0xffffffff00000000ull) | 0x3ull, permedia2_cache.valid_scratch1 = 1, permedia2__write_scratch1(permedia2_cache.cache_scratch1);
    permedia2_cache.cache_scratch2 = (permedia2_cache.cache_scratch2 & 0xffffffff00000000ull) | 0xffffffffull, permedia2_cache.valid_scratch2 = 1, permedia2__write_scratch2(permedia2_cache.cache_scratch2);
    permedia2_cache.cache_rect_pos = (permedia2_cache.cache_rect_pos & 0xffffffffffff0000ull) | ((a0) & 0xffffull), permedia2_cache.valid_rect_pos = 1, permedia2__write_rect_pos(permedia2_cache.cache_rect_pos);
    permedia2_cache.cache_rect_pos = (permedia2_cache.cache_rect_pos & 0xffffffff0000ffffull) | (((a1) << 16) & 0xffff0000ull), permedia2_cache.valid_rect_pos = 1, permedia2__write_rect_pos(permedia2_cache.cache_rect_pos);
    permedia2_cache.cache_rect_size = (permedia2_cache.cache_rect_size & 0xffffffffffff0000ull) | ((a2) & 0xffffull), permedia2_cache.valid_rect_size = 1, permedia2__write_rect_size(permedia2_cache.cache_rect_size);
    permedia2_cache.cache_rect_size = (permedia2_cache.cache_rect_size & 0xffffffff0000ffffull) | (((a3) << 16) & 0xffff0000ull), permedia2_cache.valid_rect_size = 1, permedia2__write_rect_size(permedia2_cache.cache_rect_size);
}
/* fused superplan `fill_std_finish`: one guard evaluation, batched I/O. */
static inline void permedia2_sp_fill_std_finish(unsigned long long a0)
{
    permedia2_cache.cache_block_color = (permedia2_cache.cache_block_color & 0xffffffff00000000ull) | ((a0) & 0xffffffffull), permedia2_cache.valid_block_color = 1, permedia2__write_block_color(permedia2_cache.cache_block_color);
    permedia2_cache.cache_scratch0 = (permedia2_cache.cache_scratch0 & 0xffffffff00000000ull), permedia2_cache.valid_scratch0 = 1, permedia2__write_scratch0(permedia2_cache.cache_scratch0);
    permedia2_cache.cache_scratch1 = (permedia2_cache.cache_scratch1 & 0xffffffff00000000ull), permedia2_cache.valid_scratch1 = 1, permedia2__write_scratch1(permedia2_cache.cache_scratch1);
    permedia2_cache.cache_scratch2 = (permedia2_cache.cache_scratch2 & 0xffffffff00000000ull), permedia2_cache.valid_scratch2 = 1, permedia2__write_scratch2(permedia2_cache.cache_scratch2);
    permedia2_cache.cache_scratch1 = (permedia2_cache.cache_scratch1 & 0xffffffff00000000ull) | 0x1ull, permedia2_cache.valid_scratch1 = 1, permedia2__write_scratch1(permedia2_cache.cache_scratch1);
    permedia2_cache.cache_scratch2 = (permedia2_cache.cache_scratch2 & 0xffffffff00000000ull) | 0x1ull, permedia2_cache.valid_scratch2 = 1, permedia2__write_scratch2(permedia2_cache.cache_scratch2);
}

#endif /* PERMEDIA2_DIL_H */
