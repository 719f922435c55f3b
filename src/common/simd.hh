/**
 * @file
 * Portable SIMD kernel layer: one fixed-width vector API with a
 * compile-time-selected backend (AVX2 on x86 with F16C, NEON on
 * aarch64, scalar emulation everywhere else) plus exact fp16<->fp32
 * conversions matching the hardware converters bit-for-bit.
 *
 * Design rules the kernels above this layer rely on:
 *  - Lane width is fixed per build (`VecF::kLanes`); the emulated
 *    scalar backend uses the same width so kernel block structure is
 *    identical across backends.
 *  - `madd(a, b, acc)` is an UNFUSED multiply-then-add (two IEEE
 *    roundings, never an FMA), so a vector lane computes exactly what
 *    the scalar expression `acc + a * b` computes. Together with
 *    `-ffp-contract=off` at build time this is what makes the fp32
 *    SIMD kernels bit-identical to their plain scalar references.
 *  - fp16 conversion is round-to-nearest-even, with subnormal, ±inf
 *    and NaN (quieting, payload-truncating) behaviour identical to
 *    F16C/NEON hardware; the scalar bit-twiddling versions are the
 *    reference the vector paths are tested against.
 *
 * There is one kernel path per build and no runtime switch: every
 * kernel above this layer runs its vector form on every backend, the
 * emulated one included, so a -DCICERO_FORCE_SCALAR=ON build executes
 * the same block structure lane by lane. The plain scalar loops the
 * kernels are written against (the fp16 conversions below, each
 * encoding's gatherFeature, Mlp::forward) stay as the test oracles.
 */

#ifndef CICERO_COMMON_SIMD_HH
#define CICERO_COMMON_SIMD_HH

#include <cstdint>
#include <cstring>

#if !defined(CICERO_FORCE_SCALAR) && defined(__AVX2__) && defined(__F16C__)
#define CICERO_SIMD_AVX2 1
#include <immintrin.h>
#elif !defined(CICERO_FORCE_SCALAR) && defined(__ARM_NEON)
#define CICERO_SIMD_NEON 1
#include <arm_neon.h>
#else
#define CICERO_SIMD_SCALAR 1
#endif

namespace cicero {
namespace simd {

/** The backend compiled into this binary. */
enum class Backend
{
    Scalar,
    Avx2,
    Neon,
};

constexpr Backend kCompiledBackend =
#if defined(CICERO_SIMD_AVX2)
    Backend::Avx2;
#elif defined(CICERO_SIMD_NEON)
    Backend::Neon;
#else
    Backend::Scalar;
#endif

/** "avx2" | "neon" | "scalar". */
const char *backendName(Backend b);

/** The backend the kernels run on: always the compiled one. */
constexpr Backend
activeBackend()
{
    return kCompiledBackend;
}

// ---------------------------------------------------------------------
// fp16 <-> fp32 scalar conversions (exact, hardware-equivalent)
// ---------------------------------------------------------------------

/**
 * float -> IEEE binary16 bits, round-to-nearest-even. Overflow goes to
 * ±inf, subnormal halves are produced exactly, NaNs are quieted with
 * the top 9 payload bits preserved — the F16C/NEON behaviour.
 */
inline std::uint16_t
f32ToF16(float f)
{
    std::uint32_t x;
    std::memcpy(&x, &f, 4);
    const std::uint16_t sign = static_cast<std::uint16_t>((x >> 16) & 0x8000u);
    const std::uint32_t exp = (x >> 23) & 0xffu;
    std::uint32_t man = x & 0x7fffffu;

    if (exp == 0xffu) { // inf / NaN
        const std::uint16_t payload =
            man ? static_cast<std::uint16_t>(0x200u | (man >> 13)) : 0u;
        return static_cast<std::uint16_t>(sign | 0x7c00u | payload);
    }

    const std::int32_t e = static_cast<std::int32_t>(exp) - 127 + 15;
    if (e >= 31) // overflow -> inf
        return static_cast<std::uint16_t>(sign | 0x7c00u);

    if (e <= 0) { // half subnormal (or zero)
        if (e < -10) // below half of the smallest subnormal
            return sign;
        man |= 0x800000u; // make the implicit bit explicit
        const int shift = 14 - e; // in [14, 24]
        std::uint32_t h = man >> shift;
        const std::uint32_t rem = man & ((1u << shift) - 1u);
        const std::uint32_t halfway = 1u << (shift - 1);
        if (rem > halfway || (rem == halfway && (h & 1u)))
            ++h; // RNE; a carry out of the subnormal range lands on the
                 // smallest normal's bit pattern, which is correct
        return static_cast<std::uint16_t>(sign | h);
    }

    std::uint32_t h = static_cast<std::uint32_t>(e << 10) | (man >> 13);
    const std::uint32_t rem = man & 0x1fffu;
    if (rem > 0x1000u || (rem == 0x1000u && (h & 1u)))
        ++h; // RNE; mantissa carry correctly bumps the exponent and
             // rounds 65520..65536 up to the inf bit pattern
    return static_cast<std::uint16_t>(sign | h);
}

/** IEEE binary16 bits -> float. Exact for every half value. */
inline float
f16ToF32(std::uint16_t h)
{
    const std::uint32_t sign = static_cast<std::uint32_t>(h & 0x8000u) << 16;
    const std::uint32_t exp = (h >> 10) & 0x1fu;
    std::uint32_t man = h & 0x3ffu;
    std::uint32_t x;
    if (exp == 0) {
        if (man == 0) {
            x = sign; // ±0
        } else {
            // Normalize the subnormal: shift until the implicit bit.
            int sh = 0;
            while (!(man & 0x400u)) {
                man <<= 1;
                ++sh;
            }
            man &= 0x3ffu;
            x = sign | (static_cast<std::uint32_t>(113 - sh) << 23) |
                (man << 13);
        }
    } else if (exp == 31) {
        // ±inf / NaN. NaNs keep their payload but are quieted — the
        // hardware converters (F16C/NEON) quiet signaling NaNs too.
        x = sign | 0x7f800000u | (man ? 0x400000u : 0u) | (man << 13);
    } else {
        x = sign | ((exp + 112u) << 23) | (man << 13);
    }
    float f;
    std::memcpy(&f, &x, 4);
    return f;
}

// ---------------------------------------------------------------------
// Fixed-width vector types
// ---------------------------------------------------------------------

#if defined(CICERO_SIMD_AVX2)

struct VecI; // fwd

/** 8 packed floats (AVX2 ymm). */
struct VecF
{
    static constexpr int kLanes = 8;
    __m256 v;

    static VecF zero() { return {_mm256_setzero_ps()}; }
    static VecF broadcast(float x) { return {_mm256_set1_ps(x)}; }
    static VecF load(const float *p) { return {_mm256_loadu_ps(p)}; }
    void store(float *p) const { _mm256_storeu_ps(p, v); }
};

inline VecF
operator+(VecF a, VecF b)
{
    return {_mm256_add_ps(a.v, b.v)};
}
inline VecF
operator-(VecF a, VecF b)
{
    return {_mm256_sub_ps(a.v, b.v)};
}
inline VecF
operator*(VecF a, VecF b)
{
    return {_mm256_mul_ps(a.v, b.v)};
}
inline VecF
vmin(VecF a, VecF b)
{
    return {_mm256_min_ps(a.v, b.v)};
}
inline VecF
vmax(VecF a, VecF b)
{
    return {_mm256_max_ps(a.v, b.v)};
}
/** Unfused acc + a*b (two roundings — matches the scalar expression). */
inline VecF
madd(VecF a, VecF b, VecF acc)
{
    return {_mm256_add_ps(acc.v, _mm256_mul_ps(a.v, b.v))};
}

/** 8 packed 32-bit signed ints. */
struct VecI
{
    static constexpr int kLanes = 8;
    __m256i v;

    static VecI broadcast(std::int32_t x)
    {
        return {_mm256_set1_epi32(x)};
    }
    static VecI load(const std::int32_t *p)
    {
        return {_mm256_loadu_si256(reinterpret_cast<const __m256i *>(p))};
    }
    void store(std::int32_t *p) const
    {
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(p), v);
    }
};

inline VecI
operator+(VecI a, VecI b)
{
    return {_mm256_add_epi32(a.v, b.v)};
}
inline VecI
operator*(VecI a, VecI b) // low 32 bits, as scalar int32 multiply
{
    return {_mm256_mullo_epi32(a.v, b.v)};
}
inline VecI
operator^(VecI a, VecI b)
{
    return {_mm256_xor_si256(a.v, b.v)};
}
inline VecI
operator&(VecI a, VecI b)
{
    return {_mm256_and_si256(a.v, b.v)};
}
inline VecI
vmin(VecI a, VecI b)
{
    return {_mm256_min_epi32(a.v, b.v)};
}
/** Truncate-toward-zero float->int, like `static_cast<int>(f)`. */
inline VecI
truncToInt(VecF a)
{
    return {_mm256_cvttps_epi32(a.v)};
}
/** Exact int->float conversion. */
inline VecF
toFloat(VecI a)
{
    return {_mm256_cvtepi32_ps(a.v)};
}
/** out[lane] = base[idx[lane]] (32-bit indices, float elements). */
inline VecF
gather(const float *base, VecI idx)
{
    return {_mm256_i32gather_ps(base, idx.v, 4)};
}
/** Convert 8 contiguous halves to 8 floats (F16C, exact). */
inline VecF
loadF16(const std::uint16_t *p)
{
    return {_mm256_cvtph_ps(
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(p)))};
}
/** Convert 8 floats to 8 contiguous halves, RNE (F16C). */
inline void
storeF16(std::uint16_t *p, VecF a)
{
    _mm_storeu_si128(
        reinterpret_cast<__m128i *>(p),
        _mm256_cvtps_ph(a.v, _MM_FROUND_TO_NEAREST_INT |
                                 _MM_FROUND_NO_EXC));
}

#elif defined(CICERO_SIMD_NEON)

struct VecI; // fwd

/** 4 packed floats (NEON q register). */
struct VecF
{
    static constexpr int kLanes = 4;
    float32x4_t v;

    static VecF zero() { return {vdupq_n_f32(0.0f)}; }
    static VecF broadcast(float x) { return {vdupq_n_f32(x)}; }
    static VecF load(const float *p) { return {vld1q_f32(p)}; }
    void store(float *p) const { vst1q_f32(p, v); }
};

inline VecF
operator+(VecF a, VecF b)
{
    return {vaddq_f32(a.v, b.v)};
}
inline VecF
operator-(VecF a, VecF b)
{
    return {vsubq_f32(a.v, b.v)};
}
inline VecF
operator*(VecF a, VecF b)
{
    return {vmulq_f32(a.v, b.v)};
}
inline VecF
vmin(VecF a, VecF b)
{
    return {vminq_f32(a.v, b.v)};
}
inline VecF
vmax(VecF a, VecF b)
{
    return {vmaxq_f32(a.v, b.v)};
}
/** Unfused acc + a*b: explicit mul then add (NOT vmlaq/vfmaq). */
inline VecF
madd(VecF a, VecF b, VecF acc)
{
    return {vaddq_f32(acc.v, vmulq_f32(a.v, b.v))};
}

/** 4 packed 32-bit signed ints. */
struct VecI
{
    static constexpr int kLanes = 4;
    int32x4_t v;

    static VecI broadcast(std::int32_t x) { return {vdupq_n_s32(x)}; }
    static VecI load(const std::int32_t *p) { return {vld1q_s32(p)}; }
    void store(std::int32_t *p) const { vst1q_s32(p, v); }
};

inline VecI
operator+(VecI a, VecI b)
{
    return {vaddq_s32(a.v, b.v)};
}
inline VecI
operator*(VecI a, VecI b)
{
    return {vmulq_s32(a.v, b.v)};
}
inline VecI
operator^(VecI a, VecI b)
{
    return {veorq_s32(a.v, b.v)};
}
inline VecI
operator&(VecI a, VecI b)
{
    return {vandq_s32(a.v, b.v)};
}
inline VecI
vmin(VecI a, VecI b)
{
    return {vminq_s32(a.v, b.v)};
}
inline VecI
truncToInt(VecF a)
{
    return {vcvtq_s32_f32(a.v)}; // truncates toward zero
}
inline VecF
toFloat(VecI a)
{
    return {vcvtq_f32_s32(a.v)};
}
inline VecF
gather(const float *base, VecI idx)
{
    float lanes[4];
    std::int32_t i[4];
    vst1q_s32(i, idx.v);
    for (int l = 0; l < 4; ++l)
        lanes[l] = base[i[l]];
    return {vld1q_f32(lanes)};
}
inline VecF
loadF16(const std::uint16_t *p)
{
    return {vcvt_f32_f16(vreinterpret_f16_u16(vld1_u16(p)))};
}
inline void
storeF16(std::uint16_t *p, VecF a)
{
    vst1_u16(p, vreinterpret_u16_f16(vcvt_f16_f32(a.v)));
}

#else // scalar emulation

/**
 * Scalar-emulated vector: same 8-lane shape as the AVX2 backend so the
 * kernels' block structure does not change, but every op is a plain
 * scalar loop the compiler may (or may not) auto-vectorize. Lane l of
 * every operation computes exactly the scalar expression, so kernel
 * results are backend-independent.
 */
struct VecI;

struct VecF
{
    static constexpr int kLanes = 8;
    float v[kLanes];

    static VecF zero()
    {
        VecF r;
        for (float &x : r.v)
            x = 0.0f;
        return r;
    }
    static VecF broadcast(float x)
    {
        VecF r;
        for (float &y : r.v)
            y = x;
        return r;
    }
    static VecF load(const float *p)
    {
        VecF r;
        for (int l = 0; l < kLanes; ++l)
            r.v[l] = p[l];
        return r;
    }
    void store(float *p) const
    {
        for (int l = 0; l < kLanes; ++l)
            p[l] = v[l];
    }
};

#define CICERO_SIMD_LANEWISE_F(name, expr)                                \
    inline VecF name(VecF a, VecF b)                                      \
    {                                                                     \
        VecF r;                                                           \
        for (int l = 0; l < VecF::kLanes; ++l)                            \
            r.v[l] = (expr);                                              \
        return r;                                                         \
    }
CICERO_SIMD_LANEWISE_F(operator+, a.v[l] + b.v[l])
CICERO_SIMD_LANEWISE_F(operator-, a.v[l] - b.v[l])
CICERO_SIMD_LANEWISE_F(operator*, a.v[l] * b.v[l])
CICERO_SIMD_LANEWISE_F(vmin, a.v[l] < b.v[l] ? a.v[l] : b.v[l])
CICERO_SIMD_LANEWISE_F(vmax, a.v[l] > b.v[l] ? a.v[l] : b.v[l])
#undef CICERO_SIMD_LANEWISE_F

inline VecF
madd(VecF a, VecF b, VecF acc)
{
    VecF r;
    for (int l = 0; l < VecF::kLanes; ++l)
        r.v[l] = acc.v[l] + a.v[l] * b.v[l];
    return r;
}

struct VecI
{
    static constexpr int kLanes = 8;
    std::int32_t v[kLanes];

    static VecI broadcast(std::int32_t x)
    {
        VecI r;
        for (std::int32_t &y : r.v)
            y = x;
        return r;
    }
    static VecI load(const std::int32_t *p)
    {
        VecI r;
        for (int l = 0; l < kLanes; ++l)
            r.v[l] = p[l];
        return r;
    }
    void store(std::int32_t *p) const
    {
        for (int l = 0; l < kLanes; ++l)
            p[l] = v[l];
    }
};

#define CICERO_SIMD_LANEWISE_I(name, expr)                                \
    inline VecI name(VecI a, VecI b)                                      \
    {                                                                     \
        VecI r;                                                           \
        for (int l = 0; l < VecI::kLanes; ++l)                            \
            r.v[l] = (expr);                                              \
        return r;                                                         \
    }
CICERO_SIMD_LANEWISE_I(operator+, a.v[l] + b.v[l])
CICERO_SIMD_LANEWISE_I(
    operator*,
    static_cast<std::int32_t>(static_cast<std::uint32_t>(a.v[l]) *
                              static_cast<std::uint32_t>(b.v[l])))
CICERO_SIMD_LANEWISE_I(operator^, a.v[l] ^ b.v[l])
CICERO_SIMD_LANEWISE_I(operator&, a.v[l] & b.v[l])
CICERO_SIMD_LANEWISE_I(vmin, a.v[l] < b.v[l] ? a.v[l] : b.v[l])
#undef CICERO_SIMD_LANEWISE_I

inline VecI
truncToInt(VecF a)
{
    VecI r;
    for (int l = 0; l < VecF::kLanes; ++l)
        r.v[l] = static_cast<std::int32_t>(a.v[l]);
    return r;
}
inline VecF
toFloat(VecI a)
{
    VecF r;
    for (int l = 0; l < VecI::kLanes; ++l)
        r.v[l] = static_cast<float>(a.v[l]);
    return r;
}
inline VecF
gather(const float *base, VecI idx)
{
    VecF r;
    for (int l = 0; l < VecI::kLanes; ++l)
        r.v[l] = base[idx.v[l]];
    return r;
}
inline VecF
loadF16(const std::uint16_t *p)
{
    VecF r;
    for (int l = 0; l < VecF::kLanes; ++l)
        r.v[l] = f16ToF32(p[l]);
    return r;
}
inline void
storeF16(std::uint16_t *p, VecF a)
{
    for (int l = 0; l < VecF::kLanes; ++l)
        p[l] = f32ToF16(a.v[l]);
}

#endif // backend

// ---------------------------------------------------------------------
// fp16 buffer helpers
// ---------------------------------------------------------------------

/** Convert @p n halves at @p src to floats at @p dst (vectorized). */
void convertF16ToF32(const std::uint16_t *src, float *dst, std::size_t n);

/** Convert @p n floats at @p src to halves at @p dst, RNE. */
void convertF32ToF16(const float *src, std::uint16_t *dst, std::size_t n);

/**
 * Round every float in [p, p+n) to its nearest fp16 value and back —
 * after this, the buffer holds exactly what 2-byte feature storage
 * would hold. Values already fp16-representable are unchanged.
 */
void roundBufferThroughFp16(float *p, std::size_t n);

// ---------------------------------------------------------------------
// AoS <-> SoA feature-buffer transposition
// ---------------------------------------------------------------------

/**
 * Sample-major (n x dim, sample i's vector contiguous) to channel-major
 * (dim x n, channel c's lane sweep contiguous). Handles any n,
 * including non-multiples of the vector width.
 */
void transposeToChannelMajor(const float *aos, int n, int dim, float *soa);

/** Inverse of transposeToChannelMajor. */
void transposeToSampleMajor(const float *soa, int n, int dim, float *aos);

} // namespace simd
} // namespace cicero

#endif // CICERO_COMMON_SIMD_HH
