#include "common/simd.hh"

namespace cicero {
namespace simd {

const char *
backendName(Backend b)
{
    switch (b) {
    case Backend::Avx2:
        return "avx2";
    case Backend::Neon:
        return "neon";
    case Backend::Scalar:
        return "scalar";
    }
    return "scalar";
}

void
convertF16ToF32(const std::uint16_t *src, float *dst, std::size_t n)
{
    std::size_t i = 0;
    for (; i + VecF::kLanes <= n; i += VecF::kLanes)
        loadF16(src + i).store(dst + i);
    for (; i < n; ++i)
        dst[i] = f16ToF32(src[i]);
}

void
convertF32ToF16(const float *src, std::uint16_t *dst, std::size_t n)
{
    std::size_t i = 0;
    for (; i + VecF::kLanes <= n; i += VecF::kLanes)
        storeF16(dst + i, VecF::load(src + i));
    for (; i < n; ++i)
        dst[i] = f32ToF16(src[i]);
}

void
roundBufferThroughFp16(float *p, std::size_t n)
{
    // Scalar on purpose: runs once at quantization time, and the scalar
    // conversions are the reference the vector paths are tested against.
    for (std::size_t i = 0; i < n; ++i)
        p[i] = f16ToF32(f32ToF16(p[i]));
}

void
transposeToChannelMajor(const float *aos, int n, int dim, float *soa)
{
    for (int i = 0; i < n; ++i)
        for (int c = 0; c < dim; ++c)
            soa[static_cast<std::size_t>(c) * n + i] =
                aos[static_cast<std::size_t>(i) * dim + c];
}

void
transposeToSampleMajor(const float *soa, int n, int dim, float *aos)
{
    for (int i = 0; i < n; ++i)
        for (int c = 0; c < dim; ++c)
            aos[static_cast<std::size_t>(i) * dim + c] =
                soa[static_cast<std::size_t>(c) * n + i];
}

} // namespace simd
} // namespace cicero
