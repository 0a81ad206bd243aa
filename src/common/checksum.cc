#include "src/common/checksum.h"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace common {
namespace {

// CRC32C polynomial (reflected): 0x82F63B78.
constexpr uint32_t kPoly = 0x82F63B78u;

std::array<uint32_t, 256> BuildTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1) ? (crc >> 1) ^ kPoly : crc >> 1;
    }
    table[i] = crc;
  }
  return table;
}

const std::array<uint32_t, 256>& Table() {
  static const std::array<uint32_t, 256> table = BuildTable();
  return table;
}

// Kernels take and return the raw (pre-inverted) register; Crc32c applies the
// seed/result inversions once.
using Kernel = uint32_t (*)(const uint8_t* p, size_t n, uint32_t crc);

uint32_t TableKernel(const uint8_t* p, size_t n, uint32_t crc) {
  const auto& table = Table();
  for (size_t i = 0; i < n; ++i) {
    crc = table[(crc ^ p[i]) & 0xFF] ^ (crc >> 8);
  }
  return crc;
}

#if defined(__x86_64__)
// SSE4.2 CRC32 instruction: same Castagnoli polynomial, eight bytes per step. The
// word loads go through memcpy, so unaligned input is well-defined.
__attribute__((target("sse4.2"))) uint32_t Sse42Kernel(const uint8_t* p, size_t n,
                                                        uint32_t crc) {
  uint64_t crc64 = crc;
  for (; n >= 8; p += 8, n -= 8) {
    uint64_t word;
    std::memcpy(&word, p, sizeof(word));
    crc64 = _mm_crc32_u64(crc64, word);
  }
  crc = static_cast<uint32_t>(crc64);
  for (; n > 0; ++p, --n) {
    crc = _mm_crc32_u8(crc, *p);
  }
  return crc;
}
#endif

Kernel PickKernel() {
#if defined(__x86_64__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sse4.2")) {
    return Sse42Kernel;
  }
#endif
  return TableKernel;
}

}  // namespace

uint32_t Crc32c(const void* data, size_t n, uint32_t seed) {
  static const Kernel kernel = PickKernel();
  return ~kernel(static_cast<const uint8_t*>(data), n, ~seed);
}

uint32_t Crc32cReference(const void* data, size_t n, uint32_t seed) {
  return ~TableKernel(static_cast<const uint8_t*>(data), n, ~seed);
}

}  // namespace common
