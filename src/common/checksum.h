// CRC32C (Castagnoli) used for the SplitFS operation-log transactional checksum (§3.3)
// and for SSTable block integrity in the example applications.
#ifndef SRC_COMMON_CHECKSUM_H_
#define SRC_COMMON_CHECKSUM_H_

#include <cstddef>
#include <cstdint>

namespace common {

// Computes CRC32C over `data[0, n)`, seeded with `seed` (pass 0 for a fresh CRC).
// Runs the SSE4.2 crc32 instruction when the CPU has it, else the byte-table loop.
uint32_t Crc32c(const void* data, size_t n, uint32_t seed = 0);

// The byte-at-a-time table loop on every CPU: the portable fallback of Crc32c and
// the reference its tests and host microbench compare against. Same results.
uint32_t Crc32cReference(const void* data, size_t n, uint32_t seed = 0);

}  // namespace common

#endif  // SRC_COMMON_CHECKSUM_H_
