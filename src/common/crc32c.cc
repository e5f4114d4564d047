#include "src/common/crc32c.h"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace gadget {
namespace {

// Byte-at-a-time table for the reversed Castagnoli polynomial.
constexpr std::array<uint32_t, 256> MakeCrc32cTable() {
  constexpr uint32_t kPoly = 0x82f63b78u;
  std::array<uint32_t, 256> t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int j = 0; j < 8; ++j) {
      crc = (crc >> 1) ^ ((crc & 1) ? kPoly : 0);
    }
    t[i] = crc;
  }
  return t;
}

constexpr std::array<uint32_t, 256> kTable = MakeCrc32cTable();

}  // namespace

namespace internal {

uint32_t Crc32cPortable(uint32_t crc, const void* data, size_t len) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  crc = ~crc;
  for (size_t i = 0; i < len; ++i) {
    crc = (crc >> 8) ^ kTable[(crc ^ p[i]) & 0xff];
  }
  return ~crc;
}

#if defined(__x86_64__)

bool HasHardwareCrc32c() {
  // __builtin_cpu_init makes the check safe from another file's static
  // initializer, which may run before libgcc has probed the CPU.
  __builtin_cpu_init();
  return __builtin_cpu_supports("sse4.2");
}

// SSE4.2 `crc32`: eight bytes per instruction, then the tail a byte at a time.
__attribute__((target("sse4.2"))) uint32_t Crc32cHardware(uint32_t crc, const void* data,
                                                          size_t len) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint64_t crc64 = ~crc;
  for (; len >= 8; p += 8, len -= 8) {
    uint64_t word = 0;
    std::memcpy(&word, p, sizeof(word));
    crc64 = _mm_crc32_u64(crc64, word);
  }
  auto crc32 = static_cast<uint32_t>(crc64);
  for (; len > 0; ++p, --len) {
    crc32 = _mm_crc32_u8(crc32, *p);
  }
  return ~crc32;
}

#else

bool HasHardwareCrc32c() { return false; }

uint32_t Crc32cHardware(uint32_t crc, const void* data, size_t len) {
  return Crc32cPortable(crc, data, len);
}

#endif

}  // namespace internal

uint32_t Crc32c(uint32_t crc, const void* data, size_t len) {
  static const auto kKernel =
      internal::HasHardwareCrc32c() ? internal::Crc32cHardware : internal::Crc32cPortable;
  return kKernel(crc, data, len);
}

}  // namespace gadget
