// Non-cryptographic hashing used by stores (bloom filters, hash indexes) and
// the YCSB zipfian scrambler.
#ifndef GADGET_COMMON_HASH_H_
#define GADGET_COMMON_HASH_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string_view>

namespace gadget {

// FNV-1a 64-bit over arbitrary bytes.
inline uint64_t Fnv1a64(const void* data, size_t len) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint64_t h = 1469598103934665603ULL;
  for (size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

inline uint64_t Fnv1a64(std::string_view s) { return Fnv1a64(s.data(), s.size()); }

// Fast 64-bit integer mixer (Stafford variant 13). Used to scramble keys.
inline uint64_t Mix64(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// XXH-like 64-bit string hash (simplified, seedable). Good distribution for
// bloom filter double hashing.
inline uint64_t Hash64(const void* data, size_t len, uint64_t seed) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint64_t h = seed ^ (len * 0x9e3779b97f4a7c15ULL);
  while (len >= 8) {
    uint64_t k;
    std::memcpy(&k, p, 8);
    h = (h ^ Mix64(k)) * 0xff51afd7ed558ccdULL;
    p += 8;
    len -= 8;
  }
  uint64_t tail = 0;
  for (size_t i = 0; i < len; ++i) {
    tail = (tail << 8) | p[i];
  }
  h = (h ^ Mix64(tail)) * 0xc4ceb9fe1a85ec53ULL;
  return Mix64(h);
}

inline uint64_t Hash64(std::string_view s, uint64_t seed = 0) {
  return Hash64(s.data(), s.size(), seed);
}

// Hash for std::string-keyed unordered containers, with transparent
// string_view lookup. The 16-byte state keys take a two-word mix.
struct StringKeyHash {
  using is_transparent = void;
  size_t operator()(std::string_view s) const {
    if (s.size() == 16) {
      uint64_t hi, lo;
      std::memcpy(&hi, s.data(), 8);
      std::memcpy(&lo, s.data() + 8, 8);
      return static_cast<size_t>(Mix64(hi ^ (lo * 0x9e3779b97f4a7c15ULL)));
    }
    return static_cast<size_t>(Hash64(s));
  }
};

}  // namespace gadget

#endif  // GADGET_COMMON_HASH_H_
