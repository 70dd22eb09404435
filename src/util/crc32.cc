#include "util/crc32.h"

#include <array>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace qnn {
namespace {

constexpr std::uint32_t kPoly = 0xEDB88320u;  // reflected 0x04C11DB7

// Slicing-by-16 tables: kTables[0] is the classic byte table; entry i of
// kTables[k] is the CRC state after byte i is followed by k zero bytes,
// so sixteen lookups advance the state over sixteen input bytes at once.
using Tables = std::array<std::array<std::uint32_t, 256>, 16>;

constexpr Tables make_tables() {
  Tables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? kPoly ^ (c >> 1) : c >> 1;
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = t[k - 1][i];
      t[k][i] = (prev >> 8) ^ t[0][prev & 0xFFu];
    }
  }
  return t;
}

constexpr Tables kTables = make_tables();

// Little-endian 32-bit load from any alignment; compiles to one mov on
// little-endian targets and stays correct on big-endian ones.
inline std::uint32_t load_le32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

// Advances the raw (pre-inverted) CRC state `c` over `size` bytes.
std::uint32_t update_slice16(const unsigned char* p, std::size_t size,
                             std::uint32_t c) {
  const Tables& t = kTables;
  for (; size >= 16; p += 16, size -= 16) {
    const std::uint32_t a = load_le32(p) ^ c;
    const std::uint32_t b = load_le32(p + 4);
    const std::uint32_t d = load_le32(p + 8);
    const std::uint32_t e = load_le32(p + 12);
    c = t[15][a & 0xFFu] ^ t[14][(a >> 8) & 0xFFu] ^
        t[13][(a >> 16) & 0xFFu] ^ t[12][a >> 24] ^
        t[11][b & 0xFFu] ^ t[10][(b >> 8) & 0xFFu] ^
        t[9][(b >> 16) & 0xFFu] ^ t[8][b >> 24] ^
        t[7][d & 0xFFu] ^ t[6][(d >> 8) & 0xFFu] ^
        t[5][(d >> 16) & 0xFFu] ^ t[4][d >> 24] ^
        t[3][e & 0xFFu] ^ t[2][(e >> 8) & 0xFFu] ^
        t[1][(e >> 16) & 0xFFu] ^ t[0][e >> 24];
  }
  for (; size > 0; ++p, --size) c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  return c;
}

#if defined(__x86_64__)

inline __m128i load128(const unsigned char* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

// x.lo * k.lo ^ x.hi * k.hi ^ next: moves the 128 bits of x ahead by the
// distance k's constants encode and adds in the block found there.
__attribute__((target("pclmul"))) inline __m128i fold(__m128i x, __m128i k,
                                                      __m128i next) {
  const __m128i lo = _mm_clmulepi64_si128(x, k, 0x00);
  const __m128i hi = _mm_clmulepi64_si128(x, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(lo, hi), next);
}

// Carry-less-multiply folding (Gopal et al., "Fast CRC Computation for
// Generic Polynomials Using PCLMULQDQ", Intel 2009), bit-reflected form.
// Four 128-bit lanes fold 64 bytes per step, collapse to one lane, fold
// the remaining 16-byte blocks, then reduce 128 -> 64 -> 32 bits with a
// Barrett step. Constants are (x^n mod P) bit-reflected and shifted left
// by one, for the n given beside each.
// Requires size >= 64 and size % 16 == 0; advances the raw state `c`.
__attribute__((target("pclmul"))) std::uint32_t update_pclmul(
    const unsigned char* p, std::size_t size, std::uint32_t c) {
  const __m128i k1k2 = _mm_set_epi64x(0x1c6e41596,   // x^(4*128-32)
                                      0x154442bd4);  // x^(4*128+32)
  const __m128i k3k4 = _mm_set_epi64x(0x0ccaa009e,   // x^(128-32)
                                      0x1751997d0);  // x^(128+32)
  const __m128i k5 = _mm_set_epi64x(0, 0x163cd6124);  // x^64
  const __m128i poly = _mm_set_epi64x(0x1f7011641,    // floor(x^64 / P)
                                      0x1db710641);   // P
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);

  __m128i x1 =
      _mm_xor_si128(load128(p), _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i x2 = load128(p + 16);
  __m128i x3 = load128(p + 32);
  __m128i x4 = load128(p + 48);
  p += 64;
  size -= 64;
  for (; size >= 64; p += 64, size -= 64) {
    x1 = fold(x1, k1k2, load128(p));
    x2 = fold(x2, k1k2, load128(p + 16));
    x3 = fold(x3, k1k2, load128(p + 32));
    x4 = fold(x4, k1k2, load128(p + 48));
  }
  x1 = fold(x1, k3k4, x2);
  x1 = fold(x1, k3k4, x3);
  x1 = fold(x1, k3k4, x4);
  for (; size >= 16; p += 16, size -= 16) x1 = fold(x1, k3k4, load128(p));

  // 128 -> 64 bits.
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8),
                     _mm_clmulepi64_si128(x1, k3k4, 0x10));
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 4),
                     _mm_clmulepi64_si128(_mm_and_si128(x1, low32), k5, 0x00));
  // Barrett reduction 64 -> 32 bits.
  __m128i q = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), poly, 0x10);
  q = _mm_clmulepi64_si128(_mm_and_si128(q, low32), poly, 0x00);
  x1 = _mm_xor_si128(x1, q);
  return static_cast<std::uint32_t>(_mm_cvtsi128_si32(_mm_srli_si128(x1, 4)));
}

bool has_pclmul() {
  static const bool supported = __builtin_cpu_supports("pclmul");
  return supported;
}

#endif  // __x86_64__

}  // namespace

std::uint32_t crc32(const void* data, std::size_t size, std::uint32_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t c = ~seed;
#if defined(__x86_64__)
  if (size >= 64 && has_pclmul()) {
    const std::size_t bulk = size & ~std::size_t{15};
    c = update_pclmul(p, bulk, c);
    p += bulk;
    size -= bulk;
  }
#endif
  return ~update_slice16(p, size, c);
}

namespace detail {

std::uint32_t crc32_portable(const void* data, std::size_t size,
                             std::uint32_t seed) {
  return ~update_slice16(static_cast<const unsigned char*>(data), size, ~seed);
}

}  // namespace detail
}  // namespace qnn
