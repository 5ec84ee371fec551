// 128-bit content fingerprints for the analysis service's cache.
//
// The service caches analysis artifacts by the *content* of the request —
// source text, canonicalized options, and the build that produced the
// artifact — so two requests with identical content share one entry and
// any difference (a single changed byte, a different flag, a rebuilt
// binary) lands on a different key. The mixer is a dual-stream
// construction (an FNV-offset stream plus a murmur-style finalizing
// stream); treating the two streams as independent 64-bit hashes, the
// birthday bound of docs/ANALYSIS.md applies: at 2^20 cached artifacts
// the collision probability is below 1e-24, far below the error rates of
// the disks the cache lives on.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "src/support/visited.h"

namespace cssame::support {

/// Streaming 128-bit mixer. Feed words or byte strings in any
/// interleaving; the digest depends on the exact feed sequence, and every
/// byte string is length-prefixed so concatenation ambiguities ("ab"+"c"
/// vs "a"+"bc") produce distinct digests.
class Fingerprinter {
 public:
  void mix(std::uint64_t v) {
    h1_ ^= v + 0x9e3779b97f4a7c15ull + (h1_ << 6) + (h1_ >> 2);
    h2_ = (h2_ ^ v) * 0xff51afd7ed558ccdull;
    h2_ ^= h2_ >> 33;
  }

  void mixBytes(std::string_view bytes) {
    mix(bytes.size());
    std::uint64_t word = 0;
    unsigned n = 0;
    for (unsigned char c : bytes) {
      word = (word << 8) | c;
      if (++n == 8) {
        mix(word);
        word = 0;
        n = 0;
      }
    }
    if (n != 0) mix(word | (static_cast<std::uint64_t>(n) << 56));
  }

  [[nodiscard]] Hash128 digest() const { return Hash128{h1_, h2_}; }

 private:
  std::uint64_t h1_ = 0xcbf29ce484222325ull;
  std::uint64_t h2_ = 0x6c62272e07bb0142ull;
};

/// One-shot fingerprint of a byte string.
[[nodiscard]] inline Hash128 fingerprintBytes(std::string_view bytes) {
  Fingerprinter fp;
  fp.mixBytes(bytes);
  return fp.digest();
}

/// Fixed-width lowercase-hex rendering (32 chars), the cache's on-disk
/// entry name and wire form.
[[nodiscard]] inline std::string toHex(const Hash128& h) {
  static const char* digits = "0123456789abcdef";
  std::string out(32, '0');
  for (int i = 0; i < 16; ++i)
    out[15 - i] = digits[(h.hi >> (4 * i)) & 0xf];
  for (int i = 0; i < 16; ++i)
    out[31 - i] = digits[(h.lo >> (4 * i)) & 0xf];
  return out;
}

/// Parses toHex() output. Returns false (leaving `out` unspecified) on
/// anything that is not exactly 32 hex digits.
[[nodiscard]] inline bool fromHex(std::string_view hex, Hash128& out) {
  if (hex.size() != 32) return false;
  auto nibble = [](char c, std::uint64_t& v) {
    if (c >= '0' && c <= '9') v = static_cast<std::uint64_t>(c - '0');
    else if (c >= 'a' && c <= 'f') v = static_cast<std::uint64_t>(c - 'a') + 10;
    else return false;
    return true;
  };
  out = {};
  for (int i = 0; i < 16; ++i) {
    std::uint64_t v = 0;
    if (!nibble(hex[i], v)) return false;
    out.hi = (out.hi << 4) | v;
  }
  for (int i = 16; i < 32; ++i) {
    std::uint64_t v = 0;
    if (!nibble(hex[i], v)) return false;
    out.lo = (out.lo << 4) | v;
  }
  return true;
}

}  // namespace cssame::support
