#include "crypto/sha256_kernel.hpp"

#include <cstdlib>
#include <cstring>

#include "crypto/sha256_constants.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace fortress::crypto::kernel {

namespace {

inline std::uint32_t rotr(std::uint32_t x, int n) {
  return (x >> n) | (x << (32 - n));
}

// The compile-time default tier request (CMake -DFORTRESS_SHA_DISPATCH);
// the FORTRESS_SHA_DISPATCH environment variable overrides it at startup.
#ifndef FORTRESS_SHA_DISPATCH_DEFAULT
#define FORTRESS_SHA_DISPATCH_DEFAULT "native"
#endif

#if defined(__x86_64__) || defined(__i386__)
struct CpuFeatures {
  bool avx2 = false;
  bool shani = false;
};

CpuFeatures detect_cpu() {
  CpuFeatures f;
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid_max(0, nullptr) < 7) return f;
  __cpuid(1, eax, ebx, ecx, edx);
  const bool osxsave = (ecx & (1u << 27)) != 0;
  const bool avx = (ecx & (1u << 28)) != 0;
  // YMM state must be OS-enabled for AVX2 to be usable. Raw xgetbv via
  // asm: the _xgetbv intrinsic needs -mxsave, which this dispatch TU
  // deliberately does not enable.
  bool ymm_enabled = false;
  if (osxsave && avx) {
    std::uint32_t xcr0_lo = 0, xcr0_hi = 0;
    __asm__ volatile("xgetbv" : "=a"(xcr0_lo), "=d"(xcr0_hi) : "c"(0));
    ymm_enabled = (xcr0_lo & 0x6) == 0x6;
  }
  __cpuid_count(7, 0, eax, ebx, ecx, edx);
  f.avx2 = ymm_enabled && (ebx & (1u << 5)) != 0;
  f.shani = (ebx & (1u << 29)) != 0;
  return f;
}

const CpuFeatures& cpu_features() {
  static const CpuFeatures f = detect_cpu();
  return f;
}
#endif

ShaTier clamp_to_available(ShaTier wanted) {
  // Fall back to the best available tier at or below the request, so a
  // forced "shani" on an AVX2-only box still runs vectorized.
  for (int t = static_cast<int>(wanted); t > 0; --t) {
    if (tier_available(static_cast<ShaTier>(t))) {
      return static_cast<ShaTier>(t);
    }
  }
  return ShaTier::Scalar;
}

ShaTier parse_tier_request(const char* request) {
  if (request == nullptr || std::strcmp(request, "native") == 0) {
    return clamp_to_available(ShaTier::ShaNi);
  }
  if (std::strcmp(request, "scalar") == 0) return ShaTier::Scalar;
  if (std::strcmp(request, "avx2") == 0) {
    return clamp_to_available(ShaTier::Avx2);
  }
  if (std::strcmp(request, "shani") == 0) {
    return clamp_to_available(ShaTier::ShaNi);
  }
  // Unrecognized request: the safe interpretation is the reference tier.
  return ShaTier::Scalar;
}

ShaTier select_startup_tier() {
  const char* env = std::getenv("FORTRESS_SHA_DISPATCH");
  return parse_tier_request(env != nullptr ? env
                                           : FORTRESS_SHA_DISPATCH_DEFAULT);
}

ShaTier& active_tier_slot() {
  static ShaTier tier = select_startup_tier();
  return tier;
}

thread_local std::uint64_t t_blocks_compressed = 0;

}  // namespace

const char* tier_name(ShaTier tier) {
  switch (tier) {
    case ShaTier::Scalar: return "scalar";
    case ShaTier::Avx2: return "avx2";
    case ShaTier::ShaNi: return "shani";
  }
  return "?";
}

bool tier_available(ShaTier tier) {
  switch (tier) {
    case ShaTier::Scalar:
      return true;
#if defined(__x86_64__) || defined(__i386__)
    case ShaTier::Avx2:
      return cpu_features().avx2;
    case ShaTier::ShaNi:
      // The SHA-NI kernel uses SSE2/SSSE3-era loads, universal on any CPU
      // that has the SHA extensions.
      return cpu_features().shani;
#else
    case ShaTier::Avx2:
    case ShaTier::ShaNi:
      return false;
#endif
  }
  return false;
}

ShaTier active_tier() { return active_tier_slot(); }

std::uint64_t blocks_compressed() { return t_blocks_compressed; }

bool force_tier(ShaTier tier) {
  if (!tier_available(tier)) return false;
  active_tier_slot() = tier;
  return true;
}

void compress_blocks_scalar(std::uint32_t state[8], const std::uint8_t* data,
                            std::size_t nblocks) {
  std::uint32_t a0 = state[0], b0 = state[1], c0 = state[2], d0 = state[3];
  std::uint32_t e0 = state[4], f0 = state[5], g0 = state[6], h0 = state[7];
  for (std::size_t blk = 0; blk < nblocks; ++blk, data += 64) {
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = (static_cast<std::uint32_t>(data[i * 4]) << 24) |
             (static_cast<std::uint32_t>(data[i * 4 + 1]) << 16) |
             (static_cast<std::uint32_t>(data[i * 4 + 2]) << 8) |
             static_cast<std::uint32_t>(data[i * 4 + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      std::uint32_t s0 =
          rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      std::uint32_t s1 =
          rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    std::uint32_t a = a0, b = b0, c = c0, d = d0;
    std::uint32_t e = e0, f = f0, g = g0, h = h0;
    for (int i = 0; i < 64; ++i) {
      std::uint32_t S1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      std::uint32_t ch = (e & f) ^ (~e & g);
      std::uint32_t temp1 = h + S1 + ch + kSha256K[i] + w[i];
      std::uint32_t S0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      std::uint32_t temp2 = S0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + temp1;
      d = c;
      c = b;
      b = a;
      a = temp1 + temp2;
    }
    a0 += a;
    b0 += b;
    c0 += c;
    d0 += d;
    e0 += e;
    f0 += f;
    g0 += g;
    h0 += h;
  }
  state[0] = a0;
  state[1] = b0;
  state[2] = c0;
  state[3] = d0;
  state[4] = e0;
  state[5] = f0;
  state[6] = g0;
  state[7] = h0;
}

void compress_blocks(std::uint32_t state[8], const std::uint8_t* data,
                     std::size_t nblocks) {
  if (nblocks == 0) return;
  t_blocks_compressed += nblocks;
  switch (active_tier_slot()) {
#if defined(__x86_64__) || defined(__i386__)
    case ShaTier::ShaNi:
      compress_blocks_shani(state, data, nblocks);
      return;
#endif
    default:
      // AVX2 buys nothing on a single stream; its win is the x8 entry.
      compress_blocks_scalar(state, data, nblocks);
      return;
  }
}

void compress_blocks_x8(std::uint32_t states[][8],
                        const std::uint8_t* const data[8],
                        const std::size_t nblocks[8]) {
  for (int lane = 0; lane < 8; ++lane) t_blocks_compressed += nblocks[lane];
  switch (active_tier_slot()) {
#if defined(__x86_64__) || defined(__i386__)
    case ShaTier::Avx2:
      compress_blocks_x8_avx2(states, data, nblocks);
      return;
    case ShaTier::ShaNi:
      for (int lane = 0; lane < 8; ++lane) {
        if (nblocks[lane] > 0) {
          compress_blocks_shani(states[lane], data[lane], nblocks[lane]);
        }
      }
      return;
#endif
    default:
      for (int lane = 0; lane < 8; ++lane) {
        if (nblocks[lane] > 0) {
          compress_blocks_scalar(states[lane], data[lane], nblocks[lane]);
        }
      }
      return;
  }
}

}  // namespace fortress::crypto::kernel
