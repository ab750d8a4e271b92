// sha256_kernel.hpp — runtime-dispatched SHA-256 block kernels.
//
// Three tiers, CPUID-selected once at startup (the scalar reference is the
// tested oracle, mirroring the Markov dense-vs-sparse pattern):
//   * Scalar — the portable FIPS 180-4 compression loop; always available.
//   * Avx2   — single-stream compression stays scalar, but the multi-buffer
//              entry point runs 8 independent streams in transposed AVX2
//              lanes (one 32-bit state word per vector element).
//   * ShaNi  — x86 SHA extensions: single-stream compression at a few
//              cycles per round quad; the multi-buffer entry loops lanes
//              through it (SHA-NI beats 8-lane AVX2 per stream).
//
// Every tier produces BIT-IDENTICAL digests (asserted by the lane-sweep
// tests); dispatch is therefore observationally invisible to everything
// above, including the campaign golden aggregates.
//
// Override order for the startup selection:
//   1. env FORTRESS_SHA_DISPATCH = scalar | native | avx2 | shani
//   2. the CMake cache default (-DFORTRESS_SHA_DISPATCH=..., baked in as
//      FORTRESS_SHA_DISPATCH_DEFAULT)
//   3. "native": the best tier CPUID reports.
// Requesting an unavailable tier falls back to the best available one at or
// below it (shani -> avx2 -> scalar), so a scalar-forced CI lane and a
// heterogeneous fleet both run without special-casing.
#pragma once

#include <cstddef>
#include <cstdint>

namespace fortress::crypto::kernel {

/// Dispatch tiers, ordered worst to best. Numeric values are stable — they
/// are reported as the `dispatch_tier` extra key in bench JSON.
enum class ShaTier : std::uint8_t { Scalar = 0, Avx2 = 1, ShaNi = 2 };

const char* tier_name(ShaTier tier);

/// True iff this CPU can run `tier`.
bool tier_available(ShaTier tier);

/// The tier all kernel entry points currently route through.
ShaTier active_tier();

/// Force the active tier (tests/benches exercising a specific lane). Not
/// thread-safe against concurrent hashing — call before spinning up
/// workers. Returns false (and leaves dispatch unchanged) if `tier` is not
/// available on this CPU.
bool force_tier(ShaTier tier);

/// SHA-256 blocks compressed on the calling thread so far, summed over
/// compress_blocks and every lane of compress_blocks_x8, on any tier. An
/// exact, host-independent work count: read it before and after the work.
std::uint64_t blocks_compressed();

/// Compress `nblocks` consecutive 64-byte blocks into `state` (the eight
/// working variables, host-endian words) via the active tier.
void compress_blocks(std::uint32_t state[8], const std::uint8_t* data,
                     std::size_t nblocks);

/// Multi-buffer compression: 8 independent streams. `states` is lane-major
/// (states[lane][0..7]); lane `l` absorbs `nblocks[l]` 64-byte blocks from
/// `data[l]`. Lanes with nblocks 0 are untouched; `data` pointers of such
/// lanes may be null. On the Avx2 tier the streams run in parallel vector
/// lanes; other tiers loop lanes through the single-stream kernel. Digests
/// are bit-identical across tiers either way. No protocol path calls it
/// (verification goes through HmacKey::mac); the kernel tests and
/// bench_micro keep it exercised.
void compress_blocks_x8(std::uint32_t states[][8],
                        const std::uint8_t* const data[8],
                        const std::size_t nblocks[8]);

/// The scalar reference compression, always available regardless of the
/// active tier — the oracle the dispatch tests compare against.
void compress_blocks_scalar(std::uint32_t state[8], const std::uint8_t* data,
                            std::size_t nblocks);

// Internal: tier-specific kernels, defined only when the toolchain can
// emit them (separate TUs compiled with the matching -m flags). Exposed
// here for the dispatcher and the lane tests; call only when the matching
// tier_available() holds.
#if defined(__x86_64__) || defined(__i386__)
void compress_blocks_shani(std::uint32_t state[8], const std::uint8_t* data,
                           std::size_t nblocks);
void compress_blocks_x8_avx2(std::uint32_t states[][8],
                             const std::uint8_t* const data[8],
                             const std::size_t nblocks[8]);
#endif

}  // namespace fortress::crypto::kernel
