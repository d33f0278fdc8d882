// CRC32C (Castagnoli, reflected polynomial 0x82F63B78) — the integrity
// check behind the fault layer's wire frames and the per-section
// checksums on fleet images.
//
// Two implementations compute the same values: the SSE4.2 `crc32`
// instruction, chosen at run time on x86-64 hosts that have it, and a
// portable table-driven fallback (slicing-by-4) with byte-order
// independent output. The incremental form (`update`)
// lets ckpt::ImageWriter/ImageReader accumulate a running CRC across
// many small writes without buffering a section.
#pragma once

#include <cstddef>
#include <cstdint>

namespace skiptrain::fault {

/// Incremental CRC32C: feeds `bytes` into a running crc. Start from
/// `kCrc32cInit` and finish with `crc32c_finish` (or use crc32c()).
inline constexpr std::uint32_t kCrc32cInit = 0xffffffffU;

[[nodiscard]] std::uint32_t crc32c_update(std::uint32_t crc, const void* data,
                                          std::size_t bytes);

[[nodiscard]] inline constexpr std::uint32_t crc32c_finish(std::uint32_t crc) {
  return crc ^ 0xffffffffU;
}

namespace detail {
/// The two implementations behind crc32c_update, exposed so tests can
/// check they agree. crc32c_update_sse42 may only be called when
/// crc32c_hw_available() is true (off x86-64 it forwards to the portable
/// path).
[[nodiscard]] std::uint32_t crc32c_update_portable(std::uint32_t crc,
                                                   const void* data,
                                                   std::size_t bytes);
[[nodiscard]] std::uint32_t crc32c_update_sse42(std::uint32_t crc,
                                                const void* data,
                                                std::size_t bytes);
[[nodiscard]] bool crc32c_hw_available();
}  // namespace detail

/// One-shot CRC32C of a buffer.
[[nodiscard]] inline std::uint32_t crc32c(const void* data,
                                          std::size_t bytes) {
  return crc32c_finish(crc32c_update(kCrc32cInit, data, bytes));
}

}  // namespace skiptrain::fault
