#include "crypto/sha256.hpp"

#include <cstring>

#include "common/check.hpp"
#include "crypto/sha256_constants.hpp"
#include "crypto/sha256_kernel.hpp"

namespace fortress::crypto {

void Sha256::reset() {
  state_ = kernel::kSha256Init;
  buffer_len_ = 0;
  total_len_ = 0;
  finished_ = false;
}

void Sha256::update(BytesView data) {
  FORTRESS_EXPECTS(!finished_);
  total_len_ += data.size();
  std::size_t offset = 0;
  if (buffer_len_ > 0) {
    std::size_t take = std::min(kBlockSize - buffer_len_, data.size());
    std::memcpy(buffer_.data() + buffer_len_, data.data(), take);
    buffer_len_ += take;
    offset += take;
    if (buffer_len_ == kBlockSize) {
      kernel::compress_blocks(state_.data(), buffer_.data(), 1);
      buffer_len_ = 0;
    }
  }
  const std::size_t whole = (data.size() - offset) / kBlockSize;
  if (whole > 0) {
    kernel::compress_blocks(state_.data(), data.data() + offset, whole);
    offset += whole * kBlockSize;
  }
  if (offset < data.size()) {
    std::memcpy(buffer_.data(), data.data() + offset, data.size() - offset);
    buffer_len_ = data.size() - offset;
  }
}

Digest Sha256::finish() {
  FORTRESS_EXPECTS(!finished_);
  finished_ = true;

  // Build the padded tail locally: buffered bytes, 0x80, zeros, 64-bit
  // big-endian bit length. One or two blocks, one compress call.
  std::uint8_t tail[kBlockSize * 2] = {};
  std::memcpy(tail, buffer_.data(), buffer_len_);
  tail[buffer_len_] = 0x80;
  const std::size_t tail_blocks = (buffer_len_ < 56) ? 1 : 2;
  const std::uint64_t bit_len = total_len_ * 8;
  std::uint8_t* len_at = tail + tail_blocks * kBlockSize - 8;
  for (int i = 0; i < 8; ++i) {
    len_at[i] = static_cast<std::uint8_t>((bit_len >> (56 - i * 8)) & 0xff);
  }
  kernel::compress_blocks(state_.data(), tail, tail_blocks);
  buffer_len_ = 0;

  Digest out;
  for (int i = 0; i < 8; ++i) {
    out[i * 4] = static_cast<std::uint8_t>((state_[i] >> 24) & 0xff);
    out[i * 4 + 1] = static_cast<std::uint8_t>((state_[i] >> 16) & 0xff);
    out[i * 4 + 2] = static_cast<std::uint8_t>((state_[i] >> 8) & 0xff);
    out[i * 4 + 3] = static_cast<std::uint8_t>(state_[i] & 0xff);
  }
  return out;
}

Digest Sha256::hash(BytesView data) {
  Sha256 h;
  h.update(data);
  return h.finish();
}

Bytes digest_bytes(const Digest& d) { return Bytes(d.begin(), d.end()); }

}  // namespace fortress::crypto
