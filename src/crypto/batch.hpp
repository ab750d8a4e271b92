// batch.hpp — staged HMAC-SHA256 verification.
//
// BatchVerifier collects (schedule, message, tag) verification jobs so
// handlers can stage a check when a message arrives and read its verdict at
// their natural boundary (the machine service queue flushes every kLanes
// staged messages and at dispatch). flush() computes each pending verdict
// as `KeyRegistry::verify_tag_with(*schedule, message, tag)` — the one
// verify path, which consults the per-thread HMAC memo first (see
// hmac.hpp). So a job's verdict equals the one-shot verdict exactly: same
// digests, same constant-time comparison, same rejection of absent
// schedules and wrong-sized tags. Staging only changes WHEN a MAC is
// computed, never what is accepted; crypto_batch_test asserts this over
// ≥50k messages.
//
// Not thread-safe; each owner (machine, client) keeps its own instance.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/bytes.hpp"
#include "crypto/hmac.hpp"

namespace fortress::crypto {

class BatchVerifier {
 public:
  /// Staged jobs after which the machine service queue flushes.
  static constexpr std::size_t kLanes = 8;

  /// Queue a verification job; returns its id (stable until clear()).
  /// The message and tag bytes are copied — callers may reuse their
  /// buffers immediately. A null `schedule` (unknown signer) or a tag
  /// that is not Digest-sized yields a false verdict, matching the
  /// one-shot path.
  std::size_t enqueue(const HmacKey* schedule, BytesView message,
                      BytesView tag);

  /// Jobs enqueued but not yet computed.
  std::size_t pending() const { return jobs_.size() - computed_; }

  /// Compute every pending job.
  void flush();

  /// The verdict for job `id`. Flushes first if the job is still pending.
  bool verdict(std::size_t id);

  /// Drop all jobs and verdicts; previously returned ids are invalidated.
  /// Keeps allocated capacity.
  void clear();

  std::size_t size() const { return jobs_.size(); }

 private:
  struct Job {
    const HmacKey* schedule;  // null => verdict false
    std::size_t msg_offset;
    std::size_t msg_len;
    Digest tag;
    bool tag_ok;    // tag was Digest-sized
    bool verdict = false;
  };

  std::vector<Job> jobs_;
  Bytes arena_;            // concatenated message copies
  std::size_t computed_ = 0;
};

}  // namespace fortress::crypto
