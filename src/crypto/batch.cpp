#include "crypto/batch.hpp"

#include <cstring>

#include "common/check.hpp"
#include "crypto/signature.hpp"

namespace fortress::crypto {

std::size_t BatchVerifier::enqueue(const HmacKey* schedule, BytesView message,
                                   BytesView tag) {
  Job job;
  job.schedule = schedule;
  job.msg_offset = arena_.size();
  job.msg_len = message.size();
  job.tag_ok = tag.size() == job.tag.size();
  if (job.tag_ok) {
    std::memcpy(job.tag.data(), tag.data(), job.tag.size());
  }
  if (schedule != nullptr && job.tag_ok) {
    append(arena_, message);
  } else {
    // The one-shot path rejects these without needing the MAC; don't copy.
    job.msg_len = 0;
  }
  jobs_.push_back(job);
  return jobs_.size() - 1;
}

void BatchVerifier::flush() {
  for (std::size_t i = computed_; i < jobs_.size(); ++i) {
    Job& job = jobs_[i];
    job.verdict =
        job.schedule != nullptr && job.tag_ok &&
        KeyRegistry::verify_tag_with(
            *job.schedule, BytesView(arena_.data() + job.msg_offset, job.msg_len),
            BytesView(job.tag.data(), job.tag.size()));
  }
  computed_ = jobs_.size();
}

bool BatchVerifier::verdict(std::size_t id) {
  FORTRESS_EXPECTS(id < jobs_.size());
  if (id >= computed_) flush();
  return jobs_[id].verdict;
}

void BatchVerifier::clear() {
  jobs_.clear();
  arena_.clear();
  computed_ = 0;
}

}  // namespace fortress::crypto
