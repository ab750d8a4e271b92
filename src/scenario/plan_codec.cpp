#include "scenario/plan_codec.hpp"

#include <cstdio>

#include "scenario/codec.hpp"

namespace fortress::scenario {

std::string plan_to_json(const net::ScenarioPlan& plan) {
  return encode(plan, /*compact=*/false);
}

std::string plan_to_json_compact(const net::ScenarioPlan& plan) {
  return encode(plan, /*compact=*/true);
}

net::ScenarioPlan plan_from_json(std::string_view text) {
  net::ScenarioPlan plan;
  decode(json::parse(text), "plan", plan);
  plan.validate();
  return plan;
}

std::uint64_t plan_digest(const net::ScenarioPlan& plan) {
  return json::fnv1a64(plan_to_json_compact(plan));
}

std::string plan_digest_string(const net::ScenarioPlan& plan) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "fnv1a64:%016llx",
                static_cast<unsigned long long>(plan_digest(plan)));
  return buf;
}

}  // namespace fortress::scenario
