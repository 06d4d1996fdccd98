#include "sim/trace.hpp"

#include <sstream>

namespace rfc::sim {

void TraceRecorder::attach(Engine& engine) {
  last_ = Metrics{};
  rounds_.clear();
  engine.set_round_observer([this](const Engine& e) {
    const Metrics& m = e.metrics();
    RoundTrace t;
    t.round = e.round() - 1;
    t.pushes = m.pushes - last_.pushes;
    t.pull_requests = m.pull_requests - last_.pull_requests;
    t.pull_replies = m.pull_replies - last_.pull_replies;
    t.bits = m.total_bits - last_.total_bits;
    t.active_links = m.active_links - last_.active_links;
    last_ = m;
    rounds_.push_back(t);
  });
}

namespace {

template <typename Field>
std::uint64_t sum_over(const std::vector<RoundTrace>& rounds,
                       std::uint64_t begin, std::uint64_t end, Field field) {
  std::uint64_t total = 0;
  for (const RoundTrace& t : rounds) {
    if (t.round >= begin && t.round < end) total += field(t);
  }
  return total;
}

}  // namespace

std::uint64_t TraceRecorder::total_pushes(std::uint64_t begin,
                                          std::uint64_t end) const {
  return sum_over(rounds(), begin, end,
                  [](const RoundTrace& t) { return t.pushes; });
}

std::uint64_t TraceRecorder::total_pulls(std::uint64_t begin,
                                         std::uint64_t end) const {
  return sum_over(rounds(), begin, end,
                  [](const RoundTrace& t) { return t.pull_requests; });
}

std::uint64_t TraceRecorder::total_bits(std::uint64_t begin,
                                        std::uint64_t end) const {
  return sum_over(rounds(), begin, end,
                  [](const RoundTrace& t) { return t.bits; });
}

std::string TraceRecorder::render() const {
  std::ostringstream os;
  for (const RoundTrace& t : rounds()) {
    os << "r" << t.round << ": push=" << t.pushes
       << " pull=" << t.pull_requests << " bits=" << t.bits << "\n";
  }
  return os.str();
}

}  // namespace rfc::sim
