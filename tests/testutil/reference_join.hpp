// Reference message join: the straightforward std::map implementation of
// Trace::match_messages' online rule, kept as a test oracle for the
// radix-sorted production join.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "trace/trace.hpp"

namespace chronosync::testutil {

/// Online over rank-major order: an id holds at most one half-open entry, a
/// duplicate endpoint overwrites it while half-open (last wins), the pair
/// retires when its second endpoint arrives, and a later endpoint opens a
/// fresh entry.  Output is in ascending msg_id, repeats in completion order.
inline std::vector<MessageRecord> reference_match_messages(const Trace& trace) {
  std::map<std::int64_t, MessageRecord> open;
  std::vector<std::pair<std::int64_t, MessageRecord>> done;
  for (Rank r = 0; r < trace.ranks(); ++r) {
    const auto& ev = trace.events(r);
    for (std::uint32_t i = 0; i < ev.size(); ++i) {
      const Event& e = ev[i];
      if (e.type == EventType::Send) {
        auto& m = open[e.msg_id];
        m.send = {r, i};
        m.bytes = e.bytes;
        m.tag = e.tag;
        if (m.recv.proc >= 0) {
          done.emplace_back(e.msg_id, m);
          open.erase(e.msg_id);
        }
      } else if (e.type == EventType::Recv) {
        auto& m = open[e.msg_id];
        m.recv = {r, i};
        if (m.send.proc >= 0) {
          done.emplace_back(e.msg_id, m);
          open.erase(e.msg_id);
        }
      }
    }
  }
  std::stable_sort(done.begin(), done.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<MessageRecord> out;
  out.reserve(done.size());
  for (auto& [id, m] : done) out.push_back(m);
  return out;
}

}  // namespace chronosync::testutil
