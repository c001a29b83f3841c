#include "trace/logical_messages.hpp"

namespace chronosync {

namespace {

/// Calls emit(send, recv) for every logical message of `inst`, in output
/// order.  Counting and emission both go through here, so the flavour rules
/// live in one place.
template <typename Emit>
void for_each_logical_message(const CollectiveInstance& inst, Emit&& emit) {
  // Root lookups are first-match: an instance lists each rank once in a
  // well-formed trace, and on malformed input (a rank recorded twice) every
  // consumer — this derivation and the streaming scanner — must agree on
  // the same representative, so both use the first recorded event.
  auto first_of = [](const std::vector<EventRef>& refs, Rank r) -> const EventRef* {
    for (const auto& ref : refs) {
      if (ref.proc == r) return &ref;
    }
    return nullptr;
  };

  switch (flavor_of(inst.kind)) {
    case CollectiveFlavor::OneToN: {
      const EventRef* root_begin = first_of(inst.begins, inst.root);
      if (!root_begin) break;
      for (const auto& end : inst.ends) {
        if (end.proc == inst.root) continue;
        emit(*root_begin, end);
      }
      break;
    }
    case CollectiveFlavor::NToOne: {
      const EventRef* root_end = first_of(inst.ends, inst.root);
      if (!root_end) break;
      for (const auto& begin : inst.begins) {
        if (begin.proc == inst.root) continue;
        emit(begin, *root_end);
      }
      break;
    }
    case CollectiveFlavor::NToN: {
      for (const auto& begin : inst.begins) {
        for (const auto& end : inst.ends) {
          if (begin.proc == end.proc) continue;
          emit(begin, end);
        }
      }
      break;
    }
  }
}

}  // namespace

std::vector<LogicalMessage> derive_logical_messages(
    const Trace& /*trace*/, const std::vector<CollectiveInstance>& collectives) {
  // Count first, then emit into an exactly reserved vector: geometric growth
  // would leave up to half the capacity unused and copy every message on the
  // way.
  std::size_t count = 0;
  for (const auto& inst : collectives) {
    for_each_logical_message(inst, [&](const EventRef&, const EventRef&) { ++count; });
  }
  std::vector<LogicalMessage> out;
  out.reserve(count);
  for (const auto& inst : collectives) {
    for_each_logical_message(inst, [&](const EventRef& send, const EventRef& recv) {
      out.push_back({send, recv, inst.coll_id});
    });
  }
  return out;
}

std::vector<LogicalMessage> derive_logical_messages(const Trace& trace) {
  return derive_logical_messages(trace, trace.collect_collectives());
}

}  // namespace chronosync
