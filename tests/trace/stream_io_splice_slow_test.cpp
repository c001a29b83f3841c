// The timestamp splice on a chunk near the 64 MiB payload limit.  A longer
// local_ts delta can grow a forged chunk of minimal events past the limit;
// the splice must refuse that with a typed TraceIoError instead of handing
// the writer a chunk it cannot frame.  About 40 MB of minimal events each
// way, so the suite is labelled slow.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/varint.hpp"
#include "trace/stream_io.hpp"
#include "trace/trace_io_error.hpp"

namespace chronosync {
namespace {

constexpr std::size_t kLimit = std::size_t{1} << 26;  // the format's payload limit
constexpr std::size_t kMinEvent = 13;  // type byte and twelve one-byte fields

/// A chunk payload of `count` minimal events: an Enter with every field a
/// one-byte zero, behind the head (seq 0, rank 0, count).  Returns the head
/// length.
std::size_t minimal_events(PayloadBuffer& payload, std::size_t count) {
  std::uint8_t head[3 * kMaxVarintBytes];
  std::uint8_t* h = put_uvarint(head, 0);
  h = put_uvarint(h, 0);
  h = put_uvarint(h, count);
  const auto head_len = static_cast<std::size_t>(h - head);
  std::uint8_t* p = payload.resize(head_len + count * kMinEvent);
  std::copy(head, h, p);
  std::fill(p + head_len, p + head_len + count * kMinEvent, std::uint8_t{0});
  return head_len;
}

/// Timestamps that alternate between 1.0 and -1.0: every delta after the
/// first takes ten varint bytes, so a spliced event is 22 bytes.
std::vector<double> alternating(std::size_t count) {
  std::vector<double> ts(count);
  for (std::size_t i = 0; i < count; ++i) ts[i] = i % 2 == 0 ? 1.0 : -1.0;
  return ts;
}

TEST(StreamIoSplice, OversizedCorrectedChunkThrowsTyped) {
  PayloadBuffer payload;
  std::vector<std::uint8_t> out;

  // 3.0e6 events: 39 MB in, 66 MB out, still under the limit.
  const std::size_t fits = 3'000'000;
  std::size_t head_len = minimal_events(payload, fits);
  const std::span<const std::uint8_t> spliced =
      splice_local_ts(payload, head_len, alternating(fits), out);
  EXPECT_EQ(spliced.size(), fits * 22 - 1);  // the first delta takes nine bytes
  EXPECT_LE(head_len + spliced.size(), kLimit);

  // 3.1e6 events: 40 MB in, 68 MB out.
  const std::size_t grows = 3'100'000;
  ASSERT_LT(grows * kMinEvent, kLimit);
  ASSERT_GT(grows * 22, kLimit);
  head_len = minimal_events(payload, grows);
  try {
    splice_local_ts(payload, head_len, alternating(grows), out);
    FAIL() << "a corrected chunk past the payload limit was accepted";
  } catch (const TraceIoError& e) {
    EXPECT_EQ(e.kind(), TraceIoErrorKind::Malformed);
    EXPECT_NE(std::string(e.what()).find("exceeds the 64 MiB payload limit"), std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace chronosync
