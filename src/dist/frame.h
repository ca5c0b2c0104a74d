#pragma once

// Length-prefixed framing for the socket campaign backend.
//
// Wire format (over any stream fd; in production a TCP socket):
//
//   u32 little-endian  length   (= 1 + payload size; never 0)
//   u8                 type     (FrameType below)
//   length-1 bytes     payload  (UTF-8 JSON via util/json, or empty)
//
// Reads distinguish three endings: a clean EOF exactly on a frame boundary
// (ReadFrame returns false — the peer closed after a complete exchange), a
// truncated stream (EOF mid-frame) and a corrupt prefix (zero or oversized
// length, unknown type) — both throw FrameError, because a half frame is a
// protocol violation, not a soft end-of-stream.

#include <cstdint>
#include <stdexcept>
#include <string>

namespace grunt::dist {

enum class FrameType : std::uint8_t {
  kHello = 1,     ///< worker -> dispatcher: {"proto":1,"name":...}
  kJob = 2,       ///< dispatcher -> worker: {"job","kind","seed","args"}
  kResult = 3,    ///< worker -> dispatcher: {"job","ok","result"|"error"}
  kShutdown = 4,  ///< dispatcher -> worker: empty payload, drain and exit
};

/// Largest accepted payload. Campaign results carry full response-time
/// sample vectors (~1 MB for a 7K-user window); 256 MB is far above any
/// real frame and small enough to reject a desynced/corrupt length prefix
/// before it turns into an allocation bomb.
inline constexpr std::uint32_t kMaxFramePayload = 256u << 20;

class FrameError : public std::runtime_error {
 public:
  explicit FrameError(const std::string& what) : std::runtime_error(what) {}
};

struct Frame {
  FrameType type = FrameType::kShutdown;
  std::string payload;
};

/// Writes the whole frame to `fd` (loops over short writes, retries EINTR).
/// Throws FrameError on I/O failure — including EPIPE when the peer died,
/// which callers turn into crash-containment handling.
void WriteFrame(int fd, const Frame& frame);

/// Reads one frame. Returns false on clean EOF at a frame boundary; throws
/// FrameError on truncated (EOF mid-frame) or corrupt (bad length / type)
/// input. Blocks until the frame is complete.
bool ReadFrame(int fd, Frame* out);

}  // namespace grunt::dist
