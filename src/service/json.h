// Canonical-JSON building blocks shared by the wire format (service/wire.h)
// and the TCP request/response protocol (net/protocol.h).
//
// The subset is deliberately small: objects, arrays, strings with escapes,
// unsigned decimal integers, and booleans — exactly what the canonical
// writers emit. Anything else (null, floats, negatives, duplicate keys)
// is a ParseError, so every value that parses can be re-serialized
// canonically and byte equality stays semantic equality.
//
// ParseInto(text, arena) parses into a View tree: children live in the
// caller's Arena and string leaves are string_views into `text` (or into
// the arena when unescaping was needed). It is the one parser: requests,
// responses and transcripts all read Views. With a recycled Arena a
// steady-state parse performs zero heap allocations, and
// AppendView(ParseInto(s)) == s for every canonical s.
#ifndef QLEARN_SERVICE_JSON_H_
#define QLEARN_SERVICE_JSON_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace qlearn {
namespace service {
namespace json {

/// Slab allocator backing one request-scoped parse tree. Reset() recycles
/// every slab without freeing, so a long-lived Arena reaches a steady state
/// where parsing allocates nothing. Not thread-safe; one Arena per thread
/// (the server gives each worker its own).
class Arena {
 public:
  explicit Arena(size_t slab_bytes = 16 * 1024);
  ~Arena();
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Returns `bytes` bytes aligned to `align` (a power of two), valid until
  /// Reset() or destruction.
  void* Allocate(size_t bytes, size_t align);

  /// Rewinds to empty, keeping every slab for reuse.
  void Reset();

  /// Total slab capacity owned (footprint bound; tests assert it plateaus).
  size_t CapacityBytes() const;

 private:
  struct Slab {
    char* data = nullptr;
    size_t size = 0;
  };
  std::vector<Slab> slabs_;
  size_t active_ = 0;  ///< slab currently being bump-allocated from
  size_t used_ = 0;    ///< bytes used in slabs_[active_]
  size_t slab_bytes_;
};

/// A parsed JSON value of the canonical subset. String leaves are views
/// (into the parsed text, or into the arena when an escape made a copy
/// unavoidable) and children live in arena-allocated spans; object members
/// keep their source order so strict shape checks can name the offending
/// key. Views are valid while BOTH the arena and the parsed text outlive
/// them.
struct View {
  enum class Type { kBool, kUInt, kString, kArray, kObject };
  struct Member;  // key/value pair of an object

  Type type = Type::kBool;
  bool bool_value = false;
  uint64_t uint_value = 0;
  std::string_view string_value;
  const View* elements = nullptr;  ///< kArray children
  uint32_t element_count = 0;
  const Member* members = nullptr;  ///< kObject members, source order
  uint32_t member_count = 0;
};

struct View::Member {
  std::string_view key;
  View value;
};

/// Containers (objects and arrays) nested deeper than this are a
/// ParseError. Canonical messages nest at most four deep.
inline constexpr uint32_t kMaxDepth = 64;

/// Parses one JSON document (the whole string; trailing bytes are an
/// error) and rejects everything outside the canonical subset. The
/// returned View tree lives in `arena`.
common::Result<const View*> ParseInto(std::string_view text, Arena* arena);

/// Appends the canonical serialization of a parsed View. For any string s
/// accepted by ParseInto, AppendView(ParseInto(s)) reproduces s exactly.
void AppendView(const View& value, std::string* out);

/// Appends `text` as a quoted JSON string, escaping the canonical way
/// (control characters as \uXXXX, UTF-8 bytes pass through verbatim).
void AppendEscaped(std::string_view text, std::string* out);

/// Appends `ids` as a JSON array of unsigned decimal integers.
void AppendUInts(const std::vector<uint64_t>& ids, std::string* out);

/// Appends `value` as unsigned decimal without allocating a temporary
/// (std::to_string of a 20-digit value would; the hot-path writers use
/// this instead).
void AppendUInt(uint64_t value, std::string* out);

// Strict shape helpers for converting a parsed object into a struct,
// allocation-free on the happy path: Find checks looked-up keys off in the
// `seen` bitmask (one bit per member) so CheckAllKeysKnown can reject
// unknown keys afterwards. Objects past 64 members are rejected by
// CheckAllKeysKnown — far beyond any canonical message shape.
const View* Find(const View& object, std::string_view key, uint64_t* seen);
common::Status CheckAllKeysKnown(const View& object, uint64_t seen,
                                 std::string_view what);
common::Result<std::string_view> ToStringView(const View* value,
                                              std::string_view what);
common::Result<uint64_t> ToUInt(const View* value, std::string_view what);
common::Result<bool> ToBool(const View* value, std::string_view what);

}  // namespace json
}  // namespace service
}  // namespace qlearn

#endif  // QLEARN_SERVICE_JSON_H_
