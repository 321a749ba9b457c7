// Binary snapshot encoding for session hibernation images.
//
// SnapshotWriter appends fixed-width little-endian scalars and raw word
// runs to a growable byte buffer; SnapshotReader walks the same layout with
// bounds checks and returns common::Status instead of asserting, so a
// truncated or mismatched image degrades into an error the serving layer
// can surface (see candidate_store.h for the versioned store image that
// sits on top of this).
#ifndef QLEARN_SESSION_SNAPSHOT_H_
#define QLEARN_SESSION_SNAPSHOT_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace qlearn {
namespace session {

/// Append-only little-endian encoder. The buffer is plain bytes: images are
/// portable across processes on the same architecture family and carry
/// their own magic/version headers (the consumers validate them on read).
class SnapshotWriter {
 public:
  void WriteU8(uint8_t v) { out_.push_back(static_cast<char>(v)); }

  void WriteU32(uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      out_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }
  }

  void WriteU64(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      out_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }
  }

  void WriteWords(const uint64_t* words, size_t count) {
    for (size_t i = 0; i < count; ++i) WriteU64(words[i]);
  }

  void WriteWords(const std::vector<uint64_t>& words) {
    WriteWords(words.data(), words.size());
  }

  /// A run of `count` raw bytes, unprefixed (the reader must know the
  /// count).
  void WriteByteRun(const uint8_t* bytes, size_t count) {
    if (count != 0) out_.append(reinterpret_cast<const char*>(bytes), count);
  }

  /// Length-prefixed byte string (u64 count + raw bytes).
  void WriteBytes(std::string_view bytes) {
    WriteU64(bytes.size());
    out_.append(bytes.data(), bytes.size());
  }

  const std::string& bytes() const { return out_; }
  std::string TakeBytes() { return std::move(out_); }

 private:
  std::string out_;
};

/// Bounds-checked little-endian decoder over an immutable image. Every read
/// fails with InvalidArgument on truncation; the caller's QLEARN_RETURN_IF
/// chains keep restore code linear.
class SnapshotReader {
 public:
  explicit SnapshotReader(std::string_view image) : image_(image) {}

  common::Status ReadU8(uint8_t* v) {
    if (pos_ + 1 > image_.size()) return Truncated();
    *v = static_cast<uint8_t>(image_[pos_++]);
    return common::Status::OK();
  }

  common::Status ReadU32(uint32_t* v) {
    if (pos_ + 4 > image_.size()) return Truncated();
    uint32_t out = 0;
    for (int i = 0; i < 4; ++i) {
      out |= static_cast<uint32_t>(static_cast<uint8_t>(image_[pos_ + i]))
             << (8 * i);
    }
    pos_ += 4;
    *v = out;
    return common::Status::OK();
  }

  common::Status ReadU64(uint64_t* v) {
    if (pos_ + 8 > image_.size()) return Truncated();
    uint64_t out = 0;
    for (int i = 0; i < 8; ++i) {
      out |= static_cast<uint64_t>(static_cast<uint8_t>(image_[pos_ + i]))
             << (8 * i);
    }
    pos_ += 8;
    *v = out;
    return common::Status::OK();
  }

  common::Status ReadWords(uint64_t* words, size_t count) {
    for (size_t i = 0; i < count; ++i) {
      common::Status s = ReadU64(&words[i]);
      if (!s.ok()) return s;
    }
    return common::Status::OK();
  }

  /// A run of `count` raw bytes written by WriteByteRun.
  common::Status ReadByteRun(uint8_t* bytes, size_t count) {
    if (count > remaining()) return Truncated();
    if (count != 0) std::memcpy(bytes, image_.data() + pos_, count);
    pos_ += count;
    return common::Status::OK();
  }

  /// Length-prefixed byte string (u64 count + raw bytes).
  common::Status ReadBytes(std::string* out) {
    uint64_t n = 0;
    common::Status s = ReadU64(&n);
    if (!s.ok()) return s;
    if (n > remaining()) return Truncated();
    out->assign(image_.data() + pos_, static_cast<size_t>(n));
    pos_ += static_cast<size_t>(n);
    return common::Status::OK();
  }

  /// True when the cursor consumed the whole image (trailing garbage in a
  /// snapshot is as suspect as truncation).
  bool AtEnd() const { return pos_ == image_.size(); }
  size_t remaining() const { return image_.size() - pos_; }

 private:
  common::Status Truncated() const {
    return common::Status::InvalidArgument("snapshot image truncated at byte " +
                                           std::to_string(pos_));
  }

  std::string_view image_;
  size_t pos_ = 0;
};

}  // namespace session
}  // namespace qlearn

#endif  // QLEARN_SESSION_SNAPSHOT_H_
