#include "service/json.h"

#include <algorithm>
#include <charconv>
#include <cstdio>

namespace qlearn {
namespace service {
namespace json {

namespace {

using common::Result;
using common::Status;

/// Recursive-descent parser of the canonical subset. Builds View nodes in
/// the caller's arena and leaves string bytes in place (string_views into
/// `text_`) unless an escape forces a decoded copy into the arena. Every
/// error names what was expected and the byte offset it was found at.
class Parser {
 public:
  Parser(std::string_view text, Arena* arena)
      : text_(text), arena_(arena) {}

  Result<const View*> ParseDocument() {
    View* root = NewView();
    QLEARN_RETURN_IF_ERROR(ParseValue(root));
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Error("trailing characters after JSON value");
    }
    return static_cast<const View*>(root);
  }

 private:
  /// Chain link used while an array's or object's size is still unknown;
  /// the finished chain is compacted into a contiguous arena span.
  struct Link {
    std::string_view key;  // objects only
    View value;
    Link* next = nullptr;
  };

  View* NewView() {
    return new (arena_->Allocate(sizeof(View), alignof(View))) View();
  }

  Link* NewLink() {
    return new (arena_->Allocate(sizeof(Link), alignof(Link))) Link();
  }

  Status Error(const std::string& message) const {
    return Status::ParseError("json: " + message + " at offset " +
                              std::to_string(pos_));
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Status ParseValue(View* out) {
    SkipWhitespace();
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    const char c = text_[pos_];
    if (c == '{' || c == '[') {
      // Containers recurse; bounding the depth keeps a frame of brackets
      // from overflowing the stack of the thread that parses it.
      if (depth_ == kMaxDepth) {
        return Error("nesting deeper than " + std::to_string(kMaxDepth) +
                     " levels");
      }
      ++depth_;
      Status status = c == '{' ? ParseObject(out) : ParseArray(out);
      --depth_;
      return status;
    }
    if (c == '"') return ParseString(out);
    if (c == 't' || c == 'f') return ParseBool(out);
    if (c >= '0' && c <= '9') return ParseUInt(out);
    return Error(std::string("unexpected character '") + c + "'");
  }

  Status ParseObject(View* out) {
    ++pos_;  // '{'
    out->type = View::Type::kObject;
    SkipWhitespace();
    if (Consume('}')) return Status::OK();
    Link* head = nullptr;
    Link* tail = nullptr;
    uint32_t count = 0;
    for (;;) {
      SkipWhitespace();
      View key;
      QLEARN_RETURN_IF_ERROR(ParseString(&key));
      for (const Link* link = head; link != nullptr; link = link->next) {
        if (link->key == key.string_value) {
          return Error("duplicate key \"" + std::string(key.string_value) +
                       "\"");
        }
      }
      SkipWhitespace();
      if (!Consume(':')) return Error("expected ':' after object key");
      Link* link = NewLink();
      link->key = key.string_value;
      QLEARN_RETURN_IF_ERROR(ParseValue(&link->value));
      if (tail == nullptr) {
        head = tail = link;
      } else {
        tail->next = link;
        tail = link;
      }
      ++count;
      SkipWhitespace();
      if (Consume('}')) break;
      if (!Consume(',')) return Error("expected ',' or '}' in object");
    }
    auto* members = static_cast<View::Member*>(
        arena_->Allocate(count * sizeof(View::Member), alignof(View::Member)));
    uint32_t i = 0;
    for (const Link* link = head; link != nullptr; link = link->next, ++i) {
      members[i].key = link->key;
      members[i].value = link->value;
    }
    out->members = members;
    out->member_count = count;
    return Status::OK();
  }

  Status ParseArray(View* out) {
    ++pos_;  // '['
    out->type = View::Type::kArray;
    SkipWhitespace();
    if (Consume(']')) return Status::OK();
    Link* head = nullptr;
    Link* tail = nullptr;
    uint32_t count = 0;
    for (;;) {
      Link* link = NewLink();
      QLEARN_RETURN_IF_ERROR(ParseValue(&link->value));
      if (tail == nullptr) {
        head = tail = link;
      } else {
        tail->next = link;
        tail = link;
      }
      ++count;
      SkipWhitespace();
      if (Consume(']')) break;
      if (!Consume(',')) return Error("expected ',' or ']' in array");
    }
    auto* elements = static_cast<View*>(
        arena_->Allocate(count * sizeof(View), alignof(View)));
    uint32_t i = 0;
    for (const Link* link = head; link != nullptr; link = link->next, ++i) {
      elements[i] = link->value;
    }
    out->elements = elements;
    out->element_count = count;
    return Status::OK();
  }

  Status ParseString(View* out) {
    if (!Consume('"')) return Error("expected '\"'");
    out->type = View::Type::kString;
    // Fast path: no escapes before the closing quote means the leaf can be
    // a view straight into the input bytes, no copy.
    const size_t start = pos_;
    size_t scan = start;
    while (scan < text_.size() && text_[scan] != '"' &&
           text_[scan] != '\\') {
      ++scan;
    }
    if (scan < text_.size() && text_[scan] == '"') {
      out->string_value = text_.substr(start, scan - start);
      pos_ = scan + 1;
      return Status::OK();
    }
    // Slow path: find the real end (escape-aware) to bound the decoded
    // length, then decode into the arena.
    size_t end = scan;
    while (end < text_.size() && text_[end] != '"') {
      end += text_[end] == '\\' ? 2 : 1;
    }
    const size_t bound = std::min(end, text_.size()) - start;
    char* decoded =
        static_cast<char*>(arena_->Allocate(bound, alignof(char)));
    size_t length = 0;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') {
        out->string_value = std::string_view(decoded, length);
        return Status::OK();
      }
      if (c != '\\') {
        decoded[length++] = c;
        continue;
      }
      if (pos_ >= text_.size()) return Error("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"':
        case '\\':
        case '/':
          decoded[length++] = esc;
          break;
        case 'b':
          decoded[length++] = '\b';
          break;
        case 'f':
          decoded[length++] = '\f';
          break;
        case 'n':
          decoded[length++] = '\n';
          break;
        case 'r':
          decoded[length++] = '\r';
          break;
        case 't':
          decoded[length++] = '\t';
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return Error("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code += static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code += static_cast<unsigned>(h - 'a') + 10;
            } else if (h >= 'A' && h <= 'F') {
              code += static_cast<unsigned>(h - 'A') + 10;
            } else {
              return Error("invalid \\u escape digit");
            }
          }
          // The canonical writers only \u-escape control characters;
          // non-ASCII passes through as raw UTF-8 bytes.
          if (code >= 0x80) return Error("\\u escape above 0x7f unsupported");
          decoded[length++] = static_cast<char>(code);
          break;
        }
        default:
          return Error("invalid escape");
      }
    }
    return Error("unterminated string");
  }

  Status ParseBool(View* out) {
    out->type = View::Type::kBool;
    if (text_.compare(pos_, 4, "true") == 0) {
      out->bool_value = true;
      pos_ += 4;
      return Status::OK();
    }
    if (text_.compare(pos_, 5, "false") == 0) {
      out->bool_value = false;
      pos_ += 5;
      return Status::OK();
    }
    return Error("expected 'true' or 'false'");
  }

  Status ParseUInt(View* out) {
    out->type = View::Type::kUInt;
    const size_t start = pos_;
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
      const unsigned digit = static_cast<unsigned>(text_[pos_] - '0');
      if (out->uint_value > (UINT64_MAX - digit) / 10) {
        return Error("integer overflow");
      }
      out->uint_value = out->uint_value * 10 + digit;
      ++pos_;
    }
    if (pos_ == start) return Error("expected digits");
    if (text_[start] == '0' && pos_ - start > 1) {
      return Error("leading zero in integer");
    }
    return Status::OK();
  }

  std::string_view text_;
  Arena* arena_;
  size_t pos_ = 0;
  uint32_t depth_ = 0;  ///< containers open at pos_
};

}  // namespace

Arena::Arena(size_t slab_bytes) : slab_bytes_(slab_bytes) {}

Arena::~Arena() {
  for (const Slab& slab : slabs_) delete[] slab.data;
}

void* Arena::Allocate(size_t bytes, size_t align) {
  for (;;) {
    if (active_ < slabs_.size()) {
      const Slab& slab = slabs_[active_];
      const size_t aligned = (used_ + (align - 1)) & ~(align - 1);
      if (aligned + bytes <= slab.size) {
        used_ = aligned + bytes;
        return slab.data + aligned;
      }
      // Move on; any tail left in this slab is reclaimed at the next Reset.
      if (active_ + 1 < slabs_.size()) {
        ++active_;
        used_ = 0;
        continue;
      }
    }
    // Oversized requests get a dedicated slab so one huge payload cannot
    // force every subsequent slab to be huge.
    const size_t size = std::max(slab_bytes_, bytes + align);
    slabs_.push_back(Slab{new char[size], size});
    active_ = slabs_.size() - 1;
    used_ = 0;
  }
}

void Arena::Reset() {
  active_ = 0;
  used_ = 0;
}

size_t Arena::CapacityBytes() const {
  size_t total = 0;
  for (const Slab& slab : slabs_) total += slab.size;
  return total;
}

common::Result<const View*> ParseInto(std::string_view text, Arena* arena) {
  return Parser(text, arena).ParseDocument();
}

void AppendUInt(uint64_t value, std::string* out) {
  char buffer[20];  // UINT64_MAX is 20 digits
  const auto [end, ec] = std::to_chars(buffer, buffer + sizeof(buffer), value);
  out->append(buffer, static_cast<size_t>(end - buffer));
}

void AppendView(const View& value, std::string* out) {
  switch (value.type) {
    case View::Type::kBool:
      *out += value.bool_value ? "true" : "false";
      break;
    case View::Type::kUInt:
      AppendUInt(value.uint_value, out);
      break;
    case View::Type::kString:
      AppendEscaped(value.string_value, out);
      break;
    case View::Type::kArray:
      out->push_back('[');
      for (uint32_t i = 0; i < value.element_count; ++i) {
        if (i > 0) out->push_back(',');
        AppendView(value.elements[i], out);
      }
      out->push_back(']');
      break;
    case View::Type::kObject:
      out->push_back('{');
      for (uint32_t i = 0; i < value.member_count; ++i) {
        if (i > 0) out->push_back(',');
        AppendEscaped(value.members[i].key, out);
        out->push_back(':');
        AppendView(value.members[i].value, out);
      }
      out->push_back('}');
      break;
  }
}

void AppendEscaped(std::string_view text, std::string* out) {
  out->push_back('"');
  for (const char c : text) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\b':
        *out += "\\b";
        break;
      case '\f':
        *out += "\\f";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\r':
        *out += "\\r";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          *out += buffer;
        } else {
          out->push_back(c);  // UTF-8 bytes pass through verbatim
        }
    }
  }
  out->push_back('"');
}

void AppendUInts(const std::vector<uint64_t>& ids, std::string* out) {
  out->push_back('[');
  for (size_t i = 0; i < ids.size(); ++i) {
    if (i > 0) out->push_back(',');
    AppendUInt(ids[i], out);
  }
  out->push_back(']');
}

const View* Find(const View& object, std::string_view key, uint64_t* seen) {
  for (uint32_t i = 0; i < object.member_count; ++i) {
    if (object.members[i].key == key) {
      // Members past the 64-bit mask cannot be marked seen; a shift by
      // >= 64 is UB, and CheckAllKeysKnown rejects such oversized objects
      // regardless, so just skip the bookkeeping.
      if (i < 64) *seen |= uint64_t{1} << i;
      return &object.members[i].value;
    }
  }
  return nullptr;
}

common::Status CheckAllKeysKnown(const View& object, uint64_t seen,
                                 std::string_view what) {
  // The bitmask covers 64 members; every canonical message shape is far
  // smaller, so anything past that is unknown-key territory by definition.
  for (uint32_t i = 0; i < object.member_count; ++i) {
    if (i >= 64 || !(seen & (uint64_t{1} << i))) {
      return common::Status::ParseError(
          "json: unknown key \"" + std::string(object.members[i].key) +
          "\" in " + std::string(what));
    }
  }
  return common::Status::OK();
}

common::Result<std::string_view> ToStringView(const View* value,
                                              std::string_view what) {
  if (value == nullptr || value->type != View::Type::kString) {
    return common::Status::ParseError("json: missing or non-string \"" +
                                      std::string(what) + "\"");
  }
  return value->string_value;
}

common::Result<uint64_t> ToUInt(const View* value, std::string_view what) {
  if (value == nullptr || value->type != View::Type::kUInt) {
    return common::Status::ParseError("json: missing or non-integer \"" +
                                      std::string(what) + "\"");
  }
  return value->uint_value;
}

common::Result<bool> ToBool(const View* value, std::string_view what) {
  if (value == nullptr || value->type != View::Type::kBool) {
    return common::Status::ParseError("json: missing or non-boolean \"" +
                                      std::string(what) + "\"");
  }
  return value->bool_value;
}

}  // namespace json
}  // namespace service
}  // namespace qlearn
