#include "util/value.h"

#include <functional>
#include <ostream>
#include <sstream>

#include "util/errors.h"

namespace bsr {

namespace {

// FNV-style structural combine.
constexpr std::size_t kHashSeed = 0xcbf29ce484222325ULL;

constexpr std::size_t mix(std::size_t h, std::size_t x) noexcept {
  return (h ^ x) * 0x100000001b3ULL;
}

constexpr std::size_t kind_hash(Value::Kind k) noexcept {
  return mix(kHashSeed, static_cast<std::size_t>(k));
}

}  // namespace

struct Value::Payload {
  std::size_t hash;
  std::string bytes;
  std::vector<Value> vec;
};

Value::Value(std::string bytes) : kind_(Kind::Bytes) {
  const std::size_t h =
      mix(kind_hash(Kind::Bytes), std::hash<std::string>{}(bytes));
  payload_ = std::make_shared<const Payload>(
      Payload{h, std::move(bytes), {}});
}

Value::Value(std::vector<Value> vec) : kind_(Kind::Vec) {
  std::size_t h = kind_hash(Kind::Vec);
  for (const Value& v : vec) h = mix(h, v.hash());
  payload_ = std::make_shared<const Payload>(Payload{h, {}, std::move(vec)});
}

Value Value::vec_of(std::size_t n, const Value& fill) {
  return Value(std::vector<Value>(n, fill));
}

std::uint64_t Value::as_u64() const {
  usage_check(kind_ == Kind::U64,
              [&] { return "Value::as_u64 on non-integer value " + str(); });
  return u64_;
}

const std::string& Value::as_bytes() const {
  usage_check(kind_ == Kind::Bytes,
              [&] { return "Value::as_bytes on non-bytes value " + str(); });
  return payload_->bytes;
}

const std::vector<Value>& Value::as_vec() const {
  usage_check(kind_ == Kind::Vec,
              [&] { return "Value::as_vec on non-vector value " + str(); });
  return payload_->vec;
}

const Value& Value::at(std::size_t i) const {
  const auto& v = as_vec();
  usage_check(i < v.size(), "Value::at index out of range");
  return v[i];
}

int Value::bit_width() const {
  usage_check(kind_ == Kind::U64, [&] {
    return "Value::bit_width: only integers fit in bounded registers, got " +
           str();
  });
  int w = 0;
  for (std::uint64_t x = u64_; x != 0; x >>= 1) ++w;
  return w;
}

void Value::usage_nonnegative(int v) {
  usage_check(v >= 0, "Value(int): negative values are not representable");
}

bool operator==(const Value& a, const Value& b) noexcept {
  if (a.kind_ != b.kind_) return false;
  switch (a.kind_) {
    case Value::Kind::Bottom: return true;
    case Value::Kind::U64: return a.u64_ == b.u64_;
    case Value::Kind::Bytes:
    case Value::Kind::Vec: {
      const Value::Payload& pa = *a.payload_;
      const Value::Payload& pb = *b.payload_;
      if (&pa == &pb) return true;
      if (pa.hash != pb.hash) return false;
      return a.kind_ == Value::Kind::Bytes ? pa.bytes == pb.bytes
                                           : pa.vec == pb.vec;
    }
  }
  return false;
}

std::strong_ordering operator<=>(const Value& a, const Value& b) noexcept {
  if (auto c = a.kind_ <=> b.kind_; c != 0) return c;
  switch (a.kind_) {
    case Value::Kind::Bottom: return std::strong_ordering::equal;
    case Value::Kind::U64: return a.u64_ <=> b.u64_;
    case Value::Kind::Bytes: return a.payload_->bytes <=> b.payload_->bytes;
    case Value::Kind::Vec: {
      if (a.payload_ == b.payload_) return std::strong_ordering::equal;
      const auto& av = a.payload_->vec;
      const auto& bv = b.payload_->vec;
      const std::size_t m = std::min(av.size(), bv.size());
      for (std::size_t i = 0; i < m; ++i) {
        if (auto c = av[i] <=> bv[i]; c != 0) return c;
      }
      return av.size() <=> bv.size();
    }
  }
  return std::strong_ordering::equal;
}

std::size_t Value::hash() const noexcept {
  switch (kind_) {
    case Kind::Bottom: return kind_hash(Kind::Bottom);
    case Kind::U64:
      return mix(kind_hash(Kind::U64), static_cast<std::size_t>(u64_));
    case Kind::Bytes:
    case Kind::Vec: return payload_->hash;
  }
  return 0;
}

std::string Value::str() const {
  std::ostringstream os;
  os << *this;
  return os.str();
}

std::ostream& operator<<(std::ostream& os, const Value& v) {
  switch (v.kind()) {
    case Value::Kind::Bottom: return os << "⊥";
    case Value::Kind::U64: return os << v.as_u64();
    case Value::Kind::Bytes: return os << '"' << v.as_bytes() << '"';
    case Value::Kind::Vec: {
      os << '[';
      bool first = true;
      for (const Value& x : v.as_vec()) {
        if (!first) os << ", ";
        first = false;
        os << x;
      }
      return os << ']';
    }
  }
  return os;
}

}  // namespace bsr
