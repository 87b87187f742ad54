// Recursive register value type.
//
// Registers in the *unbounded* shared-memory model hold full-information
// views: arbitrarily nested structures built from process inputs. `Value`
// models exactly that: bottom (⊥), an unsigned integer, a byte string, or a
// vector of values. Values are totally ordered (lexicographic over a kind
// tag), hashable, and printable, so they can be used as set/map keys when
// enumerating protocol configurations.
//
// A Value is an immutable handle. ⊥ and integers live inline; a byte string
// or vector lives in one shared payload that also caches the structural
// hash, computed once when the value is built. Copying a Value is therefore
// O(1) (a reference-count bump, nothing at all for ⊥ and integers), `hash()`
// is O(1), and `==` settles at once when two values share a payload or their
// cached hashes differ. Nothing writes a payload after construction, so
// threads may copy and read the same Value without locks; a changed view is
// a new Value.
#pragma once

#include <compare>
#include <cstdint>
#include <initializer_list>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

namespace bsr {

/// A value storable in a simulated register.
///
/// Bounded registers only accept `Value::u64` payloads small enough for the
/// declared bit width; unbounded registers accept any Value.
class Value {
 public:
  enum class Kind { Bottom, U64, Bytes, Vec };

  /// ⊥ — the initial content of registers, and "no value" in views.
  Value() noexcept : kind_(Kind::Bottom) {}
  Value(std::uint64_t v) noexcept : kind_(Kind::U64), u64_(v) {}
  Value(int v) : Value(static_cast<std::uint64_t>(v)) {
    usage_nonnegative(v);
  }
  Value(std::string bytes);
  Value(const char* bytes) : Value(std::string(bytes)) {}
  Value(std::vector<Value> vec);
  Value(std::initializer_list<Value> vec)
      : Value(std::vector<Value>(vec.begin(), vec.end())) {}

  Value(const Value&) = default;
  Value& operator=(const Value&) = default;
  /// A moved-from Value is ⊥.
  Value(Value&& other) noexcept
      : kind_(other.kind_),
        u64_(other.u64_),
        payload_(std::move(other.payload_)) {
    other.kind_ = Kind::Bottom;
    other.u64_ = 0;
  }
  Value& operator=(Value&& other) noexcept {
    if (this != &other) {
      kind_ = other.kind_;
      u64_ = other.u64_;
      payload_ = std::move(other.payload_);
      other.kind_ = Kind::Bottom;
      other.u64_ = 0;
    }
    return *this;
  }

  /// Named constructor for ⊥, for readability at call sites.
  [[nodiscard]] static Value bottom() noexcept { return Value(); }
  /// A vector of `n` copies of `fill` (defaults to ⊥).
  [[nodiscard]] static Value vec_of(std::size_t n, const Value& fill = Value());

  [[nodiscard]] Kind kind() const noexcept { return kind_; }
  [[nodiscard]] bool is_bottom() const noexcept { return kind_ == Kind::Bottom; }
  [[nodiscard]] bool is_u64() const noexcept { return kind_ == Kind::U64; }
  [[nodiscard]] bool is_bytes() const noexcept { return kind_ == Kind::Bytes; }
  [[nodiscard]] bool is_vec() const noexcept { return kind_ == Kind::Vec; }

  /// Integer payload; throws UsageError if not a U64.
  [[nodiscard]] std::uint64_t as_u64() const;
  /// Byte-string payload; throws UsageError if not Bytes.
  [[nodiscard]] const std::string& as_bytes() const;
  /// Vector payload; throws UsageError if not a Vec. Copies of a Value
  /// return the same vector.
  [[nodiscard]] const std::vector<Value>& as_vec() const;

  /// Vector element access; throws UsageError if not a Vec or out of range.
  [[nodiscard]] const Value& at(std::size_t i) const;

  /// Number of bits needed to store this value in a bounded register
  /// (0 for the u64 value 0). Throws UsageError for non-U64 values, which
  /// never fit in a bounded register.
  [[nodiscard]] int bit_width() const;

  friend bool operator==(const Value& a, const Value& b) noexcept;
  friend std::strong_ordering operator<=>(const Value& a, const Value& b) noexcept;

  /// Stable structural hash (suitable for unordered containers). O(1):
  /// composite values cache it in their payload.
  [[nodiscard]] std::size_t hash() const noexcept;

  /// Human-readable rendering, e.g. `[⊥, 3, "ab", [0, 1]]`.
  [[nodiscard]] std::string str() const;

 private:
  struct Payload;  // bytes or vector plus its cached hash (value.cpp)

  static void usage_nonnegative(int v);

  Kind kind_;
  std::uint64_t u64_ = 0;                  // U64 only
  std::shared_ptr<const Payload> payload_;  // Bytes and Vec only
};

std::ostream& operator<<(std::ostream& os, const Value& v);

/// Builds a vector Value from the given elements without materializing an
/// initializer_list (whose backing array miscompiles inside coroutines on
/// GCC 12). Prefer this over `Value{...}` in any coroutine body.
template <class... Ts>
[[nodiscard]] Value make_vec(Ts&&... xs) {
  std::vector<Value> v;
  v.reserve(sizeof...(xs));
  (v.emplace_back(Value(std::forward<Ts>(xs))), ...);
  return Value(std::move(v));
}

struct ValueHash {
  std::size_t operator()(const Value& v) const noexcept { return v.hash(); }
};

}  // namespace bsr
