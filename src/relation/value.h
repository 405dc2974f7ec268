#ifndef INCOGNITO_RELATION_VALUE_H_
#define INCOGNITO_RELATION_VALUE_H_

#include <cstdint>
#include <string>
#include <variant>

namespace incognito {

/// Logical column types supported by the engine.
enum class DataType {
  kInt64,
  kDouble,
  kString,
};

/// Returns a human-readable type name ("int64", "double", "string").
const char* DataTypeName(DataType type);

/// A dynamically-typed cell value used at table ingest and export
/// boundaries. Inside the engine all columns are dictionary-encoded to dense
/// int32 codes, so Value only appears on the slow path (loading, printing,
/// building hierarchies).
class Value {
 public:
  /// Constructs a NULL value.
  Value() : rep_(Null{}) {}
  /// Constructs typed values. Implicit conversion is intentional here:
  /// Value is a sum type designed to absorb literals at ingest.
  Value(int64_t v) : rep_(v) {}          // NOLINT(google-explicit-constructor)
  Value(double v) : rep_(v) {}           // NOLINT(google-explicit-constructor)
  Value(std::string v) : rep_(std::move(v)) {}  // NOLINT
  Value(const char* v) : rep_(std::string(v)) {}  // NOLINT

  bool is_null() const { return std::holds_alternative<Null>(rep_); }
  bool is_int64() const { return std::holds_alternative<int64_t>(rep_); }
  bool is_double() const { return std::holds_alternative<double>(rep_); }
  bool is_string() const { return std::holds_alternative<std::string>(rep_); }

  /// Typed accessors; behaviour is undefined if the type does not match
  /// (checked with assert in debug builds via std::get).
  int64_t int64() const { return std::get<int64_t>(rep_); }
  double dbl() const { return std::get<double>(rep_); }
  const std::string& str() const { return std::get<std::string>(rep_); }

  /// Renders the value for display/CSV. NULL renders as the empty string;
  /// an integral double below 1e15 as "3.0", any other double in the
  /// shortest form that parses back to it (never as an integer).
  std::string ToString() const;

  /// Total order over values: NULL < int64/double (numeric order) < string
  /// (lexicographic). Mixed int64/double compare numerically. Every NaN is
  /// one value, equal to itself and ordered after all numbers.
  bool operator==(const Value& other) const;
  bool operator<(const Value& other) const;

  /// Hash consistent with operator==.
  size_t Hash() const;

 private:
  struct Null {
    bool operator==(const Null&) const { return true; }
  };
  std::variant<Null, int64_t, double, std::string> rep_;
};

/// Hash functor for use in unordered containers.
struct ValueHash {
  size_t operator()(const Value& v) const { return v.Hash(); }
};

}  // namespace incognito

#endif  // INCOGNITO_RELATION_VALUE_H_
